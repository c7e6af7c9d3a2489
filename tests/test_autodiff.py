import os

import numpy as np
import pytest

import zoneroute.autodiff as ad
from zoneroute.autodiff import AdamState, Tensor, adam_step, backward, grad_check, make_rng
from zoneroute.errors import DomainError, NumericError

import tape_reference


def rand(shape, seed):
    return Tensor(make_rng(seed).standard_normal(shape), requires_grad=True)


# --- primitive gradient checks ----------------------------------------------

def check(f, params, tol=1e-6, **kw):
    assert grad_check(f, params, **kw) < tol


def test_matmul_grad():
    a, b = rand((3, 4), 1), rand((4, 2), 2)
    check(lambda: ad.tsum(ad.matmul(a, b)), [a, b])


def test_matmul_outer_product_structure():
    # d(sum(W x)) / dW = 1 . x^T  replicated per output row
    W, x = rand((2, 2), 3), rand((2, 2), 4)
    g = backward(ad.tsum(ad.matmul(W, x)), [W])[0]
    expected = np.ones((2, 2)) @ x.data.T
    assert np.allclose(g, expected, atol=1e-12)


def test_add_mul_broadcast_grads():
    a, b = rand((3, 4), 5), rand((1, 4), 6)
    check(lambda: ad.tsum(ad.add(a, b)), [a, b])
    check(lambda: ad.tsum(ad.mul(a, b)), [a, b])


def test_add_of_three_terms_is_one_node_equal_to_the_chain():
    a, b, c = rand((3, 4), 5), rand((1, 4), 6), rand((3, 1), 9)
    check(lambda: ad.tsum(ad.add(a, b, c)), [a, b, c])
    summed = ad.add(a, b, c)
    assert summed._parents == (a, b, c)
    assert np.array_equal(summed.data, ad.add(ad.add(a, b), c).data)
    grads = backward(ad.tsum(ad.mul(summed, summed)), [a, b, c])
    chained = ad.add(ad.add(a, b), c)
    chain_grads = backward(ad.tsum(ad.mul(chained, chained)), [a, b, c])
    for g, h in zip(grads, chain_grads):
        assert np.array_equal(g, h)
    assert ad.add(a) is a


def test_scale_concat_gather_reshape_transpose():
    a, b = rand((3, 2), 7), rand((3, 3), 8)
    check(lambda: ad.tsum(ad.scale(a, -2.5)), [a])
    check(lambda: ad.tsum(ad.concat_cols(a, b)), [a, b])
    check(lambda: ad.tsum(ad.gather_rows(b, [2, 0, 2])), [b])
    check(lambda: ad.tsum(ad.reshape(a, (2, 3))), [a])
    check(lambda: ad.tsum(ad.transpose(a)), [a])


def test_pick_grad_and_value():
    a = rand((2, 5), 20)
    assert ad.pick(a, 1, 3).item() == a.data[1, 3]
    check(lambda: ad.scale(ad.pick(a, 1, 3), 2.0), [a])
    g = backward(ad.pick(a, 0, 4), [a])[0]
    expected = np.zeros((2, 5))
    expected[0, 4] = 1.0
    assert np.array_equal(g, expected)


def test_gatv2_scores_grad():
    n, d = 4, 3
    Hd, Hs = rand((n, d), 21), rand((n, d), 22)
    W_edge, attn = rand((1, d), 23), rand((d, 1), 24)
    edge_t = make_rng(25).uniform(0, 1, (n, n))
    weights = Tensor(make_rng(26).standard_normal((n, n)))
    check(lambda: ad.tsum(ad.mul(tape_reference.gatv2_scores(Hd, Hs, W_edge, attn, edge_t), weights)),
          [Hd, Hs, W_edge, attn])
    with pytest.raises(DomainError):
        tape_reference.gatv2_scores(Hd, Hs, W_edge, attn, edge_t[:3])


def test_gru_cell_grad():
    d = 3
    h, x = rand((1, d), 27), rand((1, d), 28)
    ps = [rand((d, d) if k < 2 else (1, d), 30 + 3 * gate + k)
          for gate in range(3) for k in range(3)]
    weights = Tensor(make_rng(40).standard_normal((1, d)))
    check(lambda: ad.tsum(ad.mul(ad.gru_cell(h, x, *ps), weights)), [h, x] + ps)


def test_pointer_logits_grad():
    keys, q, v = rand((5, 3), 41), rand((1, 3), 42), rand((3, 1), 43)
    weights = Tensor(make_rng(44).standard_normal((1, 5)))
    out = ad.pointer_logits(keys, q, v)
    assert out.shape == (1, 5)
    assert np.allclose(out.data, (np.tanh(keys.data + q.data) @ v.data).T, atol=1e-15)
    check(lambda: ad.tsum(ad.mul(ad.pointer_logits(keys, q, v), weights)), [keys, q, v])
    with pytest.raises(DomainError):
        ad.pointer_logits(keys, v, v)


def _gatv2_single_pass(Hd, Hs, w_edge, attn, edge_t, g):
    """GATv2 scores and the gradients of Hd, Hs, W_edge and attn for the output
    gradient g, in one pass over a kept (n, n, d) pre-activation."""
    n, d = Hd.shape
    slope = 0.2
    act = Hd[:, None, :] + Hs[None, :, :]
    buf = edge_t[:, :, None] * w_edge[0]
    act += buf
    np.multiply(act, slope, out=buf)
    np.maximum(act, buf, out=act)
    out = (act.reshape(n * n, d) @ attn).reshape(n, n)
    a = attn[:, 0]
    gpre = (act > 0) * ((1.0 - slope) * a)
    gpre += slope * a
    gpre *= g[:, :, None]
    return [out, gpre.sum(axis=1), gpre.sum(axis=0),
            edge_t.reshape(1, n * n) @ gpre.reshape(n * n, d),
            (g.reshape(1, n * n) @ act.reshape(n * n, d)).T]


@pytest.mark.parametrize("n, d, block_bytes, blocks", [
    (1, 4, None, 1), (2, 4, None, 1), (3, 5, None, 1),
    (22, 64, None, 1),              # the longest route that is one block at the default budget
    (7, 3, 1, 7),                   # one row per block
    (7, 3, 2 * 8 * 7 * 3, 4),       # blocks of 2, 2, 2 and 1 rows
    (40, 64, None, 4),              # blocks of 12, 12, 12 and 4 rows at the default budget
])
def test_gatv2_kernels_keep_one_pass_bits_in_one_block_and_agree_across_blocks(
        monkeypatch, n, d, block_bytes, blocks):
    if block_bytes is not None:
        monkeypatch.setattr(ad, "_GATV2_BLOCK_BYTES", block_bytes)
    assert -(-n // ad.block_rows(8 * n * d)) == blocks
    Hd, Hs = rand((n, d), 60), rand((n, d), 61)
    W_edge, attn = rand((1, d), 62), rand((d, 1), 63)
    # a transposed view, as the encoder passes it
    edge_t = make_rng(64).uniform(0, 1, (n, n)).T
    g = make_rng(65).standard_normal((n, n))

    def scores_and_grads():
        out = tape_reference.gatv2_scores(Hd, Hs, W_edge, attn, edge_t)
        return [out.data] + backward(ad.tsum(ad.mul(out, Tensor(g))), [Hd, Hs, W_edge, attn])

    got = scores_and_grads()
    expected = _gatv2_single_pass(Hd.data, Hs.data, W_edge.data, attn.data, edge_t, g)
    if blocks == 1:
        for x, want in zip(got, expected):
            assert x.tobytes() == want.tobytes()
        return
    # the sums over the n^2 pairs are added block by block, so they keep
    # the one-pass values up to rounding, and their own bits from call to call
    for x, want in zip(got, expected):
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
    for x, again in zip(got, scores_and_grads()):
        assert x.tobytes() == again.tobytes()


@pytest.mark.parametrize("n, d, block_bytes", [
    (7, 3, 1),                   # one row per block
    (7, 3, 2 * 8 * 7 * 3),       # blocks of 2, 2, 2 and 1 rows
])
def test_blocked_gatv2_scores_are_bit_identical_to_one_pass(monkeypatch, n, d, block_bytes):
    # each score and each row of the Hd gradient belongs to one target row,
    # so splitting the rows into blocks leaves their bits as in one pass
    monkeypatch.setattr(ad, "_GATV2_BLOCK_BYTES", block_bytes)
    assert ad.block_rows(8 * n * d) < n
    Hd, Hs = rand((n, d), 60), rand((n, d), 61)
    W_edge, attn = rand((1, d), 62), rand((d, 1), 63)
    edge_t = make_rng(64).uniform(0, 1, (n, n)).T
    g = make_rng(65).standard_normal((n, n))
    out = tape_reference.gatv2_scores(Hd, Hs, W_edge, attn, edge_t)
    g_Hd = backward(ad.tsum(ad.mul(out, Tensor(g))), [Hd])[0]
    expected = _gatv2_single_pass(Hd.data, Hs.data, W_edge.data, attn.data, edge_t, g)
    assert out.data.tobytes() == expected[0].tobytes()
    assert g_Hd.tobytes() == expected[1].tobytes()


def test_gatv2_scores_grad_in_one_row_blocks(monkeypatch):
    monkeypatch.setattr(ad, "_GATV2_BLOCK_BYTES", 1)
    n, d = 5, 3
    Hd, Hs = rand((n, d), 66), rand((n, d), 67)
    W_edge, attn = rand((1, d), 68), rand((d, 1), 69)
    edge_t = make_rng(74).uniform(0, 1, (n, n)).T
    weights = Tensor(make_rng(75).standard_normal((n, n)))
    check(lambda: ad.tsum(ad.mul(tape_reference.gatv2_scores(Hd, Hs, W_edge, attn, edge_t), weights)),
          [Hd, Hs, W_edge, attn])


@pytest.mark.parametrize("n", [1, 2, 3, 40])
def test_pointer_logits_recomputed_tanh_is_bit_identical(n):
    d = 8
    keys, q, v = rand((n, d), 70), rand((1, d), 71), rand((d, 1), 72)
    g = make_rng(73).standard_normal((1, n))
    out = ad.pointer_logits(keys, q, v)
    grads = backward(ad.tsum(ad.mul(out, Tensor(g))), [keys, q, v])
    t = np.tanh(keys.data + q.data)
    gu = (g.T @ v.data.T) * (1.0 - t * t)
    expected = [(t @ v.data).T, gu, gu.sum(axis=0, keepdims=True), t.T @ g.T]
    for got, want in zip([out.data] + grads, expected):
        assert got.tobytes() == want.tobytes()


def _spread(shape, seed):
    """Values of both signs spread over 12 orders of magnitude, so that any
    change in the order of a sum changes its bits."""
    rng = make_rng(seed)
    return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=shape)


@pytest.mark.parametrize("shape, steps, block_rows", [
    ((4, 4), 1, 3), ((4, 4), 2, 3), ((4, 4), 3, 3), ((4, 4), 4, 3),  # below, at and past a block
    ((1, 4), 4, 3), ((4, 1), 7, 3), ((1, 1), 5, 3),
    ((64, 64), 8, None), ((64, 64), 9, None),   # at and just past the default block of 8
    ((1, 1), 12, None),  # one entry per row: numpy would sum 8 or more pairwise
])
@pytest.mark.parametrize("prior", [False, True])
@pytest.mark.parametrize("outer", [False, True])
def test_accumulate_rows_has_the_bits_of_one_accumulate_per_row(
        monkeypatch, shape, steps, block_rows, prior, outer):
    # accumulate_rows is one accumulate of one product, left.T @ right or
    # the column sums, whatever the block size, and agrees with one
    # accumulate per row to rounding
    if block_rows is not None:
        monkeypatch.setattr(ad, "_GATV2_BLOCK_BYTES", block_rows * 8 * shape[0] * shape[1])
    a, b = shape
    if outer:
        left, right = _spread((steps, 1, a), 80), _spread((steps, 1, b), 81)
    else:
        left, right = None, _spread((steps,) + shape, 81)
    _assert_rows_add_as_one_accumulate(shape, right, left, _spread(shape, 82) if prior else None)
    if not prior:
        # every contribution's first row is -0.0 (with `left`, its factor is)
        if outer:
            left[:, 0, 0] = -0.0
        else:
            right[:, 0] = -0.0
        _assert_rows_add_as_one_accumulate(shape, right, left, None)


def _assert_rows_add_as_one_accumulate(shape, right, left, prior):
    steps = len(right)
    rows = right.reshape(steps, -1)
    if left is None:
        total, per_row = rows.sum(axis=0), list(right)
    else:
        total, per_row = left.reshape(steps, -1).T @ rows, [x.T @ y for x, y in zip(left, right)]
    fast, one, slow = (Tensor(np.zeros(shape), requires_grad=True) for _ in range(3))
    if prior is not None:
        fast.grad, one.grad, slow.grad = prior, prior.copy(), prior.copy()
    ad.accumulate_rows(fast, right, left)
    ad.accumulate(one, total.reshape(shape))
    for c in per_row:
        ad.accumulate(slow, c)
    assert fast.grad.tobytes() == one.grad.tobytes()
    assert np.abs(fast.grad - slow.grad).max() <= 1e-12 * np.abs(slow.grad).max()


@pytest.mark.parametrize("steps, n", [(1, 5), (6, 5), (6, 40)])
def test_stacked_pointer_grad_has_each_steps_bits(steps, n):
    # a stacked (T, 1, d) @ (d, d)-style product gives every step the bits
    # of its own call, which one merged (T, d) GEMM would not
    d = 8
    keys, v = _spread((n, d), 83) * 1e-6, _spread((d, 1), 84) * 1e-6
    q, g = _spread((steps, 1, d), 85) * 1e-6, _spread((steps, 1, n), 86)
    stacked = ad.pointer_grad(g, keys, q, v)
    for t in range(steps):
        for got, want in zip(stacked, ad.pointer_grad(g[t], keys, q[t], v)):
            assert got[t].tobytes() == want.tobytes()


def _read_exactly(fd, size):
    out = b""
    while len(out) < size:
        chunk = os.read(fd, size - len(out))
        assert chunk, "pipe ended early"
        out += chunk
    return out


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_adam_steps_reach_a_process_forked_before_them():
    # the parameters' flat buffer is a shared mapping, so a worker forked
    # before training sees every step
    shapes = [(3, 4), (1, 4), (40, 8)]
    rng = make_rng(24)
    init = [rng.standard_normal(shape) for shape in shapes]
    params = [Tensor(x.copy(), requires_grad=True) for x in init]
    state = AdamState(params)
    go_r, go_w = os.pipe()
    seen_r, seen_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # after the parent's steps, the child reports what it sees
        try:
            _read_exactly(go_r, 1)
            os.write(seen_w, params[2].data.tobytes())
        finally:
            os._exit(0)
    for scale in (1e-3, 1e2, 1.0):
        np.concatenate([rng.standard_normal(shape).reshape(-1) * scale for shape in shapes],
                       out=state.grad)
        adam_step(state, lr=0.01)
    os.write(go_w, b"x")
    seen = _read_exactly(seen_r, params[2].data.nbytes)
    os.waitpid(pid, 0)
    for fd in (go_r, go_w, seen_r, seen_w):
        os.close(fd)
    assert seen == params[2].data.tobytes() != init[2].tobytes()


def test_first_gradient_write_is_a_copy():
    # add passes the same g to both parents; aliasing would let the second
    # accumulation change the first parent's gradient as well
    a, b = rand((2, 2), 45), rand((2, 2), 46)
    s = ad.add(a, b)
    loss = ad.tsum(ad.add(s, ad.mul(s, a)))
    ga, gb = backward(loss, [a, b])
    assert np.allclose(ga, 1.0 + a.data + s.data, atol=1e-12)
    assert np.allclose(gb, 1.0 + a.data, atol=1e-12)


def test_reductions():
    a = rand((4, 3), 9)
    check(lambda: ad.tsum(a), [a])
    check(lambda: ad.tsum(ad.tmean(a, axis=0)), [a])


def test_nonlinearities():
    a = rand((3, 5), 10)
    for op in (ad.relu, ad.leaky_relu, ad.elu, ad.tanh, ad.sigmoid, ad.exp):
        check(lambda op=op: ad.tsum(op(a)), [a])
    pos = Tensor(np.abs(a.data) + 0.5, requires_grad=True)
    check(lambda: ad.tsum(ad.log(pos)), [pos])


def test_layer_norm_grad():
    a, g, b = rand((4, 6), 11), rand((1, 6), 12), rand((1, 6), 13)
    check(lambda: ad.tsum(ad.layer_norm(a, g, b)), [a, g, b])


def test_masked_log_softmax_grad_and_values():
    a = rand((1, 6), 14)
    mask = np.array([[True, True, False, True, False, True]])
    out = ad.masked_log_softmax(a, mask)
    probs = np.exp(out.data[0])
    assert probs[~mask[0]].sum() == 0.0
    assert probs[mask[0]].sum() == pytest.approx(1.0, abs=1e-12)
    check(lambda: ad.tsum(ad.mul(ad.masked_log_softmax(a, mask),
                                 Tensor(mask.astype(float)))), [a])
    # an upstream gradient of 1.0 at every entry, masked ones too, passes
    # none to the masked entries
    (ga,) = backward(ad.tsum(out), [a])
    assert np.all(ga[~mask] == 0.0)
    assert np.allclose(ga[mask], 1.0 - mask.sum() * probs[mask[0]], atol=1e-12)


def test_dropout_modes():
    a = rand((50, 20), 15)
    # the identity adds no node: inference mode, or training at rate 0
    assert ad.dropout(a, 0.3, None, training=False) is a
    assert ad.dropout(a, 0.0, None, training=True) is a
    rng = make_rng(0)
    out = ad.dropout(a, 0.3, rng, training=True)
    kept = out.data != 0
    # inverted dropout rescales survivors by 1/(1-rate)
    assert np.allclose(out.data[kept], a.data[kept] / 0.7)
    assert 0.55 < kept.mean() < 0.85
    # same seed, same mask
    out2 = ad.dropout(a, 0.3, make_rng(0), training=True)
    assert np.array_equal(out2.data, ad.dropout(a, 0.3, make_rng(0), True).data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_data_raises_naming_the_tensor(bad):
    data = np.ones((2, 3))
    data[1, 2] = bad
    with pytest.raises(NumericError, match="gat1.W_edge"):
        Tensor(data, name="gat1.W_edge")
    with pytest.raises(NumericError, match="<unnamed>"):
        Tensor(data)


def test_backward_unreachable_param_gets_zeros():
    a, b = rand((2, 2), 16), rand((2, 2), 17)
    g = backward(ad.tsum(a), [a, b])
    assert np.allclose(g[0], 1.0)
    assert np.array_equal(g[1], np.zeros((2, 2)))
    # and so after a backward that reached it, not the gradient that one left
    a, b = Tensor(np.ones((1, 2)), requires_grad=True), Tensor(np.ones((1, 2)), requires_grad=True)
    backward(ad.tsum(ad.mul(a, b)), [a, b])
    g = backward(ad.tsum(a), [a, b])
    assert np.array_equal(g[0], np.ones((1, 2)))
    assert np.array_equal(g[1], np.zeros((1, 2)))


def test_grad_check_detects_corruption():
    # a deliberately wrong backward rule must be flagged loudly
    def bad_tanh(x):
        y = np.tanh(x.data)

        def bwd(g):
            ad.accumulate(x, g * (1.0 - 0.5 * y * y))  # wrong derivative

        return Tensor(y, requires_grad=True, parents=(x,), backward=bwd)

    a = rand((3, 3), 18)
    assert grad_check(lambda: ad.tsum(bad_tanh(a)), [a]) > 1e-2


@pytest.mark.parametrize("shape", [(1, 1), (1, 64), (7, 64), (151, 64)])
@pytest.mark.parametrize("axis", [0, 1])
def test_mean_kernel_has_the_bits_of_numpy_mean(shape, axis):
    x = make_rng(sum(shape) + axis).standard_normal(shape) * 1e3
    assert ad.mean(x, axis).tobytes() == x.mean(axis=axis, keepdims=True).tobytes()


# --- optimizer ----------------------------------------------------------------

def test_adam_first_step_is_lr_signed():
    p = Tensor(np.zeros((2, 3)))
    g = make_rng(19).standard_normal((2, 3)) * 5.0
    state = AdamState([p])
    before = p.data.copy()
    state.grad[...] = g.reshape(-1)
    adam_step(state, lr=0.01, max_grad_norm=1e9)
    delta = p.data - before
    # bias-corrected first step moves by ~lr against the gradient sign
    assert np.allclose(delta, -0.01 * np.sign(g), atol=1e-6)


@pytest.mark.parametrize("max_grad_norm", [1.0, 1e9, 0.0])  # clipping active, inactive, off
def test_flat_adam_has_the_bits_of_adam_per_parameter(max_grad_norm):
    shapes = [(3, 4), (1, 4), (4, 1), (1, 1), (40, 8)]
    rng = make_rng(23)
    init = [rng.standard_normal(shape) for shape in shapes]
    flat = [Tensor(x.copy(), requires_grad=True) for x in init]
    ref = [Tensor(x.copy(), requires_grad=True) for x in init]
    state, ref_state = AdamState(flat), tape_reference.AdamReference(ref)
    clipped = 0
    for scale in (1e-3, 1e2, 1e-2, 10.0, 1e-4, 1.0):
        grads = [rng.standard_normal(shape) * scale for shape in shapes]
        clipped += np.sqrt(sum((g ** 2).sum() for g in grads)) > max_grad_norm > 0
        np.concatenate([g.reshape(-1) for g in grads], out=state.grad)
        adam_step(state, lr=0.01, max_grad_norm=max_grad_norm)
        tape_reference.adam_step(ref, grads, ref_state, lr=0.01, max_grad_norm=max_grad_norm)
    assert 0 < clipped < 6 if max_grad_norm == 1.0 else clipped == 0
    for a, b in zip(flat, ref):
        assert np.array_equal(a.data, b.data)


def test_adam_step_rejects_a_parameter_whose_data_left_the_states_buffer():
    # the state updates one flat buffer whose views the parameters are; a
    # parameter whose data was reassigned would silently miss every step
    a, b = (Tensor(np.ones((2, 2)), requires_grad=True) for _ in range(2))
    state = AdamState([a, b])
    state.grad.fill(1.0)
    b.data = b.data.copy()  # no longer a view of the state's buffer
    with pytest.raises(DomainError, match="AdamState"):
        adam_step(state, lr=0.1)
    assert state.step == 0


def test_make_rng_deterministic():
    assert make_rng(42).integers(0, 1 << 30) == make_rng(42).integers(0, 1 << 30)
    assert make_rng(1).integers(0, 1 << 30) != make_rng(2).integers(0, 1 << 30)
    with pytest.raises(DomainError, match="non-negative"):
        make_rng(-1)
