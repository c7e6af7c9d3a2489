import base64
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import zoneroute.autodiff as ad
from zoneroute.autodiff import Tensor, make_rng
from zoneroute.errors import DomainError
from zoneroute.hexgrid import GeoPoint, GridSpec
from zoneroute.model import (
    DecodeResult,
    ModelConfig,
    ModelParams,
    decode,
    decode_tape,
    encode,
    gru_step,
    pointer_step,
    reinforce_loss,
    tour_log_prob,
)
from zoneroute.routegraph import RouteGraph, build_graph
from zoneroute import dataio, model, pipeline

import tape_reference
from tape_reference import gatv2_layer

CFG8 = ModelConfig(hidden_dim=8, dropout=0.0)


def tiny_graph(n=5, seed=0):
    routes = dataio.generate_synthetic(
        dataio.SynthConfig(n_routes=1, stops_min=n - 1, stops_max=n - 1, seed=seed))
    route = routes[0]
    spec = pipeline.default_grid_spec(routes)
    return route, build_graph(route, spec)


# --- parameters ---------------------------------------------------------------

def test_param_shapes_and_layout():
    params = ModelParams.init(CFG8, seed=0)
    names = params.names()
    assert names[0] == "zone_embed"
    assert params["zone_embed"].shape == (1024, 16)
    for l in (1, 2, 3):
        assert params[f"gat{l}.W_edge"].shape == (1, 8)
        assert params[f"gat{l}.attn"].shape == (8, 1)
    assert params["ptr.v"].shape == (8, 1)
    # deterministic init
    again = ModelParams.init(CFG8, seed=0)
    for n in names:
        assert np.array_equal(params[n].data, again[n].data)


@pytest.mark.parametrize("bad", [dict(hidden_dim=0), dict(hidden_dim=-5),
                                 dict(dropout=1.0), dict(dropout=-0.1),
                                 dict(dropout=float("nan"))])
def test_model_config_rejects_bad_values(bad):
    with pytest.raises(DomainError):
        ModelConfig(**bad)


def test_param_save_load_roundtrip(tmp_path):
    params = ModelParams.init(CFG8, seed=3)
    big = np.finfo(float).max
    # values a decimal round trip can get wrong; array_equal treats -0.0 as 0.0
    params["zone_embed"].data[0, :4] = [-0.0, 5e-324, big, -big]
    path = tmp_path / "m.json"
    params.save(path)
    back = ModelParams.load(path)
    assert back.config == params.config
    for n in params.names():
        assert back[n].data.tobytes() == params[n].data.tobytes()
        assert back[n].data.flags.writeable
    assert np.signbit(back["zone_embed"].data[0, 0])
    arrays = {n: params[n].data for n in params.names()}
    rebuilt = ModelParams.from_arrays(CFG8, arrays)
    assert all(np.array_equal(rebuilt[n].data, params[n].data) for n in params.names())
    arrays["ptr.v"] = arrays["ptr.v"].T
    with pytest.raises(DomainError):
        ModelParams.from_arrays(CFG8, arrays)


def test_param_save_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    ModelParams.init(CFG8, seed=3).save(path)
    before = path.read_bytes()
    encode = base64.b64encode
    calls = []

    def failing_encode(raw):
        calls.append(len(raw))
        if len(calls) == 5:
            raise RuntimeError("encoder failed")
        return encode(raw)

    monkeypatch.setattr(model.base64, "b64encode", failing_encode)
    with pytest.raises(RuntimeError):
        ModelParams.init(CFG8, seed=4).save(path)
    assert len(calls) == 5
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.json"]


# --- GATv2 ---------------------------------------------------------------------

def test_gatv2_matches_independent_recomputation():
    # 3 nodes, tiny hand weights; recompute scores/attention directly
    d = 4
    cfg = ModelConfig(hidden_dim=d, dropout=0.0)
    params = ModelParams.init(cfg, seed=1)
    rng = np.random.default_rng(2)
    H = Tensor(rng.standard_normal((3, d)))
    edge_w = rng.uniform(0, 1, size=(3, 3))
    np.fill_diagonal(edge_w, 0.0)
    out = gatv2_layer(H, edge_w, params, layer=2)

    W_src = params["gat2.W_src"].data
    W_dst = params["gat2.W_dst"].data
    W_edge = params["gat2.W_edge"].data
    a = params["gat2.attn"].data
    Hs, Hd = H.data @ W_src, H.data @ W_dst
    expected = np.zeros((3, d))
    for i in range(3):
        scores = np.empty(3)
        for j in range(3):
            z = Hd[i] + Hs[j] + edge_w[j, i] * W_edge[0]
            z = np.where(z > 0, z, 0.2 * z)  # LeakyReLU(0.2)
            scores[j] = z @ a[:, 0]
        alpha = np.exp(scores - scores.max())
        alpha /= alpha.sum()
        expected[i] = alpha @ Hs
    assert np.allclose(out.data, expected, atol=1e-12)


def _gatv2_by_gathers(H, edge_w, params, layer):
    """The generic-primitive GATv2 layer: n^2 gathered rows per side."""
    n = H.shape[0]
    Hs = ad.matmul(H, params[f"gat{layer}.W_src"])
    Hd = ad.matmul(H, params[f"gat{layer}.W_dst"])
    idx_i, idx_j = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    pre = ad.add(ad.add(ad.gather_rows(Hd, idx_i), ad.gather_rows(Hs, idx_j)),
                 ad.mul(Tensor(edge_w[idx_j, idx_i].reshape(-1, 1)), params[f"gat{layer}.W_edge"]))
    scores = ad.reshape(ad.matmul(ad.leaky_relu(pre, 0.2), params[f"gat{layer}.attn"]), (n, n))
    alpha = ad.exp(ad.masked_log_softmax(scores, np.ones((n, n), dtype=bool)))
    return ad.matmul(alpha, Hs)


def _gru_by_primitives(h, x, params):
    def gate(g, hh):
        return ad.add(ad.add(ad.matmul(x, params[f"gru.W_{g}"]), ad.matmul(hh, params[f"gru.U_{g}"])),
                      params[f"gru.b_{g}"])
    z = ad.sigmoid(gate("z", h))
    r = ad.sigmoid(gate("r", h))
    h_cand = ad.tanh(gate("h", ad.mul(r, h)))
    one_minus_z = ad.add(ad.scale(z, -1.0), Tensor(np.ones(z.shape)))
    return ad.add(ad.mul(one_minus_z, h), ad.mul(z, h_cand))


def _assert_same_values_and_grads(fused, generic, inputs, params):
    ps = inputs + params.as_list()
    out_f, out_g = fused(), generic()
    assert np.allclose(out_f.data, out_g.data, rtol=0, atol=1e-12)
    w = Tensor(make_rng(99).standard_normal(out_f.shape))
    grads_f = ad.backward(ad.tsum(ad.mul(fused(), w)), ps)
    grads_g = ad.backward(ad.tsum(ad.mul(generic(), w)), ps)
    for gf, gg in zip(grads_f, grads_g):
        assert np.allclose(gf, gg, rtol=0, atol=1e-12)


def test_fused_layers_match_generic_composition():
    n, d = 7, 8
    params = ModelParams.init(CFG8, seed=21)
    rng = make_rng(22)
    H = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    edge_w = rng.uniform(0, 1, size=(n, n))
    np.fill_diagonal(edge_w, 0.0)
    _assert_same_values_and_grads(lambda: gatv2_layer(H, edge_w, params, 2),
                                  lambda: _gatv2_by_gathers(H, edge_w, params, 2), [H], params)
    h = Tensor(rng.standard_normal((1, d)), requires_grad=True)
    x = Tensor(rng.standard_normal((1, d)), requires_grad=True)
    _assert_same_values_and_grads(lambda: gru_step(h, x, params),
                                  lambda: _gru_by_primitives(h, x, params), [h, x], params)


def test_encoder_permutation_equivariance():
    route, g = tiny_graph(n=6, seed=4)
    params = ModelParams.init(CFG8, seed=5)
    E = encode(g, params, training=False)
    perm = np.array([3, 0, 5, 1, 4, 2])
    gp = RouteGraph(n=g.n, features=g.features[perm],
                    zone_label_idx=g.zone_label_idx[perm],
                    edge_w=g.edge_w[np.ix_(perm, perm)])
    Ep = encode(gp, params, training=False)
    assert np.allclose(Ep.data, E.data[perm], atol=1e-9)


def test_encode_training_dropout_is_seeded():
    route, g = tiny_graph(n=5, seed=6)
    params = ModelParams.init(ModelConfig(hidden_dim=8, dropout=0.5), seed=7)
    e1 = encode(g, params, training=True, rng=make_rng(9))
    e2 = encode(g, params, training=True, rng=make_rng(9))
    e3 = encode(g, params, training=True, rng=make_rng(10))
    assert np.array_equal(e1.data, e2.data)
    assert not np.array_equal(e1.data, e3.data)


def test_training_tape_keeps_no_pair_sized_array():
    # the GATv2 pre-activation is (n, n, d), and the pointer's tanh is (n, d)
    # at every decode step; backward recomputes both instead of keeping them
    route, g = tiny_graph(n=60, seed=3)
    params = ModelParams.init(ModelConfig(hidden_dim=64, dropout=0.1), seed=0)
    pair_bytes = g.n * g.n * 64 * 8
    rng = make_rng(5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        E = encode(g, params, training=True, rng=rng)
        encoded = tracemalloc.get_traced_memory()[0] - base
        tape = decode_tape(E, route.start_index, params, greedy=False, rng=rng)
        decoded = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(tape[0]) == g.n == 60
    assert encoded < pair_bytes
    assert decoded < 2 * pair_bytes


def _traced_peak(run):
    """Peak bytes that tracemalloc sees `run()` allocate above what it keeps
    at the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_no_pass_at_paper_size_holds_a_pair_sized_array():
    # the GATv2 kernels stream the (n, n, d) pre-activation a block of target
    # rows at a time, in the forward and again in the backward
    route, g = tiny_graph(n=151, seed=3)
    params = ModelParams.init(ModelConfig(hidden_dim=64, dropout=0.1), seed=0)
    pair_bytes = g.n * g.n * 64 * 8

    def training_pass():
        rng = make_rng(5)
        E = encode(g, params, training=True, rng=rng)
        logp = decode_tape(E, route.start_index, params, greedy=False, rng=rng)[1]
        ad.backward(logp)

    assert g.n == 151
    assert _traced_peak(training_pass) < 3 / 4 * pair_bytes
    assert params["gat1.W_edge"].grad is not None
    assert _traced_peak(lambda: encode(g, params, training=False)) < pair_bytes / 2


def test_rollout_backward_keeps_no_step_stacked_pair_array():
    # the backward stacks a rollout's steps, but the pointer heads' (T, n, d)
    # gradient only in row blocks of about ad._GATV2_BLOCK_BYTES
    route, g = tiny_graph(n=100, seed=4)
    params = ModelParams.init(ModelConfig(hidden_dim=64, dropout=0.0), seed=0)
    E = encode(g, params, training=True, rng=make_rng(5))
    tour, logp = decode_tape(E, route.start_index, params, greedy=False, rng=make_rng(6))
    steps_pair_bytes = (g.n - 1) * g.n * 64 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        logp._backward(np.ones((1, 1)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert E.grad is not None and params["gru.W_z"].grad is not None
    assert peak < steps_pair_bytes / 2


def _graph_of_size(n, seed):
    """tiny_graph, or for n = 1 its start node alone."""
    if n > 1:
        return tiny_graph(n=n, seed=seed)
    route, g = tiny_graph(n=2, seed=seed)
    s = route.start_index
    return (SimpleNamespace(n=1, start_index=0),
            RouteGraph(n=1, features=g.features[[s]], zone_label_idx=g.zone_label_idx[[s]],
                       edge_w=np.zeros((1, 1))))


def _batch_tape(encode_fn, decode_fn, graphs, params, mode):
    """Tours, log-probs and the gradients of every parameter and of each E for
    a REINFORCE loss over two routes with two rollouts each, encoded in
    training mode."""
    rng = make_rng(3)
    Es, tours, log_probs = [], [], []
    for route, g in graphs:
        E = encode_fn(g, params, training=True, rng=rng)
        Es.append(E)
        for _ in range(2):
            if mode == "forced":
                others = [i for i in range(route.n) if i != route.start_index]
                forced = [route.start_index] + others[::-1]
                tour, lp = decode_fn(E, route.start_index, params, forced=forced)
            else:
                tour, lp = decode_fn(E, route.start_index, params,
                                     greedy=mode == "greedy", rng=rng)
            tours.append(tour)
            log_probs.append(lp)
    loss = reinforce_loss(log_probs, [3.0, 1.0, 2.5, 0.5], baseline=1.5)
    grads = ad.backward(loss, params.as_list() + Es)
    return tours, [lp.data for lp in log_probs], grads


def _summed_magnitudes(monkeypatch):
    """Makes `ad.accumulate_rows` also add, for each tensor it is called on,
    the largest entry of its contributions' summed absolute values: the scale
    of the rounding by which a sum of them in another order may differ."""
    magnitudes = {}
    accumulate_rows = ad.accumulate_rows

    def spy(t, right, left=None):
        rows = np.abs(right.reshape(len(right), -1))
        total = rows.sum(axis=0) if left is None else np.abs(left.reshape(len(right), -1)).T @ rows
        magnitudes[t.name] = magnitudes.get(t.name, 0.0) + total.max()
        accumulate_rows(t, right, left)

    monkeypatch.setattr(ad, "accumulate_rows", spy)
    return magnitudes


@pytest.mark.parametrize("n", [1, 2, 3, 11, 40, 151])
def test_fused_nodes_match_the_tape_composition(monkeypatch, n):
    # the forward has the tape's bits, and so do the gradients of E and of
    # every encoder parameter: the encoder's gradients cancel terms far
    # larger than themselves, so handing E its gradient in another order
    # moved zone_embed's by about 1e-6 of its largest |value|.  A decoder
    # weight sums its per-step contributions as one product, so its gradient
    # agrees to rounding, measured against the array's largest |value| plus
    # its terms' (at n = 151 without dropout some cancel terms 1e7 times larger)
    graphs = [_graph_of_size(n, seed=n), _graph_of_size(n, seed=n + 100)]
    magnitudes = _summed_magnitudes(monkeypatch)
    for dropout in (0.0, 0.2):
        params = ModelParams.init(ModelConfig(hidden_dim=8, dropout=dropout), seed=n)
        for mode in ("greedy", "sampled", "forced"):
            magnitudes.clear()
            tours, lps, grads = _batch_tape(model.encode, model._run_decoder,
                                            graphs, params, mode)
            ref_tours, ref_lps, ref_grads = _batch_tape(
                tape_reference.encode, tape_reference.run_decoder, graphs, params, mode)
            assert tours == ref_tours
            assert all(np.array_equal(a, b) for a, b in zip(lps, ref_lps))
            names = params.names() + ["E0", "E1"]
            for name, a, b in zip(names, grads, ref_grads):
                if name.startswith(("gru.", "ptr.", "dec.")):
                    scale = np.abs(b).max() + magnitudes.get(name, 0.0)
                    assert np.abs(a - b).max() <= 1e-10 * scale, (dropout, mode, name)
                else:
                    assert np.array_equal(a, b), (dropout, mode, name)
    if n == 11:
        # finite differences cannot resolve the gradients through the
        # encoder, whose output is nearly one vector; on spread embeddings
        # they resolve the fused decoder's
        E = Tensor(make_rng(5).standard_normal((n, 8)), requires_grad=True)

        def loss():
            rng = make_rng(3)
            log_probs = [model._run_decoder(E, start, params, greedy=False, rng=rng)[1]
                         for start in (0, 0, 4, 4)]
            return reinforce_loss(log_probs, [3.0, 1.0, 2.5, 0.5], baseline=1.5)

        decoder = [p for p in params.as_list() if p.name.startswith(("gru.", "ptr.", "dec."))]
        assert ad.grad_check(loss, decoder + [E]) < 1e-5


# --- decoding -------------------------------------------------------------------

def test_decode_valid_permutation_and_log_prob():
    route, g = tiny_graph(n=7, seed=8)
    params = ModelParams.init(CFG8, seed=9)
    E = encode(g, params, training=False)
    res = decode(E, route.start_index, route.travel, params, greedy=True)
    assert sorted(res.tour) == list(range(route.n))
    assert res.tour[0] == route.start_index
    assert res.log_prob <= 0.0
    # forced log-prob of the same tour agrees
    lp = tour_log_prob(E, res.tour, params)
    assert lp.item() == pytest.approx(res.log_prob, rel=1e-12)


def test_decode_sampled_matches_enumerated_probabilities():
    # n = 3: two possible suffix orders; compare frequencies to exact probs
    route, g = tiny_graph(n=3, seed=10)
    params = ModelParams.init(CFG8, seed=11)
    E = encode(g, params, training=False)
    s = route.start_index
    others = [i for i in range(3) if i != s]
    tours = [[s, others[0], others[1]], [s, others[1], others[0]]]
    probs = np.array([np.exp(tour_log_prob(E, t, params).item()) for t in tours])
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    draws = 4000
    rng = make_rng(12)
    count0 = 0
    for _ in range(draws):
        tour, _ = decode_tape(E, s, params, greedy=False, rng=rng)
        count0 += tour == tours[0]
    p = probs[0]
    sigma = np.sqrt(draws * p * (1 - p))
    assert abs(count0 - draws * p) <= 3 * sigma


def test_pointer_step_masking():
    route, g = tiny_graph(n=5, seed=13)
    params = ModelParams.init(CFG8, seed=14)
    E = encode(g, params, training=False)
    h = ad.tanh(ad.matmul(ad.tmean(E, axis=0), params["dec.W_init"]))
    visited = np.array([True, False, True, False, False])
    logp = pointer_step(h, E, visited, params)
    probs = np.exp(logp.data[0])
    assert probs[visited].sum() == 0.0
    assert probs[~visited].sum() == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        pointer_step(h, E, np.ones(5, dtype=bool), params)


def test_greedy_ties_break_to_lowest_index():
    # identical unvisited nodes produce identical logits; argmax -> lowest
    route, g = tiny_graph(n=4, seed=15)
    params = ModelParams.init(CFG8, seed=16)
    gg = RouteGraph(n=4, features=np.tile(g.features[:1], (4, 1)),
                    zone_label_idx=np.zeros(4, dtype=np.int64),
                    edge_w=np.zeros((4, 4)))
    E = encode(gg, params, training=False)
    tour, _ = decode_tape(E, 0, params, greedy=True)
    assert tour == [0, 1, 2, 3]


def test_reinforce_loss_hand_value():
    lps = [Tensor(np.array([[-1.0]])), Tensor(np.array([[-2.0]]))]
    loss = reinforce_loss(lps, [10.0, 4.0], baseline=6.0)
    assert loss.item() == pytest.approx(((10 - 6) * -1.0 + (4 - 6) * -2.0) / 2)
    with pytest.raises(DomainError):
        reinforce_loss([], [], 0.0)
    with pytest.raises(DomainError):
        reinforce_loss(lps, [1.0], 0.0)


@pytest.mark.parametrize("samples", [1, 2])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_training_draws_is_what_a_training_pass_takes(n, dropout, samples):
    # training moves the rng past a route's draws without making them
    _, g = _graph_of_size(n, seed=n)
    params = ModelParams.init(ModelConfig(hidden_dim=8, dropout=dropout), seed=3)
    used, skipped = make_rng(31), make_rng(31)
    E = encode(g, params, training=True, rng=used)
    for _ in range(samples):
        decode_tape(E, 0, params, greedy=False, rng=used)
    skipped.random(model.training_draws(n, params.config, samples))
    state = [repr(rng.bit_generator.state) for rng in (used, skipped)]
    assert state[0] == state[1]
    assert used.random(3).tobytes() == skipped.random(3).tobytes()


def test_reinforce_loss_share_of_a_batch_has_the_whole_batchs_gradients():
    # each rollout's gradient from its share of a batch's loss, divided by
    # the batch's rollout count, has the bits of the whole batch's loss
    values, lengths, baseline = [-1.3, -0.7, -2.9], [10.0, 4.0, 7.5], 6.1
    whole = [Tensor(np.array([[v]]), requires_grad=True) for v in values]
    ad.backward(reinforce_loss(whole, lengths, baseline))
    parts = [Tensor(np.array([[v]]), requires_grad=True) for v in values]
    for part in ([0], [1, 2]):
        ad.backward(reinforce_loss([parts[i] for i in part], [lengths[i] for i in part],
                                   baseline, rollouts=3))
    for a, b in zip(whole, parts):
        assert a.grad.tobytes() == b.grad.tobytes()


def test_decode_rejects_bad_start():
    route, g = tiny_graph(n=4, seed=17)
    params = ModelParams.init(CFG8, seed=18)
    E = encode(g, params, training=False)
    with pytest.raises(DomainError):
        decode_tape(E, 9, params, greedy=True)
    with pytest.raises(DomainError):
        decode_tape(E, 0, params, greedy=False, rng=None)
