"""Minimal reverse-mode automatic differentiation over dense 2-D float64 arrays.

Just enough machinery for the route policy: matmul, broadcast add/mul,
concat/gather/reshape/pick, the activations the model uses, masked
log-softmax, layer norm, and dropout.  Three fused primitives cover the
model's hot subgraphs in one node each, with hand-derived backwards:
`gatv2_scores` (the GATv2 pair scores, broadcast to n x n x d instead of
gathered), `gru_cell` (a whole GRU update) and `pointer_logits` (the
additive-attention pointer head); the first and last recompute their
largest intermediates in backward rather than keep them on the tape.  Every
primitive records its parents and a local backward closure; `backward`
walks the implicit tape in reverse topological order.  A finite-difference
gradient checker and an Adam step with global gradient-norm clipping round
the module out.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError

# finite stand-in for -inf so masked log-probabilities stay arithmetic-safe;
# exp(NEG_INF) underflows to exactly 0.0
NEG_INF = -1e30


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based (Philox) generator: replayable across runs and platforms."""
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


class Tensor:
    """A 2-D float64 array node on the implicit tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, name=""):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            arr = np.atleast_2d(arr)
            if arr.ndim != 2:
                raise DomainError(f"tensors are 2-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NumericError(f"non-finite values in tensor {name or '<unnamed>'}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(parents)
        self._backward = backward
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DomainError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={'yes' if self.requires_grad else 'no'}, name={self.name!r})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs(parents) -> bool:
    return any(p.requires_grad for p in parents)


def _result(data, parents, backward, name=""):
    if _needs(parents):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward, name=name)
    return Tensor(data, name=name)


def _accumulate(t: Tensor, g: np.ndarray):
    # the first write copies: g may be a view of another node's gradient
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum the gradient over axes that were broadcast in the forward pass."""
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


# ---------------------------------------------------------------------------
# primitives

def add(*terms) -> Tensor:
    """Broadcast sum of one or more terms in one node, left to right as a
    chain of two-term adds sums them; one term is returned as it is."""
    terms = tuple(_as_tensor(t) for t in terms)
    if len(terms) == 1:
        return terms[0]
    out = sum((t.data for t in terms[1:]), terms[0].data)

    def backward(g):
        for t in terms:
            _accumulate(t, _unbroadcast(g, t.shape))

    return _result(out, terms, backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _result(out, (a, b), backward)


def scale(a, c: float) -> Tensor:
    """Multiply by a constant scalar (the scalar is not differentiated)."""
    a = _as_tensor(a)
    c = float(c)

    def backward(g):
        _accumulate(a, g * c)

    return _result(a.data * c, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[1] != b.shape[0]:
        raise DomainError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _result(out, (a, b), backward)


def concat_cols(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[0] != b.shape[0]:
        raise DomainError(f"concat row mismatch {a.shape} vs {b.shape}")
    k = a.shape[1]

    def backward(g):
        _accumulate(a, g[:, :k])
        _accumulate(b, g[:, k:])

    return _result(np.hstack([a.data, b.data]), (a, b), backward)


def gather_rows(a, idx) -> Tensor:
    """Select rows of `a` by (possibly repeated) integer index."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        _accumulate(a, ga)

    return _result(a.data[idx], (a,), backward)


def pick(a, i: int, j: int) -> Tensor:
    """The single entry a[i, j] as a 1x1 tensor."""
    a = _as_tensor(a)
    i, j = int(i), int(j)

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[i, j] = g[0, 0]
        _accumulate(a, ga)

    return _result(a.data[i, j], (a,), backward)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    if int(np.prod(shape)) != a.data.size:
        raise DomainError(f"cannot reshape {a.shape} to {shape}")
    old = a.shape

    def backward(g):
        _accumulate(a, g.reshape(old))

    return _result(a.data.reshape(shape), (a,), backward)


def transpose(a) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        _accumulate(a, g.T)

    return _result(a.data.T, (a,), backward)


def tsum(a) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        _accumulate(a, np.full_like(a.data, g[0, 0]))

    return _result(a.data.sum(), (a,), backward)


def tmean(a, axis=None) -> Tensor:
    """Mean of all entries (axis=None -> 1x1) or over rows (axis=0 -> 1xk)."""
    a = _as_tensor(a)
    if axis is None:
        inv = 1.0 / a.data.size

        def backward(g):
            _accumulate(a, np.full_like(a.data, g[0, 0] * inv))

        return _result(a.data.mean(), (a,), backward)
    if axis != 0:
        raise DomainError("tmean supports axis=None or axis=0")
    inv = 1.0 / a.shape[0]

    def backward(g):
        _accumulate(a, np.repeat(g, a.shape[0], axis=0) * inv)

    return _result(a.data.mean(axis=0, keepdims=True), (a,), backward)


def _unary(a, fn, dfn):
    a = _as_tensor(a)
    out = fn(a.data)

    def backward(g):
        _accumulate(a, g * dfn(a.data, out))

    return _result(out, (a,), backward)


def relu(a) -> Tensor:
    return _unary(a, lambda x: np.maximum(x, 0.0), lambda x, y: (x > 0).astype(np.float64))


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    return _unary(a, lambda x: np.where(x > 0, x, slope * x),
                  lambda x, y: np.where(x > 0, 1.0, slope))


def elu(a) -> Tensor:
    """ELU with alpha = 1."""
    return _unary(a, lambda x: np.where(x > 0, x, np.expm1(x)),
                  lambda x, y: np.where(x > 0, 1.0, y + 1.0))


def tanh(a) -> Tensor:
    return _unary(a, np.tanh, lambda x, y: 1.0 - y * y)


def sigmoid(a) -> Tensor:
    return _unary(a, lambda x: 1.0 / (1.0 + np.exp(-x)), lambda x, y: y * (1.0 - y))


def exp(a) -> Tensor:
    return _unary(a, np.exp, lambda x, y: y)


def log(a) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0):
        raise NumericError("log of non-positive value")
    return _unary(a, np.log, lambda x, y: 1.0 / x)


def masked_log_softmax(a, mask) -> Tensor:
    """Row-wise log-softmax restricted to mask==True entries.

    Masked entries get log-probability NEG_INF (probability exactly 0) and
    receive zero gradient.
    """
    a = _as_tensor(a)
    mask = np.atleast_2d(np.asarray(mask, dtype=bool))
    if mask.shape != a.shape:
        raise DomainError(f"mask shape {mask.shape} != tensor shape {a.shape}")
    if not np.all(mask.any(axis=1)):
        raise DomainError("masked_log_softmax: a row has no unmasked entries")

    shifted = np.where(mask, a.data, -np.inf)
    row_max = shifted.max(axis=1, keepdims=True)
    z = np.where(mask, np.exp(a.data - row_max), 0.0)
    denom = z.sum(axis=1, keepdims=True)
    logp = np.where(mask, a.data - row_max - np.log(denom), NEG_INF)
    softmax = z / denom

    def backward(g):
        g_eff = np.where(mask, g, 0.0)
        _accumulate(a, g_eff - softmax * g_eff.sum(axis=1, keepdims=True))

    return _result(logp, (a,), backward)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean / unit variance, then apply gain and bias."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    k = a.shape[1]
    if gain.shape != (1, k) or bias.shape != (1, k):
        raise DomainError(f"layer_norm gain/bias must be (1, {k})")
    mu = a.data.mean(axis=1, keepdims=True)
    xc = a.data - mu
    var = (xc ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    y = xc * inv_std
    out = y * gain.data + bias.data

    def backward(g):
        gy = g * gain.data
        _accumulate(a, inv_std * (gy - gy.mean(axis=1, keepdims=True)
                                  - y * (gy * y).mean(axis=1, keepdims=True)))
        _accumulate(gain, (g * y).sum(axis=0, keepdims=True))
        _accumulate(bias, g.sum(axis=0, keepdims=True))

    return _result(out, (a, gain, bias), backward)


def dropout(a, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout; in inference mode, or at rate 0, `a` itself."""
    a = _as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate {rate} out of [0, 1)")
    if not training or rate == 0.0:
        return a
    if rng is None:
        raise DomainError("training-mode dropout requires an rng")
    keep = (rng.random(a.shape) >= rate) / (1.0 - rate)

    def backward(g):
        _accumulate(a, g * keep)

    return _result(a.data * keep, (a,), backward)


# ---------------------------------------------------------------------------
# fused primitives: one node and a hand-derived backward for a whole subgraph

# bytes of one row block of the GATv2 pre-activation: small enough that the
# block's elementwise passes stay in cache
_GATV2_BLOCK_BYTES = 256 * 1024
_GATV2_SLOPE = 0.2


def _gatv2_preact(Hd, Hs, w_edge, edge_t) -> np.ndarray:
    """LeakyReLU_0.2(Hd[i] + Hs[j] + edge_t[i, j] w_edge) as a fresh (n, n, d)
    array, written in row blocks through one block-sized scratch buffer."""
    n, d = Hd.shape
    rows = max(1, _GATV2_BLOCK_BYTES // (8 * n * d))
    act = np.empty((n, n, d))
    buf = np.empty((min(rows, n), n, d))
    for i0 in range(0, n, rows):
        blk = act[i0:i0 + rows]
        tmp = buf[:len(blk)]
        np.add(Hd[i0:i0 + rows, None, :], Hs[None, :, :], out=blk)
        np.multiply(edge_t[i0:i0 + rows, :, None], w_edge, out=tmp)
        blk += tmp
        np.multiply(blk, _GATV2_SLOPE, out=tmp)
        np.maximum(blk, tmp, out=blk)  # LeakyReLU, as 0 < slope < 1
    return act


def gatv2_scores(Hd, Hs, W_edge, attn, edge_t) -> Tensor:
    """GATv2 pair scores: out[i, j] = attn^T LeakyReLU_0.2(Hd[i] + Hs[j] + edge_t[i, j] W_edge).

    Hd and Hs are (n, d), W_edge is (1, d), attn is (d, 1) and edge_t is a
    constant (n, n) array.  The pre-activation is a broadcast sum over
    (n, n, d), so the backward reduces it with two axis-sums and two
    contractions over the (i, j) pairs; there is no gather.  The node keeps
    no (n, n, d) array: the backward recomputes the pre-activation, which is
    safe because nothing writes to a tape's inputs before its backward runs.
    """
    Hd, Hs, W_edge, attn = (_as_tensor(t) for t in (Hd, Hs, W_edge, attn))
    n, d = Hd.shape
    slope = _GATV2_SLOPE
    edge_t = np.asarray(edge_t, dtype=np.float64)
    if Hs.shape != (n, d) or W_edge.shape != (1, d) or attn.shape != (d, 1) \
            or edge_t.shape != (n, n):
        raise DomainError(f"gatv2_scores shape mismatch: Hd {Hd.shape}, Hs {Hs.shape}, "
                          f"W_edge {W_edge.shape}, attn {attn.shape}, edge_t {edge_t.shape}")
    act = _gatv2_preact(Hd.data, Hs.data, W_edge.data[0], edge_t)
    out = (act.reshape(n * n, d) @ attn.data).reshape(n, n)

    def backward(g):
        act = _gatv2_preact(Hd.data, Hs.data, W_edge.data[0], edge_t)
        g_attn = (g.reshape(1, n * n) @ act.reshape(n * n, d)).T
        # act > 0 exactly where the pre-activation is, so act alone suffices;
        # the same buffer then holds the pre-activation's gradient
        a = attn.data[:, 0]
        gpre = np.multiply(act > 0, (1.0 - slope) * a, out=act)
        gpre += slope * a
        gpre *= g[:, :, None]
        _accumulate(Hd, gpre.sum(axis=1))
        _accumulate(Hs, gpre.sum(axis=0))
        _accumulate(W_edge, edge_t.reshape(1, n * n) @ gpre.reshape(n * n, d))
        _accumulate(attn, g_attn)

    return _result(out, (Hd, Hs, W_edge, attn), backward)


def gru_cell(h, x, W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h) -> Tensor:
    """One GRU update: z = sigmoid(x W_z + h U_z + b_z), r likewise,
    c = tanh(x W_h + (r * h) U_h + b_h), out = (1 - z) * h + z * c."""
    h, x = _as_tensor(h), _as_tensor(x)
    weights = tuple(_as_tensor(t) for t in (W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h))
    W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h = weights
    hd, xd = h.data, x.data
    z = 1.0 / (1.0 + np.exp(-(xd @ W_z.data + hd @ U_z.data + b_z.data)))
    r = 1.0 / (1.0 + np.exp(-(xd @ W_r.data + hd @ U_r.data + b_r.data)))
    rh = r * hd
    c = np.tanh(xd @ W_h.data + rh @ U_h.data + b_h.data)
    out = (1.0 - z) * hd + z * c

    def backward(g):
        g_c = g * z * (1.0 - c * c)
        g_z = g * (c - hd) * z * (1.0 - z)
        g_rh = g_c @ U_h.data.T
        g_r = g_rh * hd * r * (1.0 - r)
        _accumulate(h, g * (1.0 - z) + g_rh * r + g_z @ U_z.data.T + g_r @ U_r.data.T)
        _accumulate(x, g_z @ W_z.data.T + g_r @ W_r.data.T + g_c @ W_h.data.T)
        for gate, inp, W, U, b in ((g_z, hd, W_z, U_z, b_z), (g_r, hd, W_r, U_r, b_r),
                                   (g_c, rh, W_h, U_h, b_h)):
            _accumulate(W, xd.T @ gate)
            _accumulate(U, inp.T @ gate)
            _accumulate(b, gate.sum(axis=0, keepdims=True))

    return _result(out, (h, x) + weights, backward)


def pointer_logits(keys, q, v) -> Tensor:
    """Additive-attention logits as a row: (tanh(keys + q) @ v).T.

    keys is (n, d), the query q is (1, d) and v is (d, 1); the result is (1, n).
    """
    keys, q, v = _as_tensor(keys), _as_tensor(q), _as_tensor(v)
    n, d = keys.shape
    if q.shape != (1, d) or v.shape != (d, 1):
        raise DomainError(f"pointer_logits shape mismatch: keys {keys.shape}, "
                          f"q {q.shape}, v {v.shape}")
    t = np.tanh(keys.data + q.data)

    def backward(g):
        # recomputed, not kept: one (n, d) array per decode step adds up
        t = np.tanh(keys.data + q.data)
        gu = (g.T @ v.data.T) * (1.0 - t * t)
        _accumulate(keys, gu)
        _accumulate(q, gu.sum(axis=0, keepdims=True))
        _accumulate(v, t.T @ g.T)

    return _result((t @ v.data).T, (keys, q, v), backward)


# ---------------------------------------------------------------------------
# backward pass

def backward(loss: Tensor, params=()):
    """Reverse-mode sweep from a scalar loss; returns grads for `params`.

    Parameters not reachable from the loss get zero gradients.
    """
    if loss.data.size != 1:
        raise DomainError(f"backward requires a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    for node in topo:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)

    return [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]


# ---------------------------------------------------------------------------
# verification and optimization

def grad_check(f, params, eps: float = 1e-5, max_coords: int = 200,
               sample_seed: int = 0) -> float:
    """Max relative error between tape gradients and central differences.

    Checks every coordinate when the total parameter count is small;
    otherwise a seeded random sample of `max_coords` coordinates.
    """
    if eps <= 0:
        raise DomainError("grad_check step must be positive")
    loss = f()
    if not np.all(np.isfinite(loss.data)):
        raise NumericError("non-finite loss in grad_check")
    grads = backward(loss, params)

    coords = [(pi, i) for pi, p in enumerate(params) for i in range(p.data.size)]
    if len(coords) > max_coords:
        rng = make_rng(sample_seed)
        picks = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[int(i)] for i in picks]

    worst = 0.0
    for pi, i in coords:
        flat = params[pi].data.reshape(-1)
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f().item()
        flat[i] = orig - eps
        f_minus = f().item()
        flat[i] = orig
        g_fd = (f_plus - f_minus) / (2.0 * eps)
        g_tape = grads[pi].reshape(-1)[i]
        rel = abs(g_tape - g_fd) / max(1e-8, abs(g_tape) + abs(g_fd))
        worst = max(worst, rel)
    return worst


class AdamState:
    def __init__(self, params):
        self.step = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]


def clip_global_norm(grads, max_norm: float):
    """Scale the gradient list in place so its global L2 norm is <= max_norm."""
    total = np.sqrt(sum(float((g ** 2).sum()) for g in grads))
    if total > max_norm > 0:
        factor = max_norm / total
        for g in grads:
            g *= factor
    return grads


def adam_step(params, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
              max_grad_norm: float = 1.0):
    """One Adam update with bias correction; clips global grad norm first."""
    if len(grads) != len(params):
        raise DomainError("adam_step: grads/params length mismatch")
    for p, g in zip(params, grads):
        if g.shape != p.data.shape:
            raise DomainError(f"adam_step: grad shape {g.shape} != param shape {p.data.shape}")
    grads = [g.copy() for g in grads]
    if max_grad_norm > 0:
        clip_global_norm(grads, max_grad_norm)
    state.step += 1
    t = state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
