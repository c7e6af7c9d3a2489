"""Minimal reverse-mode automatic differentiation over dense 2-D float64 arrays.

Just enough machinery for the route policy: matmul, broadcast add/mul,
concat/gather/reshape/pick, the activations the model uses, masked
log-softmax, layer norm, and dropout.  Two fused primitives cover a
subgraph in one node each, with hand-derived backwards: `gru_cell` (a whole
GRU update) and `pointer_logits` (the additive-attention pointer head,
whose backward recomputes its tanh).  The math of these, of the nonlinear
primitives and of the GATv2 pair scores lives in plain-array kernels
(`*_fwd` and `*_grad`), which `record` and `accumulate` let a caller build
into bigger nodes of its own; `accumulate_rows` adds a stack of
contributions as one product.  Every primitive is its forward value plus a
function returning its inputs' gradients, made a node by `_node`, which
hands them over in input order, or by `_unary` when it has one input;
`backward` walks the implicit tape in reverse topological order.  A
finite-difference gradient checker and an Adam step with global
gradient-norm clipping, over one flat buffer that holds every parameter,
round the module out.
"""

from __future__ import annotations

import mmap

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


def record(data, parents, backward, name=""):
    """A node holding `data`; `backward(g)` must pass each parent's share of
    the output gradient `g` to `accumulate`.  Without a parent that needs a
    gradient, a constant."""
    if _needs(parents):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward, name=name)
    return Tensor(data, name=name)


def accumulate(t: Tensor, g: np.ndarray):
    """Add `g` to `t.grad`.  Float addition is not associative, so the bits
    of a gradient depend on the order of these calls."""
    # the first write copies: g may be a view of another node's gradient
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


# bytes of one block of stacked rows (the GATv2 pre-activation's, or a
# rollout's pointer heads): small enough that a block's elementwise passes
# stay in cache
_GATV2_BLOCK_BYTES = 256 * 1024


def block_rows(row_bytes: int) -> int:
    """How many rows of `row_bytes` bytes one block holds (at least one)."""
    return max(1, _GATV2_BLOCK_BYTES // row_bytes)


def accumulate_rows(t: Tensor, right, left=None):
    """One `accumulate` of the sum of T contributions, each one product of a
    stack: with `left`, weight_grad(left[i], right[i]), summed as the one
    product left.T @ right of the (T, ·) stacks; else right[i] in t's shape,
    summed as the column sums of `right`."""
    steps = len(right)
    left = None if left is None else left.reshape(steps, -1)
    accumulate(t, weight_grad(left, right.reshape(steps, -1)).reshape(t.data.shape))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum the gradient over axes that were broadcast in the forward pass."""
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


# ---------------------------------------------------------------------------
# kernels: the forward and backward math of the primitives on plain arrays.
# The primitives below wrap them, and `model`'s fused encoder and decoder
# nodes call them directly, so each formula exists once.  A `*_grad` kernel
# returns the gradients of its inputs; it writes no `.grad`.

def mean(x: np.ndarray, axis: int) -> np.ndarray:
    """`x.mean(axis, keepdims=True)` to the bit (numpy's mean is this sum
    divided by the count), without the wrapper's overhead."""
    return x.sum(axis=axis, keepdims=True) / x.shape[axis]


def weight_grad(left, right) -> np.ndarray:
    """A weight's gradient from the rows that multiply it: left.T @ right for
    a weight applied as `left @ W`, or the column sums of `right` for a bias
    or gain (`left` None)."""
    return right.sum(axis=0, keepdims=True) if left is None else left.T @ right


def relu_fwd(x):
    return np.maximum(x, 0.0)


def relu_grad(g, x):
    return g * (x > 0).astype(np.float64)


def elu_fwd(x):
    """ELU with alpha = 1."""
    return np.where(x > 0, x, np.expm1(x))


def elu_grad(g, x, y):
    return g * np.where(x > 0, 1.0, y + 1.0)


def dropout_keep(shape, rate: float, rng: np.random.Generator | None) -> np.ndarray:
    """Inverted-dropout multiplier: 0 where dropped, 1 / (1 - rate) elsewhere."""
    if rng is None:
        raise DomainError("training-mode dropout requires an rng")
    return (rng.random(shape) >= rate) / (1.0 - rate)


def log_softmax_fwd(x, mask):
    """Row-wise log-softmax over the mask==True entries; masked entries get
    NEG_INF.  Returns (logp, softmax)."""
    shifted = np.where(mask, x, -np.inf)
    row_max = shifted.max(axis=1, keepdims=True)
    z = np.where(mask, np.exp(x - row_max), 0.0)
    denom = z.sum(axis=1, keepdims=True)
    return np.where(mask, x - row_max - np.log(denom), NEG_INF), z / denom


def log_softmax_grad(g, softmax):
    """The gradient of x; g must be 0.0 wherever the mask was False."""
    return g - softmax * g.sum(axis=1, keepdims=True)


def layer_norm_fwd(x, gain, bias, eps: float = 1e-5):
    """Returns (out, y, inv_std): y is x normalized per row, out = y gain + bias."""
    xc = x - mean(x, -1)
    inv_std = 1.0 / np.sqrt(mean(xc ** 2, -1) + eps)
    y = xc * inv_std
    return y * gain + bias, y, inv_std


def layer_norm_grad(g, gain, y, inv_std):
    """Returns the gradient of x and each row's share of the gradients of
    gain and bias, which `weight_grad(None, share)` sums; rows may carry
    leading axes, such as one per step."""
    gy = g * gain
    return inv_std * (gy - mean(gy, -1) - y * mean(gy * y, -1)), g * y, g


_GATV2_SLOPE = 0.2


def _gatv2_blocks(Hd, Hs, w_edge, edge_t):
    """Yields (blk, act) for consecutive slices `blk` of target rows, where
    act is LeakyReLU_0.2(Hd[i] + Hs[j] + edge_t[i, j] w_edge) for i in `blk`
    and every j.  Each block is written into the same buffer, which the
    caller may overwrite, so no (n, n, d) array exists; a route of at most
    `block_rows(8 n d)` stops is one block."""
    n, d = Hd.shape
    rows = block_rows(8 * n * d)
    act_buf, tmp_buf = (np.empty((min(rows, n), n, d)) for _ in range(2))
    for i0 in range(0, n, rows):
        blk = slice(i0, min(i0 + rows, n))
        act, tmp = act_buf[:blk.stop - i0], tmp_buf[:blk.stop - i0]
        np.add(Hd[blk, None, :], Hs[None, :, :], out=act)
        np.multiply(edge_t[blk, :, None], w_edge, out=tmp)
        act += tmp
        np.multiply(act, _GATV2_SLOPE, out=tmp)
        np.maximum(act, tmp, out=act)  # LeakyReLU, as 0 < slope < 1
        yield blk, act


def gatv2_fwd(Hd, Hs, W_edge, attn, edge_t):
    """The (n, n) GATv2 pair scores, a block of target rows at a time."""
    n, d = Hd.shape
    out = np.empty((n, n))
    for blk, act in _gatv2_blocks(Hd, Hs, W_edge[0], edge_t):
        k = len(act)
        out[blk] = (act.reshape(k * n, d) @ attn).reshape(k, n)
    return out


def gatv2_grad(g, Hd, Hs, W_edge, attn, edge_t):
    """Returns the gradients of (Hd, Hs, W_edge, attn), recomputing the
    pre-activation a block of target rows at a time.  The rows of the Hd
    gradient are each block's own; the sums over pairs that make the other
    three are added block by block, in row order."""
    n, d = Hd.shape
    slope = _GATV2_SLOPE
    a = attn[:, 0]
    g_Hd = np.empty((n, d))
    sums = None
    for blk, act in _gatv2_blocks(Hd, Hs, W_edge[0], edge_t):
        k = len(act)
        g_attn = (g[blk].reshape(1, k * n) @ act.reshape(k * n, d)).T
        # act > 0 exactly where the pre-activation is, so act alone
        # suffices; the comparison is written as 1.0/0.0 into act itself
        gpre = np.greater(act, 0.0, out=act)
        gpre *= (1.0 - slope) * a
        gpre += slope * a
        gpre *= g[blk, :, None]
        gpre.sum(axis=1, out=g_Hd[blk])
        part = (gpre.sum(axis=0), edge_t[blk].reshape(1, k * n) @ gpre.reshape(k * n, d), g_attn)
        sums = part if sums is None else [total + p for total, p in zip(sums, part)]
    return (g_Hd, *sums)


def gru_fwd(h, xz, xr, xh, U_z, b_z, U_r, b_r, U_h, b_h):
    """One GRU update on arrays, given the input's products x W_z, x W_r and
    x W_h.  Returns (out, (z, r, rh, c)), the second being what the
    `gru_grad_*` kernels need."""
    z = 1.0 / (1.0 + np.exp(-(xz + h @ U_z + b_z)))
    r = 1.0 / (1.0 + np.exp(-(xr + h @ U_r + b_r)))
    rh = r * h
    c = np.tanh(xh + rh @ U_h + b_h)
    return (1.0 - z) * h + z * c, (z, r, rh, c)


def gru_grad_state(g, h, saved, U_z, U_r, U_h):
    """Returns the gradient of h and those of the three gate pre-activations
    (z, r, candidate)."""
    z, r, rh, c = saved
    g_c = g * z * (1.0 - c * c)
    g_z = g * (c - h) * z * (1.0 - z)
    g_rh = g_c @ U_h.T
    g_r = g_rh * h * r * (1.0 - r)
    g_h = g * (1.0 - z) + g_rh * r + g_z @ U_z.T + g_r @ U_r.T
    return g_h, (g_z, g_r, g_c)


def gru_grad_x(gates, W_z, W_r, W_h):
    """The gradient of x from the gate gradients; with a leading axis of
    (1, d) steps, each step's row has the bits of its own product."""
    g_z, g_r, g_c = gates
    return g_z @ W_z.T + g_r @ W_r.T + g_c @ W_h.T


def gru_weight_factors(h, x, rh, gates):
    """(left, right) for each of the nine weights, in the order (W_z, U_z,
    b_z, W_r, U_r, b_r, W_h, U_h, b_h): its gradient is
    `weight_grad(left, right)`."""
    return tuple(pair for gate, inp in zip(gates, (h, h, rh))
                 for pair in ((x, gate), (inp, gate), (None, gate)))


def pointer_fwd(keys, q, v):
    """Additive-attention logits as a (1, n) row: (tanh(keys + q) @ v).T."""
    return (np.tanh(keys + q) @ v).T


def pointer_grad(g, keys, q, v):
    """Returns the gradients of (keys, q, v), recomputing the (n, d) tanh.
    Given a leading axis of steps, a (T, 1, n) g and a (T, 1, d) q, it
    returns each step's gradients, with the bits of T separate calls."""
    t = np.add(keys, q)
    np.tanh(t, out=t)
    dtanh = t * t
    np.subtract(1.0, dtanh, out=dtanh)
    g_col = g.swapaxes(-1, -2)
    gu = g_col @ v.T
    gu *= dtanh
    return gu, gu.sum(axis=-2, keepdims=True), t.swapaxes(-1, -2) @ g_col


# ---------------------------------------------------------------------------
# primitives: each is its forward value and a function of the output
# gradient that returns its inputs' gradients, built into a node by `_node`,
# or by `_unary` when its output is one function of its one input

def _node(out, inputs, grads) -> Tensor:
    """A node holding `out` whose backward hands `inputs[i]` the i-th array
    of `grads(g)`, in input order: the one order the tape's bits rest on."""
    def backward(g):
        for t, gt in zip(inputs, grads(g)):
            accumulate(t, gt)

    return record(out, inputs, backward)


def _unary(a, fn, grad) -> Tensor:
    """A node holding `out = fn(x)`, x being `a`'s data, whose backward hands
    `a` the gradient `grad(g, x, out)`."""
    a = _as_tensor(a)
    out = fn(a.data)
    return _node(out, (a,), lambda g: (grad(g, a.data, out),))


def add(*terms) -> Tensor:
    """Broadcast sum of one or more terms in one node, left to right as a
    chain of two-term adds sums them; one term is returned as it is."""
    terms = tuple(_as_tensor(t) for t in terms)
    if len(terms) == 1:
        return terms[0]
    out = sum((t.data for t in terms[1:]), terms[0].data)
    return _node(out, terms, lambda g: [_unbroadcast(g, t.shape) for t in terms])


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _node(a.data * b.data, (a, b), lambda g: (_unbroadcast(g * b.data, a.shape),
                                                     _unbroadcast(g * a.data, b.shape)))


def scale(a, c: float) -> Tensor:
    """Multiply by a constant scalar (the scalar is not differentiated)."""
    c = float(c)
    return _unary(a, lambda x: x * c, lambda g, x, y: g * c)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[1] != b.shape[0]:
        raise DomainError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    return _node(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def concat_cols(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[0] != b.shape[0]:
        raise DomainError(f"concat row mismatch {a.shape} vs {b.shape}")
    k = a.shape[1]
    return _node(np.hstack([a.data, b.data]), (a, b), lambda g: (g[:, :k], g[:, k:]))


def gather_rows(a, idx) -> Tensor:
    """Select rows of `a` by (possibly repeated) integer index."""
    idx = np.asarray(idx, dtype=np.int64)

    def grad(g, x, y):
        gx = np.zeros_like(x)
        np.add.at(gx, idx, g)
        return gx

    return _unary(a, lambda x: x[idx], grad)


def pick(a, i: int, j: int) -> Tensor:
    """The single entry a[i, j] as a 1x1 tensor."""
    i, j = int(i), int(j)

    def grad(g, x, y):
        gx = np.zeros_like(x)
        gx[i, j] = g[0, 0]
        return gx

    return _unary(a, lambda x: x[i, j], grad)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    if int(np.prod(shape)) != a.data.size:
        raise DomainError(f"cannot reshape {a.shape} to {shape}")
    return _unary(a, lambda x: x.reshape(shape), lambda g, x, y: g.reshape(x.shape))


def transpose(a) -> Tensor:
    return _unary(a, lambda x: x.T, lambda g, x, y: g.T)


def tsum(a) -> Tensor:
    return _unary(a, lambda x: x.sum(), lambda g, x, y: np.full_like(x, g[0, 0]))


def tmean(a, axis=0) -> Tensor:
    """Mean over rows (axis=0 -> 1xk)."""
    if axis != 0:
        raise DomainError("tmean supports axis=0 only")
    return _unary(a, lambda x: mean(x, 0),
                  lambda g, x, y: np.repeat(g, len(x), axis=0) * (1.0 / len(x)))


def relu(a) -> Tensor:
    return _unary(a, relu_fwd, lambda g, x, y: relu_grad(g, x))


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    return _unary(a, lambda x: np.where(x > 0, x, slope * x),
                  lambda g, x, y: g * np.where(x > 0, 1.0, slope))


def elu(a) -> Tensor:
    """ELU with alpha = 1."""
    return _unary(a, elu_fwd, elu_grad)


def tanh(a) -> Tensor:
    return _unary(a, np.tanh, lambda g, x, y: g * (1.0 - y * y))


def sigmoid(a) -> Tensor:
    return _unary(a, lambda x: 1.0 / (1.0 + np.exp(-x)), lambda g, x, y: g * (y * (1.0 - y)))


def exp(a) -> Tensor:
    return _unary(a, np.exp, lambda g, x, y: g * y)


def log(a) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0):
        raise NumericError("log of non-positive value")
    return _unary(a, np.log, lambda g, x, y: g * (1.0 / x))


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
    logp, softmax = log_softmax_fwd(a.data, mask)
    # the upstream gradient may be nonzero where the mask is False
    return _node(logp, (a,), lambda g: (log_softmax_grad(np.where(mask, g, 0.0), softmax),))


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean / unit variance, then apply gain and bias."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    k = a.shape[1]
    if gain.shape != (1, k) or bias.shape != (1, k):
        raise DomainError(f"layer_norm gain/bias must be (1, {k})")
    out, y, inv_std = layer_norm_fwd(a.data, gain.data, bias.data, eps)

    def grads(g):
        g_x, g_gain, g_bias = layer_norm_grad(g, gain.data, y, inv_std)
        return g_x, weight_grad(None, g_gain), weight_grad(None, g_bias)

    return _node(out, (a, gain, bias), grads)


def dropout(a, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout; in inference mode, or at rate 0, `a` itself."""
    a = _as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate {rate} out of [0, 1)")
    if not training or rate == 0.0:
        return a
    keep = dropout_keep(a.shape, rate, rng)
    return _unary(a, lambda x: x * keep, lambda g, x, y: g * keep)


# ---------------------------------------------------------------------------
# fused primitives: one node and a hand-derived backward for a whole subgraph

def gru_cell(h, x, W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h) -> Tensor:
    """One GRU update: z = sigmoid(x W_z + h U_z + b_z), r likewise,
    c = tanh(x W_h + (r * h) U_h + b_h), out = (1 - z) * h + z * c."""
    inputs = tuple(_as_tensor(t) for t in (h, x, W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h))
    h, x, W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h = (t.data for t in inputs)
    out, saved = gru_fwd(h, x @ W_z, x @ W_r, x @ W_h, U_z, b_z, U_r, b_r, U_h, b_h)

    def grads(g):
        g_h, gates = gru_grad_state(g, h, saved, U_z, U_r, U_h)
        return (g_h, gru_grad_x(gates, W_z, W_r, W_h)) + tuple(
            weight_grad(left, right) for left, right in gru_weight_factors(h, x, saved[2], gates))

    return _node(out, inputs, grads)


def pointer_logits(keys, q, v) -> Tensor:
    """Additive-attention logits as a row: (tanh(keys + q) @ v).T.

    keys is (n, d), the query q is (1, d) and v is (d, 1); the result is (1, n).
    The backward recomputes the tanh: one (n, d) array per decode step adds up.
    """
    keys, q, v = _as_tensor(keys), _as_tensor(q), _as_tensor(v)
    n, d = keys.shape
    if q.shape != (1, d) or v.shape != (d, 1):
        raise DomainError(f"pointer_logits shape mismatch: keys {keys.shape}, "
                          f"q {q.shape}, v {v.shape}")
    return _node(pointer_fwd(keys.data, q.data, v.data), (keys, q, v),
                 lambda g: pointer_grad(g, keys.data, q.data, v.data))


# ---------------------------------------------------------------------------
# backward pass

def backward(loss: Tensor, params=()):
    """Reverse-mode sweep from a scalar loss; returns grads for `params`.

    Parameters not reachable from the loss get zero gradients.
    """
    if loss.data.size != 1:
        raise DomainError(f"backward requires a scalar loss, got shape {loss.shape}")
    params = list(params)

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

    for node in (*params, *topo):  # a parameter off the tape gets no stale gradient
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
    """Adam's step count and moments for a fixed list of parameters.

    Building it packs the parameters into one contiguous float64 buffer and
    makes each `p.data` a view of it, so that `adam_step` updates them all
    with a few whole-buffer numpy calls.  The moments, the flat gradient
    (`grad`, which a caller may fill in place) and one scratch array are
    buffers of the same size, kept from step to step:
    a fresh array that big would be a fresh memory mapping every step.
    The parameters' buffer is an anonymous shared mapping, so processes
    forked afterwards see every step."""

    def __init__(self, params):
        self.params = list(params)
        self.step = 0
        size = sum(p.data.size for p in self.params)
        self.flat = np.frombuffer(mmap.mmap(-1, 8 * size), dtype=np.float64)
        start = 0
        for p in self.params:
            view = self.flat[start:start + p.data.size].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            start += view.size
        self.views = [p.data for p in self.params]
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.grad = np.empty_like(self.flat)
        self.scratch = np.empty_like(self.flat)


def global_norm(grads) -> float:
    """The L2 norm of a gradient list: each array's sum of squares, added in
    list order."""
    return np.sqrt(sum(float(np.add.reduce(g * g, axis=None)) for g in grads))


# Adam's decay rates for the first and second moments, and its denominator floor
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params, grad, state: AdamState, lr: float, max_grad_norm: float = 1.0):
    """One Adam update with bias correction; clips global grad norm first.

    `params` must be the tensors `state` was built over, in its order, their
    data still its views.  `grad` is their gradient, flat in the same layout:
    `state.grad` itself, which the step overwrites, or an array copied there.
    Every operation keeps the operands and the order of the same update
    written per parameter, so each parameter gets the same bits."""
    if len(params) != len(state.params) or any(
            p is not q or p.data is not view
            for p, q, view in zip(params, state.params, state.views)):
        raise DomainError("adam_step: params are not the tensors its AdamState was built over")
    g, tmp, m, v = state.grad, state.scratch, state.m, state.v
    if grad.shape != g.shape:
        raise DomainError(f"adam_step: grad shape {grad.shape} != the parameters' flat {g.shape}")
    if grad is not g:
        g[...] = grad
    if max_grad_norm > 0:
        total = global_norm(np.split(g, np.cumsum([x.size for x in state.views[:-1]])))
        if total > max_grad_norm:
            g *= max_grad_norm / total
    state.step += 1
    t = state.step
    np.multiply(g, 1 - ADAM_BETA2, out=tmp)
    tmp *= g
    v *= ADAM_BETA2
    v += tmp
    g *= 1 - ADAM_BETA1
    m *= ADAM_BETA1
    m += g
    m_hat = np.divide(m, 1 - ADAM_BETA1 ** t, out=g)
    v_hat = np.divide(v, 1 - ADAM_BETA2 ** t, out=tmp)
    m_hat *= lr
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    m_hat /= v_hat
    state.flat -= m_hat
