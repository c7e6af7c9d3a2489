"""Route policy: GATv2 encoder with edge attributes + GRU/pointer decoder.

The encoder stacks three single-head GATv2 layers over the complete digraph
(self-loops included with edge weight 0), with layer norm after every layer
and ELU + dropout between layers.  The decoder keeps a GRU state, updated
each step with the last selected node's embedding, and points at the next
unvisited node through a tanh attention head whose query/key branches are
two FC layers with a ReLU in between, layer-normalized before the tanh.
Training uses REINFORCE with a moving-average baseline.

On the autodiff tape, `encode` and each decoder rollout are one node apiece,
computed with `autodiff`'s plain-array kernels.  Their backwards give every
gradient the bits a one-node-per-operation composition of tape primitives
gives it.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import read_json, write_json
from .errors import DomainError, NumericError, json_float, json_int
from .routegraph import N_FEATURES, ZONE_LABEL_BUCKETS, RouteGraph, tour_length

ZONE_EMBED_DIM = 16
_GAT_PARAMS = ("W_src", "W_dst", "W_edge", "attn", "ln_gain", "ln_bias")
CHECKPOINT_FORMAT = 2


@dataclass
class ModelConfig:
    hidden_dim: int = 64
    dropout: float = 0.1

    def __post_init__(self):
        if self.hidden_dim < 1:
            raise DomainError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if not 0.0 <= self.dropout < 1.0:
            raise DomainError(f"dropout must lie in [0, 1), got {self.dropout}")

    @property
    def input_dim(self) -> int:
        return N_FEATURES + ZONE_EMBED_DIM


def _param_layout(cfg: ModelConfig):
    """Fixed (name, shape) serialization order for all learnable tensors."""
    d = cfg.hidden_dim
    layout = [("zone_embed", (ZONE_LABEL_BUCKETS, ZONE_EMBED_DIM))]
    d_in = cfg.input_dim
    for layer in (1, 2, 3):
        layout += [
            (f"gat{layer}.W_src", (d_in, d)),
            (f"gat{layer}.W_dst", (d_in, d)),
            (f"gat{layer}.W_edge", (1, d)),
            (f"gat{layer}.attn", (d, 1)),
            (f"gat{layer}.ln_gain", (1, d)),
            (f"gat{layer}.ln_bias", (1, d)),
        ]
        d_in = d
    for gate in ("z", "r", "h"):
        layout += [
            (f"gru.W_{gate}", (d, d)),
            (f"gru.U_{gate}", (d, d)),
            (f"gru.b_{gate}", (1, d)),
        ]
    layout += [
        ("ptr.FC1_q", (d, d)),
        ("ptr.FC2_q", (d, d)),
        ("ptr.FC1_k", (d, d)),
        ("ptr.FC2_k", (d, d)),
        ("ptr.ln_q_gain", (1, d)),
        ("ptr.ln_q_bias", (1, d)),
        ("ptr.ln_k_gain", (1, d)),
        ("ptr.ln_k_bias", (1, d)),
        ("ptr.v", (d, 1)),
        ("dec.W_init", (d, d)),
    ]
    return layout


@dataclass
class ModelParams:
    config: ModelConfig
    tensors: dict[str, Tensor] = field(repr=False, default=None)

    @classmethod
    def init(cls, cfg: ModelConfig, seed: int) -> "ModelParams":
        rng = ad.make_rng(seed)
        arrays = {}
        for name, shape in _param_layout(cfg):
            if name.endswith("_gain"):
                arrays[name] = np.ones(shape)
            elif name.endswith("bias") or name.startswith("gru.b"):
                arrays[name] = np.zeros(shape)
            else:
                bound = 1.0 / np.sqrt(shape[0])
                arrays[name] = rng.uniform(-bound, bound, size=shape)
        return cls.from_arrays(cfg, arrays)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self):
        return [name for name, _ in _param_layout(self.config)]

    def as_list(self):
        return [self.tensors[n] for n in self.names()]

    @classmethod
    def from_arrays(cls, cfg: ModelConfig, arrays) -> "ModelParams":
        """Parameters holding `arrays[name]` for every tensor of the layout."""
        tensors = {}
        for name, shape in _param_layout(cfg):
            data = np.asarray(arrays[name], dtype=np.float64)
            if data.shape != shape:
                raise DomainError(f"parameter {name} has shape {data.shape}, expected {shape}")
            tensors[name] = Tensor(data, requires_grad=True, name=name)
        return cls(config=cfg, tensors=tensors)

    def save(self, path) -> None:
        """Write a format-2 checkpoint: one JSON object whose `params` entries
        hold each tensor as base64 of its little-endian float64 C-order bytes,
        so a load gives back the same bits."""
        write_json(path, {
            "format": CHECKPOINT_FORMAT,
            "config": {"hidden_dim": self.config.hidden_dim,
                       "dropout": self.config.dropout},
            "params": [
                {"name": n, "shape": list(self.tensors[n].shape),
                 "data": base64.b64encode(np.ascontiguousarray(
                     self.tensors[n].data, dtype="<f8").tobytes()).decode("ascii")}
                for n in self.names()
            ],
        })

    @classmethod
    def load(cls, path) -> "ModelParams":
        return read_json(path, cls._from_payload)

    @classmethod
    def _from_payload(cls, payload) -> "ModelParams":
        if json_int(payload["format"], "format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported format {payload['format']!r}, "
                             f"expected {CHECKPOINT_FORMAT}")
        cfg = ModelConfig(hidden_dim=json_int(payload["config"]["hidden_dim"], "hidden_dim"),
                          dropout=json_float(payload["config"]["dropout"], "dropout"))
        entries = payload["params"]
        layout = _param_layout(cfg)
        if [e["name"] for e in entries] != [n for n, _ in layout]:
            raise ValueError("unexpected parameter set or order")
        arrays = {}
        for entry, (name, shape) in zip(entries, layout):
            if tuple(json_int(size, f"{name}'s shape") for size in entry["shape"]) != shape:
                raise ValueError(f"{name} has shape {entry['shape']}, expected {list(shape)}")
            raw = base64.b64decode(entry["data"], validate=True)
            nbytes = 8 * math.prod(shape)
            if len(raw) != nbytes:
                raise ValueError(f"{name} holds {len(raw)} bytes, expected {nbytes}")
            # frombuffer views the immutable bytes; parameters must be writable
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"{name} holds non-finite values")
        return cls.from_arrays(cfg, arrays)


# ---------------------------------------------------------------------------
# encoder

def encode(g: RouteGraph, params: ModelParams, training: bool = False,
           rng: np.random.Generator | None = None) -> Tensor:
    """Node embeddings: [features || zone embedding] through the 3-layer stack.

    One tape node: each layer is single-head GATv2 over the complete digraph
    with scalar edge attributes (the score for source j -> target i is
    a^T LeakyReLU(W_dst h_i + W_src h_j + edge_w[j, i] W_edge), softmaxed
    over j), then layer norm, ELU and dropout, all on plain arrays; the
    backward hands each parameter its gradient.  Each parameter gets one
    contribution, so no order is at stake.
    """
    n = g.features.shape[0]
    if g.edge_w.shape != (n, n):
        raise DomainError(f"edge_w shape {g.edge_w.shape} != ({n}, {n})")
    rate = params.config.dropout
    embed = params["zone_embed"]
    idx = np.asarray(g.zone_label_idx, dtype=np.int64)
    n_feat = g.features.shape[1]
    edge_t = g.edge_w.T
    layers = [[params[f"gat{layer}.{name}"] for name in _GAT_PARAMS] for layer in (1, 2, 3)]
    H = np.hstack([np.asarray(g.features, dtype=np.float64), embed.data[idx]])
    saved = []
    for layer, (W_src, W_dst, W_edge, attn, gain, bias) in enumerate(layers, 1):
        Hs, Hd = H @ W_src.data, H @ W_dst.data
        # the digraph is complete, so no pair is masked
        logp, softmax = ad.log_softmax_fwd(
            ad.gatv2_fwd(Hd, Hs, W_edge.data, attn.data, edge_t), True)
        alpha = np.exp(logp)
        out, y, inv_std = ad.layer_norm_fwd(alpha @ Hs, gain.data, bias.data)
        act = keep = None
        if layer < 3:
            act = ad.elu_fwd(out)
            if training and rate > 0.0:
                keep = ad.dropout_keep(act.shape, rate, rng)
            H_next = act if keep is None else act * keep
        else:
            H_next = out
        saved.append((H, Hs, Hd, softmax, alpha, y, inv_std, out, act, keep))
        H = H_next

    def backward(g_out):
        g_H = g_out
        for (W_src, W_dst, W_edge, attn, gain, bias), (
                H, Hs, Hd, softmax, alpha, y, inv_std, out, act, keep) in zip(
                reversed(layers), reversed(saved)):
            if act is not None:
                if keep is not None:
                    g_H = g_H * keep
                g_H = ad.elu_grad(g_H, out, act)
            g_A, g_gain, g_bias = ad.layer_norm_grad(g_H, gain.data, y, inv_std)
            g_scores = ad.log_softmax_grad((g_A @ Hs.T) * alpha, softmax)
            g_Hd, g_Hs, g_edge, g_attn = ad.gatv2_grad(
                g_scores, Hd, Hs, W_edge.data, attn.data, edge_t)
            g_Hs += alpha.T @ g_A
            g_H = g_Hs @ W_src.data.T + g_Hd @ W_dst.data.T
            for p, gp in ((W_src, H.T @ g_Hs), (W_dst, H.T @ g_Hd), (W_edge, g_edge),
                          (attn, g_attn), (gain, ad.weight_grad(None, g_gain)),
                          (bias, ad.weight_grad(None, g_bias))):
                ad.accumulate(p, gp)
        g_embed = np.zeros_like(embed.data)
        np.add.at(g_embed, idx, g_H[:, n_feat:])
        ad.accumulate(embed, g_embed)

    return ad.record(H, [embed] + [p for ps in layers for p in ps], backward, name="encode")


# ---------------------------------------------------------------------------
# decoder

def _gru_params(params: ModelParams):
    return [params[f"gru.{kind}_{gate}"] for gate in ("z", "r", "h") for kind in ("W", "U", "b")]


def gru_step(h: Tensor, x: Tensor, params: ModelParams) -> Tensor:
    return ad.gru_cell(h, x, *_gru_params(params))


def _branch_params(params: ModelParams, side: str):
    return [params[f"ptr.{name}"] for name in
            (f"FC1_{side}", f"FC2_{side}", f"ln_{side}_gain", f"ln_{side}_bias")]


def _pointer_branch(x: Tensor, params: ModelParams, side: str) -> Tensor:
    """layer_norm(relu(x FC1) FC2): the query ("q") or key ("k") branch."""
    FC1, FC2, gain, bias = _branch_params(params, side)
    return ad.layer_norm(ad.matmul(ad.relu(ad.matmul(x, FC1)), FC2), gain, bias)


def _branch_fwd(x: np.ndarray, weights):
    """`_pointer_branch` on arrays: returns (out, what `_branch_grad` needs)."""
    FC1, FC2, gain, bias = (w.data for w in weights)
    pre = x @ FC1
    hidden = ad.relu_fwd(pre)
    out, y, inv_std = ad.layer_norm_fwd(hidden @ FC2, gain, bias)
    return out, (pre, hidden, y, inv_std)


def _branch_grad(g, x: np.ndarray, weights, saved):
    """The gradient of x, and (left, right) for each of the branch's four
    weights: its gradient is `ad.weight_grad(left, right)`.  Given a leading
    axis of (1, d) steps, each step's rows have the bits of its own call."""
    FC1, FC2, gain, bias = weights
    pre, hidden, y, inv_std = saved
    g_normed, g_gain, g_bias = ad.layer_norm_grad(g, gain.data, y, inv_std)
    g_pre = ad.relu_grad(g_normed @ FC2.data.T, pre)
    return g_pre @ FC1.data.T, ((x, g_pre), (hidden, g_normed), (None, g_gain), (None, g_bias))


def pointer_keys(E: Tensor, params: ModelParams) -> Tensor:
    return _pointer_branch(E, params, "k")


def pointer_step(h: Tensor, E: Tensor, visited: np.ndarray, params: ModelParams,
                 keys: Tensor | None = None) -> Tensor:
    """Log-probabilities (1 x n) over unvisited nodes for the next step."""
    visited = np.asarray(visited, dtype=bool)
    if visited.all():
        raise DomainError("pointer_step: all nodes already visited")
    q = _pointer_branch(h, params, "q")
    if keys is None:
        keys = pointer_keys(E, params)
    logits = ad.pointer_logits(keys, q, params["ptr.v"])
    return ad.masked_log_softmax(logits, ~visited.reshape(1, -1))


@dataclass
class DecodeResult:
    tour: list[int]
    log_prob: float
    length: float


def _run_decoder(E: Tensor, start: int, params: ModelParams, forced=None,
                 greedy: bool = True, rng: np.random.Generator | None = None):
    """The decoder loop.  Each step follows `forced` when a tour is given,
    else takes the argmax (greedy) or a draw from `rng`.  Returns
    (tour, summed log-prob Tensor).

    The rollout is one tape node: the initial state tanh(mean(E) W_init),
    the pointer keys and every GRU and pointer step, run as `gru_step` and
    `pointer_step` would on arrays.  Of its T = n - 1 steps it keeps the GRU
    states, one (n, 1, d) stack H, and the softmaxes, one (T, n) array; the
    backward recomputes the gates with one `ad.gru_fwd` on H[:-1] and the
    queries with one `_branch_fwd` on H[1:], (T, 1, d) rows whose products
    have the bits of each step's own.  Parameters and E take several
    contributions each, and float addition is not associative, so the
    backward hands them over in the order the per-operation tape did: the
    pointer heads in step order, the key branch (E's first), the GRU from
    the last step back, W_init and the mean into E, then the gathered rows
    into E.  Only the GRU's recursion runs step by step; `ad.accumulate_rows`
    hands each parameter its T contributions, one `accumulate` call each.
    The forward takes every node's GRU input products at once, and a
    sampled rollout draws its T uniforms from `rng` in one call.
    """
    n = E.shape[0]
    tour = [start]
    if n == 1:
        return tour, Tensor(0.0)
    Ed = E.data
    gru_w = _gru_params(params)
    W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h = (w.data for w in gru_w)
    q_w, k_w = _branch_params(params, "q"), _branch_params(params, "k")
    v, W_init = params["ptr.v"], params["dec.W_init"]
    E_mean = ad.mean(Ed, 0)
    h0 = np.tanh(E_mean @ W_init.data)
    keys, k_saved = _branch_fwd(Ed, k_w)
    # every node's GRU input products at once: (n, 1, d) stacks whose rows
    # have the bits of each (1, d) row's own product
    XW = tuple(Ed[:, None] @ W for W in (W_z, W_r, W_h))
    mask = np.ones((1, n), dtype=bool)
    mask[0, start] = False
    uniforms = rng.random(n - 1) if forced is None and not greedy else None
    H, softmax = np.empty((n, 1, Ed.shape[1])), np.empty((n - 1, n))
    H[0], total = h0, None
    for step in range(1, n):
        last = tour[-1]
        H[step] = ad.gru_fwd(H[step - 1], *(xw[last] for xw in XW),
                             U_z, b_z, U_r, b_r, U_h, b_h)[0]
        q = _branch_fwd(H[step], q_w)[0]
        logp, softmax[step - 1] = ad.log_softmax_fwd(ad.pointer_fwd(keys, q, v.data), mask)
        if not np.isfinite(logp).all():
            raise NumericError("non-finite pointer log-probabilities")
        if forced is not None:
            j = forced[step]
        elif greedy:
            j = int(np.argmax(logp[0]))
        else:
            # numpy's `Generator.choice(n, p=probs)`, which draws one uniform
            probs = np.exp(logp[0])
            probs = probs / probs.sum()
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            j = int(cdf.searchsorted(uniforms[step - 1], side="right"))
        total = logp[0, j] if total is None else total + logp[0, j]
        mask[0, j] = False
        tour.append(j)

    def backward(g):
        prev = tour[:-1]
        Q, q_saved = _branch_fwd(H[1:], q_w)
        g_keys, g_Q = _pointer_heads_grad(g[0, 0], tour, keys, v, Q, softmax)
        g_H, factors = _branch_grad(g_Q, H[1:], q_w, q_saved)
        for p, (left, right) in zip(q_w, factors):
            ad.accumulate_rows(p, right, left)
        g_E_keys, factors = _branch_grad(g_keys, Ed, k_w, k_saved)
        for p, (left, right) in zip(k_w, factors):
            ad.accumulate(p, ad.weight_grad(left, right))
        del Q, q_saved, factors  # the branches' stacks go before the GRU's are built
        g_h0, g_x = _gru_grad_steps(g_H, H[:-1], Ed[prev, None],
                                    tuple(xw[prev] for xw in XW), gru_w)
        g_pre = g_h0 * (1.0 - h0 * h0)
        ad.accumulate(W_init, E_mean.T @ g_pre)
        ad.accumulate(E, g_E_keys)
        ad.accumulate(E, np.repeat(g_pre @ W_init.data.T, n, axis=0) * (1.0 / n))
        # each row is gathered once, so one array adds the bits of one
        # gather at a time (0.0 + g into zeros, as the gather did)
        g_rows = np.zeros_like(Ed)
        g_rows[prev] += g_x.reshape(n - 1, -1)
        ad.accumulate(E, g_rows)

    params_used = gru_w + q_w + k_w + [v, W_init]
    return tour, ad.record(total, [E] + params_used, backward, name="decoder rollout")


def _pointer_heads_grad(g, tour, keys, v, Q, softmax):
    """The backward of every step's pointer head and log-softmax, for the
    output gradient g of each picked log-probability: hands ptr.v its
    per-step gradients in step order and returns the keys' gradient, summed
    in step order, and the (T, 1, d) query gradients.  Each step's
    log-probability gradient is 0.0 but at its pick, which its mask never
    hides, so no mask is needed.  Steps go in blocks whose (k, n, d) arrays
    hold about `ad._GATV2_BLOCK_BYTES` each."""
    picks = tour[1:]
    T, (n, d) = len(picks), keys.shape
    rows = ad.block_rows(8 * n * d)
    g_keys, g_Q = None, np.empty((T, 1, d))
    for t0 in range(0, T, rows):
        k = min(rows, T - t0)
        blk = slice(t0, t0 + k)
        g_lp = np.zeros((k, n))
        g_lp[np.arange(k), picks[blk]] = g
        g_logits = ad.log_softmax_grad(g_lp, softmax[blk])
        g_key_rows, g_Q[blk], g_v = ad.pointer_grad(g_logits[:, None], keys, Q[blk], v.data)
        for g_key in g_key_rows:
            if g_keys is None:
                g_keys = g_key.copy()
            else:
                g_keys += g_key
        ad.accumulate_rows(v, g_v)
    return g_keys, g_Q


def _gru_grad_steps(g_H, H, X, XW, gru_w):
    """The GRU's backward through a rollout, g_H[t] being the gradient its
    output at step t gets from the pointer: the recursion runs from the last
    step back, and the nine weights take their per-step gradients in that
    order.  H, X and XW stack each step's (1, d) state, input and input
    products with W_z, W_r and W_h, from which the gates are recomputed.
    Returns the gradients of the initial state and of those inputs."""
    W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h = (w.data for w in gru_w)
    saved = ad.gru_fwd(H, *XW, U_z, b_z, U_r, b_r, U_h, b_h)[1]
    g_z, g_r, g_c = gates = tuple(np.empty_like(H) for _ in range(3))
    g_h = None
    for t in reversed(range(len(H))):
        g_t = g_H[t] if g_h is None else g_H[t] + g_h
        g_h, (g_z[t], g_r[t], g_c[t]) = ad.gru_grad_state(
            g_t, H[t], [s[t] for s in saved], U_z, U_r, U_h)
    back = [a[::-1] for a in (H, X, saved[2]) + gates]
    for p, (left, right) in zip(gru_w, ad.gru_weight_factors(*back[:3], back[3:])):
        ad.accumulate_rows(p, right, left)
    return g_h, ad.gru_grad_x(gates, W_z, W_r, W_h)


def decode_tape(E: Tensor, start: int, params: ModelParams, greedy: bool,
                rng: np.random.Generator | None = None):
    """Run the pointer decoder; returns (tour, summed log-prob Tensor)."""
    n = E.shape[0]
    if not 0 <= start < n:
        raise DomainError(f"start index {start} out of range for {n} nodes")
    if not greedy and rng is None:
        raise DomainError("sampling decode requires an rng")
    return _run_decoder(E, start, params, greedy=greedy, rng=rng)


def decode(E: Tensor, start: int, travel: np.ndarray, params: ModelParams,
           greedy: bool = True, rng: np.random.Generator | None = None) -> DecodeResult:
    tour, logp = decode_tape(E, start, params, greedy, rng)
    return DecodeResult(tour=tour, log_prob=logp.item(),
                        length=tour_length(tour, travel))


def training_draws(n: int, cfg: ModelConfig, samples: int) -> int:
    """How many doubles one training pass over an n-node route takes from
    its rng: `encode`'s two (n, d) dropout masks, when dropout is on, then
    n - 1 uniforms for each of `samples` sampled rollouts."""
    return (2 * n * cfg.hidden_dim if cfg.dropout > 0.0 else 0) + samples * (n - 1)


def tour_log_prob(E: Tensor, tour, params: ModelParams) -> Tensor:
    """Log-probability Tensor of a fixed tour under the current policy."""
    if sorted(tour) != list(range(E.shape[0])):
        raise DomainError("tour is not a permutation of the node indices")
    return _run_decoder(E, tour[0], params, forced=tour)[1]


# ---------------------------------------------------------------------------
# loss

def reinforce_loss(log_probs, lengths, baseline: float, rollouts: int | None = None) -> Tensor:
    """Mean over the batch of (length - baseline) * log_prob.

    The advantage is a constant with respect to gradients; only the
    log-probabilities carry derivative information.  When the rollouts given
    are part of a batch of `rollouts`, the sum is divided by that count: its
    backward hands each of them the bits the whole batch's loss would.
    """
    if len(log_probs) == 0:
        raise DomainError("reinforce_loss: empty batch")
    if len(log_probs) != len(lengths):
        raise DomainError("reinforce_loss: batch size mismatch")
    if not all(np.isfinite(lengths)):
        raise DomainError("reinforce_loss: non-finite tour length")
    total = ad.add(*(ad.scale(lp, float(length) - baseline)
                     for lp, length in zip(log_probs, lengths)))
    return ad.scale(total, 1.0 / (len(log_probs) if rollouts is None else rollouts))
