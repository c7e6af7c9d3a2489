"""Route policy: GATv2 encoder with edge attributes + GRU/pointer decoder.

The encoder stacks three single-head GATv2 layers over the complete digraph
(self-loops included with edge weight 0), with layer norm after every layer
and ELU + dropout between layers.  The decoder keeps a GRU state, updated
each step with the last selected node's embedding, and points at the next
unvisited node through a tanh attention head whose query/key branches are
two FC layers with a ReLU in between, layer-normalized before the tanh.
Training uses REINFORCE with a moving-average baseline.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import read_json, write_json
from .errors import DomainError
from .routegraph import N_FEATURES, ZONE_LABEL_BUCKETS, RouteGraph, tour_length

ZONE_EMBED_DIM = 16
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
        tensors = {}
        for name, shape in _param_layout(cfg):
            if name.endswith("ln_gain") or name.endswith("_gain"):
                data = np.ones(shape)
            elif name.endswith("bias") or name.startswith("gru.b"):
                data = np.zeros(shape)
            else:
                bound = 1.0 / np.sqrt(shape[0])
                data = rng.uniform(-bound, bound, size=shape)
            tensors[name] = Tensor(data, requires_grad=True, name=name)
        return cls(config=cfg, tensors=tensors)

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
        if payload["format"] != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported format {payload['format']!r}, "
                             f"expected {CHECKPOINT_FORMAT}")
        cfg = ModelConfig(hidden_dim=int(payload["config"]["hidden_dim"]),
                          dropout=float(payload["config"]["dropout"]))
        entries = payload["params"]
        layout = _param_layout(cfg)
        if [e["name"] for e in entries] != [n for n, _ in layout]:
            raise ValueError("unexpected parameter set or order")
        arrays = {}
        for entry, (name, shape) in zip(entries, layout):
            if tuple(entry["shape"]) != shape:
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

def gatv2_layer(H: Tensor, edge_w: np.ndarray, params: ModelParams, layer: int) -> Tensor:
    """Single-head GATv2 over the complete digraph with scalar edge attributes.

    Score for source j -> target i applies the attention vector after the
    LeakyReLU: a^T LeakyReLU(W_dst h_i + W_src h_j + edge_w[j, i] * W_edge).
    """
    n = H.shape[0]
    if edge_w.shape != (n, n):
        raise DomainError(f"edge_w shape {edge_w.shape} != ({n}, {n})")
    W_src = params[f"gat{layer}.W_src"]
    W_dst = params[f"gat{layer}.W_dst"]
    W_edge = params[f"gat{layer}.W_edge"]
    attn = params[f"gat{layer}.attn"]

    Hs = ad.matmul(H, W_src)
    Hd = ad.matmul(H, W_dst)
    scores = ad.gatv2_scores(Hd, Hs, W_edge, attn, edge_w.T)
    alpha = ad.exp(ad.masked_log_softmax(scores, np.ones((n, n), dtype=bool)))
    return ad.matmul(alpha, Hs)


def encode(g: RouteGraph, params: ModelParams, training: bool = False,
           rng: np.random.Generator | None = None) -> Tensor:
    """Node embeddings: [features || zone embedding] through the 3-layer stack."""
    X = ad.concat_cols(Tensor(g.features), ad.gather_rows(params["zone_embed"], g.zone_label_idx))
    H = X
    rate = params.config.dropout
    for layer in (1, 2, 3):
        H = gatv2_layer(H, g.edge_w, params, layer)
        H = ad.layer_norm(H, params[f"gat{layer}.ln_gain"], params[f"gat{layer}.ln_bias"])
        if layer < 3:
            H = ad.dropout(ad.elu(H), rate, rng, training)
    return H


# ---------------------------------------------------------------------------
# decoder

def gru_step(h: Tensor, x: Tensor, params: ModelParams) -> Tensor:
    return ad.gru_cell(h, x, *(params[f"gru.{kind}_{gate}"]
                               for gate in ("z", "r", "h") for kind in ("W", "U", "b")))


def _pointer_branch(x: Tensor, params: ModelParams, side: str) -> Tensor:
    """layer_norm(relu(x FC1) FC2): the query ("q") or key ("k") branch."""
    hidden = ad.relu(ad.matmul(x, params[f"ptr.FC1_{side}"]))
    return ad.layer_norm(ad.matmul(hidden, params[f"ptr.FC2_{side}"]),
                         params[f"ptr.ln_{side}_gain"], params[f"ptr.ln_{side}_bias"])


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


def _init_state(E: Tensor, params: ModelParams) -> Tensor:
    return ad.tanh(ad.matmul(ad.tmean(E, axis=0), params["dec.W_init"]))


def _run_decoder(E: Tensor, start: int, params: ModelParams, forced=None,
                 greedy: bool = True, rng: np.random.Generator | None = None):
    """The decoder loop.  Each step follows `forced` when a tour is given,
    else takes the argmax (greedy) or a draw from `rng`.  Returns
    (tour, summed log-prob Tensor)."""
    n = E.shape[0]
    h = _init_state(E, params)
    keys = pointer_keys(E, params)
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    tour = [start]
    terms = []
    for step in range(1, n):
        h = gru_step(h, ad.gather_rows(E, [tour[-1]]), params)
        logp = pointer_step(h, E, visited, params, keys=keys)
        if forced is not None:
            j = forced[step]
        elif greedy:
            j = int(np.argmax(logp.data[0]))
        else:
            probs = np.exp(logp.data[0])
            probs = probs / probs.sum()
            j = int(rng.choice(n, p=probs))
        terms.append(ad.pick(logp, 0, j))
        visited[j] = True
        tour.append(j)
    return tour, (ad.add(*terms) if terms else Tensor(0.0))


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


def tour_log_prob(E: Tensor, tour, params: ModelParams) -> Tensor:
    """Log-probability Tensor of a fixed tour under the current policy."""
    if sorted(tour) != list(range(E.shape[0])):
        raise DomainError("tour is not a permutation of the node indices")
    return _run_decoder(E, tour[0], params, forced=tour)[1]


# ---------------------------------------------------------------------------
# loss

def reinforce_loss(log_probs, lengths, baseline: float) -> Tensor:
    """Mean over the batch of (length - baseline) * log_prob.

    The advantage is a constant with respect to gradients; only the
    log-probabilities carry derivative information.
    """
    if len(log_probs) == 0:
        raise DomainError("reinforce_loss: empty batch")
    if len(log_probs) != len(lengths):
        raise DomainError("reinforce_loss: batch size mismatch")
    if not all(np.isfinite(lengths)):
        raise DomainError("reinforce_loss: non-finite tour length")
    total = ad.add(*(ad.scale(lp, float(length) - baseline)
                     for lp, length in zip(log_probs, lengths)))
    return ad.scale(total, 1.0 / len(log_probs))
