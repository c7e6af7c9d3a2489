"""The route policy's forward pass as a composition of tape primitives, one
node per operation: the reference that `model.encode` and `model._run_decoder`,
one fused node each, must match bit for bit, gradients included.  The GATv2
pair-score primitive and layer live here, as only this reference uses them,
and so does Adam written per parameter, the oracle of the flat
`autodiff.adam_step`."""

import numpy as np

from zoneroute import autodiff as ad
from zoneroute.autodiff import Tensor
from zoneroute.errors import DomainError
from zoneroute.model import ModelParams, gru_step, pointer_keys, pointer_step


def gatv2_scores(Hd, Hs, W_edge, attn, edge_t) -> Tensor:
    """GATv2 pair scores: out[i, j] = attn^T LeakyReLU_0.2(Hd[i] + Hs[j] + edge_t[i, j] W_edge).

    Hd and Hs are (n, d), W_edge is (1, d), attn is (d, 1) and edge_t is a
    constant (n, n) array.  The pre-activation is a broadcast sum over
    (n, n, d), so the backward reduces it with two axis-sums and two
    contractions over the (i, j) pairs; there is no gather.  The node keeps
    no (n, n, d) array: the backward recomputes the pre-activation, which is
    safe because nothing writes to a tape's inputs before its backward runs.
    """
    n, d = Hd.shape
    edge_t = np.asarray(edge_t, dtype=np.float64)
    if Hs.shape != (n, d) or W_edge.shape != (1, d) or attn.shape != (d, 1) \
            or edge_t.shape != (n, n):
        raise DomainError(f"gatv2_scores shape mismatch: Hd {Hd.shape}, Hs {Hs.shape}, "
                          f"W_edge {W_edge.shape}, attn {attn.shape}, edge_t {edge_t.shape}")
    inputs = (Hd, Hs, W_edge, attn)
    data = [t.data for t in inputs]
    return ad._node(ad.gatv2_fwd(*data, edge_t), inputs, lambda g: ad.gatv2_grad(g, *data, edge_t))


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
    scores = gatv2_scores(Hd, Hs, W_edge, attn, edge_w.T)
    alpha = ad.exp(ad.masked_log_softmax(scores, np.ones((n, n), dtype=bool)))
    return ad.matmul(alpha, Hs)


def encode(g, params, training=False, rng=None):
    X = ad.concat_cols(Tensor(g.features), ad.gather_rows(params["zone_embed"], g.zone_label_idx))
    H = X
    rate = params.config.dropout
    for layer in (1, 2, 3):
        H = gatv2_layer(H, g.edge_w, params, layer)
        H = ad.layer_norm(H, params[f"gat{layer}.ln_gain"], params[f"gat{layer}.ln_bias"])
        if layer < 3:
            H = ad.dropout(ad.elu(H), rate, rng, training)
    return H


def run_decoder(E, start, params, forced=None, greedy=True, rng=None):
    n = E.shape[0]
    h = ad.tanh(ad.matmul(ad.tmean(E, axis=0), params["dec.W_init"]))
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


class AdamReference:
    """Adam's step count and per-parameter moments."""

    def __init__(self, params):
        self.step = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]


def adam_step(params, grads, state: AdamReference, lr: float, max_grad_norm: float = 1.0):
    """One Adam update with bias correction, parameter by parameter; clips
    global grad norm first."""
    grads = [g.copy() for g in grads]
    total = np.sqrt(sum(float((g ** 2).sum()) for g in grads))
    if total > max_grad_norm > 0:
        grads = [g * (max_grad_norm / total) for g in grads]
    state.step += 1
    t = state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ad.ADAM_BETA1
        m += (1 - ad.ADAM_BETA1) * g
        v *= ad.ADAM_BETA2
        v += (1 - ad.ADAM_BETA2) * g * g
        m_hat = m / (1 - ad.ADAM_BETA1 ** t)
        v_hat = v / (1 - ad.ADAM_BETA2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ad.ADAM_EPS)
