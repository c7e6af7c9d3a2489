"""The route policy's forward pass as a composition of tape primitives, one
node per operation: the reference that `model.encode` and `model._run_decoder`,
one fused node each, must match bit for bit, gradients included."""

import numpy as np

from zoneroute import autodiff as ad
from zoneroute.autodiff import Tensor
from zoneroute.model import gatv2_layer, gru_step, pointer_keys, pointer_step


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
