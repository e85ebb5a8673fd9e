from types import SimpleNamespace

import numpy as np
import pytest

from szlstm import ModelParams, RecurrentState, RngState, load_corpus
from szlstm.cell import GATES
from szlstm.numerics import matmul, sample_bernoulli, softmax_rows
from szlstm.optim import xavier_init


def synthetic_text(n_words=8000, seed=0):
    """Deterministic tag-heavy byte stream; nested repetitive structure makes
    it easy for a small model to compress well below the uniform rate."""
    words = [b"<page>", b"</page>", b"<title>", b"</title>", b"the ", b"of ",
             b"and ", b"data ", b"[[link]] ", b"0123 "]
    picks = np.random.default_rng(seed).integers(0, len(words), size=n_words)
    return b"".join(words[i] for i in picks)


@pytest.fixture(scope="session")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.bin"
    path.write_bytes(synthetic_text())
    return str(path)


@pytest.fixture(scope="session")
def corpus(corpus_path):
    return load_corpus(corpus_path)


# every StepCache field, as backward_window and the trace read them
CACHE_FIELDS = ("s_val", "z", "mask", "f", "i", "o", "u", "h_prev", "c_prev", "c", "c_hat",
                "h", "p")


def tiny_params(vocab=5, hidden=8, variant="adaptive", seed=3, dtype=np.float64, **kw):
    params = ModelParams.zeros(vocab, hidden, variant=variant, dtype=dtype, **kw)
    xavier_init(params, RngState(seed).fork(1))
    return params


def one_hot(indices, width, dtype=np.float32):
    """Rows of zeros with a single 1 at each index: the dense input rows the
    cell's index gathers stand for."""
    indices = np.asarray(indices)
    out = np.zeros((indices.shape[0], width), dtype=dtype)
    out[np.arange(indices.shape[0]), indices] = 1
    return out


# The dense reference: the step as it ran with dense B x M rows (a one-hot
# input row, a surprisal row that is zero except at the arriving symbol, the
# prediction error p_prev - x, and the update mask multiplied into the cell
# update for every variant, including the all-ones masks of standard and sf),
# and a reverse sweep that contracts those dense rows directly.

def sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def dense_step(state, x_idx, params, fused, rng, mask_mode, target):
    """One reference step; returns (state, cache, loss). The cache has every
    StepCache field plus the dense rows x and s."""
    b, n = x_idx.shape[0], params.hidden_size
    rows = np.arange(b)
    x = one_hot(x_idx, params.vocab_size, dtype=params.dtype)
    s = np.zeros_like(state.p_prev)
    s[rows, x_idx] = np.log(state.p_prev[rows, x_idx])
    err = state.p_prev - x
    a = matmul(x, fused.WgT) + matmul(state.h, fused.UgT) + matmul(s, fused.VgT) + fused.bg
    sig = sigmoid(a[:, : 3 * n])
    f, i, o, u = sig[:, :n], sig[:, n: 2 * n], sig[:, 2 * n:], np.tanh(a[:, 3 * n:])
    if params.variant == "adaptive":
        z = np.minimum(params.tau + np.abs(matmul(err, params.W_y)), 1.0)
    elif params.variant == "fixed_zoneout":
        z = np.full_like(state.c, params.zoneout_rate)
    else:
        z = np.ones_like(state.c)
    if params.variant in ("standard", "sf") or mask_mode == "expected":
        mask = z
    else:
        mask = sample_bernoulli(z, rng)
    c = (1.0 - f * mask) * state.c + mask * (i * u)
    c_hat = np.tanh(c)
    h = o * c_hat
    p = softmax_rows(matmul(h, fused.WyT) + params.b_y)
    loss = float(-np.log(p[rows, target]).mean())
    cache = SimpleNamespace(x=x, s_val=s[rows, x_idx], s=s, z=z, mask=mask, f=f, i=i, o=o,
                            u=u, h_prev=state.h, c_prev=state.c, c=c, c_hat=c_hat, h=h, p=p)
    return RecurrentState(c=c, h=h, p_prev=p), cache, loss


def dense_deltas(caches, params, symbols):
    """The reference reverse sweep over caches scored against symbols[1:]:
    each step's output and gate pre-activation gradients (lists of d_y and
    d_a in window order) and (d_h, d_c) at the window start. It reads only
    StepCache fields, so it runs on run_lanes caches as well."""
    n = params.hidden_size
    d_h = np.zeros_like(caches[-1].h)
    d_c = np.zeros_like(caches[-1].c)
    d_ys, d_as = [], []
    for t in reversed(range(len(caches))):
        k = caches[t]
        batch = k.p.shape[0]
        d_y = k.p / batch
        d_y[np.arange(batch), symbols[t + 1]] -= 1.0 / batch
        d_h = d_h + matmul(d_y, params.W_y)
        d_o = d_h * k.c_hat
        d_c = d_c + d_h * k.o * (1.0 - k.c_hat * k.c_hat)
        d_c_prev = d_c * (1.0 - k.f * k.mask)
        d_f = -(d_c * k.mask * k.c_prev)
        d_i = d_c * k.mask * k.u
        d_u = d_c * k.mask * k.i
        d_a = np.concatenate([d_f * k.f * (1.0 - k.f), d_i * k.i * (1.0 - k.i),
                              d_o * k.o * (1.0 - k.o), d_u * (1.0 - k.u * k.u)], axis=1)
        d_h = matmul(d_a, params.Ug)
        d_c = d_c_prev
        d_ys.insert(0, d_y)
        d_as.insert(0, d_a)
    return d_ys, d_as, d_h, d_c


def dense_backward(caches, params, symbols):
    """Reference gradients of dense_step caches: the deltas of the whole
    window contracted with its dense rows in one matmul per block. Returns
    (grads by block name, d_h, d_c)."""
    n = params.hidden_size
    d_ys, d_as, d_h, d_c = dense_deltas(caches, params, symbols)
    d_y = np.concatenate(d_ys)
    d_a = np.concatenate(d_as)
    grads = {"W_y": matmul(d_y.T, np.concatenate([k.h for k in caches])),
             "b_y": d_y.sum(axis=0)}
    stacked = {"W_": matmul(d_a.T, np.concatenate([k.x for k in caches])),
               "U_": matmul(d_a.T, np.concatenate([k.h_prev for k in caches])),
               "b_": d_a.sum(axis=0)}
    if params.variant != "standard":
        stacked["V_"] = matmul(d_a.T, np.concatenate([k.s for k in caches]))
    for gi, g in enumerate(GATES):
        for prefix, block in stacked.items():
            grads[prefix + g] = block[gi * n: (gi + 1) * n]
    return grads, d_h, d_c
