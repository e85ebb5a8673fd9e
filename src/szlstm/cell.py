"""Surprisal-driven zoneout LSTM cell.

One layer of N memory cells over an M-symbol vocabulary. Besides the usual
gate inputs (current symbol, previous hidden state) every gate also receives
a surprisal feedback vector: the log-probability the previous step assigned
to the symbol that actually arrived. The previous prediction error, pushed
back through the output weights, sets a per-cell update probability; cells
that lose the coin flip keep their old value for the step (a NOP).

Four variants share one code path:

  standard       plain LSTM; surprisal weights pinned at zero, every cell
                 updates every step
  sf             surprisal feedback active, every cell updates every step
  fixed_zoneout  surprisal feedback active, constant update probability
  adaptive       surprisal feedback active, update probability driven by
                 the previous prediction error

The backward pass is hand-derived. The surprisal vector, the update
probability and the sampled mask are treated as constants: no gradient
flows into the previous step's prediction or through the mask sampling.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .numerics import NumericalError, matmul, sample_bernoulli, softmax_rows

VARIANTS = ("standard", "sf", "fixed_zoneout", "adaptive")

# Block order is load-bearing: checkpoints serialize arrays in exactly this order.
PARAM_KEYS = (
    "W_f", "W_i", "W_o", "W_u",
    "U_f", "U_i", "U_o", "U_u",
    "V_f", "V_i", "V_o", "V_u",
    "b_f", "b_i", "b_o", "b_u",
    "W_y", "b_y",
)

LN2 = float(np.log(2.0))


def block_layout(vocab_size, hidden_size):
    """(start, stop, shape) of every trainable block in the flat buffer, keyed
    like PARAM_KEYS; b_y's stop is the buffer's size."""
    m, n = vocab_size, hidden_size
    shapes = [(n, m)] * 4 + [(n, n)] * 4 + [(n, m)] * 4 + [(n,)] * 4 + [(m, n), (m,)]
    bounds = list(accumulate((math.prod(shape) for shape in shapes), initial=0))
    return {k: (a, b, shape) for k, a, b, shape in zip(PARAM_KEYS, bounds, bounds[1:], shapes)}


class _FlatBlocks:
    """One contiguous buffer `flat` holding every block in PARAM_KEYS order.

    Each of the 18 blocks is an attribute viewing `flat`, as are Wg/Ug/Vg/bg,
    each gate family's four blocks stacked f|i|o|u along the cell axis. Write
    through them in place (`+=`, `[...] =`): rebinding one detaches it.
    """

    def __init__(self, flat, vocab_size, hidden_size):
        self.flat = flat
        self.vocab_size = vocab_size
        self.hidden_size = hidden_size
        layout = block_layout(vocab_size, hidden_size)
        for k, (a, b, shape) in layout.items():
            setattr(self, k, flat[a:b].reshape(shape))
        for family in "WUVb":
            a, _, shape = layout[family + "_f"]
            setattr(self, family + "g", flat[a: layout[family + "_u"][1]].reshape(
                (4 * shape[0],) + shape[1:]))

    @property
    def dtype(self):
        return self.flat.dtype

    def blocks(self):
        """(name, array) pairs in serialization order."""
        return [(k, getattr(self, k)) for k in PARAM_KEYS]


class ModelParams(_FlatBlocks):
    """All trainable blocks plus the update-probability floor and variant flags.

    W_* and V_* map the M-dim input / surprisal rows to the N cells, U_* are
    the recurrent weights, W_y projects hidden state back to the vocabulary.
    tau is the guaranteed minimum update probability of the adaptive variant;
    zoneout_rate is the constant update probability of fixed_zoneout.
    """

    def __init__(self, flat, vocab_size, hidden_size, variant="adaptive", tau=0.05,
                 zoneout_rate=0.5):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
        for name, rate in (("tau", tau), ("zoneout_rate", zoneout_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")
        super().__init__(flat, vocab_size, hidden_size)
        self.variant = variant
        self.tau = float(tau)
        self.zoneout_rate = float(zoneout_rate)

    @classmethod
    def zeros(cls, vocab_size, hidden_size, variant="adaptive", tau=0.05,
              zoneout_rate=0.5, dtype=np.float32):
        size = block_layout(vocab_size, hidden_size)["b_y"][1]
        return cls(np.zeros(size, dtype=dtype), vocab_size, hidden_size, variant=variant,
                   tau=tau, zoneout_rate=zoneout_rate)

    def trainable_keys(self):
        """Blocks the optimizer may touch; the standard variant never trains V_*."""
        if self.variant == "standard":
            return tuple(k for k in PARAM_KEYS if not k.startswith("V_"))
        return PARAM_KEYS

    def trainable_slices(self):
        """The trainable_keys blocks as contiguous slices of the flat buffer."""
        if self.variant != "standard":
            return (slice(None),)
        layout = block_layout(self.vocab_size, self.hidden_size)
        return (slice(0, layout["V_f"][0]), slice(layout["b_f"][0], None))


@dataclass
class RecurrentState:
    """Per-lane carryover between steps: cell, hidden, and previous prediction."""

    c: np.ndarray
    h: np.ndarray
    p_prev: np.ndarray

    @classmethod
    def initial(cls, batch_size, hidden_size, vocab_size, dtype=np.float32):
        """Zero memory with a uniform previous prediction (maximum entropy)."""
        return cls(
            c=np.zeros((batch_size, hidden_size), dtype=dtype),
            h=np.zeros((batch_size, hidden_size), dtype=dtype),
            p_prev=np.full((batch_size, vocab_size), 1.0 / vocab_size, dtype=dtype),
        )


@dataclass
class StepCache:
    """Everything one forward step computed that the backward step consumes."""

    s_val: np.ndarray   # surprisal: log p_prev of each row's symbol, B
    z: np.ndarray       # per-cell update probability, B x N
    mask: np.ndarray    # update mask (binary when sampled), B x N
    f: np.ndarray
    i: np.ndarray
    o: np.ndarray
    u: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    c: np.ndarray
    c_hat: np.ndarray
    h: np.ndarray
    p: np.ndarray       # output distribution, B x M


class GradientSet(_FlatBlocks):
    """Gradient accumulators in the ModelParams layout."""

    @classmethod
    def zeros_like(cls, params):
        return cls(np.zeros_like(params.flat), params.vocab_size, params.hidden_size)

    items = _FlatBlocks.blocks

    def global_norm(self):
        # per-block float64 sums, added in block order: one sum over the flat
        # buffer groups the terms differently and can move the clip factor
        total = 0.0
        for _, v in self.blocks():
            total += float(np.sum(np.square(v, dtype=np.float64)))
        return float(np.sqrt(total))


@dataclass
class _FusedGates:
    # per-gate blocks stacked f|i|o|u along the cell axis; the transposes are
    # contiguous copies made once per window and shared by all its steps
    WgT: np.ndarray     # (M, 4N)
    UgT: np.ndarray     # (N, 4N)
    VgT: np.ndarray     # (M, 4N)
    bg: np.ndarray      # (4N,), view of params.bg
    WyT: np.ndarray     # (N, M)


def fuse_gate_weights(params):
    """Pre-transpose the gate weights so steps run few wide matmuls.

    Transposed views would save the copies, but their matmuls round
    differently at small batch and run slower at B = 32.
    """
    return _FusedGates(
        WgT=np.ascontiguousarray(params.Wg.T),
        UgT=np.ascontiguousarray(params.Ug.T),
        VgT=np.ascontiguousarray(params.Vg.T),
        bg=params.bg,
        WyT=np.ascontiguousarray(params.W_y.T),
    )


def prediction_error(p_prev, x_idx):
    """Previous prediction minus the one-hot row of the symbol that arrived.

    Rows sum to 0; x_idx holds one symbol index per row of p_prev.
    """
    if x_idx.shape != p_prev.shape[:1]:
        raise ValueError(f"prediction_error shape mismatch: {p_prev.shape} vs {x_idx.shape}")
    err = p_prev.copy()
    err[np.arange(x_idx.shape[0]), x_idx] -= 1
    return err


def zoneout_rate(err, W_y, tau):
    """Per-cell update probability from the previous prediction error.

    The length-M error row is pushed back through the output weights (the
    magnitude of the previous step's loss gradient at each hidden unit),
    floored at tau and clipped at 1.
    """
    back = matmul(err, W_y)
    return np.minimum(tau + np.abs(back), 1.0)


def _activate_gates(a, n):
    # the logistic 1 / (1 + exp(-a)) under the np.errstate the step's caller
    # holds once for a whole run of steps: exp overflowing to inf gives 0
    sig = 1.0 / (1.0 + np.exp(-a[:, : 3 * n]))
    u = np.tanh(a[:, 3 * n:])
    return sig[:, :n], sig[:, n: 2 * n], sig[:, 2 * n:], u


def gate_forward(x_idx, s_val, h_prev, fused):
    """Gate activations from input symbols, previous hidden state and surprisal.

    The one-hot input row and the single-entry surprisal row turn their
    matmuls into row gathers of the fused weights. All variants run the same
    expression; the standard variant simply keeps its surprisal weights at
    zero. Callers hold np.errstate(over="ignore"): exp overflows to inf on
    very negative pre-activations, which gives exactly the right 0.
    """
    a = fused.WgT[x_idx]
    a += h_prev @ fused.UgT
    a += fused.VgT[x_idx] * s_val[:, None]
    a += fused.bg
    return _activate_gates(a, h_prev.shape[1])


def cell_update(c_prev, f, i, u, mask):
    """Erase-and-write update gated by the mask; mask 0 copies the cell through.

    f scales how much of the old content is erased when an update fires, so a
    masked-out step is a bit-exact NOP on the cell. mask None means every
    cell updates; dropping the products with an all-ones mask is bit-exact.
    """
    if mask is None:
        return (1.0 - f) * c_prev + i * u
    return (1.0 - f * mask) * c_prev + mask * (i * u)


def hidden_from_cell(c, o):
    """Squash the cell and expose it through the read gate."""
    c_hat = np.tanh(c)
    return c_hat, o * c_hat


def _score(p, rows, target):
    # (log p of each row's target, their negated batch mean). Under the caller's
    # np.errstate(divide="ignore") a zero probability (underflowed outputs) gives
    # a +inf loss, as no other log p <= 0 terms can; a NaN passes, as elsewhere
    logp = np.log(p[rows, target])
    # sum / B is np.mean's own reduction and division, without its overhead
    loss = float(-np.add.reduce(logp) / logp.shape[0])
    if loss == math.inf:
        raise NumericalError("output assigns zero probability to a target symbol")
    return logp, loss


def run_lanes(params, symbols, state=None, rng=None, mask_mode="sampled", frozen=None,
              on_step=None, choose=None):
    """Walk every lane of state over symbols; returns (final_state, loss_nats).

    symbols is a (T+1, B) index array: step t reads row t and is scored
    against row t+1, and loss_nats sums the T batch-mean cross entropies as
    Python floats. Each row's surprisal is the log-probability its previous
    prediction gave it, all from one gather: state's p_prev for row 0, and
    for row t+1 the log-probability step t's loss took. A zero probability
    raises NumericalError. np.errstate, the row index and the fused gate
    weights are made once per call. state None starts fresh lanes; the
    input state is never written. mask_mode "sampled" draws one binary
    update mask per step from rng for fixed_zoneout and adaptive, and none
    for standard and sf; "expected" substitutes the update probability
    itself (the evaluation convention). frozen holds one StepCache per
    step, as on_step passed them: each step takes its s_val, z and mask from
    it and draws nothing. on_step(cache) receives each step's StepCache;
    without it none is built. choose(t, y, p), when given, gets step t's
    index, logits and distribution and returns the row written into
    symbols[t+1] before that row is scored and read by step t+1 (text
    generation; returning symbols[t+1] keeps a given row, as of a prompt).
    """
    if mask_mode not in ("sampled", "expected"):
        raise ValueError(f"unknown mask_mode {mask_mode!r}")
    sampled = mask_mode == "sampled"
    fused = fuse_gate_weights(params)
    batch = symbols.shape[1]
    rows = np.arange(batch)
    if state is None:
        state = RecurrentState.initial(batch, params.hidden_size, params.vocab_size,
                                       dtype=params.dtype)
    c, h, p = state.c, state.h, state.p_prev
    s_val = None
    total = 0.0
    with np.errstate(over="ignore", divide="ignore"):
        for t, x_idx in enumerate(symbols[:-1]):
            if frozen is not None:
                s_val, z, mask = frozen[t].s_val, frozen[t].z, frozen[t].mask
            else:
                if s_val is None:
                    s_val, _ = _score(p, rows, x_idx)
                z = mask = None  # standard / sf: every cell updates every step
                if params.variant == "adaptive":
                    z = zoneout_rate(prediction_error(p, x_idx), params.W_y, params.tau)
                elif params.variant == "fixed_zoneout":
                    z = np.full_like(c, params.zoneout_rate)
                if z is not None:
                    mask = sample_bernoulli(z, rng) if sampled else z
            f, i, o, u = gate_forward(x_idx, s_val, h, fused)
            c_prev, h_prev = c, h
            c = cell_update(c_prev, f, i, u, mask)
            c_hat, h = hidden_from_cell(c, o)
            y = h @ fused.WyT
            y += params.b_y
            p = softmax_rows(y)
            if on_step is not None:
                if z is None:
                    # every cell updated; the backward pass and the trace read all-ones rows
                    z = mask = np.ones_like(c)
                on_step(StepCache(s_val=s_val, z=z, mask=mask, f=f, i=i, o=o, u=u,
                                  h_prev=h_prev, c_prev=c_prev, c=c, c_hat=c_hat, h=h, p=p))
            if choose is not None:
                symbols[t + 1] = choose(t, y, p)
            # the target's log-probability is also the next step's surprisal
            s_val, loss = _score(p, rows, symbols[t + 1])
            total += loss
    return RecurrentState(c=c, h=h, p_prev=p), total


def cross_entropy_bpc(loss_nats):
    """Nats per symbol to bits per character."""
    return loss_nats / LN2


def backward_window(caches, params, symbols, grads):
    """Reverse sweep over a whole cached window with batched accumulation.

    caches are consecutive steps of one run, as run_lanes passes them to
    on_step, and symbols is the (T+1, B) index array that run read: step t
    read row t and was scored against row t+1. No gradient arrives from
    beyond the window, and none flows through the surprisal or the mask.
    Each step writes its output and gate gradients into rows t*B..(t+1)*B
    of two window buffers; W_y, U_* and the biases then contract them in
    single wide matmuls over all (step, lane) pairs. The one-hot input and
    the single-entry surprisal rows are never built: the window's rows are
    sorted by symbol, and each symbol's run of gate gradients is contracted
    with its [1, s] coefficients into that symbol's column of W_* and V_*.
    Symbols absent from the window get zero columns. Returns (d_h_prev,
    d_c_prev) at the window start.
    """
    seq_len = len(caches)
    batch, n = caches[-1].h.shape
    if np.shape(symbols) != (seq_len + 1, batch):
        raise ValueError(f"backward_window shape mismatch: symbols {np.shape(symbols)}, "
                         f"expected {(seq_len + 1, batch)}")
    rows = np.arange(batch)
    d_h = np.zeros_like(caches[-1].h)
    d_c = np.zeros_like(caches[-1].c)
    d_y_flat = np.empty((seq_len * batch, params.vocab_size), dtype=caches[-1].p.dtype)
    d_a_flat = np.empty((seq_len * batch, 4 * n), dtype=d_c.dtype)
    for t in reversed(range(seq_len)):
        k = caches[t]
        d_y = d_y_flat[t * batch: (t + 1) * batch]
        np.divide(k.p, batch, out=d_y)
        d_y[rows, symbols[t + 1]] -= 1.0 / batch

        d_h = d_h + matmul(d_y, params.W_y)
        d_o = d_h * k.c_hat
        d_c = d_c + d_h * k.o * (1.0 - k.c_hat * k.c_hat)
        d_f = -(d_c * k.mask * k.c_prev)
        d_i = d_c * k.mask * k.u
        d_u = d_c * k.mask * k.i
        d_a = d_a_flat[t * batch: (t + 1) * batch]
        np.concatenate(
            [
                d_f * k.f * (1.0 - k.f),
                d_i * k.i * (1.0 - k.i),
                d_o * k.o * (1.0 - k.o),
                d_u * (1.0 - k.u * k.u),
            ],
            axis=1,
            out=d_a,
        )
        # carry to the previous step
        d_h = matmul(d_a, params.Ug)
        d_c = d_c * (1.0 - k.f * k.mask)

    # step t's h_prev is step t-1's h, so one array of T+1 row blocks holds
    # both; it is freed before the per-symbol contractions allocate theirs
    hidden = np.concatenate([caches[0].h_prev] + [c.h for c in caches])
    grads.W_y += matmul(d_y_flat.T, hidden[batch:])
    grads.b_y += d_y_flat.sum(axis=0)
    grads.Ug += matmul(d_a_flat.T, hidden[:-batch])
    del hidden
    grads.bg += d_a_flat.sum(axis=0)

    # per-symbol input contractions. The stable sort keeps each symbol's rows
    # in window order, and coef keeps both rows [1, s] for every variant: a
    # one-row product runs as a gemv, which rounds unlike the dense product
    x_idx = symbols[:-1].reshape(-1)
    order = np.argsort(x_idx, kind="stable")
    sym = x_idx[order]
    coef = np.ones((sym.shape[0], 2), dtype=d_a_flat.dtype)
    coef[:, 1] = np.concatenate([c.s_val for c in caches])[order]
    starts = np.flatnonzero(np.r_[True, sym[1:] != sym[:-1]])
    stops = np.r_[starts[1:], sym.shape[0]]
    out = np.zeros((2, params.vocab_size, 4 * n), dtype=d_a_flat.dtype)
    for a, e in zip(starts.tolist(), stops.tolist()):
        out[:, sym[a]] = coef[a:e].T @ d_a_flat[order[a:e]]
    grads.Wg += out[0].T
    if params.variant != "standard":
        grads.Vg += out[1].T
    return d_h, d_c
