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

run_lanes writes the step once: the gates f, i, o (logistic) and u (tanh)
of W x + U h_prev + V s + b, the cell c = (1 - f*mask)*c_prev + mask*(i*u),
h = o*tanh(c) and p = softmax(W_y h + b_y). f erases and i*u writes only
where the mask fires, so mask 0 leaves the cell bit for bit.

A WindowArena is the one record of a run's steps: run_lanes writes each
step's rows into it, and the backward pass, the gradient oracle's replay
and the trace read them there.

The backward pass is hand-derived. The surprisal vector, the update
probability and the sampled mask are treated as constants: no gradient
flows into the previous step's prediction or through the mask sampling.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .numerics import DTYPES, NumericalError, sample_bernoulli, softmax_rows

VARIANTS = ("standard", "sf", "fixed_zoneout", "adaptive")
MASK_MODES = ("expected", "sampled")


def require(name, value, ok, rule):
    """value if ok, else ValueError "<name> must <rule>, got <value!r>": the one
    form of every setting's check."""
    if not ok:
        raise ValueError(f"{name} must {rule}, got {value!r}")
    return value


def is_number(value):
    """A real number; bools (JSON true/false) and strings are not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_integer(name, value, least):
    """value if it is an integer (not a bool) >= least; else ValueError."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least
    return require(name, value, ok, f"be an integer >= {least}")


def check_choice(name, value, choices):
    """value if it is one of the strings in choices; else ValueError."""
    return require(name, value, isinstance(value, str) and value in choices,
                   f"be one of {choices}")


# Block order is load-bearing: checkpoints serialize arrays in exactly this order.
PARAM_KEYS = (
    "W_f", "W_i", "W_o", "W_u",
    "U_f", "U_i", "U_o", "U_u",
    "V_f", "V_i", "V_o", "V_u",
    "b_f", "b_i", "b_o", "b_u",
    "W_y", "b_y",
)

LN2 = float(np.log(2.0))
HEAD_BLOCK_ROWS = 64   # h rows per output-head block of standard (see run_lanes)


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
    """All trainable blocks plus a TrainConfig's variant, tau and zoneout_rate.

    W_* and V_* map the M-dim input / surprisal rows to the N cells, U_* are
    the recurrent weights, W_y projects hidden state back to the vocabulary.
    tau is the guaranteed minimum update probability of the adaptive variant;
    zoneout_rate is the constant update probability of fixed_zoneout.
    """

    def __init__(self, flat, vocab_size, cfg):
        super().__init__(flat, vocab_size, cfg.validate().hidden)
        self.variant = cfg.variant
        self.tau = float(cfg.tau)
        self.zoneout_rate = float(cfg.zoneout_rate)

    @classmethod
    def zeros(cls, vocab_size, cfg):
        """All-zero blocks in the float width of cfg.precision."""
        size = block_layout(vocab_size, cfg.validate().hidden)["b_y"][1]
        return cls(np.zeros(size, dtype=DTYPES[cfg.precision]), vocab_size, cfg)

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


class WindowArena:
    """The record of a run's steps: step t's s_val, z, mask, gates f|i|o|u,
    c_hat and p in row t, its c and h in row t + 1 (row 0 copies the starting
    state). standard and sf update every cell: their z and mask are one
    read-only all-ones view. backward_window overwrites p and gates."""

    def __init__(self, params, seq_len, batch):
        dtype, n = params.dtype, params.hidden_size
        self.s_val = np.empty((seq_len, batch), dtype)
        if params.variant in ("fixed_zoneout", "adaptive"):
            self.z = np.empty((seq_len, batch, n), dtype)
            self.mask = np.empty((seq_len, batch, n), dtype)
        else:
            self.z = self.mask = np.broadcast_to(np.ones((), dtype), (seq_len, batch, n))
        self.gates = np.empty((seq_len, batch, 4 * n), dtype)
        self.c = np.empty((seq_len + 1, batch, n), dtype)
        self.h = np.empty((seq_len + 1, batch, n), dtype)
        self.c_hat = np.empty((seq_len, batch, n), dtype)
        self.p = np.empty((seq_len, batch, params.vocab_size), dtype)

    def gate_rows(self, t):
        """Views of the f, i, o and u rows of gates[t] (t an index or a slice)."""
        g, n = self.gates[t], self.c_hat.shape[-1]
        return g[..., :n], g[..., n: 2 * n], g[..., 2 * n: 3 * n], g[..., 3 * n:]


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


def zoneout_rate(err, W_y, tau):
    """Per-cell update probability from the previous prediction error.

    The length-M error row is pushed back through the output weights (the
    magnitude of the previous step's loss gradient at each hidden unit),
    floored at tau and clipped at 1.
    """
    back = err @ W_y
    return np.minimum(tau + np.abs(back), 1.0)


def _score(p, rows, targets):
    """The one scorer: log p of a (k, B, M) block's (k, B) targets (rows: each
    (step, lane) row's offset into p's flat entries) and the k batch-mean
    losses as Python floats. Under the caller's np.errstate(divide="ignore") a
    zero probability (underflowed outputs) gives a +inf loss, as no other
    log p <= 0 terms can, and raises NumericalError; a NaN passes, as elsewhere."""
    logp = np.log(p.reshape(-1)[rows + targets])
    # sum / -B: np.mean's own reduction and division, negated exactly, without its overhead
    losses = (np.add.reduce(logp, axis=1) / -logp.shape[1]).tolist()
    if math.inf in losses:
        raise NumericalError("output assigns zero probability to a target symbol")
    return logp, losses


def run_lanes(params, symbols, state=None, rng=None, mask_mode="sampled", frozen=None,
              choose=None, arena=None):
    """Walk every lane of state over symbols; returns (final_state, loss_nats).

    symbols is a (T+1, B) index array: step t reads row t and is scored against
    row t+1, and loss_nats sums the T batch-mean cross entropies as Python
    floats. One output head serves every run: it takes k steps' stacked (k, B,
    N) h rows through W_y, softmax_rows and _score at once. k is 1 wherever the
    next step reads p (the surprisal variants and every choose run); standard
    without choose reads none, so its blocks hold up to HEAD_BLOCK_ROWS // B
    steps. A stacked matmul makes one BLAS call per (B, N) slice, so every
    product, loss and row is the same bit for bit at any k (one (k*B, N)
    product is not). Each row's surprisal is the log-probability its previous
    prediction gave it, as _score found it: state's p_prev scores row 0 (even
    when no step runs), and step t's loss row t+1. np.errstate, the index rows
    and the transposed weights are made once per call. Under that errstate exp
    overflowing to inf gives exact 0 gates. The one-hot input and single-entry
    surprisal rows are row gathers of the transposed weights; standard pins V_*
    at zero, so it has no surprisal term and never reads V_*, and standard and
    sf skip the all-ones mask products. state None starts fresh lanes; the
    input state is never written. mask_mode "sampled" draws one binary update
    mask per step from rng for fixed_zoneout and adaptive, and none for
    standard and sf; "expected" substitutes the update probability itself (the
    evaluation convention). Each step writes its rows into arena, a WindowArena
    of symbols' shape, when given (ufunc out= where it can; the final state
    then views it), and makes fresh arrays otherwise. frozen, an earlier run's
    arena, gives each step its s_val, z and mask and draws nothing. choose(t,
    y, p), when given, gets step t's index and (B, M) logits and distribution
    and returns the row written into symbols[t+1] before that row is scored and
    read by step t+1 (text generation; returning symbols[t+1] keeps a given
    row, as of a prompt).
    """
    sampled = check_choice("mask_mode", mask_mode, MASK_MODES) == "sampled"
    zoneout = params.variant in ("fixed_zoneout", "adaptive")
    # contiguous copies of the transposes, each gate family stacked f|i|o|u:
    # transposed views would save the copies, but their matmuls round
    # differently at small batch and run slower at B = 32
    WgT, UgT, WyT = (np.ascontiguousarray(w.T) for w in (params.Wg, params.Ug, params.W_y))
    VgT = None if params.variant == "standard" else np.ascontiguousarray(params.Vg.T)
    batch, n = symbols.shape[1], params.hidden_size
    if state is None:
        state = RecurrentState.initial(batch, n, params.vocab_size, dtype=params.dtype)
    c, h, p = state.c, state.h, state.p_prev
    if arena is not None:
        arena.c[0], arena.h[0] = c, h
        c, h = arena.c[0], arena.h[0]
    block = (max(1, HEAD_BLOCK_ROWS // batch)
             if params.variant == "standard" and choose is None else 1)
    lanes = np.arange(batch)
    rows = (np.arange(block)[:, None] * batch + lanes) * params.vocab_size   # see _score
    # each step's ufunc out= targets: its arena rows, or None for fresh arrays;
    # h goes to hid, the open block's h rows (the arena's, or a buffer of block rows)
    sig_out = u_out = c_out = c_hat_out = None
    hid = arena.h[1:] if arena is not None else np.empty((block, batch, n), params.dtype)
    total, a0 = 0.0, 0   # a0: the open block's first step
    with np.errstate(over="ignore", divide="ignore"):
        s_val = _score(p[None], rows[:1], symbols[:1])[0][0]
        for t, x_idx in enumerate(symbols[:-1]):
            if frozen is not None:
                s_val, z, mask = frozen.s_val[t], frozen.z[t], frozen.mask[t]
            else:
                z = mask = None  # standard / sf: every cell updates every step
                if params.variant == "adaptive":
                    err = p.copy()   # the previous prediction minus the arrived one-hot rows
                    err[lanes, x_idx] -= 1
                    z = zoneout_rate(err, params.W_y, params.tau)
                elif params.variant == "fixed_zoneout":
                    z = np.full_like(c, params.zoneout_rate)
                if z is not None:
                    mask = sample_bernoulli(z, rng) if sampled else z
            if arena is not None:
                sig_out, u_out = arena.gates[t, :, : 3 * n], arena.gates[t, :, 3 * n:]
                c_out, c_hat_out = arena.c[t + 1], arena.c_hat[t]
                arena.s_val[t] = s_val
                if zoneout:
                    arena.z[t], arena.mask[t] = z, mask
            a = WgT[x_idx]
            a += h @ UgT
            if VgT is not None:
                a += VgT[x_idx] * s_val[:, None]
            a += params.bg
            sig = np.divide(1.0, 1.0 + np.exp(-a[:, : 3 * n]), out=sig_out)
            f, i, o = sig[:, :n], sig[:, n: 2 * n], sig[:, 2 * n:]
            u = np.tanh(a[:, 3 * n:], out=u_out)
            if mask is None:
                c = np.add((1.0 - f) * c, i * u, out=c_out)
            else:
                c = np.add((1.0 - f * mask) * c, mask * (i * u), out=c_out)
            h = np.multiply(o, np.tanh(c, out=c_hat_out), out=hid[t - a0])
            k = t + 1 - a0
            if k < block and t + 2 < len(symbols):
                continue
            # the head of steps a0..t (see the docstring)
            y = np.matmul(hid[:k], WyT)
            y += params.b_y
            p = softmax_rows(y, None if arena is None else arena.p[a0: t + 1])
            if choose is not None:
                symbols[t + 1] = choose(t, y[0], p[0])
            # each target's log-probability is also the next step's surprisal
            logp, losses = _score(p, rows[:k], symbols[a0 + 1: t + 2])
            for loss in losses:
                total += loss
            if arena is not None:
                if frozen is None:   # the run's last logp has no row
                    arena.s_val[a0 + 1: t + 2] = logp[: len(symbols) - 2 - a0]
                hid = arena.h[t + 2:]
            p, s_val, a0 = p[-1], logp[-1], t + 1
    return RecurrentState(c=c, h=h, p_prev=p), total


def cross_entropy_bpc(loss_nats):
    """Nats per symbol to bits per character."""
    return loss_nats / LN2


def backward_window(arena, params, symbols, grads):
    """Reverse sweep over a whole recorded window with batched accumulation.

    arena holds the T steps of one run_lanes call, and symbols is the
    (T+1, B) index array it read: step t read row t and was scored against
    row t+1. No gradient arrives from beyond the window, and none flows
    through the surprisal or the mask. Step t's output and gate gradients
    overwrite its p and gates rows (so the arena is spent); W_y, U_* and the
    biases then contract them with the arena's h rows in single wide matmuls
    over all (step, lane) pairs. The one-hot input and the single-entry
    surprisal rows are never built: the window's rows are sorted by symbol,
    and each symbol's run of gate gradients is contracted with its [1, s]
    coefficients into that symbol's column of W_* and V_*. Symbols absent
    from the window get zero columns. Returns (d_h_prev, d_c_prev) at the
    window start.
    """
    seq_len, batch, n = arena.c_hat.shape
    if np.shape(symbols) != (seq_len + 1, batch):
        raise ValueError(f"backward_window shape mismatch: symbols {np.shape(symbols)}, "
                         f"expected {(seq_len + 1, batch)}")
    rows = np.arange(batch)
    d_h, d_c = np.zeros_like(arena.h[0]), np.zeros_like(arena.c[0])
    for t in reversed(range(seq_len)):
        f, i, o, u = arena.gate_rows(t)
        c_hat, mask = arena.c_hat[t], arena.mask[t]
        d_y = arena.p[t]
        np.divide(d_y, batch, out=d_y)
        d_y[rows, symbols[t + 1]] -= 1.0 / batch

        d_h = d_h + d_y @ params.W_y
        d_o = d_h * c_hat
        d_c = d_c + d_h * o * (1.0 - c_hat * c_hat)
        d_cm = d_c * mask
        d_f = -(d_cm * arena.c[t])
        d_i = d_cm * u
        d_u = d_cm * i
        carry = 1.0 - f * mask   # read f before d_a overwrites it
        d_a = arena.gates[t]
        np.concatenate([d_f * f * (1.0 - f), d_i * i * (1.0 - i),
                        d_o * o * (1.0 - o), d_u * (1.0 - u * u)], axis=1, out=d_a)
        # carry to the previous step
        d_h = d_a @ params.Ug
        d_c = d_c * carry

    # (T*B, .) views of the arena; step t's h_prev is step t-1's h, so row
    # blocks 1..T of hidden are the steps' h and 0..T-1 their h_prev
    d_y_flat, d_a_flat, hidden = (a.reshape(-1, a.shape[2])
                                  for a in (arena.p, arena.gates, arena.h))
    grads.W_y += d_y_flat.T @ hidden[batch:]
    grads.b_y += d_y_flat.sum(axis=0)
    grads.Ug += d_a_flat.T @ hidden[:-batch]
    grads.bg += d_a_flat.sum(axis=0)

    # per-symbol input contractions. The stable sort keeps each symbol's rows
    # in window order, and coef keeps both rows [1, s] for every variant: a
    # one-row product runs as a gemv, which rounds unlike the dense product
    x_idx = symbols[:-1].reshape(-1)
    order = np.argsort(x_idx, kind="stable")
    sym = x_idx[order]
    coef = np.ones((sym.shape[0], 2), dtype=d_a_flat.dtype)
    coef[:, 1] = arena.s_val.reshape(-1)[order]
    starts = np.flatnonzero(np.r_[True, sym[1:] != sym[:-1]])
    stops = np.r_[starts[1:], sym.shape[0]]
    out = np.zeros((2, params.vocab_size, 4 * n), dtype=d_a_flat.dtype)
    for a, e in zip(starts.tolist(), stops.tolist()):
        out[:, sym[a]] = coef[a:e].T @ d_a_flat[order[a:e]]
    grads.Wg += out[0].T
    if params.variant != "standard":
        grads.Vg += out[1].T
    return d_h, d_c
