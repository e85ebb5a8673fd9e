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

from dataclasses import dataclass, replace

import numpy as np

from .numerics import NumericalError, matmul, one_hot, sample_bernoulli, sigmoid, softmax_rows

VARIANTS = ("standard", "sf", "fixed_zoneout", "adaptive")

GATES = ("f", "i", "o", "u")

# Block order is load-bearing: checkpoints serialize arrays in exactly this order.
PARAM_KEYS = (
    "W_f", "W_i", "W_o", "W_u",
    "U_f", "U_i", "U_o", "U_u",
    "V_f", "V_i", "V_o", "V_u",
    "b_f", "b_i", "b_o", "b_u",
    "W_y", "b_y",
)

LN2 = float(np.log(2.0))


def block_shapes(vocab_size, hidden_size):
    """Shape of every trainable block, keyed like PARAM_KEYS."""
    m, n = vocab_size, hidden_size
    shapes = {}
    for g in GATES:
        shapes["W_" + g] = (n, m)
        shapes["U_" + g] = (n, n)
        shapes["V_" + g] = (n, m)
        shapes["b_" + g] = (n,)
    shapes["W_y"] = (m, n)
    shapes["b_y"] = (m,)
    return shapes


@dataclass
class ModelParams:
    """All trainable blocks plus the update-probability floor and variant flags.

    W_* and V_* map the M-dim input / surprisal rows to the N cells, U_* are
    the recurrent weights, W_y projects hidden state back to the vocabulary.
    tau is the guaranteed minimum update probability of the adaptive variant;
    zoneout_rate is the constant update probability of fixed_zoneout.
    """

    W_f: np.ndarray
    W_i: np.ndarray
    W_o: np.ndarray
    W_u: np.ndarray
    U_f: np.ndarray
    U_i: np.ndarray
    U_o: np.ndarray
    U_u: np.ndarray
    V_f: np.ndarray
    V_i: np.ndarray
    V_o: np.ndarray
    V_u: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_o: np.ndarray
    b_u: np.ndarray
    W_y: np.ndarray
    b_y: np.ndarray
    tau: float = 0.05
    variant: str = "adaptive"
    zoneout_rate: float = 0.5

    @classmethod
    def zeros(cls, vocab_size, hidden_size, variant="adaptive", tau=0.05,
              zoneout_rate=0.5, dtype=np.float32):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {tau}")
        shapes = block_shapes(vocab_size, hidden_size)
        arrays = {k: np.zeros(shapes[k], dtype=dtype) for k in PARAM_KEYS}
        return cls(**arrays, tau=float(tau), variant=variant,
                   zoneout_rate=float(zoneout_rate))

    @property
    def hidden_size(self):
        return self.W_f.shape[0]

    @property
    def vocab_size(self):
        return self.W_f.shape[1]

    @property
    def dtype(self):
        return self.W_f.dtype

    def blocks(self):
        """(name, array) pairs in serialization order."""
        return [(k, getattr(self, k)) for k in PARAM_KEYS]

    def trainable_keys(self):
        """Blocks the optimizer may touch; the standard variant never trains V_*."""
        if self.variant == "standard":
            return tuple(k for k in PARAM_KEYS if not k.startswith("V_"))
        return PARAM_KEYS

    def copy(self):
        arrays = {k: getattr(self, k).copy() for k in PARAM_KEYS}
        return replace(self, **arrays)

    def astype(self, dtype):
        arrays = {k: getattr(self, k).astype(dtype) for k in PARAM_KEYS}
        return replace(self, **arrays)


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

    def copy(self):
        return RecurrentState(self.c.copy(), self.h.copy(), self.p_prev.copy())


@dataclass
class StepCache:
    """Everything one forward step computed that the backward step consumes."""

    x_idx: np.ndarray   # current symbol indices, B
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
    y: np.ndarray       # logits, B x M
    p: np.ndarray       # output distribution, B x M


@dataclass
class GradientSet:
    """Per-block gradient accumulators, shape-congruent with ModelParams."""

    data: dict

    @classmethod
    def zeros_like(cls, params):
        return cls({k: np.zeros_like(v) for k, v in params.blocks()})

    def __getitem__(self, key):
        return self.data[key]

    def __setitem__(self, key, value):
        self.data[key] = value

    def items(self):
        return [(k, self.data[k]) for k in PARAM_KEYS if k in self.data]

    def zero_(self):
        for _, v in self.items():
            v.fill(0.0)

    def global_norm(self):
        total = 0.0
        for _, v in self.items():
            total += float(np.sum(np.square(v, dtype=np.float64)))
        return float(np.sqrt(total))

    def scale_(self, factor):
        for _, v in self.items():
            v *= factor


@dataclass
class FrozenStep:
    """External overrides for one step's surprisal, rate and mask.

    Used by the gradient-check harness (which must hold these constant while
    parameters are perturbed) and by tests that force specific masks. s is
    the per-row surprisal scalar (B,), like StepCache.s_val.
    """

    s: np.ndarray = None
    z: np.ndarray = None
    mask: np.ndarray = None


_NO_OVERRIDES = FrozenStep()


@dataclass
class _FusedGates:
    # per-gate blocks stacked f|i|o|u along the cell axis, pre-transposed
    # and contiguous; rebuilt once per window, shared by all its steps
    WgT: np.ndarray     # (M, 4N)
    UgT: np.ndarray     # (N, 4N)
    VgT: np.ndarray     # (M, 4N)
    bg: np.ndarray      # (4N,)
    Ug: np.ndarray      # (4N, N), for the recurrent backward product
    WyT: np.ndarray     # (N, M)


def fuse_gate_weights(params):
    """Stack and pre-transpose the gate weights so steps run few wide matmuls."""
    Wg = np.concatenate([params.W_f, params.W_i, params.W_o, params.W_u], axis=0)
    Ug = np.concatenate([params.U_f, params.U_i, params.U_o, params.U_u], axis=0)
    Vg = np.concatenate([params.V_f, params.V_i, params.V_o, params.V_u], axis=0)
    return _FusedGates(
        WgT=np.ascontiguousarray(Wg.T),
        UgT=np.ascontiguousarray(Ug.T),
        VgT=np.ascontiguousarray(Vg.T),
        bg=np.concatenate([params.b_f, params.b_i, params.b_o, params.b_u]),
        Ug=Ug,
        WyT=np.ascontiguousarray(params.W_y.T),
    )


def surprisal_vector(p_prev, x_idx):
    """Log-probability the previous prediction gave each row's arriving symbol.

    One nonpositive value per row (0 means the previous step was certain
    and right). A zero probability has no finite surprisal: it means the
    model's outputs underflowed, which is a numerical failure.
    """
    p_target = p_prev[np.arange(x_idx.shape[0]), x_idx]
    # one reduction with np.any(p_target <= 0.0)'s answer; NaN passes both
    if p_target.min() <= 0.0:
        raise NumericalError(
            "previous prediction assigns zero probability to an observed symbol"
        )
    return np.log(p_target)


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


def sample_update_mask(z, rng):
    """Binary mask: 1 fires an update with probability z, 0 freezes the cell."""
    return sample_bernoulli(z, rng)


def _activate_gates(a, n):
    sig = sigmoid(a[:, : 3 * n])
    u = np.tanh(a[:, 3 * n:])
    return sig[:, :n], sig[:, n: 2 * n], sig[:, 2 * n:], u


def gate_forward(x_idx, s_val, h_prev, fused):
    """Gate activations from input symbols, previous hidden state and surprisal.

    The one-hot input row and the single-entry surprisal row turn their
    matmuls into row gathers of the fused weights. All variants run the same
    expression; the standard variant simply keeps its surprisal weights at
    zero.
    """
    a = fused.WgT[x_idx]
    a += matmul(h_prev, fused.UgT)
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


def _update_probability(state, x_idx, params):
    if params.variant == "adaptive":
        return zoneout_rate(prediction_error(state.p_prev, x_idx), params.W_y, params.tau)
    if params.variant == "fixed_zoneout":
        return np.full_like(state.c, params.zoneout_rate)
    # standard / sf: every cell updates every step
    return np.ones_like(state.c)


def forward_step(state, x_idx, params, rng=None, mask_mode="sampled", target=None,
                 frozen=None, fused=None):
    """One full step of the cell; returns (new_state, cache, loss_nats).

    x_idx is the index row (B,) of the current symbols. mask_mode "sampled"
    draws a binary update mask; "expected" substitutes the update
    probability itself (the evaluation convention). target, when given, is
    the index row of the next symbol, and loss_nats is the batch-mean cross
    entropy against it; otherwise loss_nats is None. frozen overrides
    individual intermediate quantities, see FrozenStep.
    """
    if mask_mode not in ("sampled", "expected"):
        raise ValueError(f"unknown mask_mode {mask_mode!r}")
    if fused is None:
        fused = fuse_gate_weights(params)
    if frozen is None:
        frozen = _NO_OVERRIDES
    s_val = frozen.s
    if s_val is None:
        s_val = surprisal_vector(state.p_prev, x_idx)
    f, i, o, u = gate_forward(x_idx, s_val, state.h, fused)
    full = params.variant in ("standard", "sf")
    z, mask = frozen.z, frozen.mask
    every_cell = full and z is None and mask is None
    if z is None:
        z = _update_probability(state, x_idx, params)
    if mask is None:
        mask = z if full or mask_mode == "expected" else sample_update_mask(z, rng)
    c = cell_update(state.c, f, i, u, None if every_cell else mask)
    c_hat, h = hidden_from_cell(c, o)
    y = matmul(h, fused.WyT) + params.b_y
    p = softmax_rows(y)
    loss = None
    if target is not None:
        # sum / B is np.mean's own reduction and division, without its overhead
        nll = -np.log(p[np.arange(target.shape[0]), target])
        loss = float(nll.sum() / nll.shape[0])
    cache = StepCache(x_idx=x_idx, s_val=s_val, z=z, mask=mask, f=f, i=i, o=o,
                      u=u, h_prev=state.h, c_prev=state.c, c=c, c_hat=c_hat,
                      h=h, y=y, p=p)
    return RecurrentState(c=c, h=h, p_prev=p), cache, loss


def cross_entropy_bpc(loss_nats):
    """Nats per symbol to bits per character."""
    return loss_nats / LN2


def _backward_core(cache, params, d_h_next, d_c_next, target, fused):
    """Sequential part of one backward step: loss gradient, gate chain,
    carry to the previous step. Parameter accumulation happens outside."""
    batch = cache.p.shape[0]
    rows = np.arange(batch)

    d_y = cache.p / batch
    d_y[rows, target] -= 1.0 / batch

    d_h = d_h_next + matmul(d_y, params.W_y)
    d_o = d_h * cache.c_hat
    d_c = d_c_next + d_h * cache.o * (1.0 - cache.c_hat * cache.c_hat)

    d_c_prev = d_c * (1.0 - cache.f * cache.mask)
    d_f = -(d_c * cache.mask * cache.c_prev)
    d_i = d_c * cache.mask * cache.u
    d_u = d_c * cache.mask * cache.i

    d_a = np.concatenate(
        [
            d_f * cache.f * (1.0 - cache.f),
            d_i * cache.i * (1.0 - cache.i),
            d_o * cache.o * (1.0 - cache.o),
            d_u * (1.0 - cache.u * cache.u),
        ],
        axis=1,
    )
    d_h_prev = matmul(d_a, fused.Ug)
    return d_y, d_a, d_h_prev, d_c_prev


def _scatter_gate_grads(grads, d_Wg, d_Ug, d_Vg, d_bg, n, train_v):
    for gi, g in enumerate(GATES):
        rows_g = slice(gi * n, (gi + 1) * n)
        grads["W_" + g] += d_Wg[rows_g]
        grads["U_" + g] += d_Ug[rows_g]
        grads["b_" + g] += d_bg[rows_g]
        if train_v:
            grads["V_" + g] += d_Vg[rows_g]


def backward_step(cache, params, d_h_next, d_c_next, target, grads, fused=None):
    """Backward through one cached step; accumulates parameter gradients.

    target is the index row the step was scored against; its softmax +
    cross-entropy gradient (p - onehot) / B enters here, on top of whatever
    d_h_next / d_c_next arrived from later steps. Returns (d_h_prev,
    d_c_prev). The surprisal vector and the update mask are constants, so
    nothing flows into the previous prediction or through the mask. This is
    backward_window over a one-step window.
    """
    if d_h_next.shape != cache.h.shape or d_c_next.shape != cache.c.shape:
        raise ValueError(
            f"backward_step shape mismatch: got {d_h_next.shape}/{d_c_next.shape}, "
            f"expected {cache.h.shape}/{cache.c.shape}"
        )
    return backward_window([cache], params, [target], grads, fused=fused,
                           d_h_final=d_h_next, d_c_final=d_c_next)


def backward_window(caches, params, targets, grads, fused=None,
                    d_h_final=None, d_c_final=None):
    """Reverse sweep over a whole cached window with batched accumulation.

    Mathematically the composition of backward_step over the window, but the
    parameter contractions run as single wide matmuls over all (step, lane)
    pairs, which is far faster at training shapes. Returns (d_h_prev,
    d_c_prev) at the window start.
    """
    if fused is None:
        fused = fuse_gate_weights(params)
    n = params.hidden_size
    seq_len = len(caches)
    d_h = d_h_final if d_h_final is not None else np.zeros_like(caches[-1].h)
    d_c = d_c_final if d_c_final is not None else np.zeros_like(caches[-1].c)
    d_y_all = [None] * seq_len
    d_a_all = [None] * seq_len
    for t in reversed(range(seq_len)):
        d_y, d_a, d_h, d_c = _backward_core(caches[t], params, d_h, d_c,
                                            targets[t], fused)
        d_y_all[t] = d_y
        d_a_all[t] = d_a

    d_y_flat = np.concatenate(d_y_all)
    d_a_flat = np.concatenate(d_a_all)
    grads["W_y"] += matmul(d_y_flat.T, np.concatenate([c.h for c in caches]))
    grads["b_y"] += d_y_flat.sum(axis=0)
    # the window's one-hot and surprisal rows, rebuilt from the cached
    # indices so the contractions below see the dense rows they always did
    x_idx = np.concatenate([c.x_idx for c in caches])
    x = one_hot(x_idx, params.vocab_size, dtype=params.dtype)
    train_v = params.variant != "standard"
    d_Vg = None
    if train_v:
        s = np.zeros_like(x)
        s[np.arange(x_idx.shape[0]), x_idx] = np.concatenate([c.s_val for c in caches])
        d_Vg = matmul(d_a_flat.T, s)
    _scatter_gate_grads(
        grads,
        matmul(d_a_flat.T, x),
        matmul(d_a_flat.T, np.concatenate([c.h_prev for c in caches])),
        d_Vg,
        d_a_flat.sum(axis=0),
        n,
        train_v,
    )
    return d_h, d_c
