"""Finite-difference oracle for the hand-derived backward pass.

The window loss is replayed with the surprisal vectors, update probabilities
and masks captured once at the unperturbed parameters and held frozen, so the
oracle differentiates exactly the function the backward pass claims to
differentiate. float64 only; central differences.
"""

from dataclasses import dataclass

import numpy as np

from .cell import (
    FrozenStep,
    GradientSet,
    ModelParams,
    RecurrentState,
    backward_step,
    forward_step,
)
from .numerics import NumericalError, RngState
from .optim import xavier_init

DEFAULT_EPS = 1e-5
PASS_THRESHOLD = 1e-5
MIN_SAMPLES_PER_BLOCK = 64

# Pinned instance for the acceptance check. Central differences bottom out
# around 1e-10 absolute, so instances with an accidentally tiny gradient
# coordinate fail the relative test spuriously; this seed keeps every
# coordinate of every variant, in both mask modes, clear of the floor.
DEFAULT_SEED = 111


@dataclass
class BlockReport:
    name: str
    max_rel_err: float
    mean_rel_err: float
    worst_index: int
    n_checked: int


@dataclass
class GradReport:
    blocks: list

    @property
    def max_rel_err(self):
        return max((b.max_rel_err for b in self.blocks), default=0.0)

    def passed(self, threshold=PASS_THRESHOLD):
        return all(b.max_rel_err < threshold for b in self.blocks)

    def format_table(self):
        lines = ["block\tmax_rel_err\tmean_rel_err\tworst_index\tn_checked"]
        for b in self.blocks:
            lines.append(
                f"{b.name}\t{b.max_rel_err:.3e}\t{b.mean_rel_err:.3e}"
                f"\t{b.worst_index}\t{b.n_checked}"
            )
        return "\n".join(lines)


def numerical_gradient(loss_fn, arrays, eps=DEFAULT_EPS, samples_per_block=None, rng=None):
    """Central differences (L(x+eps) - L(x-eps)) / (2 eps) per coordinate.

    loss_fn takes no arguments and must read the arrays in `arrays`, which
    are perturbed in place and restored. With samples_per_block set, large
    blocks are subsampled (never below MIN_SAMPLES_PER_BLOCK); unchecked
    coordinates come back NaN so comparisons can skip them.
    """
    out = {}
    for name, block in arrays.items():
        if block.dtype != np.float64:
            raise ValueError(f"gradient check requires float64 blocks, {name} is {block.dtype}")
        if samples_per_block is None or block.size <= max(samples_per_block, MIN_SAMPLES_PER_BLOCK):
            coords = np.arange(block.size)
        else:
            take = max(int(samples_per_block), MIN_SAMPLES_PER_BLOCK)
            coords = np.unique(rng.integers(0, block.size, size=take))
        numeric = np.full(block.size, np.nan)
        for r in coords:
            old = block.flat[r]
            block.flat[r] = old + eps
            lo_plus = loss_fn()
            block.flat[r] = old - eps
            lo_minus = loss_fn()
            block.flat[r] = old
            if not (np.isfinite(lo_plus) and np.isfinite(lo_minus)):
                raise NumericalError(f"non-finite loss while perturbing {name}[{r}]")
            numeric[r] = (lo_plus - lo_minus) / (2.0 * eps)
        out[name] = numeric.reshape(block.shape)
    return out


def compare_gradients(analytic, numeric):
    """Per-coordinate relative error |a - n| / max(|a|, |n|, 1e-8), per block.

    NaN coordinates in the numeric set (skipped by subsampling) are ignored.
    """
    reports = []
    for name in numeric:
        a = np.asarray(analytic[name], dtype=np.float64)
        n = numeric[name]
        if a.shape != n.shape:
            raise ValueError(f"gradient shape mismatch for {name}: {a.shape} vs {n.shape}")
        checked = ~np.isnan(n)
        rel = np.zeros_like(a)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(np.where(checked, n, 0.0))), 1e-8)
        rel[checked] = (np.abs(a - np.where(checked, n, a)) / denom)[checked]
        n_checked = int(checked.sum())
        if n_checked:
            worst = int(np.argmax(rel))
            reports.append(BlockReport(name, float(rel.max()),
                                       float(rel.sum() / n_checked), worst, n_checked))
        else:
            reports.append(BlockReport(name, 0.0, 0.0, -1, 0))
    return GradReport(reports)


def _random_distribution(rng, batch_size, vocab):
    logits = rng.uniform((batch_size, vocab)) * 2.0 - 1.0
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def _collect_window(params, state0, inputs, targets, rng_mask, mask_mode):
    caches = []
    state = state0.copy()
    for t in range(inputs.shape[0]):
        state, cache, _ = forward_step(state, inputs[t], params, rng=rng_mask,
                                       mask_mode=mask_mode, target=targets[t])
        caches.append(cache)
    return caches


def _frozen_from_caches(caches):
    return [FrozenStep(s=c.s_val, z=c.z, mask=c.mask) for c in caches]


def window_loss(params, state0, inputs, targets, frozen):
    """Summed per-step batch-mean loss of a replayed window with frozen masks."""
    state = state0.copy()
    total = 0.0
    for t in range(inputs.shape[0]):
        state, _, loss = forward_step(state, inputs[t], params, mask_mode="sampled",
                                      target=targets[t], frozen=frozen[t])
        total += loss
    return total


def analytic_window_gradient(params, caches, targets):
    """Backward sweep over a cached window; returns the accumulated GradientSet."""
    grads = GradientSet.zeros_like(params)
    batch = caches[0].x_idx.shape[0]
    d_h = np.zeros((batch, params.hidden_size), dtype=params.dtype)
    d_c = np.zeros_like(d_h)
    for t in reversed(range(len(caches))):
        d_h, d_c = backward_step(caches[t], params, d_h, d_c, targets[t], grads)
    return grads


def tiny_window_check(variant, seq_len=4, batch_size=2, hidden=8, vocab=5,
                      zoneout_rate=0.5, tau=0.05, seed=DEFAULT_SEED, eps=DEFAULT_EPS,
                      mask_mode="sampled"):
    """Full harness on a small window; returns the GradReport.

    Builds a float64 model, collects a window with sampled masks (replayed
    twice and asserted bit-identical), freezes the per-step surprisal /
    rate / mask, and compares the analytic sweep against central
    differences over every coordinate of every trainable block.
    """
    root = RngState(seed)
    params = ModelParams.zeros(vocab, hidden, variant=variant, tau=tau,
                               zoneout_rate=zoneout_rate, dtype=np.float64)
    xavier_init(params, root.fork(1))

    # independent symbol stream per lane so batch-reduction bugs cannot cancel
    lane_stream = root.fork(2).integers(0, vocab, size=(seq_len + 1, batch_size))
    inputs = lane_stream[:-1]
    targets = lane_stream[1:]

    # a generic nonzero starting point conditions the check better than the
    # zero state: recurrent-weight gradients then get contributions from
    # every step, keeping coordinates clear of the finite-difference floor
    state_rng = root.fork(3)
    state0 = RecurrentState(
        c=state_rng.uniform((batch_size, hidden)) * 2.0 - 1.0,
        h=state_rng.uniform((batch_size, hidden)) * 1.6 - 0.8,
        p_prev=_random_distribution(state_rng, batch_size, vocab),
    )

    caches = _collect_window(params, state0, inputs, targets, RngState(seed, 100), mask_mode)
    replay = _collect_window(params, state0, inputs, targets, RngState(seed, 100), mask_mode)
    for a, b in zip(caches, replay):
        if not (np.array_equal(a.mask, b.mask) and np.array_equal(a.s_val, b.s_val)):
            raise NumericalError("mask replay is not bit-identical; rng is broken")

    frozen = _frozen_from_caches(caches)
    blocks = {k: getattr(params, k) for k in params.trainable_keys()}

    def loss_fn():
        return window_loss(params, state0, inputs, targets, frozen)

    base = loss_fn()
    if not np.isfinite(base):
        raise NumericalError("non-finite window loss at the unperturbed parameters")

    numeric = numerical_gradient(loss_fn, blocks, eps=eps)
    analytic = analytic_window_gradient(params, caches, targets)
    return compare_gradients({k: analytic[k] for k in blocks}, numeric)
