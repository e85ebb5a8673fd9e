"""Finite-difference oracle for the hand-derived backward pass.

The window loss is replayed with the surprisal vectors, update probabilities
and masks captured once at the unperturbed parameters and held frozen, so the
oracle differentiates exactly the function the backward pass claims to
differentiate. float64 only; central differences.
"""

from dataclasses import dataclass

import numpy as np

from .cell import (GradientSet, ModelParams, RecurrentState, WindowArena, backward_window,
                   require, run_lanes)
from .numerics import NumericalError, RngState
from .optim import xavier_init
from .training import TrainConfig

DEFAULT_EPS = 1e-5
PASS_THRESHOLD = 1e-5

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


def numerical_gradient(loss_fn, arrays, eps=DEFAULT_EPS):
    """Central differences (L(x+eps) - L(x-eps)) / (2 eps) per coordinate.

    loss_fn takes no arguments and must read the arrays in `arrays`, which
    are perturbed in place and restored. Every coordinate is checked.
    """
    require("eps", eps, eps > 0, "be positive")
    out = {}
    for name, block in arrays.items():
        if block.dtype != np.float64:
            raise ValueError(f"gradient check requires float64 blocks, {name} is {block.dtype}")
        numeric = np.empty(block.size)
        for r in range(block.size):
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
    """Per-coordinate relative error |a - n| / max(|a|, |n|, 1e-8), per block."""
    reports = []
    for name in numeric:
        a = np.asarray(analytic[name], dtype=np.float64)
        n = numeric[name]
        if a.shape != n.shape:
            raise ValueError(f"gradient shape mismatch for {name}: {a.shape} vs {n.shape}")
        rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        reports.append(BlockReport(name, float(rel.max()), float(rel.sum() / rel.size),
                                   int(np.argmax(rel)), rel.size))
    return GradReport(reports)


def _random_distribution(rng, batch_size, vocab):
    logits = rng.uniform((batch_size, vocab)) * 2.0 - 1.0
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def tiny_window_check(variant, seq_len=4, batch_size=2, vocab=5, seed=DEFAULT_SEED,
                      eps=DEFAULT_EPS, mask_mode="sampled"):
    """Full harness on a small window; returns the GradReport.

    Builds a float64 model of 8 cells from the TrainConfig of variant and
    seed (its rules, its default tau and zoneout_rate), collects a window with
    sampled masks (replayed twice and asserted bit-identical), freezes the
    per-step surprisal / rate / mask, and compares the analytic sweep against
    central differences over every coordinate of every trainable block.
    """
    cfg = TrainConfig(hidden=8, variant=variant, precision="f64", seed=seed)
    params = ModelParams.zeros(vocab, cfg)   # validates cfg before RngState takes its seed
    root = RngState(seed)
    xavier_init(params, root.fork(1))

    # independent symbol stream per lane so batch-reduction bugs cannot cancel
    lane_stream = root.fork(2).integers(0, vocab, size=(seq_len + 1, batch_size))

    # a generic nonzero starting point conditions the check better than the
    # zero state: recurrent-weight gradients then get contributions from
    # every step, keeping coordinates clear of the finite-difference floor
    state_rng = root.fork(3)
    state0 = RecurrentState(
        c=state_rng.uniform((batch_size, params.hidden_size)) * 2.0 - 1.0,
        h=state_rng.uniform((batch_size, params.hidden_size)) * 1.6 - 0.8,
        p_prev=_random_distribution(state_rng, batch_size, vocab),
    )

    arena, replay = (WindowArena(params, seq_len, batch_size) for _ in range(2))
    for rows in (arena, replay):
        run_lanes(params, lane_stream, state0, RngState(seed, 100), mask_mode, arena=rows)
    if not all(np.array_equal(getattr(arena, k), getattr(replay, k)) for k in ("mask", "s_val")):
        raise NumericalError("mask replay is not bit-identical; rng is broken")

    blocks = {k: getattr(params, k) for k in params.trainable_keys()}

    def loss_fn():
        # the summed per-step batch-mean loss of the window replayed with its
        # own recorded surprisal, rate and mask
        return run_lanes(params, lane_stream, state0, frozen=arena)[1]

    base = loss_fn()
    if not np.isfinite(base):
        raise NumericalError("non-finite window loss at the unperturbed parameters")

    numeric = numerical_gradient(loss_fn, blocks, eps=eps)
    # the backward_window call run_tbptt_window makes in training
    analytic = GradientSet.zeros_like(params)
    backward_window(arena, params, lane_stream, analytic)
    return compare_gradients({k: getattr(analytic, k) for k in blocks}, numeric)
