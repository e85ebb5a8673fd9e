"""Per-timestep recording of one lane's gate and state activity.

trace_stream runs a single lane over a symbol stream and records its last
`window` steps (default 100) in a B=1 WindowArena: write/read/erase gate
activations, hidden and cell state, update probability and mask. The steps
before the window run unrecorded, carrying their state and random stream
into it, so the recorded rows are bit-identical to those steps of one
unsplit run. Export is CSV; a plotting tool can rebuild the RGB gate
composite from the i/o/f columns (write -> red, read -> green, erase ->
blue; all three high is white, a masked-out step is black).
"""

from dataclasses import dataclass

import numpy as np

from .cell import WindowArena, check_integer, require, run_lanes
from .numerics import RngState

EXPORT_CHUNK = 32  # steps per formatted write in export_gate_map


@dataclass
class TraceBuffer:
    """The last steps of a single-lane run, a B=1 WindowArena; start is row 0's stream step."""

    start: int
    arena: WindowArena

    def __len__(self):
        return len(self.arena.p)


def _cell_change(arena):
    # per step, the mean over cells of |c_t - c_{t-1}| for the lane
    c = arena.c[:, 0]
    return np.abs(c[1:] - c[:-1]).mean(axis=1)


def export_gate_map(buffer, path):
    """Write the gate-activation map as CSV rows (t, cell, i, o, f, Z).

    Formats EXPORT_CHUNK steps per write, so memory does not grow with the
    window. .tolist() gives Python floats that hold the f32/f64 values
    exactly, so "%.7g" prints what formatting the numpy scalars prints.
    """
    if not len(buffer):
        raise ValueError("trace buffer is empty, nothing to export")
    arena = buffer.arena
    f, i, o, _ = (g[:, 0] for g in arena.gate_rows(slice(None)))
    mask = arena.mask[:, 0]
    template = "".join(f"{{t}},{cell},%.7g,%.7g,%.7g,%.7g\n" for cell in range(f.shape[1]))
    with open(path, "w") as fh:
        fh.write("t,cell,i,o,f,Z\n")
        for first in range(0, len(buffer), EXPORT_CHUNK):
            chunk = slice(first, first + EXPORT_CHUNK)
            values = np.stack([i[chunk], o[chunk], f[chunk], mask[chunk]], axis=2)
            t0 = buffer.start + first
            rows = "".join(template.format(t=t) for t in range(t0, t0 + len(values)))
            fh.write(rows % tuple(values.ravel().tolist()))
    return path


def export_cell_change(buffer, path):
    """Write per-step mean absolute cell change as CSV rows (t, dc_l1)."""
    if not len(buffer):
        raise ValueError("trace buffer is empty, nothing to export")
    with open(path, "w") as fh:
        fh.write("t,dc_l1\n")
        fh.write("".join(f"{t},{dc:.7g}\n" for t, dc in
                         enumerate(_cell_change(buffer.arena).tolist(), buffer.start)))
    return path


def cell_change_stats(buffer):
    """Per-step mean absolute cell change and its window mean."""
    if len(buffer) < 2:
        raise ValueError("cell change statistics need at least 2 recorded steps")
    per_step = _cell_change(buffer.arena).astype(np.float64)
    return per_step, float(per_step.mean())


def trace_stream(params, symbols, window=100, mask_mode="sampled", seed=0):
    """Run a single-lane pass over a symbol stream, recording the last window steps.

    Scores symbols[t+1] from symbols[t] like evaluation does; returns the
    filled buffer. Weights are never written. seed must be an integer >= 0.
    """
    require("trace window", window, window >= 1, "be at least 1 step")
    check_integer("seed", seed, 0)
    symbols = np.asarray(symbols)
    if len(symbols) < 2:
        raise ValueError("trace stream needs at least 2 symbols")
    start = max(len(symbols) - 1 - window, 0)
    rng, state = RngState(seed), None
    if start:
        # a stream that fits the window runs as one call: each call copies the gate weights
        state, _ = run_lanes(params, symbols[: start + 1, None], None, rng, mask_mode)
    arena = WindowArena(params, len(symbols) - 1 - start, 1)
    run_lanes(params, symbols[start:, None], state, rng, mask_mode, arena=arena)
    return TraceBuffer(start=start, arena=arena)
