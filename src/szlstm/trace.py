"""Per-timestep recording of one lane's gate and state activity.

trace_stream runs a single lane over a symbol stream and keeps the StepCache
of each of its last `window` steps (default 100), as run_lanes passed it:
write/read/erase gate activations, hidden and cell state, update
probability and mask. run_lanes makes fresh arrays at every step and never
writes one afterwards, so the kept caches never alias live state and a
traced run is bit-identical to an untraced one. Export is CSV; a plotting
tool can rebuild the RGB gate composite from the i/o/f columns (write ->
red, read -> green, erase -> blue; all three high is white, a masked-out
step is black).
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .cell import run_lanes
from .numerics import RngState

EXPORT_CHUNK = 32  # steps per formatted write in export_gate_map


@dataclass
class TraceBuffer:
    """The last StepCaches of a single-lane run; start is the stream step of steps[0]."""

    start: int
    steps: deque

    def __len__(self):
        return len(self.steps)


def _cell_change(cache):
    # mean over cells of |c_t - c_{t-1}| for the lane
    return float(np.abs(cache.c[0] - cache.c_prev[0]).mean())


def export_gate_map(buffer, path):
    """Write the gate-activation map as CSV rows (t, cell, i, o, f, Z).

    Formats EXPORT_CHUNK steps per write, so memory does not grow with the
    window. .tolist() gives Python floats that hold the f32/f64 values
    exactly, so "%.7g" prints what formatting the numpy scalars prints.
    """
    if not buffer.steps:
        raise ValueError("trace buffer is empty, nothing to export")
    steps = list(buffer.steps)
    template = "".join(f"{{t}},{cell},%.7g,%.7g,%.7g,%.7g\n"
                       for cell in range(steps[0].c.shape[1]))
    with open(path, "w") as fh:
        fh.write("t,cell,i,o,f,Z\n")
        for first in range(0, len(steps), EXPORT_CHUNK):
            chunk = steps[first: first + EXPORT_CHUNK]
            t0 = buffer.start + first
            values = np.array([(s.i[0], s.o[0], s.f[0], s.mask[0]) for s in chunk])
            rows = "".join(template.format(t=t) for t in range(t0, t0 + len(chunk)))
            fh.write(rows % tuple(values.transpose(0, 2, 1).ravel().tolist()))
    return path


def export_cell_change(buffer, path):
    """Write per-step mean absolute cell change as CSV rows (t, dc_l1)."""
    if not buffer.steps:
        raise ValueError("trace buffer is empty, nothing to export")
    with open(path, "w") as fh:
        fh.write("t,dc_l1\n")
        fh.write("".join(f"{t},{_cell_change(s):.7g}\n"
                         for t, s in enumerate(buffer.steps, buffer.start)))
    return path


def cell_change_stats(buffer):
    """Per-step mean absolute cell change and its window mean."""
    if len(buffer.steps) < 2:
        raise ValueError("cell change statistics need at least 2 recorded steps")
    per_step = np.array([_cell_change(s) for s in buffer.steps])
    return per_step, float(per_step.mean())


def trace_stream(params, symbols, window=100, mask_mode="sampled", seed=0):
    """Run a single-lane pass over a symbol stream, keeping the last window steps.

    Scores symbols[t+1] from symbols[t] like evaluation does; returns the
    filled buffer. Weights are never written.
    """
    if window < 1:
        raise ValueError(f"trace window must be at least 1 step, got {window}")
    symbols = np.asarray(symbols)
    if len(symbols) < 2:
        raise ValueError("trace stream needs at least 2 symbols")
    steps = deque(maxlen=window)
    run_lanes(params, symbols[:, None], None, RngState(seed), mask_mode, on_step=steps.append)
    return TraceBuffer(start=len(symbols) - 1 - len(steps), steps=steps)
