"""Per-timestep recording of one batch lane's gate and state activity.

The buffer keeps the last `window` steps (default 100) of a single lane:
write/read/erase gate activations, hidden and cell state, update
probability and mask, and the mean absolute cell change. Export is CSV; a
plotting tool can rebuild the RGB gate composite from the i/o/f columns
(write -> red, read -> green, erase -> blue; all three high is white, a
masked-out step is black).
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .cell import RecurrentState, forward_step, fuse_gate_weights
from .numerics import RngState

EXPORT_CHUNK = 32  # steps per formatted write in export_gate_map


@dataclass
class TraceStep:
    t: int
    f: np.ndarray
    i: np.ndarray
    o: np.ndarray
    h: np.ndarray
    c: np.ndarray
    z: np.ndarray
    mask: np.ndarray
    dc: float          # mean over cells of |c_t - c_{t-1}| for the lane


@dataclass
class TraceBuffer:
    window: int = 100
    steps: deque = field(default_factory=deque)
    counter: int = 0

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"trace window must be at least 1 step, got {self.window}")
        self.steps = deque(self.steps, maxlen=self.window)

    def __len__(self):
        return len(self.steps)


def record_step(cache, lane, buffer):
    """Append one lane's slice of a step cache; ring-buffers past the window.

    Copies everything it stores, so recording never aliases live state and a
    traced run is bit-identical to an untraced one.
    """
    if not 0 <= lane < cache.c.shape[0]:
        raise ValueError(f"lane {lane} out of range for batch of {cache.c.shape[0]}")
    dc = float(np.abs(cache.c[lane] - cache.c_prev[lane]).mean())
    buffer.steps.append(TraceStep(
        t=buffer.counter,
        f=cache.f[lane].copy(),
        i=cache.i[lane].copy(),
        o=cache.o[lane].copy(),
        h=cache.h[lane].copy(),
        c=cache.c[lane].copy(),
        z=cache.z[lane].copy(),
        mask=cache.mask[lane].copy(),
        dc=dc,
    ))
    buffer.counter += 1
    return buffer


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
                       for cell in range(steps[0].c.shape[0]))
    with open(path, "w") as fh:
        fh.write("t,cell,i,o,f,Z\n")
        for start in range(0, len(steps), EXPORT_CHUNK):
            chunk = steps[start: start + EXPORT_CHUNK]
            values = np.array([(s.i, s.o, s.f, s.mask) for s in chunk])
            rows = "".join(template.format(t=s.t) for s in chunk)
            fh.write(rows % tuple(values.transpose(0, 2, 1).ravel().tolist()))
    return path


def export_cell_change(buffer, path):
    """Write per-step mean absolute cell change as CSV rows (t, dc_l1)."""
    if not buffer.steps:
        raise ValueError("trace buffer is empty, nothing to export")
    with open(path, "w") as fh:
        fh.write("t,dc_l1\n")
        fh.write("".join(f"{s.t},{s.dc:.7g}\n" for s in buffer.steps))
    return path


def cell_change_stats(buffer):
    """Per-step mean absolute cell change and its window mean."""
    if len(buffer.steps) < 2:
        raise ValueError("cell change statistics need at least 2 recorded steps")
    per_step = np.array([s.dc for s in buffer.steps])
    return per_step, float(per_step.mean())


def trace_stream(params, symbols, window=100, mask_mode="sampled",
                 seed=0, buffer=None):
    """Run a single-lane pass over a symbol stream, recording every step.

    Scores symbols[t+1] from symbols[t] like evaluation does; returns the
    filled buffer. Weights are never written.
    """
    if buffer is None:
        buffer = TraceBuffer(window=window)
    symbols = np.asarray(symbols)
    if len(symbols) < 2:
        raise ValueError("trace stream needs at least 2 symbols")
    rng = RngState(seed)
    state = RecurrentState.initial(1, params.hidden_size, params.vocab_size,
                                   dtype=params.dtype)
    fused = fuse_gate_weights(params)
    for t in range(len(symbols) - 1):
        state, cache, _ = forward_step(state, symbols[t: t + 1], params, rng=rng,
                                       mask_mode=mask_mode,
                                       target=symbols[t + 1: t + 2], fused=fused)
        record_step(cache, 0, buffer)
    return buffer
