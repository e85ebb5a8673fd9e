"""Per-timestep recording of one lane's gate and state activity.

trace_stream runs a single lane over a symbol stream and records its last
`window` steps (default 100) in a B=1 WindowArena: write/read/erase gate
activations, hidden and cell state, update probability and mask. The steps
before the window run unrecorded, carrying their state and random stream
into it, so the recorded rows are bit-identical to those steps of one
unsplit run. Export is CSV; a plotting tool can rebuild the RGB gate
composite from the i/o/f columns (write -> red, read -> green, erase ->
blue; all three high is white, a masked-out step is black).

Both exporters open their files in binary mode and write "\n" line ends,
so the bytes do not depend on the platform. Every value prints as "%.7g"
prints it. export_gate_map builds that text in numpy, EXPORT_CHUNK steps at
a time; its docstring gives the argument that the digits are exact.
"""

from dataclasses import dataclass

import numpy as np

from .cell import WindowArena, check_integer, require, run_lanes
from .numerics import RngState

EXPORT_CHUNK = 16  # steps per formatted write in export_gate_map


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


def _text_words(texts, words):
    """ASCII texts as rows of `words` little-endian uint64 words, NUL-padded."""
    padded = b"".join(text.encode().ljust(8 * words, b"\0") for text in texts)
    return np.frombuffer(padded, "<u8").reshape(len(texts), words)


def export_gate_map(buffer, path):
    """Write the gate-activation map as CSV rows (t, cell, i, o, f, Z).

    The bytes are those of a per-row writer printing each value with "%.7g".
    Each EXPORT_CHUNK steps build their rows in one matrix of little-endian
    uint64 words, a 16-byte field per value holding its text and separator
    padded with NUL bytes. One bytes.translate drops the NULs and one call
    writes the chunk, so memory is bounded per chunk, not per window.

    The text of a value x in [1e-4, 1] is built in numpy. With k the power
    that puts x * 10**k in [10**6, 10**7) (6 for 1, else 7 to 10), it is
    "0." and k - 7 zeros, then the digits of n = rint(x * 10**k) without
    their trailing zeros ("1" for 1). For f32 the product is exact in f64:
    10**k is 5**k * 2**k and 5**k < 2**24, so a 24-bit significand times it
    keeps at most 48 bits. np.rint thus rounds the exact value half to even,
    as Python's float formatting does. An f64 product is rounded, by at most
    2**-30 as it is below 2**24, so rint can only differ where its fraction
    is that near 1/2; those values go to Python. Compares with the bounds 1,
    0.1, 0.01 and 0.001 pick k; each bound's f64 is the nearest double above
    it, so no double falls between them. An n rounded up to 10**7 is 10**6
    with k - 1. Tables of the first three and the last four digits give the
    text. Exact 0 prints "0". Every other value (negatives, -0.0, values
    below 1e-4, NaN and inf) is formatted by Python's "%.7g".
    """
    if not len(buffer):
        raise ValueError("trace buffer is empty, nothing to export")
    arena = buffer.arena
    f, i, o, _ = (g[:, 0] for g in arena.gate_rows(slice(None)))
    mask = arena.mask[:, 0]
    steps, cells = f.shape
    # digits[w - 1] = (full, bare): full[v] holds "%0{w}d" % v in bytes 0..w-1,
    # bare[v] the same with its trailing zeros as NUL
    digits, full, bare = [], np.zeros(1, np.uint64), np.zeros(1, np.uint64)
    for pos in range(4):
        digit = np.arange(10, dtype=np.uint64)
        grown = full[:, None] | (digit + np.uint64(48)) << np.uint64(8 * pos)
        bare = np.where(digit == 0, bare[:, None], grown).ravel()
        full = grown.ravel()
        digits.append((full, bare))
    # head[2000 e + 1000 z + a]: the text before the last four digits of a
    # value e decades below [1, 10) whose first three digits are a, without
    # a's trailing zeros when z (the last four are all 0); e = 5 prints 0
    prefix = _text_words(["", "0.", "0.0", "0.00", "0.000", "0"], 1)
    head = (prefix[:, :, None] | np.stack(digits[2]) << np.uint64(40)).ravel()
    tail = digits[3][1]
    scale = 10.0 ** np.arange(6, 11)
    # every value field is 16 bytes: its text, NUL padding, its separator last
    sep = np.frombuffer(b",,,\n", np.uint8)
    sep_word = (sep.astype(np.uint64) << np.uint64(56))[:, None, None]
    tw = (len(str(buffer.start + steps - 1)) + 8) // 8
    lead = tw + (len(str(cells - 1)) + 8) // 8
    out = np.empty((min(EXPORT_CHUNK, steps), cells, lead + 8), "<u8")
    out[:, :, tw:lead] = _text_words([f"{cell}," for cell in range(cells)], lead - tw)
    with open(path, "wb") as fh:
        fh.write(b"t,cell,i,o,f,Z\n")
        for first in range(0, steps, EXPORT_CHUNK):
            chunk = slice(first, first + EXPORT_CHUNK)
            raw = np.stack([i[chunk], o[chunk], f[chunk], mask[chunk]], dtype=np.float64)
            rows = out[: raw.shape[1]]
            t0 = buffer.start + first
            rows[:, :, :tw] = _text_words([f"{t}," for t in range(t0, t0 + len(rows))], tw)[:, None]
            fast = (raw >= 1e-4) & (raw <= 1.0)
            x = np.where(fast, raw, 0.0)
            e = sum(x < bound for bound in (1.0, 0.1, 0.01, 0.001))
            x *= scale.take(e)
            if f.dtype != np.float32:
                # an f64 product is rounded, by at most 2**-30 here: Python
                # prints the values whose fraction is that near 1/2
                fast &= np.abs(x % 1.0 - 0.5) > 1e-6
            up = np.rint(x, out=x) == 1e7   # x rounds up to a power of 10: 10**6, k - 1
            x[up] = 1e6
            e -= up
            e += ~fast      # the literal 0; Python's text replaces it where x is not 0
            first3, last4 = np.divmod(x.astype(np.int32), 10000)
            e *= 2000
            e += 1000 * (last4 == 0) + first3
            fields = rows[:, :, lead:].reshape(len(rows), cells, 4, 2).transpose(2, 0, 1, 3)
            fields[..., 0] = head.take(e)
            fields[..., 1] = tail.take(last4) | sep_word
            slow = ~fast & (raw.view(np.uint64) != 0)
            if slow.any():
                text = ("%-16.7g" * int(slow.sum())) % tuple(raw[slow].tolist())
                slot = np.frombuffer(text.encode(), np.uint8).reshape(-1, 16).copy()
                slot[slot == ord(" ")] = 0
                slot[:, 15] = sep[np.nonzero(slow)[0]]
                fields[slow] = slot.view("<u8")
            fh.write(rows.tobytes().translate(None, b"\0"))
    return path


def export_cell_change(buffer, path):
    """Write per-step mean absolute cell change as CSV rows (t, dc_l1)."""
    if not len(buffer):
        raise ValueError("trace buffer is empty, nothing to export")
    with open(path, "wb") as fh:
        fh.write(b"t,dc_l1\n")
        fh.write("".join(f"{t},{dc:.7g}\n" for t, dc in
                         enumerate(_cell_change(buffer.arena).tolist(), buffer.start)).encode())
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
    filled buffer. Weights are never written. window must be an integer >= 1
    (not a bool) and seed an integer >= 0.
    """
    whole = isinstance(window, (int, np.integer)) and not isinstance(window, bool)
    require("trace window", window, whole and window >= 1, "be at least 1 step")
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
