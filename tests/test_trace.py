import numpy as np
import pytest

from szlstm.cell import WindowArena, run_lanes
from szlstm.numerics import RngState
from szlstm.trace import (
    TraceBuffer,
    cell_change_stats,
    export_cell_change,
    export_gate_map,
    trace_stream,
)

from conftest import STEP_FIELDS, arena_steps, record, tiny_params


def lane_symbols(params, steps, seed):
    return RngState(seed).fork(2).integers(0, params.vocab_size, size=steps + 1)


def run_and_record(params, steps, frozen_mask=None, seed=0):
    """trace_stream over a seeded stream with its default 100-step window.
    With frozen_mask, the run is replayed from its own arena with every
    mask forced to frozen_mask, and the replay's arena is kept instead."""
    symbols = lane_symbols(params, steps, seed)
    buffer = trace_stream(params, symbols, seed=seed)
    if frozen_mask is None:
        return buffer
    assert len(buffer) == steps, "a replay needs every step's rows"
    buffer.arena.mask[...] = frozen_mask
    _, _, replay = record(params, symbols[:, None], frozen=buffer.arena)
    return TraceBuffer(start=0, arena=replay)


def empty_buffer():
    return TraceBuffer(start=0, arena=WindowArena(tiny_params(), 0, 1))


def reference_gate_map(buffer):
    """The per-row writer export_gate_map must match byte for byte."""
    out = ["t,cell,i,o,f,Z\n"]
    for t, step in enumerate(arena_steps(buffer.arena), buffer.start):
        for cell in range(step.c.shape[1]):
            out.append(f"{t},{cell},{step.i[0, cell]:.7g},{step.o[0, cell]:.7g},"
                       f"{step.f[0, cell]:.7g},{step.mask[0, cell]:.7g}\n")
    return "".join(out).encode()


def reference_cell_change(buffer):
    """The per-row writer export_cell_change must match byte for byte."""
    out = ["t,dc_l1\n"]
    for t, step in enumerate(arena_steps(buffer.arena), buffer.start):
        dc = float(np.abs(step.c[0] - step.c_prev[0]).mean())
        out.append(f"{t},{dc:.7g}\n")
    return "".join(out).encode()


def decimal_edge_values(dtype):
    """The values where "%.7g" built from n = rint(x * 10**k) could slip: the
    64 floats either side of each decade bound, the exact 7-digit ties m / 2**j
    below 10, the floats nearest decimal 7-digit ties (an f64 product may round
    onto the tie), the largest float below 1 and exact 0 and 1; and the values
    left to Python: -0.0, values in [1e-6, 1e-4), negatives, NaN and +-inf."""
    bits = np.dtype(f"i{np.dtype(dtype).itemsize}")
    near = [(np.arange(-64, 65, dtype=bits) + np.array(bound, dtype).view(bits)).view(dtype)
            for bound in (1e-4, 1e-3, 0.01, 0.1, 1.0)]
    ties = []
    for k in range(6, 11):
        # x * 10**k is an odd multiple of 1/2 where x = m / 2**(k + 1), m odd
        x = np.arange(1, 10 * 2 ** (k + 1), 2) / 2.0 ** (k + 1)
        x = x[(x >= 10.0 ** (6 - k)) & (x < 10.0 ** (7 - k))]
        assert np.all(x * 10.0 ** k % 1 == 0.5)
        ties.append(x)
    ties = np.concatenate(ties)
    halves = np.arange(10 ** 6, 10 ** 7, 180_001) + 0.5
    near_ties = (halves / 10.0 ** np.arange(7, 11)[:, None]).ravel()
    small = 10.0 ** np.linspace(-6, -4, 40, endpoint=False)
    special = [np.nextafter(dtype(1), dtype(0)), 0.0, 1.0, -0.0, np.nan, np.inf, -np.inf]
    return np.concatenate(near + [ties, near_ties, small, -ties[::25], -small[::5],
                                  special]).astype(dtype)


def assert_exports_match_reference(buffer, tmp_path):
    gates, cells = tmp_path / "gates.csv", tmp_path / "cells.csv"
    export_gate_map(buffer, str(gates))
    export_cell_change(buffer, str(cells))
    assert gates.read_bytes() == reference_gate_map(buffer)
    assert cells.read_bytes() == reference_cell_change(buffer)


class TestRecordStep:
    """trace_stream records the run's last window steps in an arena."""

    def test_window_fill(self):
        buffer = run_and_record(tiny_params(), 100)
        assert len(buffer) == 100 and buffer.start == 0

    def test_ring_buffer_keeps_last_window(self):
        buffer = run_and_record(tiny_params(), 150)
        assert len(buffer) == 100
        assert buffer.start == 50

    def test_masks_recorded_binary(self):
        buffer = run_and_record(tiny_params(variant="adaptive"), 60)
        assert set(np.unique(buffer.arena.mask)).issubset({0.0, 1.0})

    def test_cell_column_passthrough(self):
        # the last recorded step holds the cell and hidden state the run ended in
        params = tiny_params()
        buffer = run_and_record(params, 20)
        state, _ = run_lanes(params, lane_symbols(params, 20, 0)[:, None], None, RngState(0))
        np.testing.assert_array_equal(buffer.arena.c[-1], state.c)
        np.testing.assert_array_equal(buffer.arena.h[-1], state.h)

    @pytest.mark.parametrize("window", [0, -5])
    def test_window_must_be_positive(self, window):
        params = tiny_params()
        with pytest.raises(ValueError, match=f"window must be at least 1 step, got {window}"):
            trace_stream(params, lane_symbols(params, 5, 0), window=window)

    @pytest.mark.parametrize("window", [2.5, "3", True])
    def test_window_must_be_an_integer(self, window):
        params = tiny_params()
        with pytest.raises(ValueError, match=f"window must be at least 1 step, got {window!r}"):
            trace_stream(params, lane_symbols(params, 5, 0), window=window)

    @pytest.mark.parametrize("mask_mode", ["sampled", "expected"])
    @pytest.mark.parametrize("variant", ["standard", "adaptive"])
    @pytest.mark.parametrize("window", [1, 17, 40])
    def test_keeps_the_last_caches_of_an_untraced_run(self, variant, mask_mode, window):
        # every field of every recorded step as one unsplit run over the whole
        # stream makes it: a window shorter than the stream runs its prefix
        # unrecorded and must carry the state and the rng into the window
        params = tiny_params(variant=variant)
        stream = lane_symbols(params, 40, 0)
        _, _, made = record(params, stream[:, None], None, RngState(7), mask_mode)
        buffer = trace_stream(params, stream, window=window, mask_mode=mask_mode, seed=7)
        assert len(buffer) == window
        assert buffer.start == len(stream) - 1 - window
        for t, (kept, ref) in enumerate(zip(arena_steps(buffer.arena),
                                            arena_steps(made)[-window:], strict=True)):
            for name in STEP_FIELDS:
                np.testing.assert_array_equal(getattr(kept, name), getattr(ref, name),
                                              err_msg=f"step {t}: {name}")

    def test_recording_does_not_perturb_the_run(self):
        params = tiny_params()
        symbols = lane_symbols(params, 40, 0)[:, None]
        with_trace, loss, _ = record(params, symbols, None, RngState(0))
        # identical run that records no steps at all
        state, ref_loss = run_lanes(params, symbols, None, RngState(0))
        assert loss == ref_loss
        np.testing.assert_array_equal(state.c, with_trace.c)
        np.testing.assert_array_equal(state.h, with_trace.h)


class TestGateMapExport:
    def test_header_and_row_count(self, tmp_path):
        buffer = run_and_record(tiny_params(), 30)
        path = tmp_path / "gates.csv"
        export_gate_map(buffer, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,cell,i,o,f,Z"
        assert len(lines) == 1 + 30 * 8

    def test_nop_steps_export_zero_mask_column(self, tmp_path):
        buffer = run_and_record(tiny_params(), 10, frozen_mask=0.0)
        path = tmp_path / "nop.csv"
        export_gate_map(buffer, str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert all(float(row[5]) == 0.0 for row in rows)

    def test_empty_buffer_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            export_gate_map(empty_buffer(), str(tmp_path / "x.csv"))
        with pytest.raises(ValueError, match="empty"):
            export_cell_change(empty_buffer(), str(tmp_path / "y.csv"))

    def test_unwritable_path(self, tmp_path):
        buffer = run_and_record(tiny_params(), 3)
        with pytest.raises(OSError):
            export_gate_map(buffer, str(tmp_path / "no" / "dir" / "x.csv"))


class TestExportGolden:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", ["standard", "adaptive"])
    @pytest.mark.parametrize("mask_mode", ["sampled", "expected"])
    @pytest.mark.parametrize("window,steps", [(37, 150), (100, 70)])
    def test_matches_per_row_writer(self, tmp_path, dtype, variant, mask_mode,
                                    window, steps):
        params = tiny_params(vocab=7, hidden=40, variant=variant, dtype=dtype)
        symbols = RngState(4).integers(0, 7, size=steps + 1)
        buffer = trace_stream(params, symbols, window=window, mask_mode=mask_mode,
                              seed=5)
        assert len(buffer) == min(window, steps)
        assert buffer.start == max(0, steps - window)
        if variant == "adaptive" and mask_mode == "expected":
            masks = buffer.arena.mask
            assert np.any((masks > 0) & (masks < 1))
        assert_exports_match_reference(buffer, tmp_path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values(self, tmp_path, dtype):
        special = np.array([np.nan, np.inf, -np.inf, 1e-45, 3.4e38, -0.0, 0.1],
                           dtype=dtype)
        arena = WindowArena(tiny_params(hidden=7, dtype=dtype), 45, 1)
        arena.c[...] = 0.0
        for t in range(45):
            row = np.roll(special, t)
            f, i, o, _ = arena.gate_rows(t)
            f[0], i[0], o[0], arena.mask[t, 0] = row, row[::-1], np.roll(row, 3), np.roll(row, 5)
            # cell 0 steps through the special values, so the cell changes
            # meet them too, and their differences (inf - inf is nan)
            arena.c[t + 1, 0, 0] = row[0]
        buffer = TraceBuffer(start=3, arena=arena)
        assert_exports_match_reference(buffer, tmp_path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_decimal_edge_values(self, tmp_path, dtype):
        cells = 16
        values = decimal_edge_values(dtype)
        steps = -(-len(values) // cells)
        values = np.resize(values, (steps, cells))
        arena = WindowArena(tiny_params(hidden=cells, dtype=dtype), steps, 1)
        f, i, o, _ = arena.gate_rows(slice(None))
        # each value is printed in all four columns, across several chunks,
        # and the step numbers grow from 7 to 8 digits
        i[:, 0], o[:, 0], f[:, 0] = values, np.roll(values, 1), np.roll(values, 2)
        arena.mask[:, 0] = np.roll(values, 3)
        buffer = TraceBuffer(start=10 ** 7 - 40, arena=arena)
        path = tmp_path / "gates.csv"
        export_gate_map(buffer, str(path))
        assert path.read_bytes() == reference_gate_map(buffer)


class TestCellChangeStats:
    def test_frozen_cells_have_zero_change(self):
        buffer = run_and_record(tiny_params(), 25, frozen_mask=0.0)
        per_step, overall = cell_change_stats(buffer)
        np.testing.assert_array_equal(per_step, np.zeros(25))
        assert overall == 0.0

    def test_constant_increment(self):
        arena = WindowArena(tiny_params(hidden=4), 6, 1)
        arena.c[:, 0] = 0.1 * np.arange(7)[:, None]
        buffer = TraceBuffer(start=0, arena=arena)
        per_step, overall = cell_change_stats(buffer)
        np.testing.assert_allclose(per_step, 0.1, atol=1e-15)
        assert overall == pytest.approx(0.1)

    def test_needs_two_steps(self):
        buffer = run_and_record(tiny_params(), 1)
        with pytest.raises(ValueError, match="at least 2"):
            cell_change_stats(buffer)

    def test_query_order_invariant(self):
        buffer = run_and_record(tiny_params(), 12)
        a1, m1 = cell_change_stats(buffer)
        a2, m2 = cell_change_stats(buffer)
        np.testing.assert_array_equal(a1, a2)
        assert m1 == m2


class TestTraceStream:
    def test_runs_over_symbols(self, corpus):
        params = tiny_params(vocab=corpus.vocab_size, hidden=12, dtype=np.float32)
        buffer = trace_stream(params, corpus.split("test")[:101], window=100)
        assert len(buffer) == 100

    def test_cell_change_export(self, tmp_path):
        buffer = run_and_record(tiny_params(), 15)
        path = tmp_path / "dc.csv"
        export_cell_change(buffer, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,dc_l1"
        assert len(lines) == 16
