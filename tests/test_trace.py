import numpy as np
import pytest

from szlstm.cell import FrozenStep, RecurrentState, forward_step
from szlstm.numerics import RngState
from szlstm.trace import (
    TraceBuffer,
    TraceStep,
    cell_change_stats,
    export_cell_change,
    export_gate_map,
    record_step,
    trace_stream,
)

from conftest import tiny_params


def run_and_record(params, steps, lane=0, buffer=None, frozen_mask=None, seed=0):
    vocab = params.vocab_size
    sym = RngState(seed).fork(2).integers(0, vocab, size=(steps + 1, 3))
    state = RecurrentState.initial(3, params.hidden_size, vocab, dtype=params.dtype)
    rng = RngState(seed).fork(3)
    buffer = buffer if buffer is not None else TraceBuffer(window=100)
    caches = []
    for t in range(steps):
        frozen = None
        if frozen_mask is not None:
            frozen = FrozenStep(mask=np.full((3, params.hidden_size), frozen_mask,
                                             dtype=params.dtype))
        state, cache, _ = forward_step(state, sym[t], params, rng=rng,
                                       target=sym[t + 1], frozen=frozen)
        record_step(cache, lane, buffer)
        caches.append(cache)
    return buffer, caches, state


def reference_gate_map(buffer):
    """The per-row writer export_gate_map must match byte for byte."""
    out = ["t,cell,i,o,f,Z\n"]
    for step in buffer.steps:
        for cell in range(step.c.shape[0]):
            out.append(f"{step.t},{cell},{step.i[cell]:.7g},{step.o[cell]:.7g},"
                       f"{step.f[cell]:.7g},{step.mask[cell]:.7g}\n")
    return "".join(out).encode()


def reference_cell_change(buffer):
    """The per-row writer export_cell_change must match byte for byte."""
    out = ["t,dc_l1\n"]
    for step in buffer.steps:
        out.append(f"{step.t},{step.dc:.7g}\n")
    return "".join(out).encode()


def assert_exports_match_reference(buffer, tmp_path):
    gates, cells = tmp_path / "gates.csv", tmp_path / "cells.csv"
    export_gate_map(buffer, str(gates))
    export_cell_change(buffer, str(cells))
    assert gates.read_bytes() == reference_gate_map(buffer)
    assert cells.read_bytes() == reference_cell_change(buffer)


class TestRecordStep:
    def test_window_fill(self):
        buffer, _, _ = run_and_record(tiny_params(), 100)
        assert len(buffer) == 100

    def test_ring_buffer_keeps_last_window(self):
        buffer, _, _ = run_and_record(tiny_params(), 150)
        assert len(buffer) == 100
        assert buffer.steps[0].t == 50 and buffer.steps[-1].t == 149

    def test_masks_recorded_binary(self):
        buffer, _, _ = run_and_record(tiny_params(variant="adaptive"), 60)
        for step in buffer.steps:
            assert set(np.unique(step.mask)).issubset({0.0, 1.0})

    def test_cell_column_passthrough(self):
        buffer, caches, _ = run_and_record(tiny_params(), 20, lane=1)
        for step, cache in zip(buffer.steps, caches):
            np.testing.assert_array_equal(step.c, cache.c[1])

    @pytest.mark.parametrize("window", [0, -5])
    def test_window_must_be_positive(self, window):
        with pytest.raises(ValueError, match=f"window must be at least 1 step, got {window}"):
            TraceBuffer(window=window)

    def test_lane_out_of_range(self):
        params = tiny_params()
        _, caches, _ = run_and_record(params, 1)
        with pytest.raises(ValueError, match="lane"):
            record_step(caches[0], 7, TraceBuffer())

    def test_recording_does_not_perturb_the_run(self):
        params = tiny_params()
        _, _, with_trace = run_and_record(params, 40)
        # identical run without any recording
        vocab = params.vocab_size
        sym = RngState(0).fork(2).integers(0, vocab, size=(41, 3))
        state = RecurrentState.initial(3, params.hidden_size, vocab, dtype=params.dtype)
        rng = RngState(0).fork(3)
        for t in range(40):
            state, _, _ = forward_step(state, sym[t], params, rng=rng, target=sym[t + 1])
        np.testing.assert_array_equal(state.c, with_trace.c)
        np.testing.assert_array_equal(state.h, with_trace.h)


class TestGateMapExport:
    def test_header_and_row_count(self, tmp_path):
        buffer, _, _ = run_and_record(tiny_params(), 30)
        path = tmp_path / "gates.csv"
        export_gate_map(buffer, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,cell,i,o,f,Z"
        assert len(lines) == 1 + 30 * 8

    def test_nop_steps_export_zero_mask_column(self, tmp_path):
        buffer, _, _ = run_and_record(tiny_params(), 10, frozen_mask=0.0)
        path = tmp_path / "nop.csv"
        export_gate_map(buffer, str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert all(float(row[5]) == 0.0 for row in rows)

    def test_empty_buffer_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            export_gate_map(TraceBuffer(), str(tmp_path / "x.csv"))

    def test_unwritable_path(self, tmp_path):
        buffer, _, _ = run_and_record(tiny_params(), 3)
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
        assert buffer.steps[0].t == max(0, steps - window)
        if variant == "adaptive" and mask_mode == "expected":
            masks = np.concatenate([s.mask for s in buffer.steps])
            assert np.any((masks > 0) & (masks < 1))
        assert_exports_match_reference(buffer, tmp_path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values(self, tmp_path, dtype):
        special = np.array([np.nan, np.inf, -np.inf, 1e-45, 3.4e38, -0.0, 0.1],
                           dtype=dtype)
        buffer = TraceBuffer(window=50)
        for t in range(45):
            row = np.roll(special, t)
            buffer.steps.append(TraceStep(
                t=t, f=row, i=row[::-1].copy(), o=np.roll(row, 3), h=row, c=row,
                z=row, mask=np.roll(row, 5), dc=float(row[0])))
        assert_exports_match_reference(buffer, tmp_path)


class TestCellChangeStats:
    def test_frozen_cells_have_zero_change(self):
        buffer, _, _ = run_and_record(tiny_params(), 25, frozen_mask=0.0)
        per_step, overall = cell_change_stats(buffer)
        np.testing.assert_array_equal(per_step, np.zeros(25))
        assert overall == 0.0

    def test_constant_increment(self):
        buffer = TraceBuffer(window=10)
        n = 4
        for t in range(6):
            c_prev = np.full(n, 0.1 * t)
            c = c_prev + 0.1
            buffer.steps.append(TraceStep(
                t=t, f=np.zeros(n), i=np.zeros(n), o=np.zeros(n),
                h=np.zeros(n), c=c, z=np.ones(n), mask=np.ones(n),
                dc=float(np.abs(c - c_prev).mean())))
            buffer.counter += 1
        per_step, overall = cell_change_stats(buffer)
        np.testing.assert_allclose(per_step, 0.1, atol=1e-15)
        assert overall == pytest.approx(0.1)

    def test_needs_two_steps(self):
        buffer, _, _ = run_and_record(tiny_params(), 1)
        with pytest.raises(ValueError, match="at least 2"):
            cell_change_stats(buffer)

    def test_query_order_invariant(self):
        buffer, _, _ = run_and_record(tiny_params(), 12)
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
        buffer, _, _ = run_and_record(tiny_params(), 15)
        path = tmp_path / "dc.csv"
        export_cell_change(buffer, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,dc_l1"
        assert len(lines) == 16
