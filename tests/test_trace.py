from collections import deque
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from szlstm.cell import run_lanes
from szlstm.numerics import RngState
from szlstm.trace import (
    TraceBuffer,
    cell_change_stats,
    export_cell_change,
    export_gate_map,
    trace_stream,
)

from conftest import CACHE_FIELDS, tiny_params


def lane_symbols(params, steps, seed):
    return RngState(seed).fork(2).integers(0, params.vocab_size, size=steps + 1)


def run_and_record(params, steps, frozen_mask=None, seed=0):
    """trace_stream over a seeded stream with its default 100-step window.
    With frozen_mask, the run is replayed from its own caches with every
    mask forced to frozen_mask, and the replay's caches are kept instead."""
    symbols = lane_symbols(params, steps, seed)
    buffer = trace_stream(params, symbols, seed=seed)
    if frozen_mask is None:
        return buffer
    assert len(buffer) == steps, "a replay needs every step's cache"
    frozen = [replace(c, mask=np.full_like(c.mask, frozen_mask)) for c in buffer.steps]
    kept = deque()
    run_lanes(params, symbols[:, None], frozen=frozen, on_step=kept.append)
    return TraceBuffer(start=0, steps=kept)


def reference_gate_map(buffer):
    """The per-row writer export_gate_map must match byte for byte."""
    out = ["t,cell,i,o,f,Z\n"]
    for t, step in enumerate(buffer.steps, buffer.start):
        for cell in range(step.c.shape[1]):
            out.append(f"{t},{cell},{step.i[0, cell]:.7g},{step.o[0, cell]:.7g},"
                       f"{step.f[0, cell]:.7g},{step.mask[0, cell]:.7g}\n")
    return "".join(out).encode()


def reference_cell_change(buffer):
    """The per-row writer export_cell_change must match byte for byte."""
    out = ["t,dc_l1\n"]
    for t, step in enumerate(buffer.steps, buffer.start):
        dc = float(np.abs(step.c[0] - step.c_prev[0]).mean())
        out.append(f"{t},{dc:.7g}\n")
    return "".join(out).encode()


def assert_exports_match_reference(buffer, tmp_path):
    gates, cells = tmp_path / "gates.csv", tmp_path / "cells.csv"
    export_gate_map(buffer, str(gates))
    export_cell_change(buffer, str(cells))
    assert gates.read_bytes() == reference_gate_map(buffer)
    assert cells.read_bytes() == reference_cell_change(buffer)


class TestRecordStep:
    """trace_stream keeps the StepCaches of the run's last window steps."""

    def test_window_fill(self):
        buffer = run_and_record(tiny_params(), 100)
        assert len(buffer) == 100 and buffer.start == 0

    def test_ring_buffer_keeps_last_window(self):
        buffer = run_and_record(tiny_params(), 150)
        assert len(buffer) == 100
        assert buffer.start == 50

    def test_masks_recorded_binary(self):
        buffer = run_and_record(tiny_params(variant="adaptive"), 60)
        for step in buffer.steps:
            assert set(np.unique(step.mask)).issubset({0.0, 1.0})

    def test_cell_column_passthrough(self):
        # the last kept cache holds the cell and hidden state the run ended in
        params = tiny_params()
        buffer = run_and_record(params, 20)
        state, _ = run_lanes(params, lane_symbols(params, 20, 0)[:, None], None, RngState(0))
        np.testing.assert_array_equal(buffer.steps[-1].c, state.c)
        np.testing.assert_array_equal(buffer.steps[-1].h, state.h)

    @pytest.mark.parametrize("window", [0, -5])
    def test_window_must_be_positive(self, window):
        params = tiny_params()
        with pytest.raises(ValueError, match=f"window must be at least 1 step, got {window}"):
            trace_stream(params, lane_symbols(params, 5, 0), window=window)

    @pytest.mark.parametrize("mask_mode", ["sampled", "expected"])
    @pytest.mark.parametrize("variant", ["standard", "adaptive"])
    @pytest.mark.parametrize("window", [1, 17, 40])
    def test_keeps_the_last_caches_of_an_untraced_run(self, variant, mask_mode, window):
        # every field of every kept cache as the run made it at that step:
        # the copies are taken when on_step runs, so a later write to a kept
        # array would show here
        params = tiny_params(variant=variant)
        stream = lane_symbols(params, 40, 0)
        made = []
        run_lanes(params, stream[:, None], None, RngState(7), mask_mode,
                  on_step=lambda cache: made.append(replace(cache, **{
                      k: getattr(cache, k).copy() for k in CACHE_FIELDS})))
        buffer = trace_stream(params, stream, window=window, mask_mode=mask_mode, seed=7)
        assert len(buffer) == window
        assert buffer.start == len(stream) - 1 - window
        for t, (kept, ref) in enumerate(zip(buffer.steps, made[-window:], strict=True)):
            for name in CACHE_FIELDS:
                np.testing.assert_array_equal(getattr(kept, name), getattr(ref, name),
                                              err_msg=f"step {t}: {name}")

    def test_recording_does_not_perturb_the_run(self):
        params = tiny_params()
        symbols = lane_symbols(params, 40, 0)[:, None]
        kept = deque(maxlen=10)
        with_trace, loss = run_lanes(params, symbols, None, RngState(0), on_step=kept.append)
        # identical run that builds no step caches at all
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
            export_gate_map(TraceBuffer(start=0, steps=deque()), str(tmp_path / "x.csv"))

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
            masks = np.concatenate([s.mask for s in buffer.steps])
            assert np.any((masks > 0) & (masks < 1))
        assert_exports_match_reference(buffer, tmp_path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values(self, tmp_path, dtype):
        special = np.array([np.nan, np.inf, -np.inf, 1e-45, 3.4e38, -0.0, 0.1],
                           dtype=dtype)
        steps = deque()
        for t in range(45):
            row = np.roll(special, t)[None]
            # one special value in an otherwise unchanged cell row, so the
            # cell change is |row[0]| / 7
            c = np.zeros_like(row)
            c[0, 0] = row[0, 0]
            steps.append(SimpleNamespace(f=row, i=row[:, ::-1].copy(), o=np.roll(row, 3),
                                         mask=np.roll(row, 5), c=c, c_prev=np.zeros_like(c)))
        buffer = TraceBuffer(start=3, steps=steps)
        assert_exports_match_reference(buffer, tmp_path)


class TestCellChangeStats:
    def test_frozen_cells_have_zero_change(self):
        buffer = run_and_record(tiny_params(), 25, frozen_mask=0.0)
        per_step, overall = cell_change_stats(buffer)
        np.testing.assert_array_equal(per_step, np.zeros(25))
        assert overall == 0.0

    def test_constant_increment(self):
        n = 4
        steps = deque()
        for t in range(6):
            c_prev = np.full((1, n), 0.1 * t)
            steps.append(SimpleNamespace(c=c_prev + 0.1, c_prev=c_prev))
        buffer = TraceBuffer(start=0, steps=steps)
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
