"""Coverage for the smaller utilities: timers, table renderers, RNG
derivation and the cost model's workload shape."""

import time

import numpy as np
import pytest

from repro.bench.tables import format_bytes, format_seconds, render_bars, render_table
from repro.gpu.costmodel import WorkloadShape
from repro.util.rng import derive_rng
from repro.util.timer import StageTimer, Timer


class TestTimers:
    def test_timer_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.01)
        first = t.elapsed
        with t:
            time.sleep(0.01)
        assert t.elapsed > first

    def test_timer_stop_without_start(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_stage_timer_shares(self):
        st = StageTimer()
        st.add("a", 3.0)
        st.add("b", 1.0)
        shares = st.shares()
        assert shares["a"] == pytest.approx(0.75)
        assert st.total == pytest.approx(4.0)

    def test_stage_timer_empty_shares(self):
        assert StageTimer().shares() == {}

    def test_stage_timer_merge(self):
        a = StageTimer()
        a.add("x", 1.0)
        b = StageTimer()
        b.add("x", 2.0)
        b.add("y", 1.0)
        a.merge(b)
        assert a.stages == {"x": 3.0, "y": 1.0}

    def test_stage_context_manager(self):
        st = StageTimer()
        with st.stage("work"):
            time.sleep(0.005)
        assert st.stages["work"] > 0


class TestRenderers:
    def test_format_seconds_ranges(self):
        assert format_seconds(2e-7) == "0 us"
        assert format_seconds(0.005) == "5.0 ms"
        assert format_seconds(3.2) == "3.2 s"
        assert format_seconds(300) == "5 min"
        assert format_seconds(8000) == "2.2 h"
        assert format_seconds(float("nan")) == "-"

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KB"
        assert "GB" in format_bytes(3 * 1024**3)

    def test_render_table_alignment(self):
        out = render_table("T", ["name", "val"], [["a", 1], ["long-name", 22]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "long-name" in out
        # all rows same width
        widths = {len(l) for l in lines[2:]}
        assert len(widths) == 1

    def test_render_bars(self):
        out = render_bars("B", [("x", 2.0), ("y", 1.0)])
        assert out.count("#") > 0
        x_line = [l for l in out.splitlines() if l.startswith("x")][0]
        y_line = [l for l in out.splitlines() if l.startswith("y")][0]
        assert x_line.count("#") > y_line.count("#")

    def test_render_bars_empty(self):
        assert "(no data)" in render_bars("B", [])


class TestDeriveRng:
    def test_same_keys_same_stream(self):
        a = derive_rng(5, "x", 1).integers(0, 100, 10)
        b = derive_rng(5, "x", 1).integers(0, 100, 10)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = derive_rng(5, "x").integers(0, 1000, 20)
        b = derive_rng(5, "y").integers(0, 1000, 20)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert derive_rng(g) is g


class TestWorkloadShape:
    def test_cpu_locations_default(self):
        s = WorkloadShape(n_reads=10, total_read_bases=1000,
                          avg_locations_per_read=50)
        assert s.cpu_locations == 50

    def test_cpu_locations_override(self):
        s = WorkloadShape(
            n_reads=10, total_read_bases=1000,
            avg_locations_per_read=50, cpu_avg_locations_per_read=5,
        )
        assert s.cpu_locations == 5
