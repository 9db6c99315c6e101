"""Tests for live trace capture / what-if analysis and ASCII plots."""

import numpy as np
import pytest

from repro.bench.collect import capture_push_trace, what_if
from repro.bench.plots import bar_chart, roofline_plot, xy_plot
from repro.machine.roofline import RooflineModel, RooflinePoint
from repro.machine.specs import get_platform
from repro.vpic.workloads import uniform_plasma_deck


@pytest.fixture(scope="module")
def sim():
    deck = uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=8, uth=0.1,
                               num_steps=5)
    s = deck.build()
    s.run(2)
    return s


class TestCapture:
    def test_trace_matches_species(self, sim):
        trace = capture_push_trace(sim)
        sp = sim.species[0]
        assert trace.n_ops == sp.n
        np.testing.assert_array_equal(trace.gather_indices,
                                      sp.live("voxel"))
        assert "step2" in trace.label

    def test_atomic_flag_controls_deposit_model(self, sim):
        t_gpu = capture_push_trace(sim, atomic=True)
        t_cpu = capture_push_trace(sim, atomic=False)
        assert t_gpu.scatter_ops_per_element == 12
        assert t_cpu.scatter_ops_per_element == 1
        assert not t_cpu.scatter_is_atomic

    def test_named_species(self, sim):
        trace = capture_push_trace(sim, species_name="electron")
        assert trace.n_ops == sim.get_species("electron").n

    def test_empty_simulation_rejected(self):
        from repro.vpic.fields import FieldArrays
        from repro.vpic.grid import Grid
        from repro.vpic.simulation import Simulation
        g = Grid(4, 4, 4)
        empty = Simulation(grid=g, fields=FieldArrays(g), species=[])
        with pytest.raises(ValueError):
            capture_push_trace(empty)


class TestWhatIf:
    def test_cross_platform_report(self, sim):
        plats = [get_platform(n) for n in ("A100", "MI250",
                                           "Platinum 8480")]
        report = what_if(sim, plats)
        assert set(report.predictions) == {"A100", "MI250",
                                           "Platinum 8480"}
        ranked = report.ranked()
        assert ranked[0][1].seconds <= ranked[-1][1].seconds
        assert "what-if" in report.summary()

    def test_gpu_beats_cpu_for_this_workload(self, sim):
        report = what_if(sim, [get_platform("H100"),
                               get_platform("Platinum 8480")])
        assert report.predictions["H100"].seconds < \
            report.predictions["Platinum 8480"].seconds

    def test_no_platforms_rejected(self, sim):
        with pytest.raises(ValueError):
            what_if(sim, [])


class TestPlots:
    def test_bar_chart_linear(self):
        out = bar_chart({"a": 1.0, "b": 2.0}, title="T")
        assert "T" in out and "a" in out
        assert out.count("#") > 3

    def test_bar_chart_log(self):
        out = bar_chart({"a": 1.0, "b": 1000.0}, log=True)
        assert "1e+03" in out or "1000" in out

    def test_bar_chart_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bar_chart({"a": 0.0}, log=True)

    def test_bar_chart_empty(self):
        assert "empty" in bar_chart({})

    def test_xy_plot_renders_points(self):
        out = xy_plot([1, 2, 3], [1, 4, 9], title="sq")
        assert "sq" in out
        assert out.count("*") >= 3

    def test_xy_plot_log_axes(self):
        out = xy_plot([1, 10, 100], [1, 100, 10000],
                      logx=True, logy=True)
        assert "1e" in out

    def test_xy_plot_validates(self):
        with pytest.raises(ValueError):
            xy_plot([1, 2], [1])
        with pytest.raises(ValueError):
            xy_plot([0, 1], [1, 2], logx=True)

    def test_roofline_plot(self):
        model = RooflineModel(get_platform("H100"))
        pts = [RooflinePoint("standard", 3.0, 300.0),
               RooflinePoint("tiled", 3.0, 2000.0)]
        out = roofline_plot(model, pts, title="H100")
        assert "A = standard" in out
        assert "B = tiled" in out
        assert "ridge" in out

    def test_roofline_plot_empty(self):
        model = RooflineModel(get_platform("A100"))
        assert "no points" in roofline_plot(model, [])

    def test_roofline_rejects_nonpositive(self):
        model = RooflineModel(get_platform("A100"))
        with pytest.raises(ValueError):
            roofline_plot(model, [RooflinePoint("x", 0.0, 1.0)])
