"""Scan-path synthesis invariants: geometry, energy, determinism.

The thermal workloads' ground truth comes from
:mod:`repro.am.scanpath`'s digital twin, so its physical invariants are
load-bearing: hatch spacing must hold at every scan angle, deposited
energy must equal the tracks' line-energy budget exactly (conservation
is what makes the estimator's energy coupling identifiable), and the
whole synthesis must be a pure function of its config.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.am import Rect, scanpath
from repro.am.scanpath import (
    MeltPoolOptics,
    ThermalBuildConfig,
    command_schedule,
    deposit_energy,
    raster_tracks,
    render_meltpool_frame,
    suggest_overheat_threshold,
    synthesize_laser_calibration,
    synthesize_thermal_build,
)
from repro.core import DeployConfig, Strata
from repro.fleet.runner import build_pipeline, resolve_workload, run_standalone
from repro.kvstore import MemoryStore

RECT = Rect(5.0, 5.0, 55.0, 55.0)

_angles = st.floats(min_value=0.0, max_value=179.9, allow_nan=False)
_hatches = st.floats(min_value=0.5, max_value=5.0, allow_nan=False)


class TestRasterTracks:
    @given(angle=_angles, hatch=_hatches)
    @settings(max_examples=100, deadline=None)
    def test_hatch_spacing_between_adjacent_tracks(self, angle, hatch):
        """Perpendicular distance between consecutive tracks == hatch."""
        tracks = raster_tracks(RECT, angle, hatch, 280.0, 1200.0)
        if len(tracks) < 2:
            return
        # project each track's anchor onto the hatch normal
        normal = (-math.sin(math.radians(angle)), math.cos(math.radians(angle)))
        offsets = sorted(
            t.x0_mm * normal[0] + t.y0_mm * normal[1] for t in tracks
        )
        for a, b in zip(offsets, offsets[1:]):
            assert math.isclose(b - a, hatch, rel_tol=1e-9, abs_tol=1e-9)

    @given(angle=_angles, hatch=_hatches)
    @settings(max_examples=100, deadline=None)
    def test_tracks_clipped_to_rect(self, angle, hatch):
        tracks = raster_tracks(RECT, angle, hatch, 280.0, 1200.0)
        assert tracks, "a 50 mm square must contain at least one track"
        eps = 1e-6
        for t in tracks:
            for x, y in ((t.x0_mm, t.y0_mm), (t.x1_mm, t.y1_mm)):
                assert RECT.x_min - eps <= x <= RECT.x_max + eps
                assert RECT.y_min - eps <= y <= RECT.y_max + eps

    def test_serpentine_alternates_direction(self):
        tracks = raster_tracks(RECT, 0.0, 2.0, 280.0, 1200.0)
        directions = [np.sign(t.x1_mm - t.x0_mm) for t in tracks]
        assert all(a == -b for a, b in zip(directions, directions[1:]))

    def test_track_energy_is_line_energy_times_length(self):
        (track, *_rest) = raster_tracks(RECT, 0.0, 2.0, 280.0, 1200.0)
        assert math.isclose(track.line_energy_j_mm, 280.0 / 1200.0)
        assert math.isclose(
            track.energy_j, track.length_mm * 280.0 / 1200.0, rel_tol=1e-12
        )


class TestDepositEnergy:
    @given(angle=_angles)
    @settings(max_examples=50, deadline=None)
    def test_energy_conserved_exactly(self, angle):
        """Every sampled joule lands in some cell: sum(grid) == budget."""
        tracks = raster_tracks(RECT, angle, 2.0, 280.0, 1200.0)
        grid = deposit_energy(tracks, 40, 1.5, sample_step_mm=0.5)
        budget = sum(t.energy_j for t in tracks)
        assert math.isclose(float(grid.sum()), budget, rel_tol=1e-9)

    def test_energy_lands_inside_the_part(self):
        rect = Rect(10.0, 10.0, 20.0, 20.0)
        tracks = raster_tracks(rect, 45.0, 1.0, 280.0, 1200.0)
        grid = deposit_energy(tracks, 40, 1.5, sample_step_mm=0.25)
        # cells clearly outside the part (plus midpoint slack) stay cold
        assert float(grid[:5, :].sum()) == 0.0
        assert float(grid[:, 15:].sum()) == 0.0


class TestCommandSchedule:
    def test_deterministic_in_seed(self):
        a = command_schedule(12, 280.0, 1200.0, seed=3)
        b = command_schedule(12, 280.0, 1200.0, seed=3)
        assert a == b
        c = command_schedule(12, 280.0, 1200.0, seed=4)
        assert a != c

    def test_commanded_constant_actual_drifts(self):
        schedule = command_schedule(30, 280.0, 1200.0, seed=3, drift_pct=0.03)
        for commanded, actual in schedule:
            assert commanded.power_w == 280.0
            assert commanded.speed_mm_s == 1200.0
        drifted = [a.power_w for _, a in schedule]
        assert len(set(drifted)) > 1
        assert all(abs(p - 280.0) / 280.0 < 0.25 for p in drifted)

    def test_spike_scales_commanded_and_actual(self):
        schedule = command_schedule(
            10, 280.0, 1200.0, seed=3, spike_layers=(4, 5), spike_factor=1.6
        )
        assert schedule[4][0].power_w == pytest.approx(280.0 * 1.6)
        assert schedule[3][0].power_w == 280.0
        assert schedule[6][0].power_w == 280.0


class TestMeltPoolRendering:
    def test_peak_scales_with_amplitude(self):
        optics = MeltPoolOptics(noise_std=0.0)
        tracks = raster_tracks(Rect(5, 5, 25, 25), 0.0, 2.0, 280.0, 1200.0)
        lo = render_meltpool_frame(tracks, 60, 2.0, optics)
        hot = raster_tracks(Rect(5, 5, 25, 25), 0.0, 2.0, 280.0 * 2, 1200.0)
        hi = render_meltpool_frame(hot, 60, 2.0, optics)
        ratio = float(hi.max()) / float(lo.max())
        # amplitude doubles exactly; the sampled pixel peak also benefits
        # from the wider sigma (pixel centers sit closer to the ridge in
        # Gaussian units), so the observed ratio lands slightly above 2
        assert 2.0 <= ratio < 2.2
        assert float(hi.max()) <= optics.amplitude(560.0, 1200.0)


@pytest.fixture()
def passes(monkeypatch):
    """The commands of every distance-field pass (one render-kernel call
    over one track geometry) made while the test runs; ``None`` is a frame
    at the tracks' own setpoints."""
    calls = []
    real = scanpath._meltpool_frames

    def counting(tracks, commands, *args):
        calls.append(commands)
        return real(tracks, commands, *args)

    monkeypatch.setattr(scanpath, "_meltpool_frames", counting)
    return calls


class TestFramesRenderedWhenRead:
    """A layer's melt-pool frame is rendered by its first reader, once, and
    a calibration angle's frames share one distance field per track."""

    WORKLOAD = {"layers": 4, "image_px": 96}

    def test_a_forecast_job_renders_no_frame(self, passes):
        results = run_standalone({**self.WORKLOAD, "kind": "forecast"})
        assert len(results) == 4 * self.WORKLOAD["layers"]  # 2 x 2 regions a layer
        assert passes == []

    def test_a_reconstruct_job_renders_each_frame_once(self, passes):
        workload = resolve_workload({**self.WORKLOAD, "kind": "reconstruct"})
        strata = Strata(engine_mode="threaded")
        sink = build_pipeline(strata, workload, MemoryStore()).sink
        # building renders the calibration sweep: one pass per scan angle,
        # each for the 3 x 3 power/speed grid; no layer frame yet
        assert [len(commands) for commands in passes] == [9, 9, 9]
        strata.deploy(DeployConfig(plan=True))
        assert len(sink.results) == workload["layers"]
        assert passes[3:] == [None] * workload["layers"]

    def test_racing_readers_render_a_frame_once(self, passes, monkeypatch):
        record = synthesize_thermal_build(ThermalBuildConfig(layers=1, seed=4)).records[0]
        real = scanpath.render_meltpool_frame

        def slow_render(*args):
            time.sleep(0.05)  # hold the first reader inside the render
            return real(*args)

        monkeypatch.setattr(scanpath, "render_meltpool_frame", slow_render)
        readers = 8
        start = threading.Barrier(readers)
        frames = []

        def read():
            start.wait(timeout=10)
            frames.append(record.meltpool_image)

        threads = [threading.Thread(target=read) for _ in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert len(frames) == readers
        assert len(passes) == 1
        assert all(frame is frames[0] for frame in frames)


class TestSynthesizeBuild:
    def test_build_is_deterministic(self):
        config = ThermalBuildConfig(layers=4, seed=9, dropout_rate=0.05)
        a = synthesize_thermal_build(config)
        b = synthesize_thermal_build(config)
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.true_temp_cells, rb.true_temp_cells)
            np.testing.assert_array_equal(
                ra.measured_temp_cells, rb.measured_temp_cells
            )
            np.testing.assert_array_equal(ra.meltpool_image, rb.meltpool_image)

    def test_energy_next_matches_following_layers_plan(self):
        build = synthesize_thermal_build(ThermalBuildConfig(layers=4, seed=9))
        for cur, nxt in zip(build.records, build.records[1:]):
            np.testing.assert_array_equal(cur.energy_next_cells, nxt.energy_cells)
        assert float(build.records[-1].energy_next_cells.sum()) == 0.0

    def test_dropout_rate_produces_nans(self):
        build = synthesize_thermal_build(
            ThermalBuildConfig(layers=4, seed=9, dropout_rate=0.1)
        )
        fractions = [
            float(np.isnan(r.measured_temp_cells).mean()) for r in build.records
        ]
        assert all(0.0 < f < 0.3 for f in fractions)
        for r in build.records:
            assert not np.isnan(r.true_temp_cells).any()

    def test_spike_crosses_suggested_threshold(self):
        config = ThermalBuildConfig(layers=12, seed=11, spike_layers=(8, 9))
        build = synthesize_thermal_build(config)
        threshold = suggest_overheat_threshold(build)
        spike_max = max(
            float(build.records[k].true_temp_cells.max()) for k in (8, 9)
        )
        calm_max = max(
            float(r.true_temp_cells.max())
            for r in build.records if r.layer < 8
        )
        assert calm_max <= threshold < spike_max

    def test_calibration_sweep_is_labelled_and_deterministic(self):
        config = ThermalBuildConfig(layers=2, seed=5)
        a = synthesize_laser_calibration(config)
        b = synthesize_laser_calibration(config)
        assert len(a) >= 9
        powers = {s.power_w for s in a}
        speeds = {s.speed_mm_s for s in a}
        assert len(powers) >= 3 and len(speeds) >= 3
        for sa, sb in zip(a, b):
            assert sa.power_w == sb.power_w
            np.testing.assert_array_equal(sa.image, sb.image)
