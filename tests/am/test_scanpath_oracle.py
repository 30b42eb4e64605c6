"""The shipped scan-path twin against its per-track, eager oracle, bit for bit.

``deposit_energy`` places every track's samples in one pass and adds
them with one ``bincount``; ``synthesize_thermal_build`` draws each
frame's sensor noise where it always did but renders the frame on first
read; the melt-pool kernel computes each track's distance field once for
all the commands it renders (the calibration sweep's 3 × 3 grid per
angle). None may change a bit of what a build publishes: energy grids,
temperatures, measurements and frames are compared as raw bytes against
``tests/am/scanpath_oracle.py`` (``repeat``/``bincount``, int64 →
float64 division and ``exp`` must agree on every supported numpy).
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.am import Rect, scanpath
from repro.am.scanpath import (
    MeltPoolOptics,
    ScanTrack,
    ThermalBuildConfig,
    deposit_energy,
    raster_tracks,
    render_meltpool_frame,
    synthesize_laser_calibration,
    synthesize_thermal_build,
)

from . import scanpath_oracle as oracle

GRID_CELLS = 40
CELL_MM = 1.5


def assert_bits_equal(shipped, expected, what: str) -> None:
    if isinstance(expected, np.ndarray):
        assert shipped.dtype == expected.dtype, what
        assert shipped.shape == expected.shape, what
        assert shipped.tobytes() == expected.tobytes(), what
    else:
        assert shipped == expected, what


def mixed_tracks(angle: float) -> list[ScanTrack]:
    """Raster tracks at ``angle`` plus the awkward ones.

    Two parts, one hanging over the grid's far edge and one over the
    origin (their samples clip into the border cells), a zero-length
    track, and per-part power/speed so the per-track energies differ.
    """
    inside = raster_tracks(Rect(8.0, 6.0, 30.0, 40.0), angle, 1.7, 280.0, 1200.0)
    over_edge = raster_tracks(Rect(45.0, 50.0, 66.0, 64.0), angle, 2.3, 410.0, 900.0)
    over_origin = raster_tracks(Rect(-4.0, -3.0, 6.0, 9.0), angle, 1.1, 150.0, 1500.0)
    point = ScanTrack(12.0, 12.0, 12.0, 12.0, 280.0, 1200.0)
    return [*inside, point, *over_edge, *over_origin, point]


@pytest.mark.parametrize("angle", [float(a) for a in range(0, 180, 15)])
@pytest.mark.parametrize("step", [0.5, 0.23])
def test_energy_grid_matches_the_per_track_loop(angle, step):
    tracks = mixed_tracks(angle)
    assert_bits_equal(
        deposit_energy(tracks, GRID_CELLS, CELL_MM, sample_step_mm=step),
        oracle.deposit_energy(tracks, GRID_CELLS, CELL_MM, sample_step_mm=step),
        f"angle {angle}",
    )


@pytest.mark.parametrize(
    "tracks",
    [
        [],
        [ScanTrack(3.0, 4.0, 3.0, 4.0, 280.0, 1200.0)],
        [ScanTrack(0.0, 0.0, 0.1, 0.0, 280.0, 1200.0)],
    ],
    ids=["empty", "zero-length-only", "one-sample"],
)
def test_degenerate_track_lists_match(tracks):
    assert_bits_equal(
        deposit_energy(tracks, GRID_CELLS, CELL_MM),
        oracle.deposit_energy(tracks, GRID_CELLS, CELL_MM),
        "degenerate",
    )


IMAGE_PX = 120
PX_PER_MM = 2.0
NOISE_FREE = MeltPoolOptics(noise_std=0.0)

#: (power_w, speed_mm_s) command sets for one geometry. ``edge-clipping``
#: spans sigma 0.28-1.77 mm: the widest boxes run off the image where the
#: narrowest stay inside, and a track just off the image is drawn by the
#: wide commands only
COMMAND_SETS = {
    "calibration-grid": [
        (280.0 * pf, 1200.0 * vf) for pf in (0.88, 1.0, 1.12) for vf in (0.88, 1.0, 1.12)
    ],
    "edge-clipping": [(60.0, 1200.0), (900.0, 450.0), (280.0, 1200.0), (1200.0, 800.0)],
    "single": [(410.0, 900.0)],
}


def tracks_at(tracks: list[ScanTrack], power_w: float, speed_mm_s: float):
    return [
        dataclasses.replace(t, power_w=power_w, speed_mm_s=speed_mm_s) for t in tracks
    ]


@pytest.mark.parametrize("angle", [0.0, 45.0, 105.0])
@pytest.mark.parametrize("commands", sorted(COMMAND_SETS))
def test_one_field_many_commands_matches_a_render_per_command(angle, commands):
    """Every frame of a multi-command pass is the per-track render of the
    geometry at that command, bit for bit: edge-clipped boxes, zero-length
    tracks and a track the narrow commands never reach included."""
    just_off = ScanTrack(-3.0, 10.0, -3.0, 30.0, 280.0, 1200.0)
    tracks = [*mixed_tracks(angle), just_off]
    settings = COMMAND_SETS[commands]
    frames = scanpath._meltpool_frames(tracks, settings, IMAGE_PX, PX_PER_MM, NOISE_FREE)
    assert len(frames) == len(settings)
    for (power, speed), frame in zip(settings, frames):
        assert_bits_equal(
            frame,
            oracle.render_meltpool_frame(
                tracks_at(tracks, power, speed), IMAGE_PX, PX_PER_MM, NOISE_FREE
            ),
            f"{commands} at ({power}, {speed})",
        )


@pytest.mark.parametrize("angle", [0.0, 30.0, 90.0, 165.0])
def test_a_frame_at_each_tracks_own_setpoints_matches(angle):
    """``render_meltpool_frame`` renders each track at its own power and
    speed (the parts of ``mixed_tracks`` differ) through the same kernel."""
    tracks = mixed_tracks(angle)
    assert_bits_equal(
        render_meltpool_frame(tracks, IMAGE_PX, PX_PER_MM, NOISE_FREE),
        oracle.render_meltpool_frame(tracks, IMAGE_PX, PX_PER_MM, NOISE_FREE),
        f"angle {angle}",
    )


def block_shapes(tracks, commands=None):
    """The ``(point, h, w)`` keys of each block the kernel stacks."""
    seen = []
    real = scanpath._blocks

    def recording(drawn):
        blocks = real(drawn)
        seen.extend([entry[0] for entry in block] for block in blocks)
        return blocks

    with mock.patch.object(scanpath, "_blocks", recording):
        frames = scanpath._meltpool_frames(tracks, commands, IMAGE_PX, PX_PER_MM, NOISE_FREE)
    return seen, frames


@pytest.mark.parametrize("angle", [0.0, 45.0, 105.0])
def test_tracks_split_across_mixed_shape_blocks_match(angle):
    """A frame whose tracks fill several blocks, each padded to its largest
    box over tracks of different shapes, with a zero-length track (its own
    block) and tracks clipped at the image edge."""
    tracks = [
        *mixed_tracks(angle),
        *raster_tracks(Rect(30.0, 2.0, 58.0, 58.0), angle, 0.9, 330.0, 1000.0),
    ]
    blocks, frames = block_shapes(tracks)
    assert len(blocks) > 2
    assert any(len(set(block)) > 1 for block in blocks)  # padded
    assert [block for block in blocks if block[0][0]] == [[(True, 11, 11)] * 2]
    assert_bits_equal(
        frames[0],
        oracle.render_meltpool_frame(tracks, IMAGE_PX, PX_PER_MM, NOISE_FREE),
        f"angle {angle}",
    )


coordinate = st.floats(-12.0, 72.0, allow_nan=False)
setpoint = st.tuples(st.floats(40.0, 1200.0), st.floats(300.0, 2500.0))


@st.composite
def frame_tracks(draw):
    """Segments anywhere on or off a 60 mm region, zero-length ones
    included, each at its own power and speed."""
    tracks = []
    for x0, y0, x1, y1, (power, speed) in draw(
        st.lists(st.tuples(*[coordinate] * 4, setpoint), max_size=30)
    ):
        if draw(st.booleans()) and draw(st.booleans()):
            x1, y1 = x0, y0
        tracks.append(ScanTrack(x0, y0, x1, y1, power, speed))
    return tracks


@settings(max_examples=80, deadline=None)
@given(
    tracks=frame_tracks(),
    block=st.sampled_from([1, 600, 4096, scanpath._BLOCK_ELEMENTS]),
    commands=st.one_of(st.none(), st.lists(setpoint, min_size=1, max_size=4)),
)
def test_any_tracks_any_block_size_match(tracks, block, commands):
    """Per-track setpoints that differ within one frame, and command sets,
    under block sizes from one track per block to the shipped one."""
    with mock.patch.object(scanpath, "_BLOCK_ELEMENTS", block):
        frames = scanpath._meltpool_frames(tracks, commands, IMAGE_PX, PX_PER_MM, NOISE_FREE)
    for index, frame in enumerate(frames):
        reference = tracks if commands is None else tracks_at(tracks, *commands[index])
        assert_bits_equal(
            frame,
            oracle.render_meltpool_frame(reference, IMAGE_PX, PX_PER_MM, NOISE_FREE),
            f"frame {index}",
        )


BUILDS = {
    "noisy": ThermalBuildConfig(layers=5, seed=9),
    "noise-free": ThermalBuildConfig(
        layers=4, seed=3, optics=MeltPoolOptics(noise_std=0.0)
    ),
    "dropout-and-spike": ThermalBuildConfig(
        layers=7, seed=21, dropout_rate=0.08, spike_layers=(3, 5)
    ),
    "fleet-plate": ThermalBuildConfig(
        job_id="fleet",
        layers=3,
        region_mm=79.5,
        parts=(Rect(6.625, 6.625, 35.775, 72.875), Rect(43.725, 6.625, 72.875, 72.875)),
        seed=2,
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_every_build_field_matches_the_eager_build(name):
    config = BUILDS[name]
    shipped = synthesize_thermal_build(config)
    expected = oracle.synthesize_thermal_build(config)
    assert shipped.config is config
    assert len(shipped.records) == len(expected) == config.layers
    for record, reference in zip(shipped.records, expected):
        for f in dataclasses.fields(oracle.EagerLayerRecord):
            assert_bits_equal(
                getattr(record, f.name),
                getattr(reference, f.name),
                f"{name} layer {reference.layer} {f.name}",
            )


def test_frames_read_out_of_order_still_match():
    """A frame's noise was drawn at build time, so read order cannot matter."""
    config = BUILDS["dropout-and-spike"]
    shipped = synthesize_thermal_build(config).records
    expected = oracle.synthesize_thermal_build(config)
    for layer in (5, 0, 6, 2):
        assert_bits_equal(
            shipped[layer].meltpool_image,
            expected[layer].meltpool_image,
            f"layer {layer}",
        )


@pytest.mark.parametrize("name", ["noisy", "noise-free"])
def test_calibration_sweep_matches(name):
    config = BUILDS[name]
    shipped = synthesize_laser_calibration(config)
    expected = oracle.synthesize_laser_calibration(config)
    assert len(shipped) == len(expected) == 27
    for sample, reference in zip(shipped, expected):
        for f in dataclasses.fields(reference):
            assert_bits_equal(
                getattr(sample, f.name), getattr(reference, f.name), f.name
            )
