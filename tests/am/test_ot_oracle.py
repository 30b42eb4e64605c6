"""The shipped OT renderer against its per-layer oracle, bit for bit.

``OTImageRenderer`` computes a footprint's hatch texture and witness-ring
masks once per stack angle and reuses them for the stack's other layers;
``tests/am/ot_oracle.py`` paints every specimen of every layer from
scratch. Rendered images must be byte-equal, and so must the float32 layer
before it is quantized to ``uint8`` (a one-ulp drift of the texture would
hide in the quantization): across 16–1 000 px, shaped specimens, streaks,
drift and materials, builds whose stack angle changes and changes back,
and witness rings that overlap, so a pixel takes two ring adds.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.am import (
    HOT,
    MATERIALS,
    ConeShape,
    Cylinder,
    CylinderShape,
    DefectRegion,
    OTImageRenderer,
    PolygonShape,
    ProcessParameters,
    Rect,
    Specimen,
    StackScan,
    make_shaped_job,
    standard_layout,
)
from repro.am.defects import RecoaterStreak

from .ot_oracle import PerLayerRenderer

ANGLES = [0.0, 15.0, 45.0, 90.0, 105.0, 165.0]


def assert_renders_equal(kwargs, layers, specimens, defects=(), process=None, streaks=()):
    """Render ``layers`` — ``(layer, z_mm, angle)`` — through one shipped
    renderer (its memo carried from layer to layer) and the oracle."""
    shipped, oracle = OTImageRenderer(**kwargs), PerLayerRenderer(**kwargs)
    for layer, z_mm, angle in layers:
        scan = StackScan(0, angle)
        images = [
            renderer.render(
                layer, z_mm, specimens, scan, list(defects), process, list(streaks)
            )
            for renderer in (shipped, oracle)
        ]
        assert images[0].dtype == images[1].dtype == np.uint8
        assert images[0].tobytes() == images[1].tobytes(), f"layer {layer} at {angle}"
        # the float32 layer, before quantization hides a one-ulp drift
        painted = []
        for renderer in (shipped, oracle):
            image = np.full((renderer.image_px,) * 2, 0.04, dtype=np.float32)
            rng = np.random.default_rng(layer)
            for specimen in specimens:
                renderer._paint_specimen(image, specimen, scan, 0.55, rng, z_mm)
            painted.append(image)
        assert painted[0].tobytes() == painted[1].tobytes(), f"paint {layer} at {angle}"


@st.composite
def specimen(draw):
    x0 = draw(st.floats(-10.0, 240.0))
    y0 = draw(st.floats(-10.0, 240.0))
    width = draw(st.floats(0.0, 60.0))
    length = draw(st.floats(0.0, 60.0))
    footprint = Rect(x0, y0, x0 + width, y0 + length)
    cx, cy = footprint.center
    # rings a few mm apart around the centre: overlaps are common
    cylinders = tuple(
        Cylinder(cx + dx, cy + dy, radius)
        for dx, dy, radius in draw(
            st.lists(
                st.tuples(
                    st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.floats(0.3, 6.0)
                ),
                max_size=4,
            )
        )
    )
    shape = draw(
        st.sampled_from(
            [
                None,
                CylinderShape(cx, cy, max(width, length) / 2.0 + 0.5),
                ConeShape(cx, cy, max(width, length) / 2.0 + 0.5, 3.0),
                PolygonShape([(x0, y0), (x0 + width, y0), (cx, y0 + length)]),
            ]
        )
    )
    height = draw(st.floats(0.1, 25.0))
    return Specimen(f"S{x0:.3f}", footprint, height, cylinders, shape)


@st.composite
def builds(draw):
    image_px = draw(st.one_of(st.sampled_from([16, 250, 1000]), st.integers(16, 1000)))
    specimens = draw(st.lists(specimen(), min_size=1, max_size=4))
    angles = draw(st.lists(st.sampled_from(ANGLES), min_size=2, max_size=5))
    layers = [(k, 0.04 * k * draw(st.integers(1, 30)), a) for k, a in enumerate(angles)]
    streaks = [
        RecoaterStreak(f"R{k}", y, x, x + 150.0, w, 0, draw(st.integers(0, 4)), -0.2)
        for k, (y, x, w) in enumerate(
            draw(
                st.lists(
                    st.tuples(
                        st.floats(0.0, 250.0), st.floats(0.0, 90.0), st.floats(0.1, 2.0)
                    ),
                    max_size=2,
                )
            )
        )
    ]
    process = draw(
        st.one_of(
            st.none(),
            st.builds(
                ProcessParameters,
                laser_power_w=st.floats(150.0, 370.0),
                material=st.sampled_from(sorted(MATERIALS)),
            ),
        )
    )
    kwargs = {
        "image_px": image_px,
        "seed": draw(st.integers(0, 2**16)),
        "drift_per_layer": draw(st.sampled_from([0.0, 0.02, -0.3])),
    }
    return kwargs, layers, specimens, process, streaks


@settings(max_examples=60, deadline=None)
@given(builds())
def test_render_matches_the_per_layer_paint(build):
    kwargs, layers, specimens, process, streaks = build
    assert_renders_equal(kwargs, layers, specimens, process=process, streaks=streaks)


@pytest.mark.parametrize("image_px", [16, 97, 250, 1000])
def test_a_shaped_build_across_three_stacks_matches(image_px):
    """The shaped job's specimens, a defect, a streak and a material, over
    layers whose stack angle moves on, comes back and moves on again."""
    job = make_shaped_job("oracle", seed=5, defect_rate_per_stack=0.0)
    defect = DefectRegion("D0", "S00", HOT, 40.0, 40.0, 0.5, 4.0, 2.0, 0.3)
    streak = RecoaterStreak("R0", 42.0, 10.0, 200.0, 0.6, 0, 5, -0.25)
    layers = [(k, 0.04 * k, a) for k, a in enumerate([45.0, 45.0, 105.0, 45.0, 0.0, 0.0])]
    assert_renders_equal(
        {"image_px": image_px, "seed": 3, "drift_per_layer": 0.01},
        layers,
        job.specimens,
        defects=[defect],
        process=ProcessParameters(laser_power_w=310.0, material="IN718"),
        streaks=[streak],
    )


def test_overlapping_rings_take_one_add_each():
    """Three concentric-ish rings: some pixels lie in two or three of them,
    and each ring adds its own 0.015 there."""
    footprint = Rect(20.0, 20.0, 50.0, 70.0)
    cylinders = (
        Cylinder(35.0, 45.0, 4.0), Cylinder(36.0, 45.5, 4.2), Cylinder(35.5, 44.0, 3.9)
    )
    specimens = [Specimen("S0", footprint, cylinders=cylinders)]
    renderer = OTImageRenderer(image_px=500)
    _, rings = renderer._stack_pattern(45.0, specimens[0])
    assert len(rings) >= 2 and rings[1].any()  # depth 2 exists
    assert_renders_equal(
        {"image_px": 500, "seed": 9}, [(0, 0.0, 45.0), (1, 0.04, 45.0)], specimens
    )


def test_a_ring_edge_float32_decides_matches():
    """One pixel of this ring lies inside it in float32 and outside in
    float64: texture and rings must keep the float32 pixel grid (on numpy
    1.x the texture's phase is float32 too, and drifts far more)."""
    cylinder = Cylinder(70.39807001715027, 57.62817502627952, 17.17554317894065)
    specimens = [Specimen("S0", Rect(40.0, 40.0, 90.0, 90.0), cylinders=(cylinder,))]
    assert_renders_equal({"image_px": 250, "seed": 2}, [(0, 0.0, 15.0)], specimens)


def test_threads_sharing_a_renderer_across_angles_match():
    """A renderer's memo is replaced, never edited across angles: threads
    rendering different stacks through one renderer each get their own
    angle's patterns, under a switch interval short enough to interleave
    every memo read with another thread's replacement."""
    specimens = make_shaped_job("threads", seed=2, defect_rate_per_stack=0.0).specimens
    oracle = PerLayerRenderer(image_px=64, seed=4)
    layers = [(k, 0.04 * k, ANGLES[k % len(ANGLES)]) for k in range(48)]
    expected = {
        layer: oracle.render(layer, z, specimens, StackScan(0, a), []).tobytes()
        for layer, z, a in layers
    }
    shared = OTImageRenderer(image_px=64, seed=4)
    wrong: list[int] = []

    def render(offset: int) -> None:
        for layer, z, angle in layers[offset:] + layers[:offset]:
            image = shared.render(layer, z, specimens, StackScan(0, angle), [])
            if image.tobytes() != expected[layer]:
                wrong.append(layer)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=render, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_the_memo_holds_one_stack():
    renderer = OTImageRenderer(image_px=250)
    specimens = standard_layout()
    for angle in (45.0, 45.0, 90.0):
        renderer.render(0, 0.0, specimens, StackScan(0, angle), [])
        angle_held, patterns = renderer._patterns
        assert angle_held == angle
        assert len(patterns) == len(specimens)
