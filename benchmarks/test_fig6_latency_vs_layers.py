"""E3 / Figure 6 — latency boxplots vs the inter-layer window L.

Paper: "we investigate the effect of changing the number of previous
layers clustered together in method correlateEvents (parameter L) ...
we variate L from 5 layers (0.2 mm) to 80 layers (3.2 mm). Also in this
case, despite the expected growth trend, all reported latency values are
lower than the QoS threshold."

What grows with L is the window: the events clustered per trigger. The
paper's prototype re-clusters that window from scratch on every layer, so
its latency follows the window size. Here ``correlateEvents`` keeps the
window's eps-neighbour pairs between triggers and pays only for the new
layer's k x n distance block plus one pass of the labeller over the pairs
(EXPERIMENTS.md E17), which flattens the latency curve on purpose. The
reproduced claims are therefore the two that still mean something: the
window does grow with L, and every L stays under the QoS threshold.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    BOXPLOT_HEADERS,
    EvaluationWorkload,
    boxplot_row,
    format_table,
    run_latency_experiment,
    save_json,
)
from repro.core import UseCaseConfig

#: the paper's L sweep (0.2 mm ... 3.2 mm of build height at 40 um layers)
WINDOW_LAYERS = [5, 10, 20, 40, 80]

_results: dict[int, object] = {}


@pytest.fixture(scope="module")
def fig6_workload(profile):
    """Figure 6 needs enough layers to (mostly) fill the largest window."""
    layers = max(profile.layers, WINDOW_LAYERS[-1] + 10)
    return EvaluationWorkload(image_px=profile.image_px, layers=layers, seed=7)


@pytest.mark.parametrize("window", WINDOW_LAYERS)
def test_fig6_latency_for_window(benchmark, profile, fig6_workload, window):
    config = UseCaseConfig(
        image_px=profile.image_px,
        cell_edge_px=profile.scale_cell_edge(20),
        window_layers=window,
    )
    run = benchmark.pedantic(
        lambda: run_latency_experiment(fig6_workload, config, warmup_layers=4),
        rounds=1,
        iterations=1,
    )
    _results[window] = run
    if profile.name == "ci":
        assert run.meets_qos(profile.qos_seconds), (
            f"L={window} exceeded the {profile.qos_seconds}s QoS"
        )
    summary = run.summary
    benchmark.extra_info.update(
        window_layers=window,
        build_mm=round(window * config.layer_thickness_mm, 2),
        median_ms=round(summary.median * 1e3, 2),
        max_ms=round(summary.maximum * 1e3, 2),
        window_points_mean=round(run.window_points_mean, 1),
    )


def test_fig6_report_window_growth_and_qos(benchmark, profile):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # report-only step
    assert len(_results) == len(WINDOW_LAYERS), "run the parametrized benches first"
    rows = [
        boxplot_row(f"L={window}({window * 0.04:.1f}mm)", _results[window].summary)
        + [round(_results[window].window_points_mean, 1)]
        for window in WINDOW_LAYERS
    ]
    print("\n=== Figure 6: latency (ms) vs inter-layer window L ===")
    print(format_table(BOXPLOT_HEADERS + ["window_pts"], rows))
    print(f"QoS threshold: {profile.qos_seconds * 1e3:.0f} ms")
    save_json(
        "fig6_latency_vs_layers",
        {
            "profile": profile.name,
            "qos_seconds": profile.qos_seconds,
            "rows": {
                str(w): {
                    **_results[w].summary.as_row(1e3),
                    "window_points_mean": _results[w].window_points_mean,
                }
                for w in WINDOW_LAYERS
            },
        },
    )
    # the work offered to correlateEvents grows with L ...
    points = [_results[w].window_points_mean for w in WINDOW_LAYERS]
    assert points == sorted(points) and points[-1] > 2 * points[0], (
        f"window points should grow with L, got {points}"
    )
    # ... and every L answers inside the recoat gap (the paper's claim;
    # sized for the ci profile, like the per-window check above)
    if profile.name == "ci":
        assert all(_results[w].meets_qos(profile.qos_seconds) for w in WINDOW_LAYERS)
