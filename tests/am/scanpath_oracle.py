"""Test-only oracle: the per-track, eager forms of the scan-path twin.

``repro.am.scanpath`` shipped these until deposition became one pass over
all tracks' samples and melt-pool frames became rendered on first read.
Kept verbatim — a per-track ``np.add.at`` loop, a per-track Gaussian
render, every frame rendered and noised inside the layer loop — so
``tests/am/test_scanpath_oracle.py`` can hold the shipped twin to them
``array_equal``, bit for bit: the one-pass deposition adds the same
samples in the same order, and the deferred frame adds the same noise
array drawn at the same point of the build's generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.am.scanpath import (
    LaserCalibrationSample,
    MeltPoolOptics,
    ScanTrack,
    ThermalBuildConfig,
    command_schedule,
)


def deposit_energy(
    tracks: list[ScanTrack],
    grid_cells: int,
    cell_mm: float,
    *,
    sample_step_mm: float = 0.5,
) -> np.ndarray:
    """Per-track reference for :func:`repro.am.scanpath.deposit_energy`."""
    grid = np.zeros((grid_cells, grid_cells), dtype=np.float64)
    for track in tracks:
        length = track.length_mm
        if length <= 0.0:
            continue
        n = max(1, math.ceil(length / sample_step_mm))
        ts = (np.arange(n, dtype=np.float64) + 0.5) / n
        xs = track.x0_mm + ts * (track.x1_mm - track.x0_mm)
        ys = track.y0_mm + ts * (track.y1_mm - track.y0_mm)
        cols = np.clip((xs / cell_mm).astype(np.int64), 0, grid_cells - 1)
        rows = np.clip((ys / cell_mm).astype(np.int64), 0, grid_cells - 1)
        np.add.at(grid, (rows, cols), track.energy_j / n)
    return grid


def render_meltpool_frame(
    tracks: list[ScanTrack],
    image_px: int,
    px_per_mm: float,
    optics: MeltPoolOptics,
) -> np.ndarray:
    """Per-track reference for :func:`repro.am.scanpath.render_meltpool_frame`."""
    image = np.zeros((image_px, image_px), dtype=np.float64)
    coords = (np.arange(image_px, dtype=np.float64) + 0.5) / px_per_mm
    for track in tracks:
        sigma = optics.sigma_mm(track.power_w, track.speed_mm_s)
        amplitude = optics.amplitude(track.power_w, track.speed_mm_s)
        reach = 4.0 * sigma
        x_lo = min(track.x0_mm, track.x1_mm) - reach
        x_hi = max(track.x0_mm, track.x1_mm) + reach
        y_lo = min(track.y0_mm, track.y1_mm) - reach
        y_hi = max(track.y0_mm, track.y1_mm) + reach
        c0 = max(0, int(x_lo * px_per_mm))
        c1 = min(image_px, int(math.ceil(x_hi * px_per_mm)) + 1)
        r0 = max(0, int(y_lo * px_per_mm))
        r1 = min(image_px, int(math.ceil(y_hi * px_per_mm)) + 1)
        if c0 >= c1 or r0 >= r1:
            continue
        xs = coords[c0:c1][None, :]
        ys = coords[r0:r1][:, None]
        d2 = _segment_distance_sq(
            xs, ys, track.x0_mm, track.y0_mm, track.x1_mm, track.y1_mm
        )
        profile = amplitude * np.exp(-d2 / (2.0 * sigma * sigma))
        np.maximum(image[r0:r1, c0:c1], profile, out=image[r0:r1, c0:c1])
    return image


def _segment_distance_sq(xs, ys, x0, y0, x1, y1):
    vx, vy = x1 - x0, y1 - y0
    norm = vx * vx + vy * vy
    if norm < 1e-18:
        return (xs - x0) ** 2 + (ys - y0) ** 2
    t = np.clip(((xs - x0) * vx + (ys - y0) * vy) / norm, 0.0, 1.0)
    px = x0 + t * vx
    py = y0 + t * vy
    return (xs - px) ** 2 + (ys - py) ** 2


@dataclass(frozen=True)
class EagerLayerRecord:
    """A layer record with its melt-pool frame already rendered."""

    job_id: str
    layer: int
    scan_angle_deg: float
    commanded_power_w: float
    commanded_speed_mm_s: float
    actual_power_w: float
    actual_speed_mm_s: float
    track_length_mm: float
    energy_cells: np.ndarray
    energy_next_cells: np.ndarray
    true_temp_cells: np.ndarray
    measured_temp_cells: np.ndarray
    meltpool_image: np.ndarray


def synthesize_thermal_build(config: ThermalBuildConfig) -> list[EagerLayerRecord]:
    """Eager reference for :func:`repro.am.scanpath.synthesize_thermal_build`."""
    rng = np.random.default_rng(config.seed)
    schedule = command_schedule(
        config.layers,
        config.power_w,
        config.speed_mm_s,
        seed=config.seed + 1,
        drift_pct=config.drift_pct,
        spike_layers=config.spike_layers,
        spike_factor=config.spike_factor,
    )
    cells = config.grid_cells
    planned: list[np.ndarray] = []
    for layer, (commanded, _actual) in enumerate(schedule):
        tracks = config.layer_tracks(layer, commanded.power_w, commanded.speed_mm_s)
        planned.append(
            deposit_energy(
                tracks, cells, config.cell_mm, sample_step_mm=config.sample_step_mm
            )
        )
    planned.append(np.zeros((cells, cells), dtype=np.float64))

    params = config.thermal
    truth = np.full((cells, cells), params.ambient, dtype=np.float64)
    records: list[EagerLayerRecord] = []
    for layer, (commanded, actual) in enumerate(schedule):
        tracks = config.layer_tracks(layer, actual.power_w, actual.speed_mm_s)
        energy_actual = deposit_energy(
            tracks, cells, config.cell_mm, sample_step_mm=config.sample_step_mm
        )
        process_noise = math.sqrt(params.process_var) * rng.standard_normal(
            (cells, cells)
        )
        truth = (
            params.ambient
            + params.retention * (truth - params.ambient)
            + params.coupling_per_j * energy_actual
            + process_noise
        )
        measured = truth + math.sqrt(params.sensor_var) * rng.standard_normal(
            (cells, cells)
        )
        if config.dropout_rate > 0.0:
            dropped = rng.random((cells, cells)) < config.dropout_rate
            measured = np.where(dropped, np.nan, measured)
        meltpool = render_meltpool_frame(
            tracks, config.image_px, config.px_per_mm, config.optics
        )
        if config.optics.noise_std > 0.0:
            meltpool = meltpool + config.optics.noise_std * rng.standard_normal(
                meltpool.shape
            )
        records.append(
            EagerLayerRecord(
                job_id=config.job_id,
                layer=layer,
                scan_angle_deg=config.scan_angle(layer),
                commanded_power_w=commanded.power_w,
                commanded_speed_mm_s=commanded.speed_mm_s,
                actual_power_w=actual.power_w,
                actual_speed_mm_s=actual.speed_mm_s,
                track_length_mm=sum(t.length_mm for t in tracks),
                energy_cells=planned[layer],
                energy_next_cells=planned[layer + 1],
                true_temp_cells=truth.copy(),
                measured_temp_cells=measured,
                meltpool_image=meltpool,
            )
        )
    return records


def synthesize_laser_calibration(
    config: ThermalBuildConfig,
    *,
    spread: float = 0.12,
    steps: int = 3,
    angles: tuple[float, ...] = (90.0, 45.0, 0.0),
    seed: int | None = None,
) -> list[LaserCalibrationSample]:
    """Reference for :func:`repro.am.scanpath.synthesize_laser_calibration`."""
    rng = np.random.default_rng(config.seed + 101 if seed is None else seed)
    factors = np.linspace(1.0 - spread, 1.0 + spread, steps)
    samples: list[LaserCalibrationSample] = []
    for angle in angles:
        layer_config = replace(
            config, scan_start_deg=angle, scan_increment_deg=0.0
        )
        for pf in factors:
            for vf in factors:
                power = config.power_w * float(pf)
                speed = config.speed_mm_s * float(vf)
                tracks = layer_config.layer_tracks(0, power, speed)
                image = render_meltpool_frame(
                    tracks, config.image_px, config.px_per_mm, config.optics
                )
                if config.optics.noise_std > 0.0:
                    image = image + config.optics.noise_std * rng.standard_normal(
                        image.shape
                    )
                samples.append(
                    LaserCalibrationSample(
                        power_w=power,
                        speed_mm_s=speed,
                        track_length_mm=sum(t.length_mm for t in tracks),
                        image=image,
                    )
                )
    return samples
