"""AMPES-style scan-path synthesis: raster tracks, deposition, thermal twin.

The OT workload renders whole-layer intensity images; the thermal
workloads need the layer *underneath* that image — where the laser
actually went.  This module synthesizes, per layer:

* a **serpentine raster scan path** (g-code-like): parallel tracks at
  the stack's scan orientation, spaced by the hatch distance, clipped to
  each part's footprint, with direction alternating track-to-track;
* a **power/speed command schedule** — the commanded setpoints plus the
  *actual* delivered values (commanded modulated by a slow AR(1)
  actuator drift, optionally with a commanded power spike window so
  forecast pipelines have a predictable overheat to warn about);
* **per-track energy deposition** onto a cell grid (line energy
  ``e = P/v`` J/mm integrated along each track — total deposited energy
  equals ``Σ e·length`` exactly, which the property suite asserts);
* a **surface-temperature recursion** with known ground truth:
  ``T_k = ambient + retention·(T_{k-1} − ambient) + coupling·E_k + w``
  observed through additive sensor noise and optional NaN dropout;
* a **melt-pool frame**: each track painted as a Gaussian cross-section
  whose amplitude scales as ``P/sqrt(v)`` and width as ``sqrt(P/v)`` (the
  melt-pool scaling the laser-parameter regressor inverts), rendered when
  a reader first asks for it.

Everything is seeded and deterministic, so accuracy gates can compare
pipeline output against exact ground truth.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Rect

__all__ = [
    "ScanTrack",
    "raster_tracks",
    "LaserCommand",
    "command_schedule",
    "deposit_energy",
    "MeltPoolOptics",
    "render_meltpool_frame",
    "ThermalModelParams",
    "ThermalLayerRecord",
    "ThermalBuildConfig",
    "ThermalBuild",
    "LaserCalibrationSample",
    "synthesize_thermal_build",
    "synthesize_laser_calibration",
    "suggest_overheat_threshold",
]


@dataclass(frozen=True)
class ScanTrack:
    """One straight laser vector in region coordinates (mm)."""

    x0_mm: float
    y0_mm: float
    x1_mm: float
    y1_mm: float
    power_w: float
    speed_mm_s: float

    @property
    def length_mm(self) -> float:
        return math.hypot(self.x1_mm - self.x0_mm, self.y1_mm - self.y0_mm)

    @property
    def line_energy_j_mm(self) -> float:
        """Energy deposited per mm of track: e = P / v."""
        return self.power_w / self.speed_mm_s

    @property
    def energy_j(self) -> float:
        return self.line_energy_j_mm * self.length_mm


def raster_tracks(
    rect: Rect,
    angle_deg: float,
    hatch_mm: float,
    power_w: float,
    speed_mm_s: float,
) -> list[ScanTrack]:
    """Serpentine raster fill of ``rect`` at the given scan orientation.

    Tracks run parallel to the scan vector, spaced ``hatch_mm`` apart
    along its normal (the invariant the property suite checks), clipped
    to the rectangle, with direction alternating between consecutive
    tracks.  The first track sits half a hatch inside the footprint so a
    part always receives at least one track when it is wider than the
    hatch.
    """
    if hatch_mm <= 0.0:
        raise ValueError("hatch_mm must be positive")
    theta = math.radians(angle_deg)
    dx, dy = math.cos(theta), math.sin(theta)
    nx, ny = -dy, dx  # unit normal to the scan direction
    corners = (
        (rect.x_min, rect.y_min),
        (rect.x_min, rect.y_max),
        (rect.x_max, rect.y_min),
        (rect.x_max, rect.y_max),
    )
    offsets = [cx * nx + cy * ny for cx, cy in corners]
    lo, hi = min(offsets), max(offsets)
    tracks: list[ScanTrack] = []
    offset = lo + hatch_mm / 2.0
    index = 0
    while offset < hi:
        # a point on the line with this normal offset
        bx, by = offset * nx, offset * ny
        span = _clip_line(bx, by, dx, dy, rect)
        offset += hatch_mm
        if span is None:
            continue
        t0, t1 = span
        x0, y0 = bx + t0 * dx, by + t0 * dy
        x1, y1 = bx + t1 * dx, by + t1 * dy
        if index % 2:  # serpentine: odd tracks run backwards
            x0, y0, x1, y1 = x1, y1, x0, y0
        tracks.append(ScanTrack(x0, y0, x1, y1, power_w, speed_mm_s))
        index += 1
    return tracks


def _clip_line(
    bx: float, by: float, dx: float, dy: float, rect: Rect
) -> tuple[float, float] | None:
    """Liang-Barsky: parameter range of the infinite line inside ``rect``."""
    t0, t1 = -math.inf, math.inf
    for base, delta, lo, hi in (
        (bx, dx, rect.x_min, rect.x_max),
        (by, dy, rect.y_min, rect.y_max),
    ):
        if abs(delta) < 1e-12:
            if base < lo or base > hi:
                return None
            continue
        ta = (lo - base) / delta
        tb = (hi - base) / delta
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
    if not (t1 - t0 > 1e-9):
        return None
    return t0, t1


@dataclass(frozen=True)
class LaserCommand:
    """Power/speed pair for one layer (commanded or actual)."""

    power_w: float
    speed_mm_s: float


def command_schedule(
    layers: int,
    power_w: float,
    speed_mm_s: float,
    *,
    seed: int,
    drift_pct: float = 0.03,
    spike_layers: tuple[int, int] | None = None,
    spike_factor: float = 1.6,
) -> list[tuple[LaserCommand, LaserCommand]]:
    """Per-layer ``(commanded, actual)`` pairs.

    The commanded setpoints are the nominal machine parameters, with the
    power multiplied by ``spike_factor`` inside the half-open
    ``spike_layers`` window (the planned hot section the forecaster must
    flag ahead of time).  The actual values modulate the commanded ones
    by an AR(1) actuator drift with stationary deviation ``drift_pct`` —
    the slowly wandering ground truth the reconstruction pipeline
    recovers.
    """
    rng = np.random.default_rng(seed)
    rho = 0.85
    sigma = drift_pct * math.sqrt(1.0 - rho * rho)
    p_drift = v_drift = 0.0
    out: list[tuple[LaserCommand, LaserCommand]] = []
    for layer in range(layers):
        commanded_p = power_w
        if spike_layers is not None and spike_layers[0] <= layer < spike_layers[1]:
            commanded_p = power_w * spike_factor
        p_drift = rho * p_drift + sigma * rng.standard_normal()
        v_drift = rho * v_drift + sigma * rng.standard_normal()
        commanded = LaserCommand(commanded_p, speed_mm_s)
        actual = LaserCommand(
            commanded_p * (1.0 + p_drift), speed_mm_s * (1.0 + v_drift)
        )
        out.append((commanded, actual))
    return out


def deposit_energy(
    tracks: list[ScanTrack],
    grid_cells: int,
    cell_mm: float,
    *,
    sample_step_mm: float = 0.5,
) -> np.ndarray:
    """Rasterize track energy onto a ``(grid_cells, grid_cells)`` grid (J).

    Each track is sampled at the midpoints of equal sub-segments no
    longer than ``sample_step_mm``; every sample deposits its share of
    the track energy into the cell under it.  Summing the grid therefore
    reproduces ``Σ e·length`` exactly (up to float addition) — energy is
    conserved by construction, not by normalization.

    All tracks' samples are placed and accumulated in one pass:
    ``np.repeat`` spreads each track's parameters over its samples, and
    one ``np.bincount`` adds them into the cells in input order — track
    after track, sample after sample — so every cell's sum is the one
    that adding the tracks one at a time gives, bit for bit.
    """
    return _deposit(tracks, grid_cells, cell_mm, sample_step_mm, [None])[0]


def _deposit(tracks, grid_cells, cell_mm, sample_step_mm, line_energies) -> list[np.ndarray]:
    """One grid per line energy (J/mm, every track at it; ``None`` is each
    track at its own), all added over one placement of the samples."""
    # math.hypot per track, as ScanTrack.length_mm: np.hypot may round differently
    spans = [(track, track.length_mm) for track in tracks]
    spans = [(track, length) for track, length in spans if length > 0.0]
    if not spans:  # bincount would hand back int64 zeros
        return [np.zeros((grid_cells, grid_cells), dtype=np.float64) for _ in line_energies]
    n = np.array(
        [max(1, math.ceil(length / sample_step_mm)) for _, length in spans],
        dtype=np.int64,
    )
    x0, y0, x1, y1 = np.array(
        [(t.x0_mm, t.y0_mm, t.x1_mm, t.y1_mm) for t, _ in spans], dtype=np.float64
    ).T
    # sample k of a track of n sits at (k + 0.5) / n along it
    per_sample = np.repeat(n, n)
    k = np.arange(per_sample.size) - np.repeat(np.cumsum(n) - n, n)
    ts = (k + 0.5) / per_sample
    xs = np.repeat(x0, n) + ts * np.repeat(x1 - x0, n)
    ys = np.repeat(y0, n) + ts * np.repeat(y1 - y0, n)
    cols = np.clip((xs / cell_mm).astype(np.int64), 0, grid_cells - 1)
    rows = np.clip((ys / cell_mm).astype(np.int64), 0, grid_cells - 1)
    cells = rows * grid_cells + cols
    grids = []
    for line in line_energies:
        energy = np.array(
            [(t.line_energy_j_mm if line is None else line) * length for t, length in spans]
        )
        grid = np.bincount(
            cells, weights=np.repeat(energy / n, n), minlength=grid_cells * grid_cells
        )
        grids.append(grid.reshape(grid_cells, grid_cells))
    return grids


@dataclass(frozen=True)
class MeltPoolOptics:
    """Synthetic on-axis melt-pool sensor model.

    Track cross-sections are Gaussian with amplitude
    ``amplitude_coeff * P / sqrt(v)`` and width
    ``width_coeff_mm * sqrt(P / v)`` — the two scalings that make power
    and speed jointly identifiable from one frame.
    """

    amplitude_coeff: float = 15.0
    width_coeff_mm: float = 1.25
    melt_threshold: float = 60.0
    noise_std: float = 2.0
    top_k: int = 64

    def amplitude(self, power_w: float, speed_mm_s: float) -> float:
        return self.amplitude_coeff * power_w / math.sqrt(speed_mm_s)

    def sigma_mm(self, power_w: float, speed_mm_s: float) -> float:
        return self.width_coeff_mm * math.sqrt(power_w / speed_mm_s)


def render_meltpool_frame(
    tracks: list[ScanTrack],
    image_px: int,
    px_per_mm: float,
    optics: MeltPoolOptics,
) -> np.ndarray:
    """Noise-free melt-pool frame: max-composed Gaussian track profiles,
    each track at its own power and speed."""
    return _meltpool_frames(tracks, None, image_px, px_per_mm, optics)[0]


def _meltpool_frames(
    tracks: list[ScanTrack],
    commands: list[tuple[float, float]] | None,
    image_px: int,
    px_per_mm: float,
    optics: MeltPoolOptics,
) -> list[np.ndarray]:
    """One noise-free frame of one track geometry per ``(power_w,
    speed_mm_s)`` command; ``None`` is one frame at each track's own.

    A track's squared-distance field covers the union of the commands'
    boxes (a larger sigma reaches farther). Tracks are sorted by that box's
    shape and cut into blocks (:func:`_blocks`); a block's fields are one
    stacked ``(k, H, W)`` pass, padded to its largest box, and each frame's
    profiles ``amplitude * exp(-d2 / (2·sigma²))`` one more, in one
    contiguous buffer. Every step is element-wise, so a track's true box
    holds the floats a render of it alone holds (``exp`` sees the same
    inputs in the same layout), and one ``np.maximum`` per track composes
    that box: every frame equals a per-track render bit for bit.
    """
    shared = None
    if commands is not None:
        shared = [(optics.sigma_mm(p, v), optics.amplitude(p, v)) for p, v in commands]
    frames = [
        np.zeros((image_px, image_px), dtype=np.float64)
        for _ in range(1 if shared is None else len(shared))
    ]
    drawn = []
    for track in tracks:
        profiles = shared or [
            (
                optics.sigma_mm(track.power_w, track.speed_mm_s),
                optics.amplitude(track.power_w, track.speed_mm_s),
            )
        ]
        boxes = [
            _track_box(track, 4.0 * sigma, image_px, px_per_mm)
            for sigma, _ in profiles
        ]
        inside = [box for box in boxes if box[0] < box[1] and box[2] < box[3]]
        if not inside:
            continue
        r0, c0 = min(box[0] for box in inside), min(box[2] for box in inside)
        shape = (max(box[1] for box in inside) - r0, max(box[3] for box in inside) - c0)
        vx, vy = track.x1_mm - track.x0_mm, track.y1_mm - track.y0_mm
        point = vx * vx + vy * vy < 1e-18  # _segment_distance_sq's point form
        drawn.append(((point, *shape), r0, c0, track, profiles, boxes))
    drawn.sort(key=lambda entry: entry[0])
    # a padded box starts inside the image and is no wider than it
    coords = (np.arange(2 * image_px, dtype=np.float64) + 0.5) / px_per_mm
    for block in _blocks(drawn):
        height = max(entry[0][1] for entry in block)
        width = max(entry[0][2] for entry in block)
        r0s = np.array([entry[1] for entry in block])
        c0s = np.array([entry[2] for entry in block])
        x0, y0, x1, y1 = np.array(
            [(t.x0_mm, t.y0_mm, t.x1_mm, t.y1_mm) for _, _, _, t, _, _ in block]
        ).T[:, :, None, None]
        d2 = _segment_distance_sq(
            coords[c0s[:, None] + np.arange(width)][:, None, :],
            coords[r0s[:, None] + np.arange(height)][:, :, None],
            x0, y0, x1, y1,
            point=block[0][0][0],
        )
        profile = d2 if len(frames) == 1 else np.empty_like(d2)
        for index, frame in enumerate(frames):
            sigma, amplitude = np.array([e[4][index] for e in block]).T[..., None, None]
            np.negative(d2, out=profile)
            profile /= 2.0 * sigma * sigma
            np.exp(profile, out=profile)
            profile *= amplitude
            for (_, r0, c0, _, _, boxes), track_profile in zip(block, profile):
                br0, br1, bc0, bc1 = boxes[index]
                if br0 >= br1 or bc0 >= bc1:
                    continue
                box = track_profile[br0 - r0 : br1 - r0, bc0 - c0 : bc1 - c0]
                np.maximum(frame[br0:br1, bc0:bc1], box, out=frame[br0:br1, bc0:bc1])
    return frames


#: padded elements of one stacked distance-field block: bounded, so its temporaries
#: do not grow with a frame's track count; larger blocks make fewer calls
_BLOCK_ELEMENTS = 16_384


def _blocks(drawn: list) -> list[list]:
    """Cut shape-sorted tracks into blocks of at most ``_BLOCK_ELEMENTS`` padded
    elements (a larger track is one block); zero-length tracks keep to their own."""
    blocks: list[list] = []
    for entry in drawn:
        point, h, w = entry[0]
        if blocks and blocks[-1][0][0][0] == point:
            height, width = max(height, h), max(width, w)
            if (len(blocks[-1]) + 1) * height * width <= _BLOCK_ELEMENTS:
                blocks[-1].append(entry)
                continue
        blocks.append([entry])
        height, width = h, w
    return blocks


def _track_box(
    track: ScanTrack, reach: float, image_px: int, px_per_mm: float
) -> tuple[int, int, int, int]:
    """Pixel rows ``[r0, r1)`` and columns ``[c0, c1)`` within ``reach`` mm
    of the track's bounding box, clipped to the image (empty when off it)."""
    x_lo = min(track.x0_mm, track.x1_mm) - reach
    x_hi = max(track.x0_mm, track.x1_mm) + reach
    y_lo = min(track.y0_mm, track.y1_mm) - reach
    y_hi = max(track.y0_mm, track.y1_mm) + reach
    return (
        max(0, int(y_lo * px_per_mm)),
        min(image_px, int(math.ceil(y_hi * px_per_mm)) + 1),
        max(0, int(x_lo * px_per_mm)),
        min(image_px, int(math.ceil(x_hi * px_per_mm)) + 1),
    )


def _segment_distance_sq(xs, ys, x0, y0, x1, y1, point: bool):
    """Squared distance from each (ys, xs) grid point to each stacked
    segment; ``point`` says every segment has zero length."""
    vx, vy = x1 - x0, y1 - y0
    norm = vx * vx + vy * vy
    if point:
        return (xs - x0) ** 2 + (ys - y0) ** 2
    # (xs - x0)·vx + (ys - y0)·vy, x0 + t·vx, ... formed in two buffers
    t = np.add((xs - x0) * vx, (ys - y0) * vy)
    t /= norm
    np.clip(t, 0.0, 1.0, out=t)
    dx = np.multiply(t, vx)
    dx += x0
    np.subtract(xs, dx, out=dx)
    np.square(dx, out=dx)
    np.multiply(t, vy, out=t)
    t += y0
    np.subtract(ys, t, out=t)
    np.square(t, out=t)
    dx += t
    return dx


@dataclass(frozen=True)
class ThermalModelParams:
    """Surface-temperature state-space model (sensor units).

    The estimator loads these from the KV store — they are the
    calibrated machine model, not tunables baked into operator code.
    """

    ambient: float = 80.0
    retention: float = 0.62
    coupling_per_j: float = 55.0
    process_var: float = 0.25
    sensor_var: float = 2.25

    def as_payload(self) -> dict[str, float]:
        return {
            "ambient": self.ambient,
            "retention": self.retention,
            "coupling_per_j": self.coupling_per_j,
            "process_var": self.process_var,
            "sensor_var": self.sensor_var,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, float]) -> "ThermalModelParams":
        return cls(
            ambient=float(payload["ambient"]),
            retention=float(payload["retention"]),
            coupling_per_j=float(payload["coupling_per_j"]),
            process_var=float(payload["process_var"]),
            sensor_var=float(payload["sensor_var"]),
        )


class _MeltPoolFrame:
    """One layer's melt-pool frame, rendered on first read and only once.

    The sensor noise is drawn when the build is synthesized, because every
    later draw of the build's generator depends on it; the noise-free
    render waits for a reader and is then added into the noise array,
    which becomes the frame (``noise + frame`` is ``frame + noise`` bit for
    bit).  A forecast pipeline never reads the frame and never pays for it.
    """

    __slots__ = ("_pending", "_image", "_lock")

    def __init__(
        self,
        tracks: list[ScanTrack],
        config: ThermalBuildConfig,
        noise: np.ndarray | None,
    ) -> None:
        self._pending: tuple | None = (tracks, config, noise)
        self._image: np.ndarray | None = None
        self._lock = threading.Lock()

    def image(self) -> np.ndarray:
        with self._lock:  # two racing readers render once
            if self._pending is not None:
                tracks, config, noise = self._pending
                image = render_meltpool_frame(
                    tracks, config.image_px, config.px_per_mm, config.optics
                )
                if noise is not None:
                    image = np.add(noise, image, out=noise)
                self._image, self._pending = image, None
            return self._image


@dataclass(frozen=True)
class ThermalLayerRecord:
    """Everything one layer publishes, plus its hidden ground truth."""

    job_id: str
    layer: int
    scan_angle_deg: float
    commanded_power_w: float
    commanded_speed_mm_s: float
    actual_power_w: float
    actual_speed_mm_s: float
    track_length_mm: float
    #: planned per-cell deposition for this layer (from commanded values)
    energy_cells: np.ndarray
    #: planned deposition for the *next* layer (zeros past the build top)
    energy_next_cells: np.ndarray
    #: hidden ground truth after this layer (actual values + process noise)
    true_temp_cells: np.ndarray
    #: what the sensor reports: truth + noise, NaN where samples dropped
    measured_temp_cells: np.ndarray
    _meltpool: _MeltPoolFrame = field(repr=False, compare=False)

    @property
    def meltpool_image(self) -> np.ndarray:
        """On-axis melt-pool frame (actual values + sensor noise), rendered
        on first read."""
        return self._meltpool.image()


def _default_parts() -> tuple[Rect, ...]:
    return (Rect(5.0, 5.0, 27.0, 55.0), Rect(33.0, 5.0, 55.0, 55.0))


@dataclass(frozen=True)
class ThermalBuildConfig:
    """Geometry, schedule, and noise model of one synthetic thermal build."""

    job_id: str = "thermal-build"
    layers: int = 30
    region_mm: float = 60.0
    cell_mm: float = 1.5
    px_per_mm: float = 2.0
    hatch_mm: float = 2.0
    parts: tuple[Rect, ...] = field(default_factory=_default_parts)
    power_w: float = 280.0
    speed_mm_s: float = 1200.0
    scan_start_deg: float = 90.0
    scan_increment_deg: float = 15.0
    thermal: ThermalModelParams = field(default_factory=ThermalModelParams)
    optics: MeltPoolOptics = field(default_factory=MeltPoolOptics)
    drift_pct: float = 0.03
    spike_layers: tuple[int, int] | None = None
    spike_factor: float = 1.6
    dropout_rate: float = 0.0
    sample_step_mm: float = 0.5
    seed: int = 11

    @property
    def grid_cells(self) -> int:
        return int(round(self.region_mm / self.cell_mm))

    @property
    def image_px(self) -> int:
        return int(round(self.region_mm * self.px_per_mm))

    @property
    def cell_edge_px(self) -> int:
        """Melt-pool pixels per thermal cell (must divide the image)."""
        edge = self.cell_mm * self.px_per_mm
        if abs(edge - round(edge)) > 1e-9:
            raise ValueError(
                f"cell_mm * px_per_mm = {edge} must be an integer pixel count"
            )
        return int(round(edge))

    def scan_angle(self, layer: int) -> float:
        return (self.scan_start_deg + layer * self.scan_increment_deg) % 180.0

    def layer_tracks(
        self, layer: int, power_w: float, speed_mm_s: float
    ) -> list[ScanTrack]:
        angle = self.scan_angle(layer)
        tracks: list[ScanTrack] = []
        for part in self.parts:
            tracks.extend(
                raster_tracks(part, angle, self.hatch_mm, power_w, speed_mm_s)
            )
        return tracks


@dataclass(frozen=True)
class ThermalBuild:
    """A fully synthesized build: config + one record per layer."""

    config: ThermalBuildConfig
    records: list[ThermalLayerRecord]


def synthesize_thermal_build(config: ThermalBuildConfig) -> ThermalBuild:
    """Run the digital twin: schedule, scan, deposit, heat, observe."""
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
    # pass 1: every layer's deposition, so layer k can publish layer k+1's plan
    # (the g-code is known ahead of the scan). A layer's samples are placed once:
    # its planned (commanded) and actual grids are two bincounts over them
    planned: list[np.ndarray] = []
    deposited: list[tuple[list[ScanTrack], np.ndarray]] = []
    for layer, (commanded, actual) in enumerate(schedule):
        tracks = config.layer_tracks(layer, actual.power_w, actual.speed_mm_s)
        plan, energy = _deposit(
            tracks, cells, config.cell_mm, config.sample_step_mm,
            [commanded.power_w / commanded.speed_mm_s, None],  # None: the actual
        )
        planned.append(plan)
        deposited.append((tracks, energy))
    planned.append(np.zeros((cells, cells), dtype=np.float64))

    params = config.thermal
    truth = np.full((cells, cells), params.ambient, dtype=np.float64)
    records: list[ThermalLayerRecord] = []
    for layer, (commanded, actual) in enumerate(schedule):
        tracks, energy_actual = deposited[layer]
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
        noise = None
        if config.optics.noise_std > 0.0:
            noise = config.optics.noise_std * rng.standard_normal(
                (config.image_px, config.image_px)
            )
        records.append(
            ThermalLayerRecord(
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
                _meltpool=_MeltPoolFrame(tracks, config, noise),
            )
        )
    return ThermalBuild(config=config, records=records)


@dataclass(frozen=True)
class LaserCalibrationSample:
    """One reference frame with known delivered power/speed."""

    power_w: float
    speed_mm_s: float
    track_length_mm: float
    image: np.ndarray


def synthesize_laser_calibration(
    config: ThermalBuildConfig,
    *,
    spread: float = 0.12,
    steps: int = 3,
    angles: tuple[float, ...] = (90.0, 45.0, 0.0),
    seed: int | None = None,
) -> list[LaserCalibrationSample]:
    """Reference sweep around the nominal setpoints for regressor fitting.

    A ``steps × steps`` grid over ``±spread`` of nominal power and speed,
    rendered at several scan angles with the production optics and noise —
    the labelled data the recursive least-squares calibrator consumes. An
    angle's tracks do not depend on the setpoints, so each angle's grid is
    rendered in one pass over its geometry.
    """
    rng = np.random.default_rng(config.seed + 101 if seed is None else seed)
    factors = np.linspace(1.0 - spread, 1.0 + spread, steps)
    commands = [
        (config.power_w * float(pf), config.speed_mm_s * float(vf))
        for pf in factors
        for vf in factors
    ]
    samples: list[LaserCalibrationSample] = []
    for angle in angles:
        layer_config = replace(
            config, scan_start_deg=angle, scan_increment_deg=0.0
        )
        tracks = layer_config.layer_tracks(0, config.power_w, config.speed_mm_s)
        track_length_mm = sum(t.length_mm for t in tracks)
        frames = _meltpool_frames(
            tracks, commands, config.image_px, config.px_per_mm, config.optics
        )
        for (power, speed), image in zip(commands, frames):
            if config.optics.noise_std > 0.0:
                image += config.optics.noise_std * rng.standard_normal(image.shape)
            samples.append(
                LaserCalibrationSample(
                    power_w=power,
                    speed_mm_s=speed,
                    track_length_mm=track_length_mm,
                    image=image,
                )
            )
    return samples


def suggest_overheat_threshold(
    build: ThermalBuild, *, quantile: float = 0.999, margin: float = 2.0
) -> float:
    """Alert threshold just above normal operation's hottest cells.

    Computed over the ground truth of layers *outside* the spike window,
    so a commanded power spike predictably crosses it while steady
    operation stays clear.
    """
    spike = build.config.spike_layers
    normal = [
        r.true_temp_cells
        for r in build.records
        if spike is None or not (spike[0] <= r.layer < spike[1])
    ]
    if not normal:
        raise ValueError("no layers outside the spike window")
    stacked = np.stack(normal)
    return float(np.quantile(stacked, quantile)) + margin
