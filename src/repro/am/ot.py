"""Optical Tomography (OT) image synthesis.

The monitored data in the paper are long-exposure grayscale images, one
per layer, where each pixel's gray value is the integrated melt-pool light
emission at that location (2000 x 2000 px over the 250 x 250 mm plate).

The renderer composes, per layer:

* a dim powder background with shot noise;
* for each specimen cross-section, a melted region whose mean brightness
  scales with the job's energy density, textured with hatch stripes at the
  stack's scan orientation;
* brighter witness-cylinder outlines;
* defect blobs — cold (darker) or hot (brighter) disks with a smooth
  radial profile, from the deterministic defect seeder.

A matching boolean ground-truth mask per layer supports detection-quality
scoring; everything is reproducible from the job seed.
"""

from __future__ import annotations

import numpy as np

from .defects import DefectRegion, RecoaterStreak, defects_in_layer, streaks_in_layer
from .geometry import PLATE_MM
from .parameters import ProcessParameters
from .scan import StackScan
from .specimen import Specimen

#: energy density (J/mm^3) that maps to the nominal melt brightness
NOMINAL_ENERGY_DENSITY = 41.7


class OTImageRenderer:
    """Renders synthetic OT layer images and their ground-truth masks."""

    def __init__(
        self,
        image_px: int = 2000,
        plate_mm: float = PLATE_MM,
        powder_level: float = 0.04,
        melt_level: float = 0.55,
        noise_sigma: float = 0.03,
        texture_amplitude: float = 0.04,
        hatch_period_mm: float = 0.8,
        seed: int = 0,
        drift_per_layer: float = 0.0,
    ) -> None:
        """``drift_per_layer`` models slow process drift (lens fouling,
        powder aging): the melt emission level is scaled by
        ``(1 + drift_per_layer * layer)``, floored at 20% so images stay
        physical. Zero (the default) reproduces a stationary process."""
        if image_px < 8:
            raise ValueError("image_px too small to be meaningful")
        self._px = image_px
        self._plate = plate_mm
        self._scale = image_px / plate_mm
        self._powder = powder_level
        self._melt = melt_level
        self._noise = noise_sigma
        self._texture = texture_amplitude
        self._hatch_mm = hatch_period_mm
        self._seed = seed
        self._drift = drift_per_layer
        self._patterns: tuple[float | None, dict] = (None, {})

    @property
    def image_px(self) -> int:
        return self._px

    @property
    def px_per_mm(self) -> float:
        return self._scale

    def _layer_rng(self, layer: int) -> np.random.Generator:
        return np.random.default_rng((self._seed * 1_000_003 + layer) & 0xFFFFFFFF)

    def render(
        self,
        layer: int,
        z_mm: float,
        specimens: list[Specimen],
        scan: StackScan,
        defects: list[DefectRegion],
        process: ProcessParameters | None = None,
        streaks: list[RecoaterStreak] | None = None,
    ) -> np.ndarray:
        """Render the OT image for one layer as a (px, px) uint8 array."""
        rng = self._layer_rng(layer)
        image = np.full((self._px, self._px), self._powder, dtype=np.float32)
        image += rng.normal(0.0, self._noise / 3, size=image.shape).astype(np.float32)

        melt = self._melt
        if process is not None:
            from .materials import material_for

            material = material_for(process)
            melt *= material.emissivity_scale * (
                process.energy_density_j_mm3 / material.nominal_energy_density
            )
        if self._drift:
            melt *= max(0.2, 1.0 + self._drift * layer)

        for specimen in specimens:
            if z_mm >= specimen.height_mm:
                continue
            self._paint_specimen(image, specimen, scan, melt, rng, z_mm)

        for defect in defects_in_layer(defects, z_mm):
            self._paint_defect(image, defect, z_mm)

        for streak in streaks_in_layer(streaks or [], layer):
            self._paint_streak(image, streak)

        np.clip(image, 0.0, 1.0, out=image)
        return (image * 255.0).astype(np.uint8)

    def _paint_streak(self, image: np.ndarray, streak: RecoaterStreak) -> None:
        half_width_px = max(0.5, streak.width_mm * self._scale / 2.0)
        center_row = streak.y_mm * self._scale
        r0 = max(0, int(center_row - half_width_px))
        r1 = min(self._px, int(np.ceil(center_row + half_width_px)))
        c0 = max(0, int(streak.x_start_mm * self._scale))
        c1 = min(self._px, int(round(streak.x_end_mm * self._scale)))
        if r1 <= r0 or c1 <= c0:
            return
        window = image[r0:r1, c0:c1]
        melted = (window > 0.25).astype(np.float32)
        window += streak.intensity_delta * melted

    def _paint_specimen(
        self,
        image: np.ndarray,
        specimen: Specimen,
        scan: StackScan,
        melt: float,
        rng: np.random.Generator,
        z_mm: float,
    ) -> None:
        r0, r1, c0, c1 = specimen.footprint.to_pixels(self._px, self._plate)
        if r1 <= r0 or c1 <= c0:
            return
        texture, rings = self._stack_pattern(scan.angle_deg, specimen)
        window = image[r0:r1, c0:c1]
        region = window if specimen.shape is None else np.empty_like(window)
        np.add(texture, np.float32(melt), out=region)  # = np.full(melt) + texture
        region += rng.normal(0.0, self._noise, size=region.shape).astype(np.float32)
        for ring in rings:  # a pixel in two rings gets two adds
            region[ring] += 0.015
        if specimen.shape is not None:
            # Shaped part: melt only the slice; outside stays powder.
            from .shapes import shape_mask_px

            mask = shape_mask_px(specimen.shape, z_mm, r0, r1, c0, c1, self._scale)
            np.copyto(window, region, where=mask)

    def _stack_pattern(
        self, angle_deg: float, specimen: Specimen
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """A footprint's hatch texture and witness-ring masks (one per ring
        depth) at one stack angle; the memo holds one stack's, a new angle
        replaces it."""
        angle, patterns = self._patterns
        if angle != angle_deg:
            patterns = {}
            self._patterns = (angle_deg, patterns)
        r0, r1, c0, c1 = specimen.footprint.to_pixels(self._px, self._plate)
        cylinders = specimen.cylinders
        key = (cylinders, r0, r1, c0, c1)
        if key not in patterns:
            rows = np.arange(r0, r1, dtype=np.float32)[:, None]
            cols = np.arange(c0, c1, dtype=np.float32)[None, :]
            # Hatch texture: stripes perpendicular to the scan vector.
            theta = np.radians(angle_deg)
            period_px = max(2.0, self._hatch_mm * self._scale)
            phase = (cols * np.cos(theta) + rows * np.sin(theta)) * (2 * np.pi / period_px)
            texture = self._texture * np.sin(phase).astype(np.float32)
            # Witness cylinders ring slightly brighter (different contour
            # scan); depth counts the rings a pixel lies in.
            depth = np.zeros(texture.shape, dtype=np.uint8)
            for cylinder in cylinders:
                cy = cylinder.center_y * self._scale - r0
                cx = cylinder.center_x * self._scale - c0
                radius_px = cylinder.radius * self._scale
                dist_sq = (rows - r0 - cy) ** 2 + (cols - c0 - cx) ** 2
                # Contour scans emit slightly differently; keep the
                # highlight subtle (< the 3-sigma labeling band) so healthy
                # cylinders do not register as thermal anomalies.
                depth += np.abs(np.sqrt(dist_sq) - radius_px) < max(1.0, self._scale * 0.12)
            patterns[key] = texture, [depth >= d for d in range(1, int(depth.max()) + 1)]
        return patterns[key]

    def _paint_defect(self, image: np.ndarray, defect: DefectRegion, z_mm: float) -> None:
        radius_mm = defect.radius_at(z_mm)
        if radius_mm <= 0:
            return
        radius_px = radius_mm * self._scale
        cy = defect.center_y_mm * self._scale
        cx = defect.center_x_mm * self._scale
        r0 = max(0, int(cy - radius_px - 1))
        r1 = min(self._px, int(cy + radius_px + 2))
        c0 = max(0, int(cx - radius_px - 1))
        c1 = min(self._px, int(cx + radius_px + 2))
        if r1 <= r0 or c1 <= c0:
            return
        rows = np.arange(r0, r1, dtype=np.float32)[:, None]
        cols = np.arange(c0, c1, dtype=np.float32)[None, :]
        dist_sq = (rows - cy) ** 2 + (cols - cx) ** 2
        profile = 1.0 - dist_sq / (radius_px * radius_px)
        np.clip(profile, 0.0, 1.0, out=profile)
        # Thermal defects live in melted material: gate the delta on the
        # pixel already being melt, so a blob overlapping a shaped part's
        # powder surroundings does not smudge the powder bed.
        window = image[r0:r1, c0:c1]
        melted = (window > 0.25).astype(np.float32)
        window += defect.intensity_delta * profile.astype(np.float32) * melted

    def ground_truth_mask(
        self, z_mm: float, defects: list[DefectRegion]
    ) -> np.ndarray:
        """Boolean (px, px) mask of pixels inside any defect at ``z_mm``.

        Marks the geometric blob extent; for shaped parts a blob may
        overhang powder where no intensity change is painted, so treat
        this as a (slightly conservative) superset of visible defect area.
        """
        mask = np.zeros((self._px, self._px), dtype=bool)
        for defect in defects_in_layer(defects, z_mm):
            radius_px = defect.radius_at(z_mm) * self._scale
            cy = defect.center_y_mm * self._scale
            cx = defect.center_x_mm * self._scale
            r0 = max(0, int(cy - radius_px - 1))
            r1 = min(self._px, int(cy + radius_px + 2))
            c0 = max(0, int(cx - radius_px - 1))
            c1 = min(self._px, int(cx + radius_px + 2))
            if r1 <= r0 or c1 <= c0:
                continue
            rows = np.arange(r0, r1, dtype=np.float32)[:, None]
            cols = np.arange(c0, c1, dtype=np.float32)[None, :]
            dist_sq = (rows - cy) ** 2 + (cols - cx) ** 2
            mask[r0:r1, c0:c1] |= dist_sq <= radius_px * radius_px
        return mask
