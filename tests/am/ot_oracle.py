"""Test-only oracle: the OT renderer that paints every specimen from scratch.

``repro.am.ot.OTImageRenderer`` shipped this ``_paint_specimen`` until a
footprint's hatch texture and witness-ring masks became computed once per
stack angle and reused by the stack's other layers. Kept verbatim — the
texture, every ring and the region rebuilt for every specimen of every
layer — so ``tests/am/test_ot_oracle.py`` can hold the shipped renderer to
it ``array_equal``: the memo must give back the float32 texture and the
ring adds a per-layer paint forms, on every supported numpy.
"""

from __future__ import annotations

import numpy as np

from repro.am import OTImageRenderer, Specimen, StackScan


class PerLayerRenderer(OTImageRenderer):
    """The shipped renderer with the per-layer specimen paint."""

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
        rows = np.arange(r0, r1, dtype=np.float32)[:, None]
        cols = np.arange(c0, c1, dtype=np.float32)[None, :]
        region = np.full((r1 - r0, c1 - c0), melt, dtype=np.float32)
        # Hatch texture: stripes perpendicular to the scan vector.
        theta = np.radians(scan.angle_deg)
        period_px = max(2.0, self._hatch_mm * self._scale)
        phase = (cols * np.cos(theta) + rows * np.sin(theta)) * (2 * np.pi / period_px)
        region += self._texture * np.sin(phase).astype(np.float32)
        region += rng.normal(0.0, self._noise, size=region.shape).astype(np.float32)
        # Witness cylinders ring slightly brighter (different contour scan).
        for cylinder in specimen.cylinders:
            cy = cylinder.center_y * self._scale - r0
            cx = cylinder.center_x * self._scale - c0
            radius_px = cylinder.radius * self._scale
            dist_sq = (rows - r0 - cy) ** 2 + (cols - c0 - cx) ** 2
            # Contour scans emit slightly differently; keep the highlight
            # subtle (< the 3-sigma labeling band) so healthy cylinders do
            # not register as thermal anomalies.
            ring = np.abs(np.sqrt(dist_sq) - radius_px) < max(1.0, self._scale * 0.12)
            region[ring] += 0.015
        if specimen.shape is None:
            image[r0:r1, c0:c1] = region
        else:
            # Shaped part: melt only the slice; outside stays powder.
            from repro.am.shapes import shape_mask_px

            mask = shape_mask_px(specimen.shape, z_mm, r0, r1, c0, c1, self._scale)
            window = image[r0:r1, c0:c1]
            image[r0:r1, c0:c1] = np.where(mask, region, window)
