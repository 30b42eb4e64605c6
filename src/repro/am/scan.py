"""Scan strategy and gas-flow interaction model.

Within each 1 mm stack the laser scans at a fixed orientation to the gas
flow; the flow runs from the back to the front of the machine to carry
away smoke and spatter (§5, citing Ladewig et al.). Scanning *with* the
flow lets by-products drift over already-consolidated track; scanning
*against* or *across* it drops spatter onto powder that is yet to be
melted, creating potential defect sites. This module turns a stack's scan
orientation into a scalar defect-risk factor that the defect seeder uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: gas flow direction in plate coordinates: back (+y) -> front (-y)
GAS_FLOW_ANGLE_DEG = 270.0


@dataclass(frozen=True)
class StackScan:
    """Scan configuration of one 1 mm stack of one specimen."""

    stack_index: int
    angle_deg: float  # scan vector orientation, degrees CCW from +x

    @property
    def angle_to_gas_flow_deg(self) -> float:
        """Smallest angle between the scan vector and the gas flow [0, 90].

        Scan tracks are bidirectional, so orientation is modulo 180 and the
        relevant alignment is the acute angle to the flow axis.
        """
        diff = abs((self.angle_deg - GAS_FLOW_ANGLE_DEG) % 180.0)
        return min(diff, 180.0 - diff)


def rotating_schedule(
    num_stacks: int, start_deg: float = 90.0, increment_deg: float = 15.0
) -> list[StackScan]:
    """Per-stack orientations sweeping the angular range.

    The evaluation build sets "the laser to scan at a certain orientation
    angle to the gas flow" per stack; a uniform sweep exposes the full
    range of flow interactions across the build height.
    """
    return [
        StackScan(i, (start_deg + i * increment_deg) % 180.0) for i in range(num_stacks)
    ]


def defect_risk(scan: StackScan) -> float:
    """Relative likelihood of spatter-induced defects for this stack, [0,1].

    Risk peaks when the scan runs parallel to the flow axis (spatter is
    blown along the track onto un-melted powder) and is lowest when the
    scan is perpendicular to it. The specific shape is a smooth cosine
    ramp — adequate for generating spatially structured synthetic defects;
    absolute rates are calibrated by the defect seeder.
    """
    alignment = scan.angle_to_gas_flow_deg  # 0 = parallel to flow, 90 = perpendicular
    return 0.5 * (1.0 + math.cos(math.radians(alignment * 2)))

