"""The simulated LiDAR.

The LiDAR provides the spatial redundancy that defends the perception system
against single-sensor attacks (paper §III-B): it measures object positions in
the road frame independently of the camera.  Two properties matter for the
reproduction:

* vehicles return strong echoes and are detected out to a long range;
* pedestrians return weak echoes and are only detected at a much shorter
  range.  The paper attributes RoboTack's higher success rate on pedestrians
  to exactly this: "LiDAR-based object detection fails to register pedestrians
  at a higher longitudinal distance, while recognizing vehicles at the same
  distance" (§VI-C).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import numpy as np

from repro.sim.actors import ActorKind
from repro.sim.world import GroundTruthSnapshot

__all__ = ["LidarDetection", "LidarScan", "LidarSensor"]


class LidarDetection(NamedTuple):
    """One LiDAR-detected object, in the ego (road-aligned) frame.

    Named tuples of plain floats, like the scan itself: both simulation
    engines build one per detected object per scan.
    """

    actor_id: int
    kind: ActorKind
    #: Longitudinal position of the object centre relative to the ego front bumper.
    distance_m: float
    #: Lateral position of the object centre relative to the ego centreline.
    lateral_m: float
    #: Longitudinal velocity of the object relative to the ground (road frame).
    longitudinal_speed_mps: float
    #: Lateral velocity of the object relative to the ground (road frame).
    lateral_velocity_mps: float


class LidarScan(NamedTuple):
    """All objects detected in one LiDAR rotation."""

    time_s: float
    frame_index: int
    detections: tuple[LidarDetection, ...] = ()

    def detection_for_actor(self, actor_id: int) -> Optional[LidarDetection]:
        """The detection of a specific actor, if present in this scan."""
        for det in self.detections:
            if det.actor_id == actor_id:
                return det
        return None


class LidarSensor:
    """Range-limited LiDAR with class-dependent effective range and small noise."""

    def __init__(
        self,
        vehicle_range_m: float = 80.0,
        pedestrian_range_m: float = 30.0,
        position_noise_m: float = 0.08,
        rng: np.random.Generator | None = None,
    ):
        if vehicle_range_m <= 0 or pedestrian_range_m <= 0:
            raise ValueError("LiDAR ranges must be positive")
        if position_noise_m < 0:
            raise ValueError("position noise must be non-negative")
        self.vehicle_range_m = vehicle_range_m
        self.pedestrian_range_m = pedestrian_range_m
        self.position_noise_m = position_noise_m
        self._rng = rng if rng is not None else np.random.default_rng()

    def effective_range(self, kind: ActorKind) -> float:
        """Detection range for a given object class."""
        return self.vehicle_range_m if kind is ActorKind.VEHICLE else self.pedestrian_range_m

    def scan(self, snapshot: GroundTruthSnapshot) -> LidarScan:
        """Produce one LiDAR scan from the ground-truth snapshot."""
        ego = snapshot.ego
        ego_front = ego.position.x + ego.dimensions.length_m / 2.0
        detections: List[LidarDetection] = []
        for actor in snapshot.actors:
            distance = actor.position.x - ego_front
            if distance <= 0.0 or distance > self.effective_range(actor.kind):
                continue
            noise_x = self._rng.normal(0.0, self.position_noise_m)
            noise_y = self._rng.normal(0.0, self.position_noise_m)
            detections.append(
                LidarDetection(
                    actor_id=actor.actor_id,
                    kind=actor.kind,
                    distance_m=distance + noise_x,
                    lateral_m=actor.position.y - ego.position.y + noise_y,
                    longitudinal_speed_mps=actor.velocity.x,
                    lateral_velocity_mps=actor.velocity.y,
                )
            )
        detections.sort(key=lambda d: d.distance_m)
        return LidarScan(
            time_s=snapshot.time_s,
            frame_index=snapshot.step_index,
            detections=tuple(detections),
        )
