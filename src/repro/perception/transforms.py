"""Image-to-world transformation ("T" in paper Fig. 1).

Each confirmed image-space track is converted into a road-frame estimate of
the object's longitudinal distance, lateral offset, and their rates of change.
Distance is recovered from the pixel height of the box via the pinhole model
(objects of a known class have a nominal physical height); lateral offset from
the horizontal position of the box centre.  Velocities are smoothed finite
differences, mirroring how the paper's perception derives object trajectories
(velocity, acceleration, heading) from the tracked states.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional

from repro.geometry import CameraProjection
from repro.perception.tracker import ObjectTrack
from repro.sim.actors import ActorKind

__all__ = ["WorldObjectEstimate", "ImageToWorldTransform"]

#: Sort key of the distance-ordered records (estimates, obstacles, LiDAR
#: detections), which all carry a ``distance_m`` field.
by_distance = attrgetter("distance_m")

#: Nominal physical heights used to invert the projection, per object class.
NOMINAL_HEIGHT_M = {
    ActorKind.VEHICLE: 1.6,
    ActorKind.PEDESTRIAN: 1.7,
}


class WorldObjectEstimate(NamedTuple):
    """Road-frame estimate of one tracked object, relative to the ego camera.

    A named tuple rather than a dataclass: both simulation engines build one
    per tracked object per frame.
    """

    track_id: int
    actor_id: int
    kind: ActorKind
    #: Longitudinal distance from the camera (ego front bumper) to the object.
    distance_m: float
    #: Lateral offset of the object relative to the ego centreline (positive left).
    lateral_m: float
    #: Rate of change of the distance (negative when closing).
    relative_longitudinal_velocity_mps: float
    #: Rate of change of the relative longitudinal velocity.
    relative_longitudinal_acceleration_mps2: float
    #: Rate of change of the lateral offset.
    lateral_velocity_mps: float
    #: Number of frames this object has been tracked.
    age_frames: int


@dataclass
class _TrackHistory:
    distance_m: float
    lateral_m: float
    velocity_mps: float = 0.0
    lateral_velocity_mps: float = 0.0
    acceleration_mps2: float = 0.0
    initialized: bool = False


class ImageToWorldTransform:
    """Stateful conversion of image tracks into road-frame object estimates."""

    def __init__(
        self,
        projection: CameraProjection | None = None,
        frame_dt_s: float = 1.0 / 15.0,
        velocity_smoothing: float = 0.25,
    ):
        if frame_dt_s <= 0:
            raise ValueError("frame_dt_s must be positive")
        if not 0.0 < velocity_smoothing <= 1.0:
            raise ValueError("velocity_smoothing must be in (0, 1]")
        self.projection = projection or CameraProjection()
        self.frame_dt_s = frame_dt_s
        self.velocity_smoothing = velocity_smoothing
        self._history: Dict[int, _TrackHistory] = {}

    @property
    def has_history(self) -> bool:
        """Whether any track's history is held (the transform has run)."""
        return bool(self._history)

    def reset(self) -> None:
        """Drop all per-track history."""
        self._history.clear()

    def transform(self, tracks: List[ObjectTrack]) -> List[WorldObjectEstimate]:
        """Convert the current set of image tracks into world estimates."""
        estimates: List[WorldObjectEstimate] = []
        live_track_ids = set()
        for track in tracks:
            live_track_ids.add(track.track_id)
            estimate = self._transform_track(track)
            if estimate is not None:
                estimates.append(estimate)
        for track_id in list(self._history):
            if track_id not in live_track_ids:
                del self._history[track_id]
        estimates.sort(key=by_distance)
        return estimates

    def _transform_track(self, track: ObjectTrack) -> Optional[WorldObjectEstimate]:
        bbox = track.bbox
        nominal_height = NOMINAL_HEIGHT_M[track.kind]
        if bbox.height <= 0:
            return None
        distance = self.projection.inverse_distance(bbox, nominal_height)
        lateral = self.projection.inverse_lateral(bbox, distance)

        history = self._history.get(track.track_id)
        if history is None or not history.initialized:
            history = _TrackHistory(distance_m=distance, lateral_m=lateral, initialized=True)
            self._history[track.track_id] = history
            velocity = 0.0
            lateral_velocity = 0.0
            acceleration = 0.0
        else:
            alpha = self.velocity_smoothing
            raw_velocity = (distance - history.distance_m) / self.frame_dt_s
            raw_lateral_velocity = (lateral - history.lateral_m) / self.frame_dt_s
            velocity = (1 - alpha) * history.velocity_mps + alpha * raw_velocity
            lateral_velocity = (
                (1 - alpha) * history.lateral_velocity_mps + alpha * raw_lateral_velocity
            )
            raw_acceleration = (velocity - history.velocity_mps) / self.frame_dt_s
            acceleration = (1 - alpha) * history.acceleration_mps2 + alpha * raw_acceleration
            history.distance_m = distance
            history.lateral_m = lateral
            history.velocity_mps = velocity
            history.lateral_velocity_mps = lateral_velocity
            history.acceleration_mps2 = acceleration

        return WorldObjectEstimate(
            track_id=track.track_id,
            actor_id=track.actor_id,
            kind=track.kind,
            distance_m=distance,
            lateral_m=lateral,
            relative_longitudinal_velocity_mps=velocity,
            relative_longitudinal_acceleration_mps2=acceleration,
            lateral_velocity_mps=lateral_velocity,
            age_frames=track.age_frames,
        )
