"""Camera/LiDAR sensor fusion.

Sensor fusion provides the spatial redundancy that defends the AV against
single-sensor attacks (paper §III-B): the camera-based estimates are blended
with LiDAR detections, and obstacles are only *registered* in the world model
once enough consistent evidence has accumulated.  Three behaviours matter for
reproducing the paper's findings:

* camera+LiDAR agreement registers an obstacle almost immediately;
* camera-only objects (e.g. pedestrians beyond the LiDAR's effective
  pedestrian range) register after a short persistence window — this is the
  "sensor fusion delays the object registration" effect of §VI-C that makes
  pedestrians the easier target;
* an obstacle whose camera evidence disappears survives for a bounded number
  of frames on LiDAR alone before the fusion drops it (classification and
  association in Apollo are camera-driven); a persistent LiDAR-only return
  will eventually re-register, but slowly.

The fused lateral position is a confidence-weighted blend of the camera and
LiDAR estimates, which is why hijacking the camera trajectory of a vehicle
(still confirmed by LiDAR) needs a larger accumulated shift — and therefore a
longer attack window — than hijacking a pedestrian seen only by the camera.

Fusion policies
---------------

The fusion stage is pluggable: a *fusion policy* is anything with the
``reset()`` / ``step(camera_estimates, lidar_scan, ego_speed_mps,
frame_dt_s) -> List[FusedObstacle]`` interface, registered by name in
:data:`FUSION_POLICIES` and selected through ``FusionConfig.policy``.  Four
built-ins ship as first-class victim variants for defense evaluation:

* ``late`` — the confidence-weighted camera/LiDAR fusion described above
  (:class:`SensorFusion`); the default victim, bit-identical to the
  pre-registry behaviour;
* ``camera_only`` — the camera estimates pass straight through
  (:class:`CameraOnlyFusion`); also the pipeline RoboTack runs internally to
  reconstruct world state;
* ``lidar_only`` — obstacles come from LiDAR returns alone
  (:class:`LidarOnlyFusion`); immune to camera perturbation but blind to
  camera-only objects (distant pedestrians) and classification-poor;
* ``consistency_gated`` — late fusion that down-weights the camera while
  the two modalities disagree laterally (:class:`ConsistencyGatedFusion`),
  a sparse-fusion-style defense whose arbitration is itself an attack
  surface (perturb one modality, exploit the gate).

Each policy is the single implementation of its semantics: the scalar
``PerceptionSystem`` and every lane of the batch engine call the same policy
object, so a third-party policy runs on either engine.  The policies are
written as plain-float kernels because the batch engine calls them once per
lane per frame: track state lives in slotted objects, blend weights and their
complements are fixed at construction, and the records crossing the policy
boundary (:class:`~repro.perception.transforms.WorldObjectEstimate`,
:class:`~repro.sensors.lidar.LidarDetection`, :class:`FusedObstacle`) are
named tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Protocol, Sequence, Tuple

from repro.perception.transforms import WorldObjectEstimate, by_distance
from repro.runtime.registry import Registry
from repro.sensors.lidar import LidarScan
from repro.sim.actors import ActorKind

__all__ = [
    "FusionConfig",
    "FusedObstacle",
    "FusionPolicy",
    "BlendWeights",
    "blend_weights",
    "SensorFusion",
    "CameraOnlyFusion",
    "LidarOnlyFusion",
    "ConsistencyGatedFusion",
    "FUSION_POLICIES",
    "DEFAULT_FUSION_POLICY",
    "build_fusion_policy",
    "list_fusion_policies",
]

#: The policy a defaulted :class:`FusionConfig` resolves to — the paper's
#: camera-driven late-fusion victim.
DEFAULT_FUSION_POLICY = "late"


@dataclass(frozen=True)
class FusionConfig:
    """Registration, timeout, and blending parameters of the fusion stage."""

    #: Weight of the camera *lateral* estimate when LiDAR also confirms.  The
    #: camera dominates lateral localization and classification (Apollo-style
    #: camera-first fusion), which is what the trajectory hijacker exploits.
    camera_weight: float = 0.65
    #: Weight of the camera *distance* estimate when LiDAR also confirms.
    #: Monocular ranging is biased/noisy, so range is LiDAR-dominated.
    camera_distance_weight: float = 0.25
    #: Camera frames of persistence required to register a camera+LiDAR object.
    fused_registration_frames: int = 2
    #: Camera frames of persistence required to register a camera-only object.
    camera_only_registration_frames: int = 8
    #: LiDAR scans of persistence required to register a LiDAR-only object.
    #: Apollo-style fusion is camera-driven: an unclassified LiDAR-only return
    #: takes much longer to be promoted to a planning obstacle, which is the
    #: registration delay the paper's §VI-C analysis points to.
    lidar_only_registration_scans: int = 30
    #: Frames without camera evidence after which a camera-only obstacle is dropped.
    camera_only_timeout_frames: int = 10
    #: Frames without camera evidence after which even a LiDAR-backed obstacle is
    #: dropped (camera-driven classification/association expires).
    lidar_backed_timeout_frames: int = 12
    #: LiDAR scans without evidence after which a LiDAR-only obstacle is dropped.
    lidar_only_timeout_scans: int = 5
    #: Maximum world-frame distance between a camera estimate and a LiDAR
    #: detection for them to be considered the same object (at zero range).
    association_gate_m: float = 3.5
    #: Range-dependent widening of the association gate: monocular distance
    #: estimates degrade with range, so the gate grows by this fraction of the
    #: object distance.
    association_gate_range_factor: float = 0.12
    #: Exponential smoothing factor for the fused lateral velocity.
    lateral_velocity_smoothing: float = 0.3
    #: Number of frames over which the fused lateral velocity is differenced.
    #: A longer baseline suppresses detector noise while still capturing real
    #: lateral motion (a crossing pedestrian, or an attack-induced drift).
    lateral_velocity_baseline_frames: int = 10
    #: Camera/LiDAR lateral disagreement (m) beyond which the
    #: ``consistency_gated`` policy treats the modalities as inconsistent and
    #: penalizes the camera.  Ignored by the other policies.
    consistency_gate_m: float = 1.2
    #: Multiplier applied to both camera blend weights while the modalities
    #: disagree (``consistency_gated`` policy only).
    consistency_camera_penalty: float = 0.25
    #: Which registered fusion policy the perception pipeline instantiates.
    #: See :data:`FUSION_POLICIES` for the built-ins.
    policy: str = DEFAULT_FUSION_POLICY

    _UNIT_INTERVAL_FIELDS = (
        "camera_weight",
        "camera_distance_weight",
        "lateral_velocity_smoothing",
        "consistency_camera_penalty",
    )
    _POSITIVE_COUNT_FIELDS = (
        "fused_registration_frames",
        "camera_only_registration_frames",
        "lidar_only_registration_scans",
        "camera_only_timeout_frames",
        "lidar_backed_timeout_frames",
        "lidar_only_timeout_scans",
        "lateral_velocity_baseline_frames",
    )

    def __post_init__(self) -> None:
        for name in self._UNIT_INTERVAL_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        for name in self._POSITIVE_COUNT_FIELDS:
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.association_gate_m <= 0:
            raise ValueError("association gate must be positive")
        if self.association_gate_range_factor < 0:
            raise ValueError("association_gate_range_factor must be non-negative")
        if self.consistency_gate_m <= 0:
            raise ValueError("consistency_gate_m must be positive")
        if self.policy not in FUSION_POLICIES:
            raise ValueError(
                f"unknown fusion policy {self.policy!r}; "
                f"available: {', '.join(FUSION_POLICIES.keys())}"
            )


class FusedObstacle(NamedTuple):
    """One obstacle in the ADS world model.

    A named tuple rather than a dataclass: every policy builds one per
    registered obstacle per frame, on both simulation engines.
    """

    obstacle_id: str
    kind: ActorKind
    #: Longitudinal distance from the ego front bumper to the obstacle centre.
    distance_m: float
    #: Lateral offset relative to the ego centreline (positive left).
    lateral_m: float
    #: Absolute longitudinal speed of the obstacle (m/s, ego direction).
    longitudinal_speed_mps: float
    #: Rate of change of the lateral offset (m/s).
    lateral_velocity_mps: float
    #: Which sensors currently support this obstacle ("camera", "lidar").
    sources: tuple[str, ...]
    #: Bookkeeping id of the underlying simulated actor (for metrics only).
    actor_id: Optional[int] = None


#: ``_record(FusedObstacle, values)`` builds an obstacle from its field values
#: in field order.  The policies build one per obstacle per frame, and the
#: generated ``FusedObstacle(...)`` constructor's argument parsing costs about
#: as much as the tuple itself.
_record = tuple.__new__

#: ``FusedObstacle.sources`` by which modalities are fresh.
_CAMERA_AND_LIDAR = ("camera", "lidar")
_CAMERA = ("camera",)
_LIDAR = ("lidar",)
_NO_SOURCE = ()

#: Camera blend weights and their complements, fixed per policy:
#: ``(lateral, 1 - lateral, distance, 1 - distance)``.
BlendWeights = Tuple[float, float, float, float]


def blend_weights(lateral: float, distance: float) -> BlendWeights:
    """The :data:`BlendWeights` of camera weights ``lateral`` and ``distance``."""
    return (lateral, 1.0 - lateral, distance, 1.0 - distance)


class _LateralVelocity:
    """Lateral-velocity estimator shared by the tracking policies.

    The lateral offset is differenced over up to
    ``lateral_velocity_baseline_frames`` frames and exponentially smoothed; a
    jump of more than 1 m within one frame is an association or source
    switch, not physical motion, so it restarts the baseline instead of
    masquerading as lateral velocity.  Tracks carry ``lateral_history`` and
    ``lateral_velocity_mps``.
    """

    __slots__ = ("alpha", "keep", "history_len")

    def __init__(self, config: FusionConfig):
        self.alpha = config.lateral_velocity_smoothing
        self.keep = 1 - config.lateral_velocity_smoothing
        self.history_len = config.lateral_velocity_baseline_frames + 1

    def observe(self, track, lateral: float, frame_dt_s: float) -> None:
        """Fold a fresh lateral measurement into ``track``'s estimate."""
        history = track.lateral_history
        if history and abs(lateral - history[-1]) > 1.0:
            history.clear()
            track.lateral_velocity_mps = 0.0
        history.append(lateral)
        if len(history) > self.history_len:
            del history[: -self.history_len]
        span = len(history) - 1
        raw = (history[-1] - history[0]) / (span * frame_dt_s) if span else 0.0
        track.lateral_velocity_mps = self.keep * track.lateral_velocity_mps + self.alpha * raw


class _Fused:
    """Camera and LiDAR evidence of one object under the late policies."""

    __slots__ = ("obstacle_id", "kind", "actor_id", "lateral_history",
                 "camera_frames_seen", "lidar_scans_seen",
                 "frames_since_camera", "scans_since_lidar",
                 "camera_distance_m", "camera_lateral_m", "camera_rel_velocity_mps",
                 "lidar_distance_m", "lidar_lateral_m", "lidar_speed_mps",
                 "fused_lateral_m", "fused_distance_m", "lateral_velocity_mps",
                 "registered", "has_camera_history")

    def __init__(self, obstacle_id: str, kind: ActorKind, actor_id: Optional[int],
                 lateral_m: float, distance_m: float):
        self.obstacle_id = obstacle_id
        self.kind = kind
        self.actor_id = actor_id
        self.lateral_history: List[float] = []
        self.camera_frames_seen = 0
        self.lidar_scans_seen = 0
        self.frames_since_camera = 10_000
        self.scans_since_lidar = 10_000
        self.camera_distance_m = 0.0
        self.camera_lateral_m = 0.0
        self.camera_rel_velocity_mps = 0.0
        self.lidar_distance_m = 0.0
        self.lidar_lateral_m = 0.0
        self.lidar_speed_mps = 0.0
        self.fused_lateral_m = lateral_m
        self.fused_distance_m = distance_m
        self.lateral_velocity_mps = 0.0
        self.registered = False
        self.has_camera_history = False


class SensorFusion:
    """Blends camera world estimates and LiDAR scans into the ADS world model.

    This is the ``late`` fusion policy — the paper's default victim.  The
    camera/LiDAR arbitration is factored into :meth:`_blend_weights` so that
    :class:`ConsistencyGatedFusion` (or a third-party subclass) can override
    it without duplicating the track lifecycle.
    """

    def __init__(self, config: FusionConfig | None = None):
        self.config = config or FusionConfig()
        self._weights = blend_weights(
            self.config.camera_weight, self.config.camera_distance_weight
        )
        self._lateral_velocity = _LateralVelocity(self.config)
        self._tracks: Dict[Tuple[str, int], _Fused] = {}

    def _blend_weights(self, track: _Fused) -> BlendWeights:
        """Camera weights (with complements) for a camera+LiDAR-fresh track."""
        return self._weights

    def reset(self) -> None:
        """Drop all fused tracks."""
        self._tracks.clear()

    def step(
        self,
        camera_estimates: Sequence[WorldObjectEstimate],
        lidar_scan: Optional[LidarScan],
        ego_speed_mps: float,
        frame_dt_s: float,
    ) -> List[FusedObstacle]:
        """Fuse one frame of camera estimates with the latest LiDAR scan."""
        cfg = self.config
        tracks = self._tracks
        for track in tracks.values():
            track.frames_since_camera += 1
            if lidar_scan is not None:
                track.scans_since_lidar += 1

        # --- ingestion ---
        for estimate in camera_estimates:
            key = ("cam", estimate.track_id)
            track = tracks.get(key)
            if track is None:
                # A new camera track may correspond to an existing fused track
                # (for example a LiDAR-only object, or a camera track that was
                # re-created after a misdetection burst); associate by spatial
                # proximity so the evidence accumulates in one place instead
                # of spawning duplicates.
                track = self._nearest_track(estimate.distance_m, estimate.lateral_m)
                if track is None:
                    track = tracks[key] = _Fused(
                        f"cam-{estimate.track_id}", estimate.kind, estimate.actor_id,
                        estimate.lateral_m, estimate.distance_m,
                    )
            track.camera_frames_seen += 1
            track.frames_since_camera = 0
            track.camera_distance_m = estimate.distance_m
            track.camera_lateral_m = estimate.lateral_m
            track.camera_rel_velocity_mps = estimate.relative_longitudinal_velocity_mps
            track.actor_id = estimate.actor_id
            track.kind = estimate.kind
            track.has_camera_history = True

        if lidar_scan is not None:
            for detection in lidar_scan.detections:
                track = self._nearest_track(detection.distance_m, detection.lateral_m)
                if track is None:
                    key = ("lidar", detection.actor_id)
                    track = tracks.get(key)
                    if track is None:
                        track = tracks[key] = _Fused(
                            f"lidar-{detection.actor_id}", detection.kind,
                            detection.actor_id, detection.lateral_m, detection.distance_m,
                        )
                track.lidar_scans_seen += 1
                track.scans_since_lidar = 0
                track.lidar_distance_m = detection.distance_m
                track.lidar_lateral_m = detection.lateral_m
                track.lidar_speed_mps = detection.longitudinal_speed_mps
                if track.actor_id is None:
                    track.actor_id = detection.actor_id

        # --- lifecycle: registration, then timeouts ---
        for track in tracks.values():
            if track.registered:
                continue
            if track.camera_frames_seen > 0 and track.lidar_scans_seen > 0:
                if track.camera_frames_seen >= cfg.fused_registration_frames:
                    track.registered = True
            elif track.camera_frames_seen > 0:
                if track.camera_frames_seen >= cfg.camera_only_registration_frames:
                    track.registered = True
            elif track.lidar_scans_seen >= cfg.lidar_only_registration_scans:
                track.registered = True

        stale = []
        for key, track in tracks.items():
            if track.has_camera_history:
                timeout = (
                    cfg.lidar_backed_timeout_frames
                    if track.scans_since_lidar <= 2
                    else cfg.camera_only_timeout_frames
                )
                if track.frames_since_camera > timeout:
                    stale.append(key)
            elif track.scans_since_lidar > cfg.lidar_only_timeout_scans:
                stale.append(key)
        for key in stale:
            del tracks[key]

        # --- output ---
        lateral_velocity = self._lateral_velocity
        obstacles: List[FusedObstacle] = []
        for track in tracks.values():
            camera_fresh = track.frames_since_camera <= 2 and track.camera_frames_seen > 0
            lidar_fresh = track.scans_since_lidar <= 2 and track.lidar_scans_seen > 0
            if camera_fresh and lidar_fresh:
                lateral_w, lidar_lateral_w, distance_w, lidar_distance_w = (
                    self._blend_weights(track)
                )
                lateral = (
                    lateral_w * track.camera_lateral_m + lidar_lateral_w * track.lidar_lateral_m
                )
                distance = (
                    distance_w * track.camera_distance_m
                    + lidar_distance_w * track.lidar_distance_m
                )
                speed = track.lidar_speed_mps
                sources = _CAMERA_AND_LIDAR
            elif camera_fresh:
                lateral = track.camera_lateral_m
                distance = track.camera_distance_m
                speed = ego_speed_mps + track.camera_rel_velocity_mps
                speed = speed if speed > 0.0 else 0.0
                sources = _CAMERA
            elif lidar_fresh:
                lateral = track.lidar_lateral_m
                distance = track.lidar_distance_m
                speed = track.lidar_speed_mps
                sources = _LIDAR
            else:
                # Coast on the last fused state while the track is kept alive.
                lateral = track.fused_lateral_m
                distance = track.fused_distance_m
                if track.lidar_scans_seen:
                    speed = track.lidar_speed_mps
                else:
                    speed = ego_speed_mps + track.camera_rel_velocity_mps
                    speed = speed if speed > 0.0 else 0.0
                sources = _NO_SOURCE

            if sources:
                lateral_velocity.observe(track, lateral, frame_dt_s)
            else:
                # Coasting: no new measurement, so the lateral velocity decays
                # instead of being re-estimated from stale data.
                track.lateral_velocity_mps *= 0.8
            track.fused_lateral_m = lateral
            track.fused_distance_m = distance

            if track.registered:
                obstacles.append(_record(FusedObstacle, (
                    track.obstacle_id, track.kind, distance, lateral, speed,
                    track.lateral_velocity_mps, sources, track.actor_id,
                )))
        obstacles.sort(key=by_distance)
        return obstacles

    def _nearest_track(self, distance_m: float, lateral_m: float) -> Optional[_Fused]:
        """The closest live track within the range-widened association gate."""
        cfg = self.config
        best: Optional[_Fused] = None
        best_separation = cfg.association_gate_m + cfg.association_gate_range_factor * (
            distance_m if distance_m > 0.0 else 0.0
        )
        for track in self._tracks.values():
            if not track.has_camera_history and track.scans_since_lidar > 2:
                continue
            # Lateral disagreement is weighted heavily: a one-lane lateral
            # offset means a different object even when the ranges are close
            # (e.g. an oncoming vehicle passing the lead vehicle).
            separation = abs(track.fused_distance_m - distance_m) + 2.5 * abs(
                track.fused_lateral_m - lateral_m
            )
            if separation < best_separation:
                best_separation = separation
                best = track
        return best


class ConsistencyGatedFusion(SensorFusion):
    """Late fusion that distrusts the camera while the modalities disagree.

    A sparse-fusion-style defense: when the camera and LiDAR lateral
    estimates of one track diverge by more than ``consistency_gate_m``, both
    camera blend weights are scaled by ``consistency_camera_penalty``, so the
    (harder-to-spoof) LiDAR dominates until the modalities agree again.  The
    gate is per-frame and per-track — it is also an attack surface, since a
    hijacker that perturbs one modality controls when the gate trips.
    """

    def __init__(self, config: FusionConfig | None = None):
        super().__init__(config)
        cfg = self.config
        self._gated_weights = blend_weights(
            cfg.camera_weight * cfg.consistency_camera_penalty,
            cfg.camera_distance_weight * cfg.consistency_camera_penalty,
        )

    def _blend_weights(self, track: _Fused) -> BlendWeights:
        if abs(track.camera_lateral_m - track.lidar_lateral_m) > self.config.consistency_gate_m:
            return self._gated_weights
        return self._weights


class CameraOnlyFusion:
    """Pass the camera world estimates straight through as the world model.

    One obstacle per camera estimate, in estimate order (already
    distance-sorted by the transform stage), with the ego-relative velocity
    re-absolutized.  This is also the reconstruction pipeline RoboTack runs
    inside the attacked process, so it sits on the attacked golden-trace
    path.
    """

    def __init__(self, config: FusionConfig | None = None):
        self.config = config or FusionConfig()

    def reset(self) -> None:
        """Stateless: nothing to drop."""

    def step(
        self,
        camera_estimates: Sequence[WorldObjectEstimate],
        lidar_scan: Optional[LidarScan],
        ego_speed_mps: float,
        frame_dt_s: float,
    ) -> List[FusedObstacle]:
        obstacles = []
        for estimate in camera_estimates:
            speed = ego_speed_mps + estimate.relative_longitudinal_velocity_mps
            obstacles.append(_record(FusedObstacle, (
                f"cam-{estimate.track_id}", estimate.kind, estimate.distance_m,
                estimate.lateral_m, speed if speed > 0.0 else 0.0,
                estimate.lateral_velocity_mps, _CAMERA, estimate.actor_id,
            )))
        return obstacles


class _LidarOnly:
    """One LiDAR-tracked object under the ``lidar_only`` policy."""

    __slots__ = ("obstacle_id", "kind", "actor_id", "distance_m", "lateral_m",
                 "speed_mps", "scans_seen", "scans_since", "lateral_history",
                 "lateral_velocity_mps", "registered")

    def __init__(self, kind: ActorKind, actor_id: int):
        self.obstacle_id = f"lidar-{actor_id}"
        self.kind = kind
        self.actor_id = actor_id
        self.distance_m = 0.0
        self.lateral_m = 0.0
        self.speed_mps = 0.0
        self.scans_seen = 0
        self.scans_since = 10_000
        self.lateral_history: List[float] = []
        self.lateral_velocity_mps = 0.0
        self.registered = False


class LidarOnlyFusion:
    """Build the world model from LiDAR returns alone.

    Immune to camera-channel perturbation, but blind to camera-only objects
    (distant pedestrians never enter the world model) and stuck with the
    LiDAR's coarse classification.  Association is trivial — LiDAR detections
    carry the simulated actor id — so the interesting dynamics are the
    registration persistence (``fused_registration_frames`` scans: LiDAR-only
    here is the *primary* channel, not an unclassified residue, so it
    registers at the fused cadence) and the scan-domain timeout
    (``lidar_only_timeout_scans``).  The lateral velocity is the late
    policy's estimator, evaluated only on frames that carry a scan.
    """

    def __init__(self, config: FusionConfig | None = None):
        self.config = config or FusionConfig()
        self._lateral_velocity = _LateralVelocity(self.config)
        self._tracks: Dict[int, _LidarOnly] = {}

    def reset(self) -> None:
        """Drop all LiDAR tracks."""
        self._tracks.clear()

    def step(
        self,
        camera_estimates: Sequence[WorldObjectEstimate],
        lidar_scan: Optional[LidarScan],
        ego_speed_mps: float,
        frame_dt_s: float,
    ) -> List[FusedObstacle]:
        cfg = self.config
        tracks = self._tracks
        if lidar_scan is not None:
            for track in tracks.values():
                track.scans_since += 1
            for detection in lidar_scan.detections:
                track = tracks.get(detection.actor_id)
                if track is None:
                    track = tracks[detection.actor_id] = _LidarOnly(
                        detection.kind, detection.actor_id
                    )
                track.scans_seen += 1
                track.scans_since = 0
                track.distance_m = detection.distance_m
                track.lateral_m = detection.lateral_m
                track.speed_mps = detection.longitudinal_speed_mps
                track.kind = detection.kind
                if not track.registered and track.scans_seen >= cfg.fused_registration_frames:
                    track.registered = True
            stale = [
                actor_id
                for actor_id, track in tracks.items()
                if track.scans_since > cfg.lidar_only_timeout_scans
            ]
            for actor_id in stale:
                del tracks[actor_id]

        lateral_velocity = self._lateral_velocity
        obstacles: List[FusedObstacle] = []
        for track in tracks.values():
            if track.scans_since == 0:
                lateral_velocity.observe(track, track.lateral_m, frame_dt_s)
            else:
                track.lateral_velocity_mps *= 0.8
            if track.registered:
                obstacles.append(_record(FusedObstacle, (
                    track.obstacle_id, track.kind, track.distance_m, track.lateral_m,
                    track.speed_mps, track.lateral_velocity_mps, _LIDAR, track.actor_id,
                )))
        obstacles.sort(key=by_distance)
        return obstacles


class FusionPolicy(Protocol):
    """Structural interface every fusion policy satisfies."""

    config: FusionConfig

    def reset(self) -> None: ...

    def step(
        self,
        camera_estimates: Sequence[WorldObjectEstimate],
        lidar_scan: Optional[LidarScan],
        ego_speed_mps: float,
        frame_dt_s: float,
    ) -> List[FusedObstacle]: ...


#: Registry of fusion-policy factories (``FusionConfig -> FusionPolicy``).
#: Third-party policies register here and become sweepable/CLI-selectable on
#: both engines.
FUSION_POLICIES: Registry[Callable[[FusionConfig], "FusionPolicy"]] = Registry(
    "fusion policy"
)

FUSION_POLICIES.register(
    "late",
    SensorFusion,
    description="confidence-weighted camera/LiDAR late fusion (paper default victim)",
)
FUSION_POLICIES.register(
    "camera_only",
    CameraOnlyFusion,
    description="camera estimates pass through (RoboTack's own reconstruction)",
)
FUSION_POLICIES.register(
    "lidar_only",
    LidarOnlyFusion,
    description="world model from LiDAR returns alone",
)
FUSION_POLICIES.register(
    "consistency_gated",
    ConsistencyGatedFusion,
    description="late fusion that down-weights the camera on modality disagreement",
)


def build_fusion_policy(
    name: str, config: FusionConfig | None = None
) -> "FusionPolicy":
    """Instantiate the registered fusion policy ``name`` with ``config``."""
    factory = FUSION_POLICIES.get(name)
    return factory(config or FusionConfig())


def list_fusion_policies() -> List[str]:
    """Registered fusion-policy names, sorted."""
    return sorted(FUSION_POLICIES.keys())
