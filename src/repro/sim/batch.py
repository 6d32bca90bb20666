"""Vectorized batch simulation engine.

``BatchSimulator`` advances N independently-seeded runs ("lanes") in lockstep
within one process.  The expensive numerical kernel — the per-track Kalman
predict/update of the multi-object tracker — is batched across *all* live
tracks of *all* lanes into stacked ``(M, 6)`` state / ``(M, 6, 6)`` covariance
arrays, while the cheap-but-branchy per-lane logic (sensor rendering, detector
noise, association, fusion, planning) runs as straight-line Python over plain
floats.  The scalar :class:`~repro.sim.simulator.Simulator` remains the
reference path; the batch engine is validated against it bit-for-bit by the
equivalence suite (``tests/sim/test_batch_equivalence.py``).

Determinism contract
--------------------

The batch engine reproduces the scalar path *bit-identically* (traces, events,
final state) for any lane set, by construction:

* **Seeding** — each lane draws ``sensor_seeds = rng.integers(0, 2**31-1,
  size=2)`` from its spec's generator, exactly as ``Simulator.__init__`` does,
  so the LiDAR/GPS streams are seeded identically.
* **Per-consumer streams** — every stochastic consumer (detector, LiDAR, GPS,
  attacker) owns its own ``np.random.Generator``, so reordering *across*
  consumers cannot change any draw.  The detector's runtime generator is taken
  from the supplied agent (``ads.perception.detector._rng``) and consumed with
  scalar calls in the exact scalar order (its draw count is data-dependent).
* **Buffered sensor noise** — the LiDAR/GPS generators are consumed by one
  bulk ``Generator.normal(loc, scale, size=n)`` draw per lane at construction.
  NumPy's Generator produces bit-identical values for a size-``n`` vector draw
  and ``n`` sequential scalar draws with the same ``loc``/``scale`` (both walk
  the same ziggurat stream), so buffering is exact.  When the GPS position and
  speed sigmas differ the buffer falls back to sequential scalar draws.
* **Batched Kalman algebra** — the stacked predict/update uses ``np.matmul``
  broadcasting with the same left-associated operation order, the same ``.T``
  views, and the same Joseph-form + symmetrization expressions as the scalar
  ``KalmanFilter``; NumPy evaluates a stacked matmul as the identical sequence
  of dot products per stack element, so the results are bit-identical.
* **Per-lane ports** — camera projection, detection noise, IoU/Hungarian
  association, image-to-world transform, camera/LiDAR fusion, IDM planning,
  PID trim, and actuation smoothing are literal ports of the scalar code with
  identical evaluation order (including float left-associativity).

Restrictions (the scalar path has none of these):

* every lane shares one :class:`SimulationConfig` (lockstep needs one ``dt``);
* the agents must be freshly built or reset (no live tracks or transform
  history) and run one of the built-in fusion policies (``late``,
  ``consistency_gated``, ``camera_only``, ``lidar_only``), each of which has a
  plain-float port here; third-party fusion policies need the scalar
  Simulator;
* attackers must not have processed a frame yet.

Both restrictions are checked at construction and raise ``ValueError``.

Attackers are invoked as black boxes on real :class:`CameraFrame` objects, so
any scalar attacker composes unchanged, at the cost of building frame
dataclasses while the attacker is live.  Once it reports ``spent`` (its one
attack episode is over, or never can happen) the lane switches to the
unattacked camera path: no frame objects and no ``process_frame`` call.  The
attack events and the run's target id are unaffected, because a spent
attacker's ``attack_active`` and ``target_actor_id`` no longer change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ads.prediction import _NOMINAL_HALF_LENGTH_M, _NOMINAL_HALF_WIDTH_M
from repro.ads.safety import SafetyModel
from repro.geometry.bbox import BoundingBox
from repro.geometry.vec import Vec2
from repro.perception.fusion import (
    CameraOnlyFusion,
    ConsistencyGatedFusion,
    LidarOnlyFusion,
    SensorFusion,
)
from repro.perception.hungarian import hungarian_assignment
from repro.perception.transforms import NOMINAL_HEIGHT_M
from repro.sensors.camera import CameraFrame, CameraObject, CameraSensor
from repro.sensors.gps_imu import GpsImuSensor
from repro.sensors.lidar import LidarSensor
from repro.sim.actors import ActorKind, ActorSnapshot
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind, EventLog, SimulationEvent
from repro.sim.scenarios import DrivingScenario
from repro.sim.simulator import CameraAttacker, SimulationResult
from repro.sim.world import GroundTruthSnapshot

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.ads.agent import AdsAgent

__all__ = ["BatchRunSpec", "BatchSimulator"]

_first = itemgetter(0)
_second = itemgetter(1)

# --------------------------------------------------------------------------- #
# Batched Kalman filter (constant matrices shared by every track)
# --------------------------------------------------------------------------- #
# These mirror BoundingBoxKalmanFilter exactly; _F_T/_H_T are kept as .T views
# so the BLAS paths match the scalar filter's ``A @ B.T`` expressions.

_F = np.eye(6)
_F[0, 4] = 1.0
_F[1, 5] = 1.0
_F_T = _F.T
_H = np.zeros((4, 6))
_H[0, 0] = _H[1, 1] = _H[2, 2] = _H[3, 3] = 1.0
_H_T = _H.T
_Q = np.diag([1.0, 1.0, 0.5, 0.5, 2.0, 2.0])
_R = np.eye(4) * 10.0
_P0 = np.diag([10.0, 10.0, 10.0, 10.0, 100.0, 100.0])
_I6 = np.eye(6)


class _KalmanPool:
    """Structure-of-arrays storage for every live track's Kalman state.

    A track holds a *row* (its handle) in the pooled ``(cap, 6)`` state and
    ``(cap, 6, 6)`` covariance arrays; predict/update operate on arbitrary row
    subsets in one stacked ``np.matmul`` call each.
    """

    def __init__(self, capacity: int = 128):
        capacity = max(8, capacity)
        self.states = np.zeros((capacity, 6))
        self.covs = np.zeros((capacity, 6, 6))
        self._free = list(range(capacity - 1, -1, -1))

    def alloc(self, cx: float, cy: float, w: float, h: float) -> int:
        if not self._free:
            self._grow()
        row = self._free.pop()
        state = self.states[row]
        state[0] = cx
        state[1] = cy
        state[2] = w
        state[3] = h
        state[4] = 0.0
        state[5] = 0.0
        self.covs[row] = _P0
        return row

    def free(self, row: int) -> None:
        self._free.append(row)

    def _grow(self) -> None:
        old = self.states.shape[0]
        states = np.zeros((old * 2, 6))
        states[:old] = self.states
        covs = np.zeros((old * 2, 6, 6))
        covs[:old] = self.covs
        self.states = states
        self.covs = covs
        self._free.extend(range(old * 2 - 1, old - 1, -1))

    def predict(self, idx: np.ndarray) -> np.ndarray:
        """Stacked constant-velocity predict; returns the new states."""
        states = self.states[idx]
        covs = self.covs[idx]
        new_states = np.matmul(_F, states[..., None])[..., 0]
        self.states[idx] = new_states
        self.covs[idx] = np.matmul(np.matmul(_F, covs), _F_T) + _Q
        return new_states

    def update(self, idx: np.ndarray, measurements: np.ndarray) -> None:
        """Stacked measurement update (Joseph form, symmetrized)."""
        states = self.states[idx]
        covs = self.covs[idx]
        innovation = measurements - states[:, :4]
        pht = np.matmul(covs, _H_T)
        innovation_cov = np.matmul(np.matmul(_H, covs), _H_T) + _R
        gain = np.linalg.solve(
            innovation_cov.transpose(0, 2, 1), pht.transpose(0, 2, 1)
        ).transpose(0, 2, 1)
        states = states + np.matmul(gain, innovation[..., None])[..., 0]
        i_kh = _I6 - np.matmul(gain, _H)
        covs = np.matmul(np.matmul(i_kh, covs), i_kh.transpose(0, 2, 1)) + np.matmul(
            np.matmul(gain, _R), gain.transpose(0, 2, 1)
        )
        self.covs[idx] = 0.5 * (covs + covs.transpose(0, 2, 1))
        self.states[idx] = states


# --------------------------------------------------------------------------- #
# Plain-float ports of the world-side state
# --------------------------------------------------------------------------- #


class _FastRoute:
    """Plain-float port of :meth:`WaypointRoute.advance` (bit-identical)."""

    __slots__ = ("xs", "ys", "speeds", "holds", "n", "seg", "px", "py", "vx", "vy", "hold")

    def __init__(self, route):
        waypoints = route.waypoints
        self.xs = [w.position.x for w in waypoints]
        self.ys = [w.position.y for w in waypoints]
        self.speeds = [w.speed_mps for w in waypoints]
        self.holds = [w.hold_s for w in waypoints]
        self.n = len(waypoints)
        self.seg = route._segment_index
        self.px = route._position.x
        self.py = route._position.y
        self.vx = route._velocity.x
        self.vy = route._velocity.y
        self.hold = route._hold_remaining_s

    def advance(self, dt: float) -> None:
        remaining = dt
        while remaining > 1e-12:
            if self.hold > 0.0:
                waited = self.hold if self.hold < remaining else remaining
                self.hold -= waited
                remaining -= waited
                self.vx = 0.0
                self.vy = 0.0
                continue
            if self.seg >= self.n - 1:
                self.vx = 0.0
                self.vy = 0.0
                return
            target = self.seg + 1
            dx = self.xs[target] - self.px
            dy = self.ys[target] - self.py
            distance = math.hypot(dx, dy)
            speed = self.speeds[target]
            if speed <= 0.0 or distance <= 1e-9:
                self.px = self.xs[target]
                self.py = self.ys[target]
                self.seg = target
                self.hold = self.holds[target]
                self.vx = 0.0
                self.vy = 0.0
                continue
            time_to_target = distance / speed
            ux = dx / distance
            uy = dy / distance
            self.vx = ux * speed
            self.vy = uy * speed
            if time_to_target <= remaining:
                self.px = self.xs[target]
                self.py = self.ys[target]
                remaining -= time_to_target
                self.seg = target
                self.hold = self.holds[target]
            else:
                travel = speed * remaining
                self.px = self.px + ux * travel
                self.py = self.py + uy * travel
                remaining = 0.0
        if self.seg >= self.n - 1 and self.hold <= 0.0:
            self.vx = 0.0
            self.vy = 0.0


class _LaneActor:
    """Plain-float scripted-actor state driven by a :class:`_FastRoute`."""

    __slots__ = ("actor_id", "kind", "dims", "length", "width", "height", "half_w",
                 "route", "x", "y", "vx", "vy")

    def __init__(self, actor):
        self.actor_id = actor.actor_id
        self.kind = actor.kind
        self.dims = actor.dimensions
        self.length = actor.dimensions.length_m
        self.width = actor.dimensions.width_m
        self.height = actor.dimensions.height_m
        self.half_w = self.width / 2.0
        self.route = _FastRoute(actor.route)
        self.x = self.route.px
        self.y = self.route.py
        self.vx = self.route.vx
        self.vy = self.route.vy


class _Track:
    """Tracker bookkeeping for one pooled Kalman row."""

    __slots__ = ("track_id", "kind", "actor_id", "row", "hits", "misses",
                 "pred_cx", "pred_cy", "pred_w", "pred_h", "cx", "cy", "w", "h")

    def __init__(self, track_id, kind, actor_id, row, cx, cy, w, h):
        self.track_id = track_id
        self.kind = kind
        self.actor_id = actor_id
        self.row = row
        self.hits = 1
        self.misses = 0
        self.pred_cx = cx
        self.pred_cy = cy
        self.pred_w = w if w > 1.0 else 1.0
        self.pred_h = h if h > 1.0 else 1.0
        self.cx = cx
        self.cy = cy
        self.w = self.pred_w
        self.h = self.pred_h


class _Fused:
    """Plain-float port of the fusion module's ``_FusedTrack``."""

    __slots__ = ("kind", "actor_id", "camera_frames_seen", "lidar_scans_seen",
                 "frames_since_camera", "scans_since_lidar",
                 "camera_distance", "camera_lateral", "camera_rel_velocity",
                 "lidar_distance", "lidar_lateral", "lidar_speed",
                 "fused_lateral", "fused_distance", "lateral_velocity",
                 "lateral_history", "has_camera_history", "registered")

    def __init__(self, kind, actor_id, lateral, distance):
        self.kind = kind
        self.actor_id = actor_id
        self.camera_frames_seen = 0
        self.lidar_scans_seen = 0
        self.frames_since_camera = 10_000
        self.scans_since_lidar = 10_000
        self.camera_distance = 0.0
        self.camera_lateral = 0.0
        self.camera_rel_velocity = 0.0
        self.lidar_distance = 0.0
        self.lidar_lateral = 0.0
        self.lidar_speed = 0.0
        self.fused_lateral = lateral
        self.fused_distance = distance
        self.lateral_velocity = 0.0
        self.lateral_history: List[float] = []
        self.has_camera_history = False
        self.registered = False


class _LidarOnly:
    """Plain-float port of the fusion module's ``_LidarOnlyTrack``."""

    __slots__ = ("kind", "actor_id", "distance", "lateral", "speed",
                 "scans_seen", "scans_since", "lateral_history",
                 "lateral_velocity", "registered")

    def __init__(self, kind, actor_id):
        self.kind = kind
        self.actor_id = actor_id
        self.distance = 0.0
        self.lateral = 0.0
        self.speed = 0.0
        self.scans_seen = 0
        self.scans_since = 10_000
        self.lateral_history: List[float] = []
        self.lateral_velocity = 0.0
        self.registered = False


@dataclass
class BatchRunSpec:
    """One lane of a batch: a scenario, its victim agent, and its seeds."""

    scenario: DrivingScenario
    ads: "AdsAgent"
    attacker: Optional[CameraAttacker] = None
    rng: Optional[np.random.Generator] = None


# --------------------------------------------------------------------------- #
# One lane: the full per-run state and the scalar-equivalent step logic
# --------------------------------------------------------------------------- #


class _Lane:
    """All state of one simulated run, held as plain floats.

    The constructor replicates ``Simulator.__init__``'s RNG draws and extracts
    every parameter the ported pipeline needs from the supplied agent.  The
    per-step work is split into ``pre_step`` (sensors → detection →
    association; feeds the shared Kalman pool) and ``post_step`` (transform →
    fusion → planning → actuation → world advance), with the batched Kalman
    predict/update running between them in :meth:`BatchSimulator.run`.
    """

    def __init__(self, spec: BatchRunSpec, config: SimulationConfig, pool: _KalmanPool):
        scenario = spec.scenario
        ads = spec.ads
        perception = ads.perception
        # The ports below start from empty tracker/transform state and a
        # fresh attacker, so a reused one would silently diverge from the
        # scalar Simulator, which carries its state over.
        if perception.tracker.tracks or perception.transform.has_history:
            raise ValueError(
                "BatchSimulator needs a freshly built agent; this one already "
                "drove a run (it has live tracks). Build a new agent or call "
                "its reset() first"
            )
        attacker = spec.attacker
        # frames_processed is not part of the CameraAttacker protocol; an
        # attacker without it is checked through spent/attack_active alone.
        if attacker is not None and (
            attacker.spent
            or attacker.attack_active
            or getattr(attacker, "frames_processed", 0)
        ):
            raise ValueError(
                "BatchSimulator needs a fresh attacker; this one has already "
                "processed frames. Build a new attacker per run"
            )
        rng = spec.rng if spec.rng is not None else np.random.default_rng()
        sensor_seeds = rng.integers(0, 2**31 - 1, size=2)

        fusion_type = type(perception.fusion)
        # Exact-type dispatch: a third-party subclass has unknown semantics
        # and must not silently run the base class's port.  The subclass
        # ConsistencyGatedFusion is listed before its base SensorFusion only
        # for readability — ``type() is`` does not chase the MRO.
        if fusion_type is ConsistencyGatedFusion:
            self.fusion_mode = "consistency_gated"
        elif fusion_type is SensorFusion:
            self.fusion_mode = "late"
        elif fusion_type is CameraOnlyFusion:
            self.fusion_mode = "camera_only"
        elif fusion_type is LidarOnlyFusion:
            self.fusion_mode = "lidar_only"
        else:
            raise ValueError(
                "BatchSimulator has plain-float ports of the built-in fused "
                f"fusion policies only; got {fusion_type.__name__}. Use the "
                "scalar Simulator for custom fusion policies"
            )

        self.pool = pool
        self.dt = config.dt
        self.max_steps = min(config.max_steps, int(round(scenario.duration_s / self.dt)))
        self.lidar_due = [config.lidar_due(step) for step in range(self.max_steps)]

        # --- detector (shares the agent's runtime generator; scalar draws) ---
        det_cfg = perception.detector.config
        self.det_rng = perception.detector._rng
        vn = det_cfg.vehicle_noise
        pn = det_cfg.pedestrian_noise
        self.vnoise = (vn.center_noise_mu_x, vn.center_noise_sigma_x,
                       vn.center_noise_mu_y, vn.center_noise_sigma_y,
                       vn.misdetection_start_probability, 1.0 / vn.burst_rate)
        self.pnoise = (pn.center_noise_mu_x, pn.center_noise_sigma_x,
                       pn.center_noise_mu_y, pn.center_noise_sigma_y,
                       pn.misdetection_start_probability, 1.0 / pn.burst_rate)
        self.min_bbox_h = det_cfg.min_bbox_height_px
        self.burst: Dict[int, int] = {}

        # --- tracker ---
        t_cfg = perception.tracker.config
        self.min_iou = t_cfg.min_iou_for_match
        self.cd_gate = t_cfg.center_distance_gate
        self.max_misses = t_cfg.max_consecutive_misses
        self.min_hits = t_cfg.min_hits_to_confirm
        self.tracks: Dict[int, _Track] = {}
        self.next_tid = 1
        self.observed: List[_Track] = []

        # --- image-to-world transform ---
        transform = perception.transform
        proj = transform.projection
        self.frame_dt = perception.config.frame_dt_s
        self.tf_alpha = transform.velocity_smoothing
        self.tf_om_alpha = 1 - transform.velocity_smoothing
        self.tf_focal = proj.intrinsics.focal_px
        self.tf_img_cx = proj.intrinsics.image_cx
        self.tf_min_d = proj.MIN_DISTANCE_M
        self.tf_hist: Dict[int, List[float]] = {}

        # --- fusion ---
        f_cfg = perception.fusion.config
        self.cam_w = f_cfg.camera_weight
        self.om_cam_w = 1.0 - f_cfg.camera_weight
        self.cam_dw = f_cfg.camera_distance_weight
        self.om_cam_dw = 1.0 - f_cfg.camera_distance_weight
        self.fused_reg = f_cfg.fused_registration_frames
        self.cam_reg = f_cfg.camera_only_registration_frames
        self.lidar_reg = f_cfg.lidar_only_registration_scans
        self.cam_timeout = f_cfg.camera_only_timeout_frames
        self.lidar_backed_timeout = f_cfg.lidar_backed_timeout_frames
        self.lidar_timeout = f_cfg.lidar_only_timeout_scans
        self.gate = f_cfg.association_gate_m
        self.gate_factor = f_cfg.association_gate_range_factor
        self.falpha = f_cfg.lateral_velocity_smoothing
        self.om_falpha = 1 - f_cfg.lateral_velocity_smoothing
        self.baseline_p1 = f_cfg.lateral_velocity_baseline_frames + 1
        self.fusion_tracks: Dict[tuple, _Fused] = {}
        # Consistency gate (consistency_gated policy): the penalized weights
        # are formed as weight * penalty, the same operands and order as the
        # scalar ConsistencyGatedFusion._blend_weights, so they stay
        # bit-identical.
        self.cons_enabled = self.fusion_mode == "consistency_gated"
        self.cons_gate = f_cfg.consistency_gate_m
        self.pen_cam_w = f_cfg.camera_weight * f_cfg.consistency_camera_penalty
        self.om_pen_cam_w = 1.0 - self.pen_cam_w
        self.pen_cam_dw = f_cfg.camera_distance_weight * f_cfg.consistency_camera_penalty
        self.om_pen_cam_dw = 1.0 - self.pen_cam_dw
        self.lidar_only_tracks: Dict[int, _LidarOnly] = {}
        if self.fusion_mode == "camera_only":
            self._fuse_impl = self._fuse_camera_only
        elif self.fusion_mode == "lidar_only":
            self._fuse_impl = self._fuse_lidar_only
        else:
            self._fuse_impl = self._fuse

        # --- planner / PID / smoother ---
        p_cfg = ads.planner_config
        self.cruise = p_cfg.cruise_speed_mps
        self.p_max_accel = p_cfg.max_accel_mps2
        self.p_comfort = p_cfg.comfortable_decel_mps2
        self.p_max_decel = p_cfg.max_decel_mps2
        self.headway = p_cfg.time_headway_s
        self.standstill = p_cfg.standstill_gap_m
        self.coast_frames = p_cfg.lost_lead_coast_frames
        self.emerg_demand = p_cfg.emergency_decel_demand_mps2
        self.emerg_delta = p_cfg.emergency_delta_m
        self.ped_caution_speed = p_cfg.pedestrian_caution_speed_mps
        self.ped_range = p_cfg.pedestrian_caution_range_m
        self.ped_margin = p_cfg.pedestrian_caution_margin_m
        self.idm_denom = 2.0 * math.sqrt(p_cfg.max_accel_mps2 * p_cfg.comfortable_decel_mps2)
        pred = p_cfg.prediction
        self.horizon = pred.horizon_s
        self.lat_margin = pred.lateral_margin_m
        self.min_lat_speed = pred.min_lateral_speed_mps
        self.min_pred_dist = pred.min_prediction_distance_m
        self.p_reaction = ads.planner.safety_model.reaction_time_s
        self.cycles_since_lead_lost = ads.planner._cycles_since_lead_lost
        self.hw_veh = _NOMINAL_HALF_WIDTH_M[ActorKind.VEHICLE]
        self.hw_ped = _NOMINAL_HALF_WIDTH_M[ActorKind.PEDESTRIAN]
        self.hl_veh = _NOMINAL_HALF_LENGTH_M[ActorKind.VEHICLE]
        self.hl_ped = _NOMINAL_HALF_LENGTH_M[ActorKind.PEDESTRIAN]
        self.nominal_h = NOMINAL_HEIGHT_M
        pid = ads.speed_pid
        self.pid_kp = pid.kp
        self.pid_ki = pid.ki
        self.pid_kd = pid.kd
        self.pid_min = pid.output_min
        self.pid_max = pid.output_max
        self.pid_integral = 0.0
        self.pid_prev: Optional[float] = None
        smoother = ads.smoother
        self.jerk_comfort = smoother.comfort_jerk_mps3
        self.jerk_emergency = smoother.emergency_jerk_mps3
        self.last_accel = 0.0

        # --- road ---
        ego_lane = ads.road.ego_lane
        self.lane_lo = ego_lane.y_min
        self.lane_hi = ego_lane.y_max

        # --- world state ---
        world = scenario.world
        ego = world.ego
        self.ego_id = ego.actor_id
        self.ego_dims = ego.dimensions
        self.ego_len = ego.dimensions.length_m
        self.ego_w = ego.dimensions.width_m
        self.ego_half_len = self.ego_len / 2.0
        self.ego_max_accel = ego.max_accel_mps2
        self.ego_max_decel = ego.max_decel_mps2
        self.ego_x = ego.position.x
        self.ego_y = ego.position.y
        self.ego_speed = ego.speed_mps
        self.actors = [_LaneActor(actor) for actor in world.actors]
        self.time_s = world.time_s
        self.step = world.step_index
        self.loop_step = 0

        # --- camera constants (stateless; mirrors Simulator's CameraSensor()) ---
        camera = CameraSensor()
        intr = camera.projection.intrinsics
        self.cam_max_range = camera.max_range_m
        self.cam_min_d = camera.projection.MIN_DISTANCE_M
        self.focal = intr.focal_px
        self.img_cx = intr.image_cx
        self.img_cy = intr.image_cy
        self.img_w = intr.image_width
        self.cam_h = intr.camera_height_m

        # --- buffered sensor noise (bulk draws; see module docstring) ---
        lidar = LidarSensor(rng=np.random.default_rng(int(sensor_seeds[0])))
        gps = GpsImuSensor(rng=np.random.default_rng(int(sensor_seeds[1])))
        self.lidar_v_range = lidar.vehicle_range_m
        self.lidar_p_range = lidar.pedestrian_range_m
        n_scans = sum(1 for due in self.lidar_due if due)
        n_draws = 2 * len(self.actors) * n_scans
        self.lidar_noise = (
            lidar._rng.normal(0.0, lidar.position_noise_m, size=n_draws).tolist()
            if n_draws
            else []
        )
        self.lidar_cursor = 0
        if gps.position_noise_m == gps.speed_noise_mps:
            self.gps_noise = gps._rng.normal(
                0.0, gps.speed_noise_mps, size=3 * self.max_steps
            ).tolist()
        else:  # pragma: no cover - non-default sensor config
            sigmas = (gps.position_noise_m, gps.position_noise_m, gps.speed_noise_mps)
            self.gps_noise = [
                float(gps._rng.normal(0.0, sigmas[i % 3]))
                for i in range(3 * self.max_steps)
            ]

        # --- run bookkeeping ---
        sim_safety = SafetyModel(comfortable_decel_mps2=config.comfortable_decel_mps2)
        self.sim_reaction = sim_safety.reaction_time_s
        self.sim_comfort = sim_safety.comfortable_decel_mps2
        self.attacker = attacker
        self.scenario_id = scenario.scenario_id
        self.scenario_target_id = scenario.target_actor_id
        self.events = EventLog()
        self.attack_was_active = False
        self.emergency_was_active = False
        self.halted = False
        self.done = False
        self.last_lidar: Optional[List[tuple]] = None
        self.gps_speed = 0.0

        # Mirror the scalar pre-loop collision check: actors spawned already
        # overlapping halt at step 0 instead of running the full duration.
        hit = self._check_collision()
        if hit is not None:
            self._halt(hit, float("inf"))
        elif self.max_steps == 0:
            self._finish()

    # ------------------------------------------------------------------ #
    # Sensors (ports of CameraSensor.capture / LidarSensor.scan / GpsImu)
    # ------------------------------------------------------------------ #

    def _render_objects(self) -> List[tuple]:
        """Camera render: (distance, lateral, aid, kind, cx, cy, w, h, oh, ow)."""
        camera_x = self.ego_x + self.ego_half_len
        ego_y = self.ego_y
        min_d = self.cam_min_d
        focal = self.focal
        objects = []
        for actor in self.actors:
            distance = actor.x - camera_x
            if distance <= min_d or distance > self.cam_max_range:
                continue
            lateral = actor.y - ego_y
            cx_fov = self.img_cx - lateral * focal / distance
            if not 0.0 <= cx_fov <= self.img_w:
                continue
            d = distance if distance > min_d else min_d
            scale = focal / d
            width_px = actor.width * scale
            height_px = actor.height * scale
            cx = self.img_cx - lateral * scale
            ground_y = self.img_cy + self.cam_h * scale
            cy = ground_y - (actor.height / 2.0) * scale
            objects.append((distance, lateral, actor.actor_id, actor.kind,
                            cx, cy, width_px, height_px, actor.height, actor.width))
        objects.sort(key=_first)
        return objects

    def _scan(self) -> None:
        """LiDAR scan into ``last_lidar``: (distance, lateral, aid, kind, vx)."""
        ego_front = self.ego_x + self.ego_half_len
        ego_y = self.ego_y
        noise = self.lidar_noise
        cursor = self.lidar_cursor
        detections = []
        for actor in self.actors:
            distance = actor.x - ego_front
            max_range = (
                self.lidar_v_range if actor.kind is ActorKind.VEHICLE else self.lidar_p_range
            )
            if distance <= 0.0 or distance > max_range:
                continue
            noise_x = noise[cursor]
            noise_y = noise[cursor + 1]
            cursor += 2
            detections.append((distance + noise_x, actor.y - ego_y + noise_y,
                               actor.actor_id, actor.kind, actor.vx))
        self.lidar_cursor = cursor
        detections.sort(key=_first)
        self.last_lidar = detections

    # ------------------------------------------------------------------ #
    # pre_step: sensing -> attack -> detection -> association
    # ------------------------------------------------------------------ #

    def pre_step(self, upd_rows: List[int], upd_z: List[tuple]) -> None:
        rendered = self._render_objects()
        if self.lidar_due[self.loop_step]:
            self._scan()
        gps = self.ego_speed + self.gps_noise[3 * self.loop_step + 2]
        self.gps_speed = gps if gps > 0.0 else 0.0

        attacker = self.attacker
        if attacker is not None and not attacker.spent:
            frame = CameraFrame(
                time_s=self.time_s,
                frame_index=self.step,
                objects=tuple(
                    CameraObject(
                        actor_id=obj[2],
                        kind=obj[3],
                        bbox=BoundingBox(cx=obj[4], cy=obj[5], width=obj[6], height=obj[7]),
                        distance_m=obj[0],
                        lateral_m=obj[1],
                        object_height_m=obj[8],
                        object_width_m=obj[9],
                    )
                    for obj in rendered
                ),
            )
            delivered = attacker.process_frame(
                frame, ego_speed_mps=self.gps_speed, dt=self.dt
            )
            camera_objects = [
                (obj.actor_id, obj.kind, obj.bbox.cx, obj.bbox.cy,
                 obj.bbox.width, obj.bbox.height)
                for obj in delivered.objects
            ]
        else:
            camera_objects = [(obj[2], obj[3], obj[4], obj[5], obj[6], obj[7])
                              for obj in rendered]
        if attacker is not None:
            active = bool(attacker.attack_active)
            if active and not self.attack_was_active:
                self.events.record(SimulationEvent(
                    kind=EventKind.ATTACK_STARTED, time_s=self.time_s, step_index=self.step
                ))
            elif not active and self.attack_was_active:
                self.events.record(SimulationEvent(
                    kind=EventKind.ATTACK_ENDED, time_s=self.time_s, step_index=self.step
                ))
            self.attack_was_active = active

        detections = self._detect(camera_objects)
        self._track_step(detections, upd_rows, upd_z)

    def _detect(self, camera_objects: List[tuple]) -> List[tuple]:
        """Detector port: (cx, cy, w, h, kind, aid), scalar RNG call order."""
        rng = self.det_rng
        burst = self.burst
        min_bbox_h = self.min_bbox_h
        detections = []
        visible = set()
        for actor_id, kind, cx, cy, w, h in camera_objects:
            visible.add(actor_id)
            noise = self.vnoise if kind is ActorKind.VEHICLE else self.pnoise
            if h < min_bbox_h:
                continue
            remaining = burst.get(actor_id, 0)
            if remaining > 0:
                burst[actor_id] = remaining - 1
                continue
            if rng.random() < noise[4]:
                burst_length = 1 + int(rng.exponential(noise[5]))
                burst[actor_id] = burst_length - 1 if burst_length > 1 else 0
                continue
            dx = rng.normal(noise[0], noise[1]) * w
            dy = rng.normal(noise[2], noise[3]) * h
            size_jitter = rng.normal(1.0, 0.03)
            if size_jitter < 0.85:
                size_jitter = 0.85
            elif size_jitter > 1.15:
                size_jitter = 1.15
            size_jitter = float(size_jitter)
            # Confidence is drawn (to keep the stream aligned) but unused.
            rng.normal(0.85, 0.08)
            detections.append((float(cx + dx), float(cy + dy),
                               float(w * size_jitter), float(h * size_jitter),
                               kind, actor_id))
        if burst:
            for actor_id in [aid for aid in burst if aid not in visible]:
                del burst[actor_id]
        return detections

    def _pair_cost(self, track: "_Track", geom: tuple) -> float:
        """Association cost for one (track, detection) pair — scalar-exact."""
        dx0, dx1, dy0, dy1, d_area, dcx, dcy, dw = geom
        pcx = track.pred_cx
        pcy = track.pred_cy
        pw = track.pred_w
        ph = track.pred_h
        px0 = pcx - pw / 2.0
        px1 = pcx + pw / 2.0
        py0 = pcy - ph / 2.0
        py1 = pcy + ph / 2.0
        overlap_w = (px1 if px1 < dx1 else dx1) - (px0 if px0 > dx0 else dx0)
        overlap_h = (py1 if py1 < dy1 else dy1) - (py0 if py0 > dy0 else dy0)
        if overlap_w <= 0.0 or overlap_h <= 0.0:
            inter = 0.0
        else:
            inter = overlap_w * overlap_h
        union = pw * ph + d_area - inter
        overlap = 0.0 if union <= 0.0 else inter / union
        mean_width = (pw + dw) / 2.0
        if mean_width < 1.0:
            mean_width = 1.0
        normalized = np.hypot(pcx - dcx, pcy - dcy) / mean_width
        return (1.0 - overlap) + 0.05 * min(normalized, 10.0)

    def _track_step(self, detections: List[tuple],
                    upd_rows: List[int], upd_z: List[tuple]) -> None:
        """MOT association + lifecycle; Kalman updates are deferred to the pool."""
        tracks = self.tracks
        track_list = list(tracks.values())
        n_tracks = len(track_list)
        n_dets = len(detections)
        matched_tracks: List[_Track] = []
        matched_det_idx: List[int] = []
        if n_tracks and n_dets:
            det_geom = []
            for det in detections:
                dcx, dcy, dw, dh = det[0], det[1], det[2], det[3]
                det_geom.append((dcx - dw / 2.0, dcx + dw / 2.0,
                                 dcy - dh / 2.0, dcy + dh / 2.0,
                                 dw * dh, dcx, dcy, dw))
            # The Hungarian solve is only needed when the matrix is at least
            # 2x2.  A 1x1 matrix always yields the pair (0, 0), and a single
            # row (or column) reduces to a first-wins argmin — exactly the
            # tie-break the strict ``<`` in the solver's delta update uses —
            # so the common 1-track/1-detection frame skips the cost matrix
            # entirely.  Acceptability is then checked lazily per returned
            # pair (the boolean is identical; only unselected pairs skip it).
            if n_tracks == 1 and n_dets == 1:
                pairs = ((0, 0),)
            elif n_tracks == 1:
                best_c = 0
                best = self._pair_cost(track_list[0], det_geom[0])
                for c in range(1, n_dets):
                    value = self._pair_cost(track_list[0], det_geom[c])
                    if value < best:
                        best = value
                        best_c = c
                pairs = ((0, best_c),)
            elif n_dets == 1:
                best_r = 0
                best = self._pair_cost(track_list[0], det_geom[0])
                for r in range(1, n_tracks):
                    value = self._pair_cost(track_list[r], det_geom[0])
                    if value < best:
                        best = value
                        best_r = r
                pairs = ((best_r, 0),)
            else:
                cost = np.empty((n_tracks, n_dets))
                for r, track in enumerate(track_list):
                    for c in range(n_dets):
                        cost[r, c] = self._pair_cost(track, det_geom[c])
                pairs = hungarian_assignment(cost)
            min_iou = self.min_iou
            cd_gate = self.cd_gate
            for r, c in pairs:
                track = track_list[r]
                pw = track.pred_w
                pw_floor = pw if pw > 1.0 else 1.0
                dx0, dx1, dy0, dy1, d_area, dcx, dcy, dw = det_geom[c]
                width_ratio = dw / pw_floor
                if not 0.4 <= width_ratio <= 2.5:
                    continue
                pcx = track.pred_cx
                pcy = track.pred_cy
                ph = track.pred_h
                px0 = pcx - pw / 2.0
                px1 = pcx + pw / 2.0
                py0 = pcy - ph / 2.0
                py1 = pcy + ph / 2.0
                overlap_w = (px1 if px1 < dx1 else dx1) - (px0 if px0 > dx0 else dx0)
                overlap_h = (py1 if py1 < dy1 else dy1) - (py0 if py0 > dy0 else dy0)
                if overlap_w <= 0.0 or overlap_h <= 0.0:
                    inter = 0.0
                else:
                    inter = overlap_w * overlap_h
                union = pw * ph + d_area - inter
                overlap = 0.0 if union <= 0.0 else inter / union
                if overlap < min_iou:
                    mean_width = (pw + dw) / 2.0
                    if mean_width < 1.0:
                        mean_width = 1.0
                    if np.hypot(pcx - dcx, pcy - dcy) / mean_width > cd_gate:
                        continue
                matched_tracks.append(track)
                matched_det_idx.append(c)

        for track, c in zip(matched_tracks, matched_det_idx):
            det = detections[c]
            track.kind = det[4]
            track.actor_id = det[5]
            track.hits += 1
            track.misses = 0
            upd_rows.append(track.row)
            upd_z.append((det[0], det[1], det[2], det[3]))

        matched_ids = {track.track_id for track in matched_tracks}
        for track in track_list:
            if track.track_id not in matched_ids:
                track.misses += 1

        matched_cols = set(matched_det_idx)
        for c, det in enumerate(detections):
            if c in matched_cols:
                continue
            tid = self.next_tid
            self.next_tid += 1
            row = self.pool.alloc(det[0], det[1], det[2], det[3])
            tracks[tid] = _Track(tid, det[4], det[5], row, det[0], det[1], det[2], det[3])

        stale = [tid for tid, track in tracks.items() if track.misses > self.max_misses]
        for tid in stale:
            self.pool.free(tracks.pop(tid).row)

        min_hits = self.min_hits
        self.observed = [track for track in tracks.values()
                         if track.hits >= min_hits and track.misses <= 1]

    # ------------------------------------------------------------------ #
    # post_step: transform -> fusion -> planning -> actuation -> world
    # ------------------------------------------------------------------ #

    def post_step(self) -> None:
        # --- image-to-world transform (EMA velocity estimation) ---
        history = self.tf_hist
        frame_dt = self.frame_dt
        alpha = self.tf_alpha
        om_alpha = self.tf_om_alpha
        # (distance, lateral, rel_velocity, lateral_velocity, track_id, actor_id, kind)
        estimates = []
        for track in self.observed:
            height_px = track.h
            nominal = self.nominal_h[track.kind]
            if height_px <= 0:
                continue
            distance = self.tf_focal * nominal / height_px
            d = distance if distance > self.tf_min_d else self.tf_min_d
            lateral = (self.tf_img_cx - track.cx) * d / self.tf_focal
            record = history.get(track.track_id)
            if record is None:
                history[track.track_id] = [distance, lateral, 0.0, 0.0, 0.0]
                velocity = 0.0
                lateral_velocity = 0.0
            else:
                raw_v = (distance - record[0]) / frame_dt
                raw_lv = (lateral - record[1]) / frame_dt
                velocity = om_alpha * record[2] + alpha * raw_v
                lateral_velocity = om_alpha * record[3] + alpha * raw_lv
                raw_a = (velocity - record[2]) / frame_dt
                acceleration = om_alpha * record[4] + alpha * raw_a
                record[0] = distance
                record[1] = lateral
                record[2] = velocity
                record[3] = lateral_velocity
                record[4] = acceleration
            estimates.append((distance, lateral, velocity, lateral_velocity,
                              track.track_id, track.actor_id, track.kind))
        if history:
            live = {track.track_id for track in self.observed}
            for tid in [tid for tid in history if tid not in live]:
                del history[tid]
        estimates.sort(key=_first)

        # --- fusion (dispatched on the lane's fusion policy) ---
        obstacles = self._fuse_impl(estimates)

        # --- planning (LongitudinalPlanner port) ---
        ego_speed = self.gps_speed
        target_speed = self.cruise
        for obstacle in obstacles:
            if obstacle[0] is not ActorKind.PEDESTRIAN:
                continue
            if not 0.0 < obstacle[1] <= self.ped_range:
                continue
            margin = self.ped_margin + self.hw_ped
            if self.lane_lo - margin <= obstacle[2] <= self.lane_hi + margin:
                target_speed = min(target_speed, self.ped_caution_speed)
                break

        if target_speed <= 0:
            free_accel = -self.p_comfort
        else:
            speed_ratio = ego_speed / target_speed
            accel = self.p_max_accel * (1.0 - speed_ratio**4)
            neg_comfort = -self.p_comfort
            if neg_comfort > accel:
                accel = neg_comfort
            if self.p_max_accel < accel:
                accel = self.p_max_accel
            free_accel = float(accel)

        # obstacles are distance-sorted, so the first relevant one is the lead.
        lead = None
        for obstacle in obstacles:
            distance = obstacle[1]
            if distance <= 0:
                continue
            half_w = self.hw_veh if obstacle[0] is ActorKind.VEHICLE else self.hw_ped
            margin = self.lat_margin + half_w
            lo = self.lane_lo - margin
            hi = self.lane_hi + margin
            lateral = obstacle[2]
            if lo <= lateral <= hi:
                lead = obstacle
                break
            if distance < self.min_pred_dist:
                continue
            lateral_speed = obstacle[4]
            if abs(lateral_speed) < self.min_lat_speed:
                lateral_speed = 0.0
            if lo <= lateral + lateral_speed * self.horizon <= hi:
                lead = obstacle
                break

        if lead is None:
            self.cycles_since_lead_lost += 1
            if self.cycles_since_lead_lost <= self.coast_frames:
                free_accel = 0.0 if 0.0 < free_accel else free_accel
            desired = free_accel
            emergency = False
            perceived = float("inf")
        else:
            self.cycles_since_lead_lost = 0
            half_len = self.hl_veh if lead[0] is ActorKind.VEHICLE else self.hl_ped
            gap = lead[1] - half_len
            if not gap > 0.1:
                gap = 0.1
            lead_speed = lead[3]
            if not lead_speed > 0.0:
                lead_speed = 0.0
            closing = ego_speed - lead_speed
            sp = ego_speed if ego_speed > 0.0 else 0.0
            perceived = gap - (sp * self.p_reaction + sp * sp / (2.0 * self.p_comfort))
            desired_gap = (
                self.standstill
                + ego_speed * self.headway
                + ego_speed * closing / self.idm_denom
            )
            if self.standstill > desired_gap:
                desired_gap = self.standstill
            speed_ratio = ego_speed / (0.1 if 0.1 > target_speed else target_speed)
            interaction = self.p_max_accel * (
                1.0 - speed_ratio**4 - (desired_gap / gap) ** 2
            )
            if self.p_max_accel < interaction:
                interaction = self.p_max_accel
            interaction = float(interaction)
            desired = interaction if interaction < free_accel else free_accel
            if closing <= 0.3:
                emergency = False
            else:
                braking_gap = gap - 1.0
                if not braking_gap > 0.1:
                    braking_gap = 0.1
                required = closing**2 / (2.0 * braking_gap)
                emergency = required > self.emerg_demand or perceived < self.emerg_delta
            if emergency:
                desired = -self.p_max_decel
            else:
                neg_comfort = -self.p_comfort
                if neg_comfort > desired:
                    desired = neg_comfort

        # --- PID trim + actuation smoothing (AdsAgent.step port) ---
        error = target_speed - ego_speed
        if self.pid_prev is not None:
            derivative = (error - self.pid_prev) / self.dt
        else:
            derivative = 0.0
        self.pid_prev = error
        candidate = self.pid_integral + error * self.dt
        output = self.pid_kp * error + self.pid_ki * candidate + self.pid_kd * derivative
        if self.pid_min <= output <= self.pid_max:
            self.pid_integral = candidate
            trim = output
        else:
            trim = output
            if self.pid_min > trim:
                trim = self.pid_min
            if self.pid_max < trim:
                trim = self.pid_max
        if not emergency and desired > -self.p_comfort:
            trimmed = desired + 0.2 * trim
            neg_comfort = -self.p_comfort
            if neg_comfort > trimmed:
                trimmed = neg_comfort
            if self.p_max_accel < trimmed:
                trimmed = self.p_max_accel
            desired = float(trimmed)
        jerk = self.jerk_emergency if emergency else self.jerk_comfort
        max_change = jerk * self.dt
        change = desired - self.last_accel
        neg_change = -max_change
        if neg_change > change:
            change = neg_change
        if max_change < change:
            change = max_change
        self.last_accel += change
        acceleration = self.last_accel

        # --- events + traces (pre-step time/step, like the scalar loop) ---
        if emergency and not self.emergency_was_active:
            self.events.record(SimulationEvent(
                kind=EventKind.EMERGENCY_BRAKE,
                time_s=self.time_s,
                step_index=self.step,
                details={"perceived_delta_m": perceived},
            ))
        self.emergency_was_active = emergency
        self.events.record_step(
            true_delta=self._true_delta(),
            perceived_delta=perceived,
            ego_speed=self.ego_speed,
        )

        # --- world advance (EgoVehicle.apply_control + route advance) ---
        dt = self.dt
        accel = acceleration
        neg_decel = -self.ego_max_decel
        if neg_decel > accel:
            accel = neg_decel
        if self.ego_max_accel < accel:
            accel = self.ego_max_accel
        new_speed = self.ego_speed + accel * dt
        if not new_speed > 0.0:
            new_speed = 0.0
        average = (self.ego_speed + new_speed) / 2.0
        self.ego_x = self.ego_x + average * dt
        self.ego_speed = new_speed
        for actor in self.actors:
            route = actor.route
            route.advance(dt)
            actor.x = route.px
            actor.y = route.py
            actor.vx = route.vx
            actor.vy = route.vy
        self.time_s += dt
        self.step += 1
        self.loop_step += 1

        hit = self._check_collision()
        if hit is not None:
            self._halt(hit, perceived)
        elif self.loop_step >= self.max_steps:
            self._finish()

    # ------------------------------------------------------------------ #
    # Fusion (SensorFusion.step port)
    # ------------------------------------------------------------------ #

    def _nearest_fused(self, distance: float, lateral: float) -> Optional[_Fused]:
        best = None
        best_sep = self.gate + self.gate_factor * (distance if distance > 0.0 else 0.0)
        for fused in self.fusion_tracks.values():
            if not fused.has_camera_history and not fused.scans_since_lidar <= 2:
                continue
            separation = abs(fused.fused_distance - distance) + 2.5 * abs(
                fused.fused_lateral - lateral
            )
            if separation < best_sep:
                best_sep = separation
                best = fused
        return best

    def _fuse(self, estimates: List[tuple]) -> List[tuple]:
        """Returns distance-sorted (kind, distance, lateral, speed, lat_vel).

        Port of ``SensorFusion`` (the ``late`` policy) — and, through the
        weight selection in the camera+LiDAR-fresh branch, of
        ``ConsistencyGatedFusion`` when ``cons_enabled`` is set.
        """
        tracks = self.fusion_tracks
        lidar = self.last_lidar
        for fused in tracks.values():
            fused.frames_since_camera += 1
            if lidar is not None:
                fused.scans_since_lidar += 1

        for distance, lateral, velocity, _lat_vel, track_id, actor_id, kind in estimates:
            key = ("cam", track_id)
            fused = tracks.get(key)
            if fused is None:
                fused = self._nearest_fused(distance, lateral)
                if fused is None:
                    fused = _Fused(kind, actor_id, lateral, distance)
                    tracks[key] = fused
            fused.camera_frames_seen += 1
            fused.frames_since_camera = 0
            fused.camera_distance = distance
            fused.camera_lateral = lateral
            fused.camera_rel_velocity = velocity
            fused.actor_id = actor_id
            fused.kind = kind
            fused.has_camera_history = True

        if lidar is not None:
            for distance, lateral, actor_id, kind, speed in lidar:
                fused = self._nearest_fused(distance, lateral)
                if fused is None:
                    key = ("lidar", actor_id)
                    fused = tracks.get(key)
                    if fused is None:
                        fused = _Fused(kind, actor_id, lateral, distance)
                        tracks[key] = fused
                fused.lidar_scans_seen += 1
                fused.scans_since_lidar = 0
                fused.lidar_distance = distance
                fused.lidar_lateral = lateral
                fused.lidar_speed = speed
                if fused.actor_id is None:
                    fused.actor_id = actor_id

        for fused in tracks.values():
            if fused.registered:
                continue
            if fused.camera_frames_seen > 0 and fused.lidar_scans_seen > 0:
                if fused.camera_frames_seen >= self.fused_reg:
                    fused.registered = True
            elif fused.camera_frames_seen > 0:
                if fused.camera_frames_seen >= self.cam_reg:
                    fused.registered = True
            elif fused.lidar_scans_seen >= self.lidar_reg:
                fused.registered = True

        stale = []
        for key, fused in tracks.items():
            if fused.has_camera_history:
                timeout = (
                    self.lidar_backed_timeout
                    if fused.scans_since_lidar <= 2
                    else self.cam_timeout
                )
                if fused.frames_since_camera > timeout:
                    stale.append(key)
            elif fused.scans_since_lidar > self.lidar_timeout:
                stale.append(key)
        for key in stale:
            del tracks[key]

        ego_speed = self.gps_speed
        obstacles = []
        for fused in tracks.values():
            camera_fresh = fused.frames_since_camera <= 2 and fused.camera_frames_seen > 0
            lidar_fresh = fused.scans_since_lidar <= 2 and fused.lidar_scans_seen > 0
            if camera_fresh and lidar_fresh:
                if self.cons_enabled and (
                    abs(fused.camera_lateral - fused.lidar_lateral) > self.cons_gate
                ):
                    lateral = (
                        self.pen_cam_w * fused.camera_lateral
                        + self.om_pen_cam_w * fused.lidar_lateral
                    )
                    distance = (
                        self.pen_cam_dw * fused.camera_distance
                        + self.om_pen_cam_dw * fused.lidar_distance
                    )
                else:
                    lateral = (
                        self.cam_w * fused.camera_lateral + self.om_cam_w * fused.lidar_lateral
                    )
                    distance = (
                        self.cam_dw * fused.camera_distance + self.om_cam_dw * fused.lidar_distance
                    )
                speed = fused.lidar_speed
            elif camera_fresh:
                lateral = fused.camera_lateral
                distance = fused.camera_distance
                speed = ego_speed + fused.camera_rel_velocity
                if not speed > 0.0:
                    speed = 0.0
            elif lidar_fresh:
                lateral = fused.lidar_lateral
                distance = fused.lidar_distance
                speed = fused.lidar_speed
            else:
                lateral = fused.fused_lateral
                distance = fused.fused_distance
                if fused.lidar_scans_seen:
                    speed = fused.lidar_speed
                else:
                    speed = ego_speed + fused.camera_rel_velocity
                    if not speed > 0.0:
                        speed = 0.0
            if not camera_fresh and not lidar_fresh:
                fused.lateral_velocity *= 0.8
            else:
                lat_history = fused.lateral_history
                if lat_history and abs(lateral - lat_history[-1]) > 1.0:
                    lat_history.clear()
                    fused.lateral_velocity = 0.0
                lat_history.append(lateral)
                if len(lat_history) > self.baseline_p1:
                    del lat_history[: -self.baseline_p1]
                n = len(lat_history)
                if n >= 2:
                    raw = (lat_history[-1] - lat_history[0]) / ((n - 1) * self.frame_dt)
                else:
                    raw = 0.0
                fused.lateral_velocity = (
                    self.om_falpha * fused.lateral_velocity + self.falpha * raw
                )
            fused.fused_lateral = lateral
            fused.fused_distance = distance
            if fused.registered:
                obstacles.append((fused.kind, distance, lateral, speed,
                                  fused.lateral_velocity))
        obstacles.sort(key=_second)
        return obstacles

    def _fuse_camera_only(self, estimates: List[tuple]) -> List[tuple]:
        """Port of ``CameraOnlyFusion``: camera estimates pass straight through.

        Estimates are already distance-sorted, matching the scalar policy's
        output order, so no re-sort is needed.
        """
        ego_speed = self.gps_speed
        obstacles = []
        for distance, lateral, velocity, lat_vel, _track_id, _actor_id, kind in estimates:
            speed = ego_speed + velocity
            if not speed > 0.0:
                speed = 0.0
            obstacles.append((kind, distance, lateral, speed, lat_vel))
        return obstacles

    def _fuse_lidar_only(self, estimates: List[tuple]) -> List[tuple]:
        """Port of ``LidarOnlyFusion``: the world model from LiDAR alone."""
        tracks = self.lidar_only_tracks
        lidar = self.last_lidar
        if lidar is not None:
            for track in tracks.values():
                track.scans_since += 1
            for distance, lateral, actor_id, kind, speed in lidar:
                track = tracks.get(actor_id)
                if track is None:
                    track = _LidarOnly(kind, actor_id)
                    tracks[actor_id] = track
                track.scans_seen += 1
                track.scans_since = 0
                track.distance = distance
                track.lateral = lateral
                track.speed = speed
                track.kind = kind
                if not track.registered and track.scans_seen >= self.fused_reg:
                    track.registered = True
            stale = [
                actor_id
                for actor_id, track in tracks.items()
                if track.scans_since > self.lidar_timeout
            ]
            for actor_id in stale:
                del tracks[actor_id]

        obstacles = []
        for track in tracks.values():
            if track.scans_since == 0:
                lat_history = track.lateral_history
                if lat_history and abs(track.lateral - lat_history[-1]) > 1.0:
                    lat_history.clear()
                    track.lateral_velocity = 0.0
                lat_history.append(track.lateral)
                if len(lat_history) > self.baseline_p1:
                    del lat_history[: -self.baseline_p1]
                n = len(lat_history)
                if n >= 2:
                    raw = (lat_history[-1] - lat_history[0]) / ((n - 1) * self.frame_dt)
                else:
                    raw = 0.0
                track.lateral_velocity = (
                    self.om_falpha * track.lateral_velocity + self.falpha * raw
                )
            else:
                track.lateral_velocity *= 0.8
            if track.registered:
                obstacles.append((track.kind, track.distance, track.lateral,
                                  track.speed, track.lateral_velocity))
        obstacles.sort(key=_second)
        return obstacles

    # ------------------------------------------------------------------ #
    # Ground truth, collision, halt, result
    # ------------------------------------------------------------------ #

    def _current_target_id(self) -> Optional[int]:
        if self.attacker is not None and self.attacker.target_actor_id is not None:
            return self.attacker.target_actor_id
        return self.scenario_target_id

    def _true_delta(self) -> float:
        """Port of ``ground_truth_delta`` over the lane's plain-float state."""
        target_id = self._current_target_id()
        candidate = None
        if target_id is not None:
            for actor in self.actors:
                if actor.actor_id == target_id:
                    if actor.x > self.ego_x:
                        margin = 0.3 + actor.half_w
                        if self.lane_lo - margin <= actor.y <= self.lane_hi + margin:
                            candidate = actor
                    break
        if candidate is None:
            ego_front = self.ego_x + self.ego_half_len
            best_x = 0.0
            for actor in self.actors:
                if actor.x > ego_front:
                    margin = 0.3 + actor.half_w
                    if self.lane_lo - margin <= actor.y <= self.lane_hi + margin:
                        if candidate is None or actor.x < best_x:
                            candidate = actor
                            best_x = actor.x
        if candidate is None:
            return float("inf")
        gap = abs(candidate.x - self.ego_x) - (self.ego_len + candidate.length) / 2.0
        sp = self.ego_speed
        if not sp > 0.0:
            sp = 0.0
        return gap - (sp * self.sim_reaction + sp * sp / (2.0 * self.sim_comfort))

    def _check_collision(self) -> Optional[int]:
        ego_x = self.ego_x
        ego_y = self.ego_y
        for actor in self.actors:
            if abs(actor.x - ego_x) - (self.ego_len + actor.length) / 2.0 <= 0.0:
                if abs(actor.y - ego_y) <= (self.ego_w + actor.width) / 2.0:
                    return actor.actor_id
        return None

    def _halt(self, collision_actor: int, perceived: float) -> None:
        """Collision halt: impact trace entry + COLLISION/SIMULATION_HALTED."""
        self.events.record_step(
            true_delta=self._true_delta(),
            perceived_delta=perceived,
            ego_speed=self.ego_speed,
        )
        self.events.record(SimulationEvent(
            kind=EventKind.COLLISION,
            time_s=self.time_s,
            step_index=self.step,
            details={"actor_id": float(collision_actor)},
        ))
        self.events.record(SimulationEvent(
            kind=EventKind.SIMULATION_HALTED, time_s=self.time_s, step_index=self.step
        ))
        self.halted = True
        self._finish()

    def _finish(self) -> None:
        if self.attack_was_active:
            self.events.record(SimulationEvent(
                kind=EventKind.ATTACK_ENDED, time_s=self.time_s, step_index=self.step
            ))
        for track in self.tracks.values():
            self.pool.free(track.row)
        self.tracks.clear()
        self.observed = []
        self.done = True

    def result(self) -> SimulationResult:
        ego = ActorSnapshot(
            actor_id=self.ego_id,
            kind=ActorKind.VEHICLE,
            position=Vec2(self.ego_x, self.ego_y),
            velocity=Vec2(self.ego_speed, 0.0),
            dimensions=self.ego_dims,
            is_ego=True,
        )
        actors = tuple(
            ActorSnapshot(
                actor_id=actor.actor_id,
                kind=actor.kind,
                position=Vec2(actor.x, actor.y),
                velocity=Vec2(actor.vx, actor.vy),
                dimensions=actor.dims,
            )
            for actor in self.actors
        )
        snapshot = GroundTruthSnapshot(
            time_s=self.time_s, step_index=self.step, ego=ego, actors=actors
        )
        return SimulationResult(
            scenario_id=self.scenario_id,
            events=self.events,
            steps_executed=self.step,
            duration_s=self.time_s,
            halted_on_collision=self.halted,
            final_snapshot=snapshot,
            target_actor_id=self._current_target_id(),
        )


# --------------------------------------------------------------------------- #
# The lockstep driver
# --------------------------------------------------------------------------- #


class BatchSimulator:
    """Advances N independently-seeded runs in lockstep within one process.

    Each step runs four phases: (A) one stacked Kalman predict over every
    live track of every active lane; (B) per-lane sensing, attack, detection,
    and association (collecting matched measurements); (C) one stacked Kalman
    update plus a stacked gather of the observed track states; (D) per-lane
    world-estimation, fusion, planning, actuation, and world advance.  Lanes
    that halt (collision) or exhaust their duration drop out of the active
    set; the loop ends when no lane is active.
    """

    def __init__(self, specs: Sequence[BatchRunSpec],
                 config: SimulationConfig | None = None):
        if not specs:
            raise ValueError("BatchSimulator needs at least one run spec")
        self.config = config or SimulationConfig()
        self._pool = _KalmanPool()
        self._lanes = [_Lane(spec, self.config, self._pool) for spec in specs]

    def run(self) -> List[SimulationResult]:
        """Execute all lanes to completion; results are in spec order."""
        pool = self._pool
        active = [lane for lane in self._lanes if not lane.done]
        while active:
            # Phase A: stacked predict for every live track.
            refs: List[_Track] = []
            rows: List[int] = []
            for lane in active:
                for track in lane.tracks.values():
                    refs.append(track)
                    rows.append(track.row)
            if rows:
                states = pool.predict(np.array(rows, dtype=np.intp)).tolist()
                for track, state in zip(refs, states):
                    track.pred_cx = state[0]
                    track.pred_cy = state[1]
                    w = state[2]
                    h = state[3]
                    track.pred_w = w if w > 1.0 else 1.0
                    track.pred_h = h if h > 1.0 else 1.0

            # Phase B: per-lane sensing/attack/detection/association.
            upd_rows: List[int] = []
            upd_z: List[tuple] = []
            for lane in active:
                lane.pre_step(upd_rows, upd_z)

            # Phase C: stacked update, then refresh the observed boxes.
            if upd_rows:
                pool.update(np.array(upd_rows, dtype=np.intp), np.array(upd_z))
            refs = []
            rows = []
            for lane in active:
                for track in lane.observed:
                    refs.append(track)
                    rows.append(track.row)
            if rows:
                states = pool.states[np.array(rows, dtype=np.intp)].tolist()
                for track, state in zip(refs, states):
                    track.cx = state[0]
                    track.cy = state[1]
                    w = state[2]
                    h = state[3]
                    track.w = w if w > 1.0 else 1.0
                    track.h = h if h > 1.0 else 1.0

            # Phase D: per-lane estimation/fusion/planning/actuation/world.
            for lane in active:
                lane.post_step()
            active = [lane for lane in active if not lane.done]
        return [lane.result() for lane in self._lanes]
