"""The simulation loop.

Each step (one camera frame at 15 Hz) the simulator:

1. captures the ground truth and renders the sensor measurements,
2. lets the (optional) man-in-the-middle attacker observe and perturb the
   camera frame — the attack surface of paper §III-B,
3. runs the victim ADS on the (possibly perturbed) sensors,
4. applies the ADS actuation to the ego vehicle and advances all actors,
5. records safety events: emergency braking, collisions, attack start/end,
   and the ground-truth / perceived safety-potential traces used by the
   evaluation harness.

The loop halts early on a physical collision, mirroring how the LGSVL
simulator stops when actors come too close.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol

import numpy as np

from repro.ads.safety import SafetyModel, ground_truth_delta
from repro.sensors.camera import CameraFrame, CameraSensor
from repro.sensors.gps_imu import GpsImuSensor
from repro.sensors.lidar import LidarScan, LidarSensor
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind, EventLog, SimulationEvent
from repro.sim.scenarios import DrivingScenario
from repro.sim.world import GroundTruthSnapshot

if TYPE_CHECKING:  # pragma: no cover - imported for type hints only
    from repro.ads.agent import AdsAgent, AdsDecision

__all__ = ["CameraAttacker", "SimulationResult", "Simulator"]


class CameraAttacker(Protocol):
    """Interface of a man-in-the-middle attacker on the camera link.

    ``process_frame`` receives the clean camera frame and returns the frame the
    ADS will see (possibly perturbed).  The attacker reports its state through
    the properties so the simulator can log attack start/end events.

    Once ``spent`` turns true the attacker is dormant for the rest of the run:
    it will not perturb another frame, start another attack, or change
    ``attack_active`` or ``target_actor_id``.  The batch engine then stops
    calling ``process_frame`` and hands the clean frame straight to the ADS;
    this reference loop keeps calling it on every frame.
    """

    def process_frame(
        self, frame: CameraFrame, ego_speed_mps: float, dt: float
    ) -> CameraFrame:
        """Observe the clean frame and return the (possibly perturbed) frame."""
        ...

    @property
    def attack_active(self) -> bool:
        """Whether a perturbation is being applied this frame."""
        ...

    @property
    def target_actor_id(self) -> Optional[int]:
        """The actor whose trajectory is being hijacked, if any."""
        ...

    @property
    def spent(self) -> bool:
        """Whether the attacker is dormant for the rest of the run."""
        ...


@dataclass
class SimulationResult:
    """Everything recorded during one simulation run."""

    scenario_id: str
    events: EventLog
    steps_executed: int
    duration_s: float
    halted_on_collision: bool
    final_snapshot: GroundTruthSnapshot
    target_actor_id: Optional[int]

    @property
    def emergency_braking_occurred(self) -> bool:
        return self.events.emergency_braking_occurred

    @property
    def collision_occurred(self) -> bool:
        return self.events.collision_occurred

    def min_true_delta_from_attack(self) -> float:
        """Minimum ground-truth δ from the attack start to the end of the run.

        Falls back to the whole-run minimum when no attack was launched.
        """
        start = self.events.attack_start_step
        return self.events.min_true_delta_after(start if start is not None else 0)

    def accident_occurred(self, accident_delta_m: float = 4.0) -> bool:
        """Paper §VI-D accident criterion: min ground-truth δ below 4 m."""
        if self.collision_occurred:
            return True
        return self.min_true_delta_from_attack() < accident_delta_m


class Simulator:
    """Runs one driving scenario against the ADS, optionally under attack."""

    def __init__(
        self,
        scenario: DrivingScenario,
        ads: "AdsAgent",
        config: SimulationConfig | None = None,
        attacker: Optional[CameraAttacker] = None,
        rng: np.random.Generator | None = None,
    ):
        self.scenario = scenario
        self.ads = ads
        self.config = config or SimulationConfig()
        self.attacker = attacker
        rng = rng if rng is not None else np.random.default_rng()
        sensor_seeds = rng.integers(0, 2**31 - 1, size=2)
        self.camera = CameraSensor()
        self.lidar = LidarSensor(rng=np.random.default_rng(int(sensor_seeds[0])))
        self.gps_imu = GpsImuSensor(rng=np.random.default_rng(int(sensor_seeds[1])))
        self.safety_model = SafetyModel(
            comfortable_decel_mps2=self.config.comfortable_decel_mps2
        )

    def run(self) -> SimulationResult:
        """Execute the scenario until its duration elapses or a collision halts it."""
        world = self.scenario.world
        events = EventLog()
        dt = self.config.dt
        max_steps = min(
            self.config.max_steps, int(round(self.scenario.duration_s / dt))
        )
        attack_was_active = False
        emergency_was_active = False
        halted = False
        last_lidar_scan: Optional[LidarScan] = None
        # One snapshot per step: built here for step 0, then refreshed once
        # after each world.step and reused for collision checking, the next
        # iteration's sensing, and the final result.  (Snapshotting is the
        # single most expensive bookkeeping call in the loop.)
        snapshot = world.snapshot()
        collision_actor = self._check_collision(snapshot)
        if collision_actor is not None:
            # Actors spawned already overlapping: halt at step 0 instead of
            # driving the ego through them for the full duration.
            self._record_collision_halt(
                events, snapshot, collision_actor, perceived_delta=float("inf")
            )
            halted = True
            max_steps = 0

        for step in range(max_steps):
            camera_frame = self.camera.capture(snapshot)
            if self.config.lidar_due(step):
                last_lidar_scan = self.lidar.scan(snapshot)
            ego_pose = self.gps_imu.measure(snapshot)

            delivered_frame = camera_frame
            if self.attacker is not None:
                delivered_frame = self.attacker.process_frame(
                    camera_frame, ego_speed_mps=ego_pose.speed_mps, dt=dt
                )
                attack_was_active = self._log_attack_transitions(
                    events, snapshot, attack_was_active
                )

            decision = self.ads.step(delivered_frame, last_lidar_scan, ego_pose, dt)
            emergency_was_active = self._log_emergency_transitions(
                events, snapshot, decision, emergency_was_active
            )

            target_id = self._current_target_id()
            true_delta = ground_truth_delta(
                snapshot, self.scenario.road, self.safety_model, target_actor_id=target_id
            )
            events.record_step(
                true_delta=true_delta,
                perceived_delta=decision.perceived_delta_m,
                ego_speed=snapshot.ego.speed,
            )

            world.step(dt, ego_acceleration_mps2=decision.acceleration_mps2)

            snapshot = world.snapshot()
            collision_actor = self._check_collision(snapshot)
            if collision_actor is not None:
                # The impact snapshot still gets a trace entry (so the Fig-6
                # traces and min_true_delta_from_attack include the value at
                # impact); on a collision halt the traces are therefore one
                # entry longer than steps_executed.
                self._record_collision_halt(
                    events, snapshot, collision_actor,
                    perceived_delta=decision.perceived_delta_m,
                )
                halted = True
                break

        if attack_was_active:
            # The run ended (duration elapsed or collision halt) while the
            # attack was still active: close the interval so attack-duration
            # consumers never see an open one.
            events.record(
                SimulationEvent(
                    kind=EventKind.ATTACK_ENDED,
                    time_s=snapshot.time_s,
                    step_index=snapshot.step_index,
                )
            )

        return SimulationResult(
            scenario_id=self.scenario.scenario_id,
            events=events,
            steps_executed=world.step_index,
            duration_s=world.time_s,
            halted_on_collision=halted,
            final_snapshot=snapshot,
            target_actor_id=self._current_target_id(),
        )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _current_target_id(self) -> Optional[int]:
        if self.attacker is not None and self.attacker.target_actor_id is not None:
            return self.attacker.target_actor_id
        return self.scenario.target_actor_id

    def _log_attack_transitions(
        self, events: EventLog, snapshot: GroundTruthSnapshot, attack_was_active: bool
    ) -> bool:
        active = bool(self.attacker is not None and self.attacker.attack_active)
        if active and not attack_was_active:
            events.record(
                SimulationEvent(
                    kind=EventKind.ATTACK_STARTED,
                    time_s=snapshot.time_s,
                    step_index=snapshot.step_index,
                )
            )
        elif not active and attack_was_active:
            events.record(
                SimulationEvent(
                    kind=EventKind.ATTACK_ENDED,
                    time_s=snapshot.time_s,
                    step_index=snapshot.step_index,
                )
            )
        return active

    @staticmethod
    def _log_emergency_transitions(
        events: EventLog,
        snapshot: GroundTruthSnapshot,
        decision: "AdsDecision",
        emergency_was_active: bool,
    ) -> bool:
        if decision.emergency_brake and not emergency_was_active:
            events.record(
                SimulationEvent(
                    kind=EventKind.EMERGENCY_BRAKE,
                    time_s=snapshot.time_s,
                    step_index=snapshot.step_index,
                    details={"perceived_delta_m": decision.perceived_delta_m},
                )
            )
        return decision.emergency_brake

    def _record_collision_halt(
        self,
        events: EventLog,
        snapshot: GroundTruthSnapshot,
        collision_actor: int,
        perceived_delta: float,
    ) -> None:
        """Record the impact snapshot's trace entry and the halt events."""
        true_delta = ground_truth_delta(
            snapshot,
            self.scenario.road,
            self.safety_model,
            target_actor_id=self._current_target_id(),
        )
        events.record_step(
            true_delta=true_delta,
            perceived_delta=perceived_delta,
            ego_speed=snapshot.ego.speed,
        )
        events.record(
            SimulationEvent(
                kind=EventKind.COLLISION,
                time_s=snapshot.time_s,
                step_index=snapshot.step_index,
                details={"actor_id": float(collision_actor)},
            )
        )
        events.record(
            SimulationEvent(
                kind=EventKind.SIMULATION_HALTED,
                time_s=snapshot.time_s,
                step_index=snapshot.step_index,
            )
        )

    def _check_collision(self, snapshot: GroundTruthSnapshot) -> Optional[int]:
        ego = snapshot.ego
        for actor in snapshot.actors:
            if ego.overlaps(actor):
                return actor.actor_id
        return None
