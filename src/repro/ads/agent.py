"""The end-to-end ADS agent: perception -> world model -> planning -> control.

``AdsAgent`` is the victim software stack.  Each camera frame it runs the full
perception pipeline (with LiDAR fusion), plans a longitudinal acceleration, and
smooths it through the actuation controller.  The decision it returns carries
the emergency-braking flag and the perceived safety potential that the
evaluation harness records (paper §VI reads both directly from Apollo).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ads.pid import ActuationSmoother, PIDController
from repro.ads.planning import LongitudinalPlanner, PlannerConfig, PlanningDecision
from repro.ads.world_model import WorldModel
from repro.perception.fusion import FusionConfig
from repro.perception.pipeline import PerceptionConfig, PerceptionOutput, PerceptionSystem
from repro.sensors.camera import CameraFrame
from repro.sensors.gps_imu import EgoPoseEstimate
from repro.sensors.lidar import LidarScan
from repro.sim.road import Road
from repro.sim.scenarios import DrivingScenario

__all__ = ["AdsDecision", "AdsAgent", "build_ads_agent"]


@dataclass(frozen=True)
class AdsDecision:
    """Everything the ADS produced for one control cycle."""

    #: Final (smoothed) acceleration command sent to the vehicle.
    acceleration_mps2: float
    #: Whether emergency braking is engaged this cycle.
    emergency_brake: bool
    #: Safety potential perceived by the planner (inf when the road looks clear).
    perceived_delta_m: float
    #: The raw planning decision.
    planning: PlanningDecision
    #: The perception output used for this cycle.
    perception: PerceptionOutput
    #: The world model used for this cycle.
    world_model: WorldModel


class AdsAgent:
    """The Apollo-like autonomous driving agent."""

    def __init__(
        self,
        road: Road,
        planner_config: PlannerConfig | None = None,
        perception_config: PerceptionConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.road = road
        self.planner_config = planner_config or PlannerConfig()
        self.perception = PerceptionSystem(perception_config or PerceptionConfig(), rng=rng)
        self.planner = LongitudinalPlanner(road, self.planner_config)
        self.speed_pid = PIDController(kp=0.6, ki=0.05, output_min=-1.0, output_max=1.0)
        self.smoother = ActuationSmoother()

    def reset(self) -> None:
        """Reset all stateful components for a fresh run."""
        self.perception.reset()
        self.planner.reset()
        self.speed_pid.reset()
        self.smoother.reset()

    def step(
        self,
        camera_frame: CameraFrame,
        lidar_scan: Optional[LidarScan],
        ego_pose: EgoPoseEstimate,
        dt: float,
    ) -> AdsDecision:
        """Run one full perceive-plan-act cycle."""
        perception_output = self.perception.process(
            camera_frame, lidar_scan, ego_speed_mps=ego_pose.speed_mps
        )
        world_model = WorldModel(
            time_s=camera_frame.time_s,
            ego=ego_pose,
            obstacles=perception_output.obstacles,
        )
        planning = self.planner.plan(world_model)

        # PID speed trim: nudges the planned acceleration so the ego speed
        # converges on the planner's target speed without overshoot.
        speed_error = planning.target_speed_mps - ego_pose.speed_mps
        trim = self.speed_pid.update(speed_error, dt)
        desired = planning.desired_acceleration_mps2
        if not planning.emergency_brake and desired > -self.planner_config.comfortable_decel_mps2:
            desired = float(
                min(
                    max(desired + 0.2 * trim, -self.planner_config.comfortable_decel_mps2),
                    self.planner_config.max_accel_mps2,
                )
            )

        smoothed = self.smoother.smooth(desired, dt, emergency=planning.emergency_brake)
        return AdsDecision(
            acceleration_mps2=smoothed,
            emergency_brake=planning.emergency_brake,
            perceived_delta_m=planning.perceived_delta_m,
            planning=planning,
            perception=perception_output,
            world_model=world_model,
        )


def build_ads_agent(
    scenario: DrivingScenario,
    rng: np.random.Generator,
    fusion: Optional[FusionConfig] = None,
) -> AdsAgent:
    """Construct the victim ADS agent for a scenario.

    The one agent factory: campaign runs and oracle dataset collection both
    build their victims here, so the oracle is calibrated against the victim
    it will face.  Scenarios that model degraded sensing (e.g. DS-7's fog)
    carry a detector override, which is threaded into the agent's perception
    pipeline.  ``fusion`` selects a fusion-policy victim variant; when
    ``None`` the scenario's own ``fusion_config`` (usually ``None`` → the
    late default) applies.
    """
    fusion_config = fusion if fusion is not None else scenario.fusion_config
    perception_kwargs = {}
    if scenario.detector_config is not None:
        perception_kwargs["detector"] = scenario.detector_config
    if fusion_config is not None:
        perception_kwargs["fusion"] = fusion_config
    perception_config = PerceptionConfig(**perception_kwargs) if perception_kwargs else None
    return AdsAgent(
        road=scenario.road,
        planner_config=PlannerConfig(cruise_speed_mps=scenario.cruise_speed_mps),
        perception_config=perception_config,
        rng=rng,
    )
