"""Scalar-vs-batch engine equivalence: the batch engine's golden-trace gate.

The vectorized :class:`~repro.sim.batch.BatchSimulator` is only usable as a
drop-in campaign engine because it reproduces the reference
:class:`~repro.sim.simulator.Simulator` *bit for bit*: same traces, same
events, same halt behaviour, for every scenario and with or without an
attacker in the loop.  These tests pin that contract — no tolerances.

Event comparisons use ``(kind, step_index, time_s)`` signatures rather than
full event details: the two engines run against independently built scenarios
whose actors draw fresh ids from the module-global actor-id counter, so the
``actor_id`` recorded in COLLISION details legitimately differs between the
two arms of one comparison.
"""

import numpy as np
import pytest

from repro.ads.agent import AdsAgent
from repro.ads.planning import PlannerConfig
from repro.core.attack_vectors import AttackVector
from repro.experiments.campaign import (
    AttackerKind,
    CampaignConfig,
    PredictorKind,
    _build_attacker,
    build_ads_agent,
)
from repro.geometry import Vec2
from repro.perception.fusion import FusionConfig, SensorFusion, list_fusion_policies
from repro.perception.pipeline import PerceptionConfig
from repro.sensors.camera import CameraSensor
from repro.sim.batch import BatchRunSpec, BatchSimulator
from repro.sim.events import EventKind
from repro.sim.scenarios import build_scenario, list_scenario_ids
from repro.sim.simulator import Simulator
from repro.sim.waypoints import Waypoint, WaypointRoute

_ADS_SEED = 1
_SIM_SEED = 2
_ATTACK_SEED = 7


def _benign_setup(scenario_id, fusion=None):
    scenario = build_scenario(scenario_id)
    ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED), fusion=fusion)
    return scenario, ads, None, np.random.default_rng(_SIM_SEED)


#: The vector RoboTack is pinned to per scenario (the Table-II pairing; the
#: scenarios outside Table II use Disappear on their in-path target).
_ROBOTACK_VECTORS = {
    "DS-1": AttackVector.DISAPPEAR,
    "DS-2": AttackVector.DISAPPEAR,
    "DS-3": AttackVector.MOVE_IN,
    "DS-4": AttackVector.MOVE_IN,
    "DS-5": AttackVector.DISAPPEAR,
    "DS-6": AttackVector.DISAPPEAR,
    "DS-7": AttackVector.DISAPPEAR,
}


def _attacked_setup(scenario_id, fusion=None, attacker=AttackerKind.RANDOM):
    """The campaign layer's exact seeding chain, with the given attacker
    (RoboTack runs the kinematic oracle, so no training is involved)."""
    if attacker is AttackerKind.ROBOTACK:
        vector = _ROBOTACK_VECTORS[scenario_id]
    else:
        vector = AttackVector.MOVE_IN
    config = CampaignConfig(
        campaign_id=f"eq-{scenario_id}",
        scenario_id=scenario_id,
        attacker=attacker,
        vector=vector,
        n_runs=1,
        seed=_ATTACK_SEED,
        predictor=PredictorKind.KINEMATIC,
    )
    rng = np.random.default_rng(_ATTACK_SEED)
    scenario = build_scenario(scenario_id)
    ads = build_ads_agent(
        scenario, np.random.default_rng(int(rng.integers(0, 2**31 - 1))), fusion=fusion
    )
    attacker = _build_attacker(
        config, scenario, np.random.default_rng(int(rng.integers(0, 2**31 - 1)))
    )
    return scenario, ads, attacker, np.random.default_rng(int(rng.integers(0, 2**31 - 1)))


def _robotack_setup(scenario_id, fusion=None):
    return _attacked_setup(scenario_id, fusion, attacker=AttackerKind.ROBOTACK)


_SETUPS = {"benign": _benign_setup, "attacked": _attacked_setup, "robotack": _robotack_setup}


def _event_signature(result):
    return [(e.kind, e.step_index, e.time_s) for e in result.events.events]


def _assert_bit_identical(scalar, batch):
    assert scalar.events.true_delta_trace == batch.events.true_delta_trace
    assert scalar.events.perceived_delta_trace == batch.events.perceived_delta_trace
    assert scalar.events.ego_speed_trace == batch.events.ego_speed_trace
    assert _event_signature(scalar) == _event_signature(batch)
    assert scalar.steps_executed == batch.steps_executed
    assert scalar.duration_s == batch.duration_s
    assert scalar.halted_on_collision == batch.halted_on_collision
    scalar_ego = scalar.final_snapshot.ego
    batch_ego = batch.final_snapshot.ego
    assert scalar_ego.position.x == batch_ego.position.x
    assert scalar_ego.position.y == batch_ego.position.y
    assert scalar_ego.speed == batch_ego.speed


class TestScalarBatchEquivalence:
    @pytest.mark.parametrize("scenario_id", list_scenario_ids())
    @pytest.mark.parametrize("mode", sorted(_SETUPS))
    def test_single_lane_matches_scalar(self, scenario_id, mode):
        setup = _SETUPS[mode]
        scenario, ads, attacker, rng = setup(scenario_id)
        scalar = Simulator(scenario, ads, attacker=attacker, rng=rng).run()
        scenario, ads, attacker, rng = setup(scenario_id)
        batch = BatchSimulator(
            [BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)]
        ).run()[0]
        _assert_bit_identical(scalar, batch)

    def test_multi_lane_lockstep_is_independent(self):
        """All scenarios in one batch: lanes finish at different steps, and no
        lane's presence perturbs any other lane's result."""
        scenario_ids = list_scenario_ids()
        scalars = []
        for scenario_id in scenario_ids:
            scenario, ads, attacker, rng = _benign_setup(scenario_id)
            scalars.append(Simulator(scenario, ads, attacker=attacker, rng=rng).run())
        specs = []
        for scenario_id in scenario_ids:
            scenario, ads, attacker, rng = _benign_setup(scenario_id)
            specs.append(
                BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)
            )
        batches = BatchSimulator(specs).run()
        assert len(batches) == len(scalars)
        # Mixed durations force lanes to drop out of the lockstep loop early.
        assert len({result.steps_executed for result in batches}) > 1
        for scalar, batch in zip(scalars, batches):
            _assert_bit_identical(scalar, batch)

    def test_empty_batch_is_rejected(self):
        with pytest.raises(ValueError, match="at least one run spec"):
            BatchSimulator([])

    @pytest.mark.parametrize("scenario_id", list_scenario_ids())
    @pytest.mark.parametrize("policy", [p for p in list_fusion_policies() if p != "late"])
    def test_non_default_policies_match_scalar(self, scenario_id, policy):
        """Every non-default fusion policy is bit-identical scalar vs batch
        (the default ``late`` policy is covered by every other test here)."""
        fusion = FusionConfig(policy=policy)
        scenario, ads, attacker, rng = _benign_setup(scenario_id, fusion=fusion)
        scalar = Simulator(scenario, ads, attacker=attacker, rng=rng).run()
        scenario, ads, attacker, rng = _benign_setup(scenario_id, fusion=fusion)
        batch = BatchSimulator(
            [BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)]
        ).run()[0]
        _assert_bit_identical(scalar, batch)

    @pytest.mark.parametrize("policy", [p for p in list_fusion_policies() if p != "late"])
    def test_non_default_policies_match_scalar_under_attack(self, policy):
        """Same gate with the random attacker in the loop (DS-2 hosts the
        pedestrian variant of the perception stack)."""
        fusion = FusionConfig(policy=policy)
        scenario, ads, attacker, rng = _attacked_setup("DS-2", fusion=fusion)
        scalar = Simulator(scenario, ads, attacker=attacker, rng=rng).run()
        scenario, ads, attacker, rng = _attacked_setup("DS-2", fusion=fusion)
        batch = BatchSimulator(
            [BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)]
        ).run()[0]
        _assert_bit_identical(scalar, batch)

    def test_camera_only_agent_is_supported(self):
        """A ``use_lidar=False`` agent resolves to the camera_only policy and
        runs bit-identically on the batch engine (it used to be rejected)."""
        def setup():
            scenario = build_scenario("DS-1")
            ads = AdsAgent(
                road=scenario.road,
                planner_config=PlannerConfig(cruise_speed_mps=scenario.cruise_speed_mps),
                perception_config=PerceptionConfig(use_lidar=False),
                rng=np.random.default_rng(_ADS_SEED),
            )
            return scenario, ads, np.random.default_rng(_SIM_SEED)

        scenario, ads, rng = setup()
        scalar = Simulator(scenario, ads, rng=rng).run()
        scenario, ads, rng = setup()
        batch = BatchSimulator([BatchRunSpec(scenario=scenario, ads=ads, rng=rng)]).run()[0]
        _assert_bit_identical(scalar, batch)

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_spent_attacker_is_no_longer_called(self, engine):
        """Once the attacker is spent the batch engine hands it no further
        frame; the scalar reference loop keeps calling it on every frame."""
        scenario, ads, attacker, rng = _robotack_setup("DS-1")
        calls = []
        process_frame = attacker.process_frame

        def counting_process_frame(frame, *args, **kwargs):
            calls.append(frame.frame_index)
            return process_frame(frame, *args, **kwargs)

        attacker.process_frame = counting_process_frame
        if engine == "scalar":
            result = Simulator(scenario, ads, attacker=attacker, rng=rng).run()
        else:
            result = BatchSimulator(
                [BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)]
            ).run()[0]
        assert attacker.spent
        record = attacker.record
        completion = record.start_frame + record.planned_k_frames - 1
        assert completion < result.steps_executed
        last_call = completion if engine == "batch" else result.steps_executed
        assert calls == list(range(last_call))

    def test_agent_that_already_drove_is_rejected(self):
        """The batch ports start from empty tracker state, so an agent carrying
        tracks from an earlier run would silently diverge from the scalar
        path; it must fail loudly until reset."""
        scenario, ads, attacker, rng = _benign_setup("DS-1")
        Simulator(scenario, ads, attacker=attacker, rng=rng).run()
        assert ads.perception.tracker.tracks
        scenario = build_scenario("DS-1")
        with pytest.raises(ValueError, match="already drove a run"):
            BatchSimulator([BatchRunSpec(scenario=scenario, ads=ads)])
        ads.reset()
        BatchSimulator([BatchRunSpec(scenario=scenario, ads=ads)])

    @pytest.mark.parametrize("frames", [1, "full run"])
    def test_attacker_that_already_processed_frames_is_rejected(self, frames):
        """A reused attacker is rejected whether it is mid-run or spent (a
        spent one would otherwise silently never attack)."""
        scenario, ads, attacker, rng = _robotack_setup("DS-1")
        if frames == "full run":
            Simulator(scenario, ads, attacker=attacker, rng=rng).run()
            assert attacker.spent
        else:
            frame = CameraSensor().capture(scenario.world.snapshot())
            attacker.process_frame(frame, ego_speed_mps=10.0, dt=1.0 / 15.0)
            assert not attacker.spent
        scenario = build_scenario("DS-1")
        ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED))
        with pytest.raises(ValueError, match="already processed frames"):
            BatchSimulator([BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker)])

    def test_custom_fusion_policy_is_rejected(self):
        """The batch engine has plain-float ports of the built-in fusion
        policies only; a third-party policy (here: a SensorFusion subclass it
        has no port for) must fail loudly instead of silently running the
        base-class port and diverging from the scalar path."""

        class CustomFusion(SensorFusion):
            pass

        scenario = build_scenario("DS-1")
        ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED))
        ads.perception.fusion = CustomFusion()
        with pytest.raises(ValueError, match="built-in"):
            BatchSimulator([BatchRunSpec(scenario=scenario, ads=ads)])

    def test_spawn_overlap_halts_batch_lane_at_step_zero(self):
        """The step-0 collision check is mirrored in the batch engine."""
        scenario = build_scenario("DS-1")
        target = next(
            actor
            for actor in scenario.world.actors
            if actor.actor_id == scenario.target_actor_id
        )
        ego = scenario.world.ego
        target.route = WaypointRoute([Waypoint(Vec2(ego.position.x, ego.position.y), 0.0)])
        ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED))
        result = BatchSimulator(
            [BatchRunSpec(scenario=scenario, ads=ads, rng=np.random.default_rng(_SIM_SEED))]
        ).run()[0]
        assert result.halted_on_collision
        assert result.steps_executed == 0
        assert len(result.events.true_delta_trace) == 1
        kinds = [(e.kind, e.step_index) for e in result.events.events]
        assert (EventKind.COLLISION, 0) in kinds
        assert (EventKind.SIMULATION_HALTED, 0) in kinds
