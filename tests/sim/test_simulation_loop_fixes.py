"""Regression tests for the simulation-loop bookkeeping fixes.

Pins the three loop-level guarantees (in both engines where applicable):

* a scenario whose actors spawn already overlapping halts at step 0 instead
  of driving the ego through them for the full duration;
* on a collision halt the impact snapshot still gets a trace entry, so the
  traces are exactly one entry longer than ``steps_executed`` and
  ``min_true_delta_from_attack`` sees the value at impact;
* a run that ends (duration elapsed or collision halt) while an attack is
  still active closes the interval with a final ``ATTACK_ENDED`` event.
"""

import numpy as np
import pytest

from repro.experiments.campaign import build_ads_agent
from repro.geometry import Vec2
from repro.sim.batch import BatchRunSpec, BatchSimulator
from repro.sim.events import EventKind
from repro.sim.scenarios import build_scenario
from repro.sim.simulator import Simulator
from repro.sim.waypoints import Waypoint, WaypointRoute

_ADS_SEED = 1
_SIM_SEED = 2


def _move_target(scenario, x, y):
    """Park the scenario's target actor at (x, y), stationary."""
    target = next(
        actor
        for actor in scenario.world.actors
        if actor.actor_id == scenario.target_actor_id
    )
    target.route = WaypointRoute([Waypoint(Vec2(x, y), 0.0)])
    return target


def _overlap_scenario():
    scenario = build_scenario("DS-1")
    ego = scenario.world.ego
    _move_target(scenario, ego.position.x, ego.position.y)
    return scenario


def _imminent_collision_scenario():
    """A stationary vehicle parked inside the ego's stopping distance."""
    scenario = build_scenario("DS-1")
    ego = scenario.world.ego
    _move_target(scenario, ego.position.x + 10.0, ego.position.y)
    return scenario


class _AlwaysOnAttacker:
    """Minimal CameraAttacker whose attack never ends on its own."""

    target_actor_id = None
    spent = False

    def __init__(self):
        self.attack_active = False

    def process_frame(self, frame, ego_speed_mps, dt):
        self.attack_active = True
        return frame


def _kinds(result):
    return [(event.kind, event.step_index) for event in result.events.events]


class TestSpawnOverlapHalt:
    def test_scalar_halts_at_step_zero(self):
        scenario = _overlap_scenario()
        ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED))
        result = Simulator(scenario, ads, rng=np.random.default_rng(_SIM_SEED)).run()
        assert result.halted_on_collision
        assert result.steps_executed == 0
        assert len(result.events.true_delta_trace) == 1
        assert (EventKind.COLLISION, 0) in _kinds(result)
        assert (EventKind.SIMULATION_HALTED, 0) in _kinds(result)


class TestCollisionStepTraceEntry:
    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_impact_snapshot_is_traced(self, engine):
        scenario = _imminent_collision_scenario()
        ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED))
        rng = np.random.default_rng(_SIM_SEED)
        if engine == "scalar":
            result = Simulator(scenario, ads, rng=rng).run()
        else:
            result = BatchSimulator(
                [BatchRunSpec(scenario=scenario, ads=ads, rng=rng)]
            ).run()[0]
        assert result.halted_on_collision
        assert result.steps_executed > 0
        # One trace entry per pre-step snapshot plus one for the impact
        # snapshot the loop previously dropped on the floor.
        assert len(result.events.true_delta_trace) == result.steps_executed + 1
        assert len(result.events.perceived_delta_trace) == result.steps_executed + 1
        assert len(result.events.ego_speed_trace) == result.steps_executed + 1
        assert (EventKind.COLLISION, result.steps_executed) in _kinds(result)
        # The impact entry reflects the braking ego at the moment of contact.
        assert result.events.ego_speed_trace[-1] < result.events.ego_speed_trace[0]


class TestOpenAttackIntervalClosed:
    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_run_end_closes_active_attack(self, engine):
        scenario = build_scenario("DS-1")
        ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED))
        attacker = _AlwaysOnAttacker()
        rng = np.random.default_rng(_SIM_SEED)
        if engine == "scalar":
            result = Simulator(scenario, ads, attacker=attacker, rng=rng).run()
        else:
            result = BatchSimulator(
                [BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)]
            ).run()[0]
        kinds = [event.kind for event in result.events.events]
        assert kinds.count(EventKind.ATTACK_STARTED) == 1
        assert kinds.count(EventKind.ATTACK_ENDED) == 1
        # Started and ended are properly ordered and the interval is closed at
        # the final snapshot, not left dangling.
        started = next(
            e for e in result.events.events if e.kind is EventKind.ATTACK_STARTED
        )
        ended = next(
            e for e in result.events.events if e.kind is EventKind.ATTACK_ENDED
        )
        assert started.step_index < ended.step_index
        assert ended.step_index == result.steps_executed
