"""Golden-trace determinism tests for the scenario catalog.

One fixed-seed *nominal* (benign, unattacked) run per scenario, asserting a
compact digest: steps executed, the recorded event kinds and step indices,
the rounded minimum ground-truth safety potential, and the rounded final ego
speed.  A second set pins attacked runs (RoboTack with the kinematic oracle,
RoboTack without the safety hijacker, and the random baseline on DS-1
Disappear and DS-3 Move_In) on both engines, including the attack record.  A
third set pins the non-default fusion policies, benign and attacked, on both
engines.  Any refactor that perturbs simulation semantics — sensor seeding,
actor kinematics, the planner, the step loop's snapshot discipline — fails
these loudly instead of silently shifting every campaign statistic.

If a change *intentionally* alters simulation semantics, regenerate the
digests with the snippet in ``GoldenDigest.regenerate`` and say so in the
commit message; do not loosen the comparisons.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.core.attack_vectors import AttackVector
from repro.experiments.campaign import (
    AttackerKind,
    CampaignConfig,
    PredictorKind,
    _build_run_setup,
    build_ads_agent,
)
from repro.perception.fusion import FusionConfig
from repro.sim.batch import BatchRunSpec, BatchSimulator
from repro.sim.scenarios import ScenarioVariation, build_scenario, list_scenario_ids
from repro.sim.simulator import SimulationResult, Simulator

#: Seeds of the two RNG streams a golden run consumes.
_ADS_SEED = 1
_SIM_SEED = 2


@dataclass(frozen=True)
class GoldenDigest:
    """The compact, exactly-reproducible fingerprint of one golden run."""

    steps: int
    #: (event kind value, step index) pairs, in recording order.
    events: Tuple[Tuple[str, int], ...]
    #: min of the ground-truth δ trace, rounded to mm (inf = no in-path target).
    min_delta_m: float
    #: Ego speed on the last recorded step, rounded to mm/s.
    final_speed_mps: float

    @staticmethod
    def regenerate(
        scenario_id: str, fusion: Optional[FusionConfig] = None, engine: str = "scalar"
    ) -> "GoldenDigest":
        """Compute the digest for a scenario (use this to refresh ``GOLDEN``)."""
        result = _golden_run(scenario_id, fusion, engine)
        return GoldenDigest(
            steps=result.steps_executed,
            events=tuple(
                (event.kind.value, event.step_index) for event in result.events.events
            ),
            min_delta_m=round(min(result.events.true_delta_trace), 3),
            final_speed_mps=round(result.events.ego_speed_trace[-1], 3),
        )


def _golden_run(
    scenario_id: str, fusion: Optional[FusionConfig] = None, engine: str = "scalar"
) -> SimulationResult:
    scenario = build_scenario(scenario_id, ScenarioVariation.nominal())
    ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED), fusion=fusion)
    rng = np.random.default_rng(_SIM_SEED)
    if engine == "scalar":
        return Simulator(scenario, ads, rng=rng).run()
    return BatchSimulator([BatchRunSpec(scenario=scenario, ads=ads, rng=rng)]).run()[0]


#: Digest per scenario, generated by ``GoldenDigest.regenerate``.  Benign
#: nominal runs end without collisions or emergency braking in every
#: scenario, so the event tuples are empty — which is itself part of the
#: contract (a scenario whose *benign* run crashes cannot attribute hazards
#: to the attack).
GOLDEN = {
    "DS-1": GoldenDigest(steps=525, events=(), min_delta_m=9.821, final_speed_mps=6.95),
    "DS-2": GoldenDigest(steps=375, events=(), min_delta_m=12.536, final_speed_mps=12.579),
    "DS-3": GoldenDigest(steps=300, events=(), min_delta_m=float("inf"), final_speed_mps=12.51),
    "DS-4": GoldenDigest(steps=300, events=(), min_delta_m=float("inf"), final_speed_mps=12.518),
    "DS-5": GoldenDigest(steps=525, events=(), min_delta_m=9.824, final_speed_mps=6.963),
    "DS-6": GoldenDigest(steps=525, events=(), min_delta_m=5.544, final_speed_mps=6.812),
    "DS-7": GoldenDigest(steps=375, events=(), min_delta_m=5.93, final_speed_mps=9.78),
}


def test_every_builtin_scenario_has_a_golden_digest():
    builtin = [sid for sid in list_scenario_ids() if sid in GOLDEN]
    assert sorted(GOLDEN) == sorted(builtin)
    assert len(GOLDEN) == 7


@pytest.mark.parametrize("scenario_id", sorted(GOLDEN))
def test_golden_trace_digest(scenario_id):
    digest = GoldenDigest.regenerate(scenario_id)
    expected = GOLDEN[scenario_id]
    assert digest == expected, (
        f"{scenario_id}: golden digest drifted — simulation semantics changed.\n"
        f"  expected: {expected}\n"
        f"  got:      {digest}\n"
        "If the change is intentional, regenerate GOLDEN via GoldenDigest.regenerate."
    )


@pytest.mark.parametrize("scenario_id", ["DS-1", "DS-7"])
def test_golden_run_is_bitwise_repeatable(scenario_id):
    first = _golden_run(scenario_id)
    second = _golden_run(scenario_id)
    assert first.events.true_delta_trace == second.events.true_delta_trace
    assert first.events.ego_speed_trace == second.events.ego_speed_trace


# --------------------------------------------------------------------------- #
# Attacked runs
# --------------------------------------------------------------------------- #
# One campaign-seeded run per (scenario, attacker), through the campaign
# layer's own seeding chain, on both engines.  Besides the run's events and
# min δ these pin the attack record, so a change to when the malware attacks,
# for how long, or what it does once its one episode is over fails here.

#: Campaign seed of the attacked golden runs.  At this seed every attacker
#: launches except the DS-3 random baseline, whose pre-drawn target is out of
#: view at its start frame, so that case pins the fizzled episode.
_ATTACK_CAMPAIGN_SEED = 6


@dataclass(frozen=True)
class AttackedDigest:
    """The fingerprint of one attacked golden run."""

    steps: int
    #: (event kind value, step index) pairs, in recording order.
    events: Tuple[Tuple[str, int], ...]
    #: min ground-truth δ from the attack start, rounded to mm.
    min_delta_m: float
    #: The attack record's start frame (None = never launched), K, and the
    #: number of frames actually perturbed.
    start_frame: Optional[int]
    planned_k_frames: int
    frames_perturbed: int

    @classmethod
    def of(cls, result: SimulationResult, attacker) -> "AttackedDigest":
        record = attacker.record
        return cls(
            steps=result.steps_executed,
            events=tuple(
                (event.kind.value, event.step_index) for event in result.events.events
            ),
            min_delta_m=round(result.min_true_delta_from_attack(), 3),
            start_frame=record.start_frame,
            planned_k_frames=record.planned_k_frames,
            frames_perturbed=record.frames_perturbed,
        )


def _attacked_config(
    scenario_id: str,
    vector: AttackVector,
    kind: AttackerKind,
    fusion: Optional[FusionConfig] = None,
):
    return CampaignConfig(
        campaign_id=f"golden-{scenario_id}-{kind.value}",
        scenario_id=scenario_id,
        attacker=kind,
        vector=vector,
        n_runs=1,
        seed=_ATTACK_CAMPAIGN_SEED,
        predictor=PredictorKind.KINEMATIC,
        fusion=fusion,
    )


_ROBOTACK = AttackerKind.ROBOTACK
_NO_SH = AttackerKind.ROBOTACK_NO_SH
_RANDOM = AttackerKind.RANDOM
_DISAPPEAR = ("DS-1", AttackVector.DISAPPEAR)
_MOVE_IN = ("DS-3", AttackVector.MOVE_IN)

#: Digest per ((scenario, vector), attacker), recorded before attackers went
#: dormant after their episode; identical on the scalar and batch engines.
ATTACKED_GOLDEN = {
    (_DISAPPEAR, _ROBOTACK): AttackedDigest(
        steps=525, events=(("attack_started", 5), ("attack_ended", 28)),
        min_delta_m=9.788, start_frame=6, planned_k_frames=24, frames_perturbed=24,
    ),
    (_DISAPPEAR, _NO_SH): AttackedDigest(
        steps=525, events=(("attack_started", 117), ("attack_ended", 153)),
        min_delta_m=4.699, start_frame=118, planned_k_frames=37, frames_perturbed=37,
    ),
    (_DISAPPEAR, _RANDOM): AttackedDigest(
        steps=525, events=(("attack_started", 147), ("attack_ended", 183)),
        min_delta_m=4.677, start_frame=148, planned_k_frames=37, frames_perturbed=37,
    ),
    (_MOVE_IN, _ROBOTACK): AttackedDigest(
        steps=300, events=(("attack_started", 35), ("attack_ended", 64)),
        min_delta_m=float("inf"), start_frame=36, planned_k_frames=30, frames_perturbed=30,
    ),
    (_MOVE_IN, _NO_SH): AttackedDigest(
        steps=300, events=(("attack_started", 117), ("attack_ended", 153)),
        min_delta_m=float("inf"), start_frame=118, planned_k_frames=37, frames_perturbed=37,
    ),
    (_MOVE_IN, _RANDOM): AttackedDigest(
        steps=300, events=(), min_delta_m=float("inf"),
        start_frame=None, planned_k_frames=0, frames_perturbed=0,
    ),
}


def _attacked_run(
    case, engine: str, fusion: Optional[FusionConfig] = None, run_index: int = 0
) -> AttackedDigest:
    (scenario_id, vector), kind = case
    config = _attacked_config(scenario_id, vector, kind, fusion)
    setup = _build_run_setup(config, run_index)
    if engine == "scalar":
        result = Simulator(
            setup.scenario, setup.ads, config=config.simulation,
            attacker=setup.attacker, rng=setup.sim_rng,
        ).run()
    else:
        spec = BatchRunSpec(
            scenario=setup.scenario, ads=setup.ads, attacker=setup.attacker, rng=setup.sim_rng
        )
        result = BatchSimulator([spec], config.simulation).run()[0]
    return AttackedDigest.of(result, setup.attacker)


def _case_id(case) -> str:
    (scenario_id, vector), kind = case
    return f"{scenario_id}-{vector.value}-{kind.value}"


@pytest.mark.parametrize("engine", ["scalar", "batch"])
@pytest.mark.parametrize("case", sorted(ATTACKED_GOLDEN, key=_case_id), ids=_case_id)
def test_attacked_golden_digest(case, engine):
    digest = _attacked_run(case, engine)
    expected = ATTACKED_GOLDEN[case]
    assert digest == expected, (
        f"{_case_id(case)} ({engine}): attacked golden digest drifted.\n"
        f"  expected: {expected}\n"
        f"  got:      {digest}"
    )


def test_attacked_golden_digests_in_one_batch():
    """All six attacked runs as lanes of one batch: spent, fizzled and live
    lanes share the lockstep loop without disturbing one another."""
    cases = sorted(ATTACKED_GOLDEN, key=_case_id)
    setups = []
    for (scenario_id, vector), kind in cases:
        config = _attacked_config(scenario_id, vector, kind)
        setups.append(_build_run_setup(config, 0))
    results = BatchSimulator([
        BatchRunSpec(
            scenario=setup.scenario, ads=setup.ads, attacker=setup.attacker, rng=setup.sim_rng
        )
        for setup in setups
    ]).run()
    for case, setup, result in zip(cases, setups, results):
        assert AttackedDigest.of(result, setup.attacker) == ATTACKED_GOLDEN[case], _case_id(case)


# --------------------------------------------------------------------------- #
# Non-default fusion policies
# --------------------------------------------------------------------------- #
# The digests above run the default ``late`` victim.  These pin the other
# built-in policies on both engines, one benign and one attacked run each, so
# a change to a policy's arithmetic fails here even though the scalar and
# batch engines share one implementation of it.

_BENIGN_POLICY_SCENARIO = "DS-2"
_POLICY_ATTACK_CASE = (("DS-2", AttackVector.MOVE_IN), _RANDOM)
#: At the attacked campaign seed, run 0's random target on DS-2 is out of
#: view at its start frame; run 1 launches, so the policy digests pin a live
#: episode (during which ``consistency_gated`` and ``late`` diverge).
_POLICY_ATTACK_RUN_INDEX = 1

#: Digests recorded before the batch engine ran the policy objects themselves
#: (when it still carried its own port of each); identical on both engines.
POLICY_GOLDEN = {
    "camera_only": GoldenDigest(
        steps=375, events=(), min_delta_m=12.151, final_speed_mps=12.577
    ),
    "lidar_only": GoldenDigest(
        steps=375, events=(("emergency_brake", 66),), min_delta_m=1.389,
        final_speed_mps=12.554,
    ),
    "consistency_gated": GoldenDigest(
        steps=375, events=(), min_delta_m=12.536, final_speed_mps=12.579
    ),
}

POLICY_ATTACKED_GOLDEN = {
    "camera_only": AttackedDigest(
        steps=375, events=(("attack_started", 46), ("attack_ended", 115)),
        min_delta_m=7.913, start_frame=47, planned_k_frames=70, frames_perturbed=70,
    ),
    "lidar_only": AttackedDigest(
        steps=375,
        events=(("attack_started", 46), ("emergency_brake", 60), ("attack_ended", 115)),
        min_delta_m=1.78, start_frame=47, planned_k_frames=70, frames_perturbed=70,
    ),
    "consistency_gated": AttackedDigest(
        steps=375, events=(("attack_started", 46), ("attack_ended", 115)),
        min_delta_m=8.721, start_frame=47, planned_k_frames=70, frames_perturbed=70,
    ),
}


@pytest.mark.parametrize("engine", ["scalar", "batch"])
@pytest.mark.parametrize("policy", sorted(POLICY_GOLDEN))
def test_policy_golden_digest(policy, engine):
    digest = GoldenDigest.regenerate(
        _BENIGN_POLICY_SCENARIO, FusionConfig(policy=policy), engine
    )
    assert digest == POLICY_GOLDEN[policy], f"{policy} ({engine}): got {digest}"


@pytest.mark.parametrize("engine", ["scalar", "batch"])
@pytest.mark.parametrize("policy", sorted(POLICY_ATTACKED_GOLDEN))
def test_policy_attacked_golden_digest(policy, engine):
    digest = _attacked_run(
        _POLICY_ATTACK_CASE, engine, FusionConfig(policy=policy), _POLICY_ATTACK_RUN_INDEX
    )
    assert digest == POLICY_ATTACKED_GOLDEN[policy], f"{policy} ({engine}): got {digest}"
