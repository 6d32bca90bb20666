"""Tests of the benchmark's span tracer and its wrappers of the program."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from layers import program_boundaries  # noqa: E402
from tracer import Boundary, Tracer, self_times  # noqa: E402


class _Clock:
    """A clock that reads the next scripted time on every call."""

    def __init__(self, times):
        self._times = iter(times)

    def __call__(self) -> float:
        return next(self._times)


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    tracer = Tracer(clock=_Clock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = tracer.open("root")
    a = tracer.open("a")
    a1 = tracer.open("a1")
    tracer.close(a1)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)

    assert list(tracer.span_parent) == [-1, root, a, root]
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0]
    summary = tracer.summary()
    assert summary["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    # The self times partition the top-level span's interval.
    assert sum(entry["self_s"] for entry in summary.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    starts, ends, parents = [0.0, 1.0, 3.0, 8.0], [10.0, 4.0, 6.0, 12.0], [-1, 0, 0, 0]
    # Children cover [1, 6] and the part of [8, 12] inside the parent, [8, 10].
    assert self_times(starts, ends, parents)[0] == pytest.approx(3.0)


class _Perception:
    def process(self, frame):
        return frame


class _Attacker:
    def __init__(self):
        self.perception = _Perception()

    def process_frame(self, frame):
        return self.perception.process(frame)


class _Agent:
    def __init__(self):
        self.perception = _Perception()

    def step(self, frame):
        return self.perception.process(frame)


def _toy_boundaries():
    return [
        Boundary("perception.process", _Perception, "process"),
        Boundary("core.attacker.process_frame", _Attacker, "process_frame"),
        Boundary("ads.agent.step", _Agent, "step"),
    ]


def test_perception_is_shadow_under_an_attacker_and_victim_otherwise():
    tracer = Tracer()
    tracer.install(_toy_boundaries())
    try:
        attacker, agent = _Attacker(), _Agent()
        for frame in range(3):
            agent.step(attacker.process_frame(frame))
        _Perception().process(0)  # no parent at all: not the malware's
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["perception.shadow.process"]["calls"] == 3
    assert summary["perception.victim.process"]["calls"] == 4
    names = [tracer.names[i] for i in tracer.span_name]
    for index, name in enumerate(names):
        parent = tracer.span_parent[index]
        if name == "perception.shadow.process":
            assert names[parent] == "core.attacker.process_frame"


def test_program_shadow_and_victim_perception_on_a_real_run():
    from repro.core.attack_vectors import AttackVector
    from repro.experiments.campaign import (
        AttackerKind,
        CampaignConfig,
        PredictorKind,
        run_single_experiment_record,
    )

    config = CampaignConfig(
        campaign_id="tracer-test", scenario_id="DS-3", attacker=AttackerKind.ROBOTACK,
        vector=AttackVector.MOVE_IN, n_runs=1, seed=3, predictor=PredictorKind.KINEMATIC,
    )
    tracer = Tracer()
    tracer.install(program_boundaries())
    try:
        record = run_single_experiment_record(config, 0)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    frames = summary["core.attacker.process_frame"]["calls"]
    assert frames == record.steps_executed
    assert summary["perception.shadow.process"]["calls"] == frames
    assert summary["perception.victim.process"]["calls"] == summary["ads.agent.step"]["calls"]
    assert tracer.counts["sim.steps"] == record.steps_executed
    assert tracer.counts["core.oracle.predict.calls"] >= summary["core.oracle.decide"]["calls"]


def _bound_objects(boundaries):
    """Every object a boundary resolves to, wherever the program can reach it."""
    seen = []
    for boundary in boundaries:
        if isinstance(boundary.owner, type):
            seen.append((boundary.owner, boundary.attr, boundary.owner.__dict__[boundary.attr]))
        else:
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None) or {}
                if boundary.attr in namespace:
                    seen.append((module, boundary.attr, namespace[boundary.attr]))
    return seen


def test_uninstall_restores_every_wrapped_object():
    import repro.experiments.campaign as campaign
    import repro.search.loop as loop
    from repro.sim.scenarios import ScenarioVariation, build_scenario

    boundaries = program_boundaries()
    before = _bound_objects(boundaries)
    original = campaign.run_campaigns
    world = build_scenario("DS-1", ScenarioVariation.nominal()).world
    tracer = Tracer()
    tracer.install(boundaries)
    try:
        # Function boundaries are wrapped in every module that imported them.
        assert campaign.run_campaigns is not original
        assert campaign.run_campaigns.__wrapped__ is original
        assert loop.run_campaigns is campaign.run_campaigns
        world.snapshot()
        assert tracer.summary()["sim.world.snapshot"]["calls"] == 1
    finally:
        tracer.uninstall()

    assert not tracer.installed
    assert all(
        (owner.__dict__ if isinstance(owner, type) else vars(owner))[attr] is original
        for owner, attr, original in before
    )
    spans = len(tracer.span_start)
    world.snapshot()
    assert len(tracer.span_start) == spans


def test_failed_install_restores_what_it_had_wrapped():
    before = _Perception.__dict__["process"]
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.install([
            Boundary("perception.process", _Perception, "process"),
            Boundary("missing", _Perception, "no_such_method"),
        ])
    assert _Perception.__dict__["process"] is before
    assert not tracer.installed
