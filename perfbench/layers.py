"""The program's layer boundaries and the per-layer metrics read from them.

Each :class:`~tracer.Boundary` names a public call site of one layer.  The
metric names are the ones ``BENCHMARK.json`` lists under ``per_layer``; each
is reported on every workload, as ``0`` where the workload never enters the
layer.
"""

from __future__ import annotations

import inspect
from typing import Dict, List

from tracer import Boundary, Tracer

__all__ = ["program_boundaries", "layer_metrics", "LAYER_UNITS"]


def _count_steps(tracer: Tracer, args, kwargs, result) -> None:
    results = result if isinstance(result, list) else [result]
    tracer.count("sim.steps", sum(item.steps_executed for item in results))


def _count_collection(signature: inspect.Signature):
    def record(tracer: Tracer, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        points = (
            len(bound.arguments["delta_inject_values"])
            * len(bound.arguments["k_values"])
            * int(bound.arguments["repeats"])
        )
        tracer.count("training.collect.points", points)
        tracer.count("training.collect.samples", result.n_samples)

    return record


def program_boundaries() -> List[Boundary]:
    """Every wrapped boundary, outermost layers first."""
    from repro.ads.agent import AdsAgent
    from repro.core import training
    from repro.core.robotack import CameraMitmAttackerBase
    from repro.core.safety_hijacker import (
        KinematicSafetyPredictor,
        NeuralSafetyPredictor,
        SafetyHijacker,
    )
    from repro.core.trajectory_hijacker import TrajectoryHijacker
    from repro.experiments import campaign, tables
    from repro.experiments.store import ExperimentStore
    from repro.perception.pipeline import PerceptionSystem
    from repro.search import loop, samplers
    from repro.sensors.camera import CameraSensor
    from repro.sensors.gps_imu import GpsImuSensor
    from repro.sensors.lidar import LidarSensor
    from repro.sim.batch import BatchSimulator
    from repro.sim.simulator import Simulator
    from repro.sim.world import World

    boundaries = [
        # The public entry points the workloads call.
        Boundary("campaign.run_campaigns", campaign, "run_campaigns"),
        Boundary("training.train_and_register", training, "train_and_register_predictor"),
        Boundary("tables.table2_from_store", tables, "table2_from_store"),
        Boundary("search.run", loop.FalsificationLoop, "run"),
        Boundary("campaign.run_campaign", campaign, "run_campaign"),
        Boundary("training.collect", training, "collect_safety_dataset",
                 on_result=_count_collection(
                     inspect.signature(training.collect_safety_dataset))),
        Boundary("training.train", training, "train_neural_safety_predictor"),
        Boundary("sim.simulator.run", Simulator, "run", on_result=_count_steps),
        Boundary("sim.batch.run", BatchSimulator, "run", on_result=_count_steps),
        Boundary("sim.world.step", World, "step"),
        Boundary("sim.world.snapshot", World, "snapshot"),
        Boundary("sensors.camera.capture", CameraSensor, "capture"),
        Boundary("sensors.lidar.scan", LidarSensor, "scan"),
        Boundary("sensors.gps_imu.measure", GpsImuSensor, "measure"),
        Boundary("ads.agent.step", AdsAgent, "step"),
        # Named perception.victim.* or perception.shadow.* by its parent span.
        Boundary("perception.process", PerceptionSystem, "process"),
        Boundary("core.attacker.process_frame", CameraMitmAttackerBase, "process_frame"),
        Boundary("core.oracle.decide", SafetyHijacker, "decide"),
        Boundary("core.oracle.predict", NeuralSafetyPredictor, "predict_delta", span=False),
        Boundary("core.oracle.predict", KinematicSafetyPredictor, "predict_delta", span=False),
        Boundary("core.hijacker.perturb_frame", TrajectoryHijacker, "perturb_frame"),
        Boundary("store.append", ExperimentStore, "append"),
        Boundary("store.aggregate", ExperimentStore, "aggregate"),
        Boundary("store.load_records", ExperimentStore, "load_records"),
        Boundary("store.checkpoint", ExperimentStore, "write_manifest"),
        Boundary("store.checkpoint", ExperimentStore, "write_search_manifest"),
        Boundary("store.checkpoint", ExperimentStore, "save_search_state"),
        Boundary("store.checkpoint", ExperimentStore, "append_search_iteration"),
        Boundary("store.dataset.append", ExperimentStore, "append_dataset_point"),
        Boundary("store.publish_model", ExperimentStore, "publish_model"),
    ]
    for sampler in (samplers.CrossEntropySampler, samplers.RandomSearchSampler,
                    samplers.BanditSampler):
        boundaries.append(Boundary("search.propose", sampler, "propose"))
        boundaries.append(Boundary("search.observe", sampler, "observe"))
    return boundaries


#: Every per-layer metric with its unit, in report order.
LAYER_UNITS: Dict[str, str] = {
    "sim.simulator.run.self_s": "s",
    "sim.world.step.self_s": "s",
    "sim.world.snapshot.self_s": "s",
    "sim.steps": "count",
    "sim.batch.run.self_s": "s",
    "sensors.camera.capture.self_s": "s",
    "sensors.camera.capture.calls": "count",
    "sensors.lidar.scan.self_s": "s",
    "sensors.lidar.scan.calls": "count",
    "sensors.gps_imu.measure.self_s": "s",
    "sensors.gps_imu.measure.calls": "count",
    "ads.agent.step.self_s": "s",
    "perception.victim.process.self_s": "s",
    "perception.shadow.process.self_s": "s",
    "core.attacker.process_frame.self_s": "s",
    "core.attacker.process_frame.calls": "count",
    "core.oracle.decide.self_s": "s",
    "core.oracle.predict.calls": "count",
    "core.hijacker.perturb_frame.self_s": "s",
    "core.attacker.us_per_frame": "us",
    "core.attack_launched_frac": "ratio",
    "training.collect.wall_s": "s",
    "training.collect.points": "count",
    "training.samples_per_point": "ratio",
    "training.train.wall_s": "s",
    "store.append.calls": "count",
    "store.append.self_s": "s",
    "store.aggregate.self_s": "s",
    "store.load_records.self_s": "s",
    "store.checkpoint.self_s": "s",
    "store.dataset.append.self_s": "s",
    "store.publish_model.self_s": "s",
    "store.bytes_written": "bytes",
    "campaign.run_campaign.self_s": "s",
    "search.propose.self_s": "s",
    "search.observe.self_s": "s",
    "search.iterations": "count",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.coverage": "ratio",
    "trace.untraced_rep_s": "s",
    "trace.traced_rep_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def layer_metrics(
    summary: Dict[str, Dict[str, float]],
    counts: Dict[str, float],
    launched: int,
    attacked: int,
    bytes_written: int,
) -> Dict[str, float]:
    """The layer half of :data:`LAYER_UNITS` from one traced section."""

    def span(name: str, field: str) -> float:
        return float(summary.get(name, {}).get(field, 0.0))

    metrics: Dict[str, float] = {}
    for name in LAYER_UNITS:
        if name.startswith("trace."):
            continue
        if name.endswith(".self_s"):
            metrics[name] = span(name[: -len(".self_s")], "self_s")
        elif name.endswith(".wall_s"):
            metrics[name] = span(name[: -len(".wall_s")], "total_s")
        elif name.endswith(".calls"):
            metrics[name] = float(counts.get(name, span(name[: -len(".calls")], "calls")))
    frames = span("core.attacker.process_frame", "calls")
    points = counts.get("training.collect.points", 0)
    metrics.update(
        {
            "sim.steps": float(counts.get("sim.steps", 0)),
            "core.attacker.us_per_frame": (
                1e6 * span("core.attacker.process_frame", "total_s") / frames if frames else 0.0
            ),
            "core.attack_launched_frac": launched / attacked if attacked else 0.0,
            "training.collect.points": float(points),
            "training.samples_per_point": (
                counts.get("training.collect.samples", 0) / points if points else 0.0
            ),
            "store.bytes_written": float(bytes_written),
            "search.iterations": span("search.observe", "calls"),
        }
    )
    return metrics
