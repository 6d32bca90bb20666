"""The benchmark's workloads: inputs generated from the seed, the timed call
into the program's public API, and the checks on what it produced.

Every workload drives the program in one process through the serial
executor: on a two-core machine a process pool would measure the scheduler
rather than the program.  A
repetition runs against a fresh store root after ``clear_caches()``, so it
never reads a predictor, dataset or campaign that an earlier repetition
produced; only the one-time :meth:`Workload.setup` may pre-build, and its
time is reported as ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List

__all__ = ["WORKLOADS", "Workload", "RepOutput", "tree_bytes"]


def tree_bytes(root: Path) -> int:
    """Total size of the regular files under ``root``."""
    if not root.exists():
        return 0
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def _canonical(payload: object) -> str:
    # NaN-valued fields (no attack launched) serialize as the NaN token, so
    # two NaN fields compare equal as text where they would not as floats.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def _digest(parts: List[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


@dataclass
class RepOutput:
    """What one repetition produced, for the checks and the trace."""

    root: Path
    runs: int
    digest: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    launched: int = 0
    attacked: int = 0
    #: Bytes the benchmark copied into ``root`` before the repetition.
    copied: int = 0


class Workload:
    """One named workload.  Subclasses fill in the four hooks."""

    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path):
        from repro.runtime import SerialExecutor

        self.seed = seed
        self.workdir = workdir
        self.executor = SerialExecutor()

    def settings(self) -> Dict[str, object]:
        """The generator settings printed with the results."""
        raise NotImplementedError

    def input_key(self) -> str:
        """Content address of the generated inputs (keys the recorded digests)."""
        raise NotImplementedError

    def setup(self) -> None:
        """One-time pre-build shared by every repetition (counted in setup_s)."""

    def prepare(self, root: Path) -> int:
        """Per-repetition set-up of a fresh store root; returns bytes copied in."""
        root.mkdir(parents=True)
        return 0

    def run(self, root: Path) -> object:
        """The timed call into the program; returns its in-memory result."""
        raise NotImplementedError

    def check(self, root: Path, result: object) -> RepOutput:
        """Read the outputs back, digest them and check every invariant."""
        raise NotImplementedError


# --------------------------------------------------------------------- #
# Campaign workloads: one seeded campaign streamed into a fresh store
# --------------------------------------------------------------------- #


class _CampaignWorkload(Workload):
    n_runs = 0
    batch_size = 0

    def config(self):
        raise NotImplementedError

    def settings(self) -> Dict[str, object]:
        config = self.config()
        return {
            "scenario": config.scenario_id,
            "attacker": config.attacker.value,
            "vector": config.vector.name if config.vector else None,
            "predictor": config.predictor.value,
            "n_runs": config.n_runs,
            "campaign_seed": config.seed,
            "engine": "batch",
            "batch_size": self.batch_size,
            "executor": "serial",
        }

    def input_key(self) -> str:
        from repro.experiments.store import config_hash

        return config_hash(self.config())

    def run(self, root: Path) -> object:
        from repro.experiments import campaign, tables
        from repro.experiments.store import ExperimentStore

        campaign.clear_caches()
        store = ExperimentStore(root)
        config = self.config()
        results = campaign.run_campaigns(
            [config], executor=self.executor, store=store,
            engine="batch", batch_size=self.batch_size,
        )
        rows = tables.table2_from_store(store, [config])
        return results, rows

    def check(self, root: Path, result: object) -> RepOutput:
        from repro.experiments.store import ExperimentStore, config_hash
        from repro.experiments.tables import table2_rows

        results, rows = result
        config = self.config()
        output = RepOutput(root=root, runs=config.n_runs)
        reloaded = ExperimentStore(root)
        records = reloaded.load_records(config_hash(config), with_traces=True)
        if [record.run_index for record in records] != list(range(config.n_runs)):
            output.problems.append(
                f"store holds runs {[r.run_index for r in records]}, "
                f"expected 0..{config.n_runs - 1}"
            )
        in_memory = [_canonical(asdict(run)) for run in results[0].runs]
        from_store = [_canonical(asdict(run)) for run in reloaded.campaign_result(config).runs]
        if in_memory != from_store:
            output.problems.append("store-reloaded runs differ from the returned campaign")
        if [asdict(row) for row in rows] != [asdict(row) for row in table2_rows(results)]:
            output.problems.append("Table-II row from the store differs from the in-memory one")
        parts = []
        for record in records:
            parts.append(_canonical(record.to_json_dict()).encode("utf-8"))
            for trace in (record.true_delta_trace, record.perceived_delta_trace,
                          record.ego_speed_trace):
                parts.append(trace.tobytes())
        output.digest = {
            "records": _digest(parts),
            "table2": [_canonical(asdict(row)) for row in rows],
        }
        if config.attacker.value != "none":
            output.attacked = len(results[0].runs)
            output.launched = sum(1 for run in results[0].runs if run.attack_launched)
        return output


class RobotackWarm(_CampaignWorkload):
    name = "robotack-warm"
    why = (
        "Attacked DS-1 Disappear campaign of 128 runs on the batch engine at N=64 with "
        "the NN oracle trained in setup: the malware's shadow perception and oracle "
        "run on every frame"
    )
    n_runs = 128
    batch_size = 64

    def config(self):
        from repro.core.attack_vectors import AttackVector
        from repro.experiments.campaign import AttackerKind, CampaignConfig, PredictorKind

        return CampaignConfig(
            campaign_id=f"{self.name}-s{self.seed}",
            scenario_id="DS-1",
            attacker=AttackerKind.ROBOTACK,
            vector=AttackVector.DISAPPEAR,
            n_runs=self.n_runs,
            seed=self.seed,
            predictor=PredictorKind.NEURAL,
        )

    @property
    def template(self) -> Path:
        return self.workdir / "oracle-template"

    def setup(self) -> None:
        # Train and register the oracle under the exact spec the campaign
        # resolves (grid of the scenario, collection seed 7, two repeats, the
        # config's epochs), so the timed repetitions load it from the store.
        from repro.core import training
        from repro.experiments.campaign import training_grid_for
        from repro.experiments.store import ExperimentStore

        config = self.config()
        delta_grid, k_grid = training_grid_for(config.scenario_id)
        training.train_and_register_predictor(
            config.scenario_id, config.vector, delta_grid, k_grid,
            seed=7, repeats=2, epochs=config.training_epochs,
            executor=self.executor, store=ExperimentStore(self.template),
        )

    def prepare(self, root: Path) -> int:
        root.mkdir(parents=True)
        shutil.copytree(self.template / "models", root / "models")
        return tree_bytes(root)

    def check(self, root: Path, result: object) -> RepOutput:
        from repro.experiments.store import ExperimentStore

        output = super().check(root, result)
        template_models = ExperimentStore(self.template).model_hashes()
        if ExperimentStore(root).model_hashes() != template_models:
            output.problems.append(
                "the campaign trained its own oracle instead of loading the registered one"
            )
        return output


class BenignWide(_CampaignWorkload):
    name = "benign-wide"
    why = (
        "DS-1 with no attacker on the batch engine at N=256: only the victim stack "
        "and the lockstep driver run, so attacker or collection work must not move it"
    )
    n_runs = 256
    batch_size = 256

    def config(self):
        from repro.experiments.campaign import AttackerKind, CampaignConfig

        return CampaignConfig(
            campaign_id=f"{self.name}-s{self.seed}",
            scenario_id="DS-1",
            attacker=AttackerKind.NONE,
            n_runs=self.n_runs,
            seed=self.seed,
        )


# --------------------------------------------------------------------- #
# Falsification search to its target
# --------------------------------------------------------------------- #


class FalsifyDs3(Workload):
    name = "falsify-ds3"
    why = (
        "Pinned CE search on DS-3 Move_In run to its 0.95 target: many small "
        "campaigns, filtered aggregates and checkpoints per iteration"
    )
    #: The seeded problem of benchmarks/test_bench_search.py.  The workload
    #: seed does not enter it: runs-to-target at one search seed spreads from
    #: 320 to 640 runs across seeds, which no bound on a median could hold.
    search_seed = 1
    runs_per_point = 20
    batch_points = 8
    budget_runs = 1600
    target = 0.95

    def spec(self):
        from repro.core.attack_vectors import AttackVector
        from repro.experiments.campaign import AttackerKind, CampaignConfig, PredictorKind
        from repro.search import SearchSpec
        from repro.sim.sweeps import ParameterSpace, Uniform

        base = CampaignConfig(
            campaign_id="bench-search",
            scenario_id="DS-3",
            attacker=AttackerKind.ROBOTACK,
            vector=AttackVector.MOVE_IN,
            n_runs=self.runs_per_point,
            seed=2020,
            predictor=PredictorKind.KINEMATIC,
        )
        space = ParameterSpace(
            {
                "detector.sigma_scale": Uniform(0.25, 12.0),
                "detector.misdetection_scale": Uniform(0.5, 8.0),
            }
        )
        return SearchSpec(
            base=base, space=space, sampler="ce", objective="attack_success",
            budget_runs=self.budget_runs, batch_points=self.batch_points,
            seed=self.search_seed, target_score=self.target,
            sampler_options={"min_sigma": 0.12, "smoothing": 0.5},
        )

    def settings(self) -> Dict[str, object]:
        return {
            "scenario": "DS-3",
            "vector": "MOVE_IN",
            "predictor": "kinematic",
            "sampler": "ce",
            "search_seed": self.search_seed,
            "runs_per_point": self.runs_per_point,
            "batch_points": self.batch_points,
            "budget_runs": self.budget_runs,
            "target": self.target,
            "engine": "batch",
            "executor": "serial",
        }

    def input_key(self) -> str:
        from repro.search import search_spec_hash

        return search_spec_hash(self.spec())

    def run(self, root: Path) -> object:
        from repro.experiments import campaign
        from repro.experiments.store import ExperimentStore
        from repro.search import FalsificationLoop

        campaign.clear_caches()
        loop = FalsificationLoop(
            self.spec(), ExperimentStore(root), executor=self.executor, engine="batch"
        )
        return loop.run()

    def check(self, root: Path, result: object) -> RepOutput:
        from repro.experiments.store import ExperimentStore

        output = RepOutput(root=root, runs=result.runs_spent)
        if not result.reached_target:
            output.problems.append(f"search stopped after {result.runs_spent} runs without the target")
        if not result.best_score >= self.target:
            output.problems.append(f"best score {result.best_score} is below the target")
        reloaded = ExperimentStore(root)
        state = reloaded.load_search_state(result.search_hash) or {}
        if (state.get("runs_spent"), state.get("reached_target")) != (
            result.runs_spent, result.reached_target
        ):
            output.problems.append("stored search state differs from the returned result")
        batch = reloaded.aggregate()
        for point in result.points:
            if _canonical(asdict(batch.summary(point.config_hash))) != _canonical(asdict(point.summary)):
                output.problems.append(f"stored outcomes of {point.campaign_id} differ from the search's")
                break
        iterations = reloaded.load_search_iterations(result.search_hash)
        if len(iterations) != result.iterations_completed:
            output.problems.append("stored iteration log is incomplete")
        output.digest = {
            "runs_to_target": result.runs_spent,
            "best_score": result.best_score,
            "best_assignment": _canonical(result.best_assignment),
            "iterations": _digest([_canonical(record).encode("utf-8") for record in iterations]),
        }
        outcomes = [o for by_index in batch.outcomes.values() for o in by_index.values()]
        output.attacked = len(outcomes)
        output.launched = sum(1 for outcome in outcomes if outcome.attack_launched)
        return output


WORKLOADS = {workload.name: workload for workload in (RobotackWarm, BenignWide, FalsifyDs3)}
