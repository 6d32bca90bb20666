"""Determinism and scratch-store tests for the parallel campaign runtime.

The core invariant of the refactor: a campaign fanned out over worker
processes yields *element-wise identical* results to the serial path for the
same ``CampaignConfig`` seed.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.attack_vectors import AttackVector
from repro.experiments.campaign import (
    AttackerKind,
    CampaignConfig,
    PredictorKind,
    clear_caches,
    run_campaign,
    run_campaigns,
)
from repro.experiments import campaign as campaign_module
from repro.experiments.results import RunResult
from repro.runtime import ParallelExecutor, SerialExecutor


def assert_runs_identical(a: RunResult, b: RunResult) -> None:
    """Field-wise equality with NaN == NaN (absent measurements match)."""
    for name in RunResult.__dataclass_fields__:
        left, right = getattr(a, name), getattr(b, name)
        if isinstance(left, float) and math.isnan(left):
            assert isinstance(right, float) and math.isnan(right), name
        else:
            assert left == right, (name, left, right)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestSerialParallelDeterminism:
    def test_golden_campaign_identical(self, tmp_path):
        config = CampaignConfig(
            campaign_id="det-none-ds1",
            scenario_id="DS-1",
            attacker=AttackerKind.NONE,
            n_runs=4,
            seed=17,
        )
        serial = run_campaign(
            config, executor=SerialExecutor(), store=tmp_path / "serial"
        )
        with ParallelExecutor(max_workers=2) as executor:
            parallel = run_campaign(
                config, executor=executor, store=tmp_path / "parallel"
            )
        assert serial.n_runs == parallel.n_runs == 4
        for left, right in zip(serial.runs, parallel.runs):
            assert_runs_identical(left, right)

    def test_attacked_campaign_identical(self, tmp_path):
        # The kinematic oracle avoids NN training cost while still exercising
        # the predictor hand-off from parent to workers.
        config = CampaignConfig(
            campaign_id="det-robotack-ds2",
            scenario_id="DS-2",
            attacker=AttackerKind.ROBOTACK,
            vector=AttackVector.DISAPPEAR,
            n_runs=3,
            seed=23,
            predictor=PredictorKind.KINEMATIC,
        )
        serial = run_campaign(config, store=tmp_path / "serial")
        parallel = run_campaign(config, executor=2, store=tmp_path / "parallel")
        for left, right in zip(serial.runs, parallel.runs):
            assert_runs_identical(left, right)

    def test_executor_shared_across_campaigns(self, tmp_path):
        configs = [
            CampaignConfig(
                campaign_id=f"shared-{scenario_id}",
                scenario_id=scenario_id,
                attacker=AttackerKind.NONE,
                n_runs=2,
                seed=5,
            )
            for scenario_id in ("DS-1", "DS-3")
        ]
        serial = run_campaigns(configs, store=tmp_path / "serial")
        parallel = run_campaigns(configs, executor=2, store=tmp_path / "parallel")
        assert [c.campaign_id for c in serial] == [c.campaign_id for c in parallel]
        for s_campaign, p_campaign in zip(serial, parallel):
            for left, right in zip(s_campaign.runs, p_campaign.runs):
                assert_runs_identical(left, right)


class TestScratchStore:
    """Store-less calls persist through one process-scoped scratch store."""

    def _config(self) -> CampaignConfig:
        return CampaignConfig(
            campaign_id="scratch-rt-ds1",
            scenario_id="DS-1",
            attacker=AttackerKind.NONE,
            n_runs=2,
            seed=13,
        )

    @staticmethod
    def _forbid_simulation(monkeypatch) -> None:
        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a stored run must be read, not simulated")

        monkeypatch.setattr(campaign_module, "_run_batch_chunk", forbidden)
        monkeypatch.setattr(campaign_module, "run_single_experiment_record", forbidden)

    def test_repeated_call_reads_stored_runs(self, monkeypatch):
        first = run_campaign(self._config())
        self._forbid_simulation(monkeypatch)
        for engine in ("scalar", "batch"):
            again = run_campaign(self._config(), engine=engine)
            assert again.n_runs == first.n_runs
            for left, right in zip(first.runs, again.runs):
                assert_runs_identical(left, right)

    def test_clear_caches_discards_the_scratch_store(self, monkeypatch):
        run_campaign(self._config())
        clear_caches()
        self._forbid_simulation(monkeypatch)
        with pytest.raises(AssertionError, match="must be read, not simulated"):
            run_campaign(self._config())

    def test_parallel_first_call_populates_the_scratch_store(self, monkeypatch):
        # No scratch store exists yet: the parallel call itself creates it.
        parallel = run_campaign(self._config(), executor=2)
        self._forbid_simulation(monkeypatch)
        again = run_campaign(self._config())
        assert again.n_runs == parallel.n_runs
        for left, right in zip(parallel.runs, again.runs):
            assert_runs_identical(left, right)

    def test_clear_caches_removes_the_scratch_directory(self):
        run_campaign(self._config())
        root = campaign_module._store_or_scratch(None).root
        assert root.is_dir()
        clear_caches()
        assert not root.exists()
        clear_caches()  # a second clear with no scratch store is a no-op
        fresh = campaign_module._store_or_scratch(None).root
        assert fresh != root and fresh.is_dir()

    def test_stored_campaign_survives_clear_caches(self, tmp_path, monkeypatch):
        first = run_campaign(self._config(), store=tmp_path)
        clear_caches()  # drops the scratch store only; the given store stays
        self._forbid_simulation(monkeypatch)
        reloaded = run_campaign(self._config(), store=tmp_path)
        assert reloaded.n_runs == first.n_runs
        for left, right in zip(first.runs, reloaded.runs):
            assert_runs_identical(left, right)

    def test_parallel_workers_leave_the_parent_scratch_store_intact(self, monkeypatch):
        run_campaign(dataclasses.replace(self._config(), campaign_id="scratch-warmup"))
        root = campaign_module._store_or_scratch(None).root
        with ParallelExecutor(max_workers=2) as executor:
            parallel = run_campaign(self._config(), executor=executor)
        # The pool's workers have exited; the parent's store must survive them.
        assert root.is_dir()
        self._forbid_simulation(monkeypatch)
        again = run_campaign(self._config())
        for left, right in zip(parallel.runs, again.runs):
            assert_runs_identical(left, right)

    def test_scratch_store_is_removed_at_exit(self, tmp_path):
        script = (
            "from repro.experiments.campaign import (AttackerKind, CampaignConfig,"
            " _store_or_scratch, run_campaign)\n"
            "from repro.sim.config import SimulationConfig\n"
            "run_campaign(CampaignConfig(campaign_id='exit', scenario_id='DS-1',"
            " attacker=AttackerKind.NONE, n_runs=1, seed=1,"
            " simulation=SimulationConfig(max_duration_s=0.5)))\n"
            "print(_store_or_scratch(None).root)\n"
        )
        env = dict(os.environ, TMPDIR=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(campaign_module.__file__).parents[2]), env.get("PYTHONPATH", "")]
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True,
        )
        root = Path(completed.stdout.strip())
        assert root.parent == tmp_path
        assert not root.exists()
        assert list(tmp_path.iterdir()) == []
