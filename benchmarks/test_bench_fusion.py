"""Micro-benchmark: fusion-policy cost in the batch engine.

Every batch lane calls its agent's own fusion-policy object (the same one
the scalar pipeline calls) and hands it named-tuple estimate and LiDAR
records.  This benchmark pins that the default ``late`` policy still clears
the batch engine's >= 5x runs/sec bound over the scalar loop at N=64 — the
shared policy must be cheap on the hot path — and records the throughput of
the other built-in policies for the BENCH output.

Like the other benchmarks, ``REPRO_BENCH_STRICT=0`` demotes the assertion
to a recorded metric for noisy shared runners.
"""

from __future__ import annotations

import os
import time
from typing import List, Tuple

import numpy as np
import pytest

from repro.experiments.campaign import build_ads_agent
from repro.perception.fusion import FusionConfig, list_fusion_policies
from repro.sim.batch import BatchRunSpec, BatchSimulator
from repro.sim.scenarios import build_scenario
from repro.sim.simulator import Simulator

_WIDTH = 64
_MIN_SPEEDUP = 5.0
#: Scalar runs timed to estimate the baseline (full 64 would dominate wall time).
_SCALAR_SAMPLE = 8


def _run_setups(
    n: int, policy: str
) -> List[Tuple[object, object, np.random.Generator]]:
    """N independently-seeded DS-1 runs under one fusion policy."""
    fusion = FusionConfig(policy=policy)
    setups = []
    for index in range(n):
        rng = np.random.default_rng(
            np.random.SeedSequence([424242, index]).generate_state(1)[0]
        )
        scenario = build_scenario("DS-1")
        ads = build_ads_agent(
            scenario, np.random.default_rng(int(rng.integers(0, 2**31 - 1))), fusion=fusion
        )
        int(rng.integers(0, 2**31 - 1))  # attacker-slot draw, campaign draw order
        sim_rng = np.random.default_rng(int(rng.integers(0, 2**31 - 1)))
        setups.append((scenario, ads, sim_rng))
    return setups


def _batch_seconds(policy: str) -> float:
    best = float("inf")
    for _ in range(2):
        specs = [
            BatchRunSpec(scenario=scenario, ads=ads, rng=rng)
            for scenario, ads, rng in _run_setups(_WIDTH, policy)
        ]
        start = time.perf_counter()
        results = BatchSimulator(specs).run()
        best = min(best, time.perf_counter() - start)
    assert len(results) == _WIDTH
    return best


def test_bench_fusion_policy_throughput():
    scalar_s = float("inf")
    for _ in range(2):
        setups = _run_setups(_SCALAR_SAMPLE, "late")
        start = time.perf_counter()
        for scenario, ads, rng in setups:
            Simulator(scenario, ads, rng=rng).run()
        scalar_s = min(scalar_s, time.perf_counter() - start)
    scalar_per_run = scalar_s / _SCALAR_SAMPLE
    print(f"\nscalar late          : {1.0 / scalar_per_run:8.1f} runs/sec")

    late_speedup = None
    for policy in list_fusion_policies():
        per_run = _batch_seconds(policy) / _WIDTH
        speedup = scalar_per_run / per_run
        print(
            f"batch {policy:<15s}: {1.0 / per_run:8.1f} runs/sec "
            f"(vs scalar late {speedup:.2f}x)"
        )
        if policy == "late":
            late_speedup = speedup

    # REPRO_BENCH_STRICT=0 demotes the bound to a recorded metric.
    strict = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"
    if strict:
        assert late_speedup >= _MIN_SPEEDUP, (
            f"late-policy batch engine regressed below {_MIN_SPEEDUP}x the "
            f"scalar loop at N={_WIDTH}: measured {late_speedup:.2f}x"
        )
    elif late_speedup < _MIN_SPEEDUP:
        pytest.skip(
            f"non-strict mode: measured {late_speedup:.2f}x "
            f"(< {_MIN_SPEEDUP}x) at N={_WIDTH}"
        )
