"""Micro-benchmark: serial vs. parallel campaign execution.

Times the same 30-run, attack-free DS-1 campaign through the
:class:`~repro.runtime.executor.SerialExecutor` and a 4-worker
:class:`~repro.runtime.executor.ParallelExecutor`, asserts the results are
element-wise identical (the runtime's core invariant), and records the
wall-clock speedup.  The >= 2x speedup assertion only applies where the
hardware can deliver it (>= 4 usable CPUs); on smaller machines the speedup
is still measured and printed.
"""

from __future__ import annotations

import math
import os
import time

import pytest

from repro.experiments.campaign import AttackerKind, CampaignConfig, run_campaign
from repro.experiments.results import RunResult
from repro.runtime import ParallelExecutor, SerialExecutor, available_cpus

_N_RUNS = 30
_N_WORKERS = 4


def _campaign_config() -> CampaignConfig:
    return CampaignConfig(
        campaign_id="bench-parallel-ds1",
        scenario_id="DS-1",
        attacker=AttackerKind.NONE,
        n_runs=_N_RUNS,
        seed=424242,
    )


def _assert_runs_identical(a: RunResult, b: RunResult) -> None:
    for field in RunResult.__dataclass_fields__:
        left, right = getattr(a, field), getattr(b, field)
        if isinstance(left, float) and math.isnan(left):
            assert isinstance(right, float) and math.isnan(right), field
        else:
            assert left == right, (field, left, right)


def test_bench_parallel_campaign_speedup(tmp_path):
    config = _campaign_config()

    # Best-of-two timings for both arms damp transient noisy-neighbor stalls
    # on shared runners; the results of the last execution of each arm are
    # compared for identity.
    serial_s = float("inf")
    for attempt in range(2):
        start = time.perf_counter()
        serial = run_campaign(
            config, executor=SerialExecutor(), store=tmp_path / f"serial-{attempt}"
        )
        serial_s = min(serial_s, time.perf_counter() - start)

    with ParallelExecutor(max_workers=_N_WORKERS) as executor:
        # Warm the pool outside the timed region so the measurement reflects
        # steady-state throughput, not process start-up.
        executor.map(abs, range(_N_WORKERS))
        parallel_s = float("inf")
        for attempt in range(2):
            start = time.perf_counter()
            parallel = run_campaign(
                config, executor=executor, store=tmp_path / f"parallel-{attempt}"
            )
            parallel_s = min(parallel_s, time.perf_counter() - start)

    assert serial.n_runs == parallel.n_runs == _N_RUNS
    for left, right in zip(serial.runs, parallel.runs):
        _assert_runs_identical(left, right)

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(
        f"\nserial {serial_s:.2f}s vs parallel({_N_WORKERS}) {parallel_s:.2f}s "
        f"-> speedup {speedup:.2f}x on {available_cpus()} usable CPUs"
    )
    # REPRO_BENCH_STRICT=0 demotes the speedup bound to a recorded metric —
    # shared CI runners have noisy neighbors that can stall the parallel arm
    # through no fault of the code.  Result identity is always asserted.
    strict = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"
    if available_cpus() < _N_WORKERS:
        pytest.skip(
            f"only {available_cpus()} usable CPUs; speedup measured at {speedup:.2f}x"
        )
    elif strict:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup at {_N_WORKERS} workers, measured {speedup:.2f}x"
        )
