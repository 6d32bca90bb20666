"""Benchmark of the RoboTack reproduction: three workloads, end to end and per layer.

Run it from the root of a checkout of the repository::

    python3 perfbench/run.py --workload robotack-warm --seed 1 --seconds 25 --trace 0

It imports the program from ``src/`` of that checkout, builds the workload's
inputs from ``--seed``, sets the workload up once, then repeats the timed
call into the program until ``--seconds`` would be exceeded (always at least
once).  Every repetition starts from a fresh store root and its outputs are
read back and checked; a repetition that raises or fails a check counts in
``failed`` and its time is not reported.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``; each
repetition's CPU time is printed next to its wall time.  ``--trace 1`` runs
the same untraced repetitions, then traces the set-up and one more
repetition through the wrappers of ``layers.py`` and reports the per-layer
metrics, the share of the traced wall time the layers' self times cover
(gated at 5%), and the tracing overhead against the untraced median.  The
spans are written to ``.perfbench-out/`` under the checkout root.

``--record`` stores the output digests of this run in ``expected.json``, keyed
by the content hash of the generated inputs; later runs on the same inputs
must reproduce them.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before NumPy loads: on a two-core machine a
# second thread makes short runs spread by about 12%.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_variable] = "1"
# The program's pickle cache stays in memory; a disk cache would let one
# process read what another produced.
os.environ.pop("REPRO_CACHE_DIR", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, RepOutput, tree_bytes  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
#: The layers' self times must cover the traced wall time to within this share.
COVERAGE_TOLERANCE = 0.05

END_TO_END_UNITS = {
    "wall_s": "s",
    "runs_per_s": "1/s",
    "runs_to_target": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digests in expected.json")
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load_expected() -> dict:
    if not EXPECTED.is_file():
        return {}
    with EXPECTED.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def _metric(value: float, unit: str) -> dict:
    # A value is undefined only when every repetition failed, which the
    # result already reports as correct=false; JSON has no NaN.
    value = float(value)
    return {"value": value if math.isfinite(value) else 0.0, "unit": unit}


@dataclass
class Rep:
    """One repetition that passed its checks."""

    wall_s: float
    output: RepOutput


class Bench:
    """One benchmark process: set-up, repetitions, checks and the report."""

    def __init__(self, args: argparse.Namespace, workdir: Path, import_s: float):
        self.args = args
        self.workload = WORKLOADS[args.workload](args.seed, workdir)
        self.workdir = workdir
        self.import_s = import_s
        self.attempted = 0
        self.failed = 0
        self.reps: list = []
        self.prepare_s: list = []
        self.problems: list = []
        self.peak_rss_mb = 0.0
        self.key = self.workload.input_key()
        recorded = _load_expected().get(self.workload.name, {}).get(self.key)
        self.recorded = recorded is not None
        # The seed a digest was recorded with is provenance, not output.
        self.reference = (
            {k: v for k, v in recorded.items() if k != "seed"} if self.recorded else None
        )
        self.tracer = None
        self.boundaries: list = []

    # ------------------------------------------------------------------ #

    def _install(self, run_id: int) -> None:
        if self.tracer is not None:
            self.tracer.run_id = run_id
            self.tracer.install(self.boundaries)

    def _uninstall(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()

    def setup(self):
        """The one-time pre-build (traced with --trace 1); returns its wall time."""
        self._install(0)
        try:
            start = time.perf_counter()
            self.workload.setup()
            return time.perf_counter() - start
        finally:
            self._uninstall()

    def repetition(self, index: int, traced: bool):
        """Run, time and check one repetition; returns (wall, cpu, output) or None."""
        root = self.workdir / f"rep{index:03d}"
        start = time.perf_counter()
        copied = self.workload.prepare(root)
        self.prepare_s.append(time.perf_counter() - start)
        self.attempted += 1
        if traced:
            self._install(index + 1)
        try:
            wall, cpu = time.perf_counter(), time.process_time()
            result = self.workload.run(root)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        except Exception:  # a failing repetition is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            print(f"rep {index}: raised", flush=True)
            return None
        finally:
            if traced:
                self._uninstall()
        try:
            output = self.workload.check(root, result)
        except Exception:  # unreadable outputs fail the repetition
            traceback.print_exc()
            self.failed += 1
            self.problems.append(f"rep {index}: reading its outputs back raised")
            return None
        output.copied = copied
        if self.reference is None:
            self.reference = output.digest
        elif output.digest != self.reference:
            source = "recorded" if self.recorded else "first repetition's"
            output.problems.append(f"output digest differs from the {source} one")
        if output.problems:
            self.failed += 1
            self.problems.extend(f"rep {index}: {p}" for p in output.problems)
            print(f"rep {index}: FAILED {'; '.join(output.problems)}", flush=True)
            return None
        return wall, cpu, output

    def untraced_repetitions(self, budget_s: float) -> None:
        start = time.perf_counter()
        index = 0
        while True:
            done = self.repetition(index, traced=False)
            shutil.rmtree(self.workdir / f"rep{index:03d}", ignore_errors=True)
            if index == 0:
                # Later repetitions reuse freed memory unevenly, so the peak
                # is taken over set-up and one repetition.
                self.peak_rss_mb = _peak_rss_mb()
            if done is not None:
                wall, cpu, output = done
                self.reps.append(Rep(wall, output))
                print(f"rep {index}: wall {wall:.3f} s, cpu {cpu:.3f} s, "
                      f"{output.runs} runs, outputs ok", flush=True)
            index += 1
            last = done[0] if done is not None else 0.0
            if time.perf_counter() - start + last > budget_s:
                return

    # ------------------------------------------------------------------ #

    def end_to_end(self, setup_once_s: float) -> dict:
        walls = [rep.wall_s for rep in self.reps] or [float("nan")]
        runs = [rep.output.runs for rep in self.reps] or [0]
        values = {
            "wall_s": statistics.median(walls),
            "runs_per_s": statistics.median(r / w for r, w in zip(runs, walls)),
            "runs_to_target": statistics.median(runs),
            "setup_s": self.import_s + setup_once_s + statistics.median(self.prepare_s),
            "peak_rss_mb": self.peak_rss_mb,
        }
        return {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}

    def per_layer(self, setup_wall_s: float, setup_bytes: int) -> dict:
        from layers import LAYER_UNITS, layer_metrics

        done = self.repetition(self.attempted, traced=True)
        traced_wall = setup_wall_s
        launched = attacked = 0
        bytes_written = setup_bytes
        traced_rep_s = float("nan")
        if done is not None:
            traced_rep_s, _, output = done
            traced_wall += traced_rep_s
            launched, attacked = output.launched, output.attacked
            bytes_written += tree_bytes(output.root) - output.copied
        tracer = self.tracer
        summary = tracer.summary()
        self_sum = sum(entry["self_s"] for entry in summary.values())
        untraced = statistics.median(rep.wall_s for rep in self.reps) if self.reps else float("nan")
        values = layer_metrics(summary, tracer.counts, launched, attacked, bytes_written)
        values.update(
            {
                "trace.wall_s": traced_wall,
                "trace.self_sum_s": self_sum,
                "trace.coverage": self_sum / traced_wall if traced_wall > 0 else 0.0,
                "trace.untraced_rep_s": untraced,
                "trace.traced_rep_s": traced_rep_s,
                "trace.overhead_s": traced_rep_s - untraced,
                "trace.overhead_frac": (traced_rep_s - untraced) / untraced,
                "trace.spans": float(len(tracer.span_start)),
            }
        )
        if not abs(values["trace.coverage"] - 1.0) <= COVERAGE_TOLERANCE:
            self.problems.append(
                f"layer self times cover {values['trace.coverage']:.3f} of the traced "
                f"wall time, outside 1 +/- {COVERAGE_TOLERANCE}"
            )
        self._print_layers(summary, traced_wall, self_sum)
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{self.workload.name}-seed{self.args.seed}.json.gz"
        tracer.write(path, {"workload": self.workload.name, "seed": self.args.seed,
                            "settings": self.workload.settings(),
                            "traced_wall_s": traced_wall})
        print(f"spans written to {path.relative_to(ROOT)}", flush=True)
        return {name: _metric(values[name], unit) for name, unit in LAYER_UNITS.items()}

    @staticmethod
    def _print_layers(summary: dict, traced_wall: float, self_sum: float) -> None:
        layers: dict = {}
        for name, entry in summary.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
        print(f"self time by layer over {traced_wall:.3f} s traced:", flush=True)
        for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
            print(f"  {layer:<12} {seconds:10.3f} s  {100 * seconds / traced_wall:6.2f}%")
        print(f"  {'sum':<12} {self_sum:10.3f} s  {100 * self_sum / traced_wall:6.2f}%",
              flush=True)

    def record(self) -> None:
        expected = _load_expected()
        expected.setdefault(self.workload.name, {})[self.key] = {
            "seed": self.args.seed, **self.reference,
        }
        with EXPECTED.open("w", encoding="utf-8") as handle:
            json.dump(expected, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded digests for {self.workload.name} inputs {self.key[:12]}", flush=True)


def run(args: argparse.Namespace, workdir: Path, import_s: float) -> dict:
    bench = Bench(args, workdir, import_s)
    workload = bench.workload
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {workload.why}", flush=True)
    print("settings " + json.dumps(workload.settings(), sort_keys=True), flush=True)
    print(f"inputs {bench.key} ({'digests recorded' if bench.recorded else 'no recorded digests'})",
          flush=True)
    if args.trace:
        from layers import program_boundaries
        from tracer import Tracer

        bench.tracer = Tracer()
        bench.boundaries = program_boundaries()
    setup_once_s = bench.setup()
    setup_bytes = tree_bytes(workdir)
    print(f"setup: import {import_s:.3f} s, pre-build {setup_once_s:.3f} s", flush=True)
    bench.untraced_repetitions(args.seconds)
    if args.trace:
        metrics = bench.per_layer(setup_once_s, setup_bytes)
    else:
        metrics = bench.end_to_end(setup_once_s)
    print(f"failed_frac = {bench.failed}/{bench.attempted} = "
          f"{bench.failed / bench.attempted:.3f}", flush=True)
    for problem in bench.problems:
        print(f"problem: {problem}", flush=True)
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:.6g} {metric['unit']}")
    correct = bench.failed == 0 and not bench.problems
    if args.record:
        if not correct:
            raise SystemExit("not recording digests of a run that failed its checks")
        bench.record()
    return {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {source}; run it from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    # The program import is part of set-up.
    import repro.experiments.campaign  # noqa: F401
    import repro.experiments.tables  # noqa: F401
    import repro.search  # noqa: F401
    import repro.sim.batch  # noqa: F401

    import_s = time.perf_counter() - started
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run(args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another benchmark process still uses it
            pass
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
