"""The ``repro-campaign`` console entry point.

Runs seeded experiment campaigns from the command line, with parallel
execution (``--jobs``), durable per-run recording (``--store``; without it a
scratch store lives only as long as the process), and the full scenario
catalog (``--list-scenarios``).  Modes:

* the default reproduces the paper's Table II evaluation: the six RoboTack
  campaigns plus the DS-5 random baseline, printing the reproduced table and
  the §I headline findings;
* ``--scenario DS-6 --attacker robotack --vector disappear`` runs a single
  custom campaign against any registered scenario and prints its summary row;
* ``sweep`` expands a declarative parameter space (``--param`` axes over
  ``variation.*`` / ``simulation.*`` / ``detector.*`` / ``fusion.*``) into
  one campaign per sweep point and records every run in the experiment store;
* ``resume`` finishes every interrupted campaign found in a store — the
  resumed statistics are bit-identical to an uninterrupted run;
* ``search`` runs the closed-loop falsification engine: an adaptive sampler
  (cross-entropy, bandit, or random) steers sweep batches toward the
  attack-success boundary under a fixed simulation budget, checkpointing its
  state in the store so the same command resumes after any crash;

``--fusion POLICY`` (on run, sweep, and resume) selects the fusion-policy
victim variant (late, camera_only, lidar_only, consistency_gated); resume
uses it as a filter over the store's incomplete campaigns.
* ``train`` runs the safety-hijacker training pipeline for one
  (scenario, vector) pair: parallel, resumable dataset collection streamed
  into the store, training of the paper's 100-100-50 oracle, and publication
  into the store's content-addressed model registry — later campaigns against
  the same store load the pretrained oracle instead of retraining.

Examples::

    repro-campaign --runs 30 --jobs 4
    repro-campaign --scenario DS-7 --attacker robotack --vector disappear --jobs -1
    repro-campaign --scenario DS-1 --attacker none --store runs/ --runs 50
    repro-campaign sweep --scenario DS-1 --store runs/ --sampler lhs --n 50 \\
        --param variation.lead_gap_offset_m=-8:8 --param detector.sigma_scale=1:2
    repro-campaign sweep --scenario DS-2 --store runs/ --sampler grid \\
        --param fusion.policy=late,lidar_only,consistency_gated \\
        --param fusion.camera_weight=0.4:0.8:3
    repro-campaign --scenario DS-1 --attacker none --fusion lidar_only --runs 20
    repro-campaign resume --store runs/ --jobs -1
    repro-campaign search --scenario DS-3 --attacker robotack --vector move_out \\
        --store runs/ --sampler ce --budget 300 --batch-points 8 --target 0.9
    repro-campaign train --scenario DS-2 --vector disappear --store runs/ --jobs -1
    repro-campaign --list-scenarios
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

__all__ = ["main", "build_parser"]


class _TrackedStore(argparse.Action):
    """``store`` action that records which dests the user explicitly set.

    The subcommands re-declare several top-level flag names; knowing which
    top-level flags were *actually typed* (vs merely defaulted) lets main()
    reject the ambiguous ``--runs 10 sweep ...`` form even when the typed
    value coincides with the default.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        _mark_provided(namespace, self.dest)


class _TrackedStoreTrue(argparse.Action):
    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, const=True, default=False, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True)
        _mark_provided(namespace, self.dest)


def _mark_provided(namespace: argparse.Namespace, dest: str) -> None:
    # The set lives on the namespace (never as a parser default): a default
    # would be one shared instance mutated across parse_args calls.
    provided = getattr(namespace, "_provided", None)
    if provided is None:
        provided = set()
        setattr(namespace, "_provided", provided)
    provided.add(dest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--runs", type=int, default=10, action=_TrackedStore,
                        help="simulation runs per campaign")
    parser.add_argument("--seed", type=int, default=2020, action=_TrackedStore,
                        help="root seed for the campaigns")
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        action=_TrackedStore,
        help="worker processes (0/1 = serial, -1 = all CPUs)",
    )
    parser.add_argument(
        "--store",
        default=None,
        action=_TrackedStore,
        help="experiment-store root: durably record every run and make the "
        "campaign resumable",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        action=_TrackedStore,
        help="run one campaign against this scenario instead of the Table II suite",
    )
    parser.add_argument(
        "--attacker",
        default="robotack",
        action=_TrackedStore,
        help="attacker kind for --scenario mode (robotack, robotack_no_sh, random, none)",
    )
    parser.add_argument(
        "--vector",
        default=None,
        action=_TrackedStore,
        help="attack vector for --scenario mode (disappear, move_out, move_in)",
    )
    parser.add_argument(
        "--predictor",
        default="neural",
        action=_TrackedStore,
        help="safety-potential oracle (neural, kinematic)",
    )
    parser.add_argument(
        "--fusion",
        default=None,
        action=_TrackedStore,
        help="fusion-policy victim variant (late, camera_only, lidar_only, "
        "consistency_gated); default: the scenario's own fusion (late)",
    )
    parser.add_argument(
        "--engine",
        default="scalar",
        choices=("scalar", "batch"),
        action=_TrackedStore,
        help="simulation engine: 'scalar' steps one run at a time, 'batch' "
        "advances --batch-size runs in lockstep per work item (bit-identical "
        "results, composes with --jobs and --store)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=16,
        action=_TrackedStore,
        help="lockstep runs per work item when --engine batch",
    )
    parser.add_argument(
        "--list-scenarios",
        action=_TrackedStoreTrue,
        help="print the registered scenario catalog and exit",
    )

    subparsers = parser.add_subparsers(dest="command")

    sweep = subparsers.add_parser(
        "sweep",
        help="expand a declarative parameter space into campaigns and run them",
        description=(
            "Expand a parameter space over variation.*, simulation.*, "
            "detector.*, and fusion.* axes into one campaign per sweep "
            "point, execute the batch, and durably record every run in the "
            "experiment store."
        ),
    )
    # Subcommand flags share names with the top-level flags but get their
    # own dests ("sub_*"): argparse would otherwise let the subparser's
    # defaults silently clobber values the user set before the subcommand.
    # main() remaps them after rejecting that ambiguous mixed form outright.
    sweep.add_argument("--scenario", dest="sub_scenario", required=True,
                       help="scenario id to sweep")
    sweep.add_argument("--store", dest="sub_store", required=True,
                       help="experiment-store root")
    sweep.add_argument(
        "--attacker",
        dest="sub_attacker",
        default="none",
        help="attacker kind for every sweep point (default: none = golden runs)",
    )
    sweep.add_argument("--vector", dest="sub_vector", default=None,
                       help="attack vector (robotack modes)")
    sweep.add_argument("--predictor", dest="sub_predictor", default="neural",
                       help="safety oracle kind")
    sweep.add_argument("--fusion", dest="sub_fusion", default=None,
                       help="fusion-policy victim variant for every sweep "
                       "point (fusion.* axes apply on top of it)")
    sweep.add_argument("--runs", dest="sub_runs", type=int, default=3,
                       help="runs per sweep point")
    sweep.add_argument("--seed", dest="sub_seed", type=int, default=2020,
                       help="root seed per campaign")
    sweep.add_argument(
        "--sampler",
        default="lhs",
        choices=("grid", "random", "lhs"),
        help="how to sample the space; 'grid' enumerates the full cartesian "
        "product of the axes' grid points (size it per axis via "
        "low:high:points), ignoring --n/--sweep-seed with a warning",
    )
    sweep.add_argument(
        "--n", type=int, default=None,
        help="number of sweep points for random/lhs (default 50); the grid "
        "sampler's size is the product of its axis grid points and a "
        "mismatching --n only warns",
    )
    sweep.add_argument(
        "--sweep-seed", type=int, default=None,
        help="seed of the space sampler itself (random/lhs; default 0)",
    )
    sweep.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="PATH=SPEC",
        help="axis as namespace.field=low:high[:points] or =v1,v2,... "
        "(repeatable; default: the ScenarioVariation sampling ranges)",
    )
    sweep.add_argument("--jobs", dest="sub_jobs", type=int, default=0,
                       help="worker processes (0/1 serial, -1 all CPUs)")
    sweep.add_argument("--engine", dest="sub_engine", default="scalar",
                       choices=("scalar", "batch"),
                       help="simulation engine per sweep point (bit-identical)")
    sweep.add_argument("--batch-size", dest="sub_batch_size", type=int, default=16,
                       help="lockstep runs per work item when --engine batch")
    sweep.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded sweep points without executing them",
    )

    train = subparsers.add_parser(
        "train",
        help="collect, train, and persist the safety-hijacker oracle",
        description=(
            "Run the end-to-end training pipeline for one (scenario, vector) "
            "pair: fan the scripted-attack collection grid out over worker "
            "processes (resumable via the store's dataset records), train the "
            "paper's 100-100-50 oracle, and publish it into the store's "
            "content-addressed model registry for later campaigns to load."
        ),
    )
    train.add_argument("--scenario", dest="sub_scenario", required=True,
                       help="scenario id to train for")
    train.add_argument("--vector", dest="sub_vector", required=True,
                       help="attack vector (disappear, move_out, move_in)")
    train.add_argument("--store", dest="sub_store", required=True,
                       help="experiment-store root (datasets + model registry)")
    train.add_argument("--seed", dest="sub_seed", type=int, default=7,
                       help="root seed of the collection grid (and of training)")
    train.add_argument("--repeats", type=int, default=2,
                       help="simulations per (delta_inject, k) grid point")
    train.add_argument("--epochs", type=int, default=200,
                       help="training epochs")
    train.add_argument("--learning-rate", type=float, default=1e-3,
                       help="Adam learning rate")
    train.add_argument("--jobs", dest="sub_jobs", type=int, default=0,
                       help="worker processes for collection (0/1 serial, -1 all CPUs)")
    train.add_argument(
        "--force",
        action="store_true",
        help="retrain even when the spec is already registered in the store",
    )

    resume = subparsers.add_parser(
        "resume",
        help="finish every interrupted campaign recorded in an experiment store",
        description=(
            "Scan the store manifests for campaigns with missing run indices, "
            "execute only the missing runs, and print the merged summaries — "
            "bit-identical to campaigns that were never interrupted."
        ),
    )
    resume.add_argument("--store", dest="sub_store", required=True,
                       help="experiment-store root")
    resume.add_argument("--jobs", dest="sub_jobs", type=int, default=0,
                       help="worker processes (0/1 serial, -1 all CPUs)")
    resume.add_argument("--engine", dest="sub_engine", default="scalar",
                        choices=("scalar", "batch"),
                        help="simulation engine for the missing runs (records "
                        "are engine-independent, so mixing is safe)")
    resume.add_argument("--batch-size", dest="sub_batch_size", type=int, default=16,
                        help="lockstep runs per work item when --engine batch")
    resume.add_argument("--fusion", dest="sub_fusion", default=None,
                        help="only resume campaigns whose effective fusion "
                        "policy matches (stored configs without a fusion "
                        "override count as 'late')")

    search = subparsers.add_parser(
        "search",
        help="adaptively search the parameter space for attack-success regions",
        description=(
            "Closed-loop falsification: an adaptive sampler (cross-entropy, "
            "bandit, or random) proposes batches of sweep points, the "
            "campaign runtime executes them into the store, an objective "
            "scores the recorded outcomes, and the scores steer the next "
            "batch toward the attack-success boundary.  The search "
            "checkpoints its sampler state in the store every iteration, so "
            "re-running the same command after a crash (even SIGKILL) "
            "resumes mid-iteration without re-proposing."
        ),
    )
    search.add_argument("--scenario", dest="sub_scenario", required=True,
                        help="scenario id to search")
    search.add_argument("--store", dest="sub_store", required=True,
                        help="experiment-store root (runs, checkpoints, report)")
    search.add_argument("--attacker", dest="sub_attacker", default="robotack",
                        help="attacker kind for every search point")
    search.add_argument("--vector", dest="sub_vector", default=None,
                        help="attack vector (robotack modes)")
    search.add_argument("--predictor", dest="sub_predictor", default="neural",
                        help="safety oracle kind")
    search.add_argument("--fusion", dest="sub_fusion", default=None,
                        help="fusion-policy victim variant for every point")
    search.add_argument("--runs", dest="sub_runs", type=int, default=3,
                        help="runs per search point (the per-point sample size)")
    search.add_argument("--seed", dest="sub_seed", type=int, default=2020,
                        help="root seed per campaign")
    search.add_argument(
        "--sampler", default="ce",
        help="adaptive sampler: ce (cross-entropy), ucb / thompson "
        "(bandit over the discrete axes), random (baseline)",
    )
    search.add_argument(
        "--objective", default="attack_success",
        help="falsification objective: attack_success, time_to_violation, "
        "min_delta_margin",
    )
    search.add_argument(
        "--budget", type=int, default=300,
        help="total simulation-run budget across all iterations",
    )
    search.add_argument(
        "--batch-points", type=int, default=8,
        help="search points proposed per iteration",
    )
    search.add_argument(
        "--search-seed", type=int, default=0,
        help="seed of the adaptive sampler itself",
    )
    search.add_argument(
        "--target", type=float, default=None,
        help="stop early once any point's objective score reaches this "
        "value (in [0, 1])",
    )
    search.add_argument(
        "--max-iterations", type=int, default=None,
        help="cap the iterations executed by this invocation (resume later)",
    )
    search.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="PATH=SPEC",
        help="axis as namespace.field=low:high[:points] or =v1,v2,... "
        "(repeatable; default: the ScenarioVariation sampling ranges)",
    )
    search.add_argument("--jobs", dest="sub_jobs", type=int, default=0,
                        help="worker processes (0/1 serial, -1 all CPUs)")
    search.add_argument("--engine", dest="sub_engine", default="scalar",
                        choices=("scalar", "batch"),
                        help="simulation engine per search point (bit-identical)")
    search.add_argument("--batch-size", dest="sub_batch_size", type=int, default=16,
                        help="lockstep runs per work item when --engine batch")
    return parser


def _adopt_subcommand_args(args: argparse.Namespace) -> None:
    """Reject pre-subcommand top-level flags, then canonicalize ``sub_*`` dests.

    ``repro-campaign --runs 5 sweep ...`` is ambiguous (argparse would let the
    sweep's own ``--runs`` default win silently); fail loudly and tell the
    user where the flag belongs — even when the typed value equals the
    default (the tracked actions record what was actually provided).  Flags
    the subcommand does not declare at all (e.g. ``--list-scenarios``) are
    rejected for the same reason.
    """
    provided = sorted(getattr(args, "_provided", set()))
    if provided:
        flags = ", ".join("--" + name.replace("_", "-") for name in provided)
        raise SystemExit(
            f"{flags}: pass options after the {args.command!r} subcommand "
            f"(e.g. repro-campaign {args.command} {flags.split(',')[0]} ...)"
        )
    for name in ("scenario", "store", "attacker", "vector", "predictor",
                 "fusion", "runs", "seed", "jobs", "engine", "batch_size"):
        if hasattr(args, "sub_" + name):
            setattr(args, name, getattr(args, "sub_" + name))


def _print_scenarios() -> None:
    from repro.sim.scenarios import scenario_catalog

    print("Registered driving scenarios:")
    for scenario_id, description in scenario_catalog().items():
        print(f"  {scenario_id:<6s} {description}")


def _parse_fusion(args: argparse.Namespace):
    """Convert ``--fusion POLICY`` into a FusionConfig (or None when unset)."""
    from repro.perception.fusion import FusionConfig, list_fusion_policies

    if args.fusion is None:
        return None
    if args.fusion not in list_fusion_policies():
        raise SystemExit(
            f"unknown fusion policy {args.fusion!r}; "
            f"choose from {list_fusion_policies()}"
        )
    return FusionConfig(policy=args.fusion)


def _run_table2_suite(args: argparse.Namespace) -> None:
    import dataclasses

    from repro.experiments.campaign import (
        baseline_random_campaign,
        run_campaigns,
        standard_campaigns,
    )
    from repro.experiments.metrics import summarize_campaign
    from repro.experiments.tables import headline_findings

    configs = list(standard_campaigns(n_runs=args.runs, seed=args.seed))
    configs.append(baseline_random_campaign(n_runs=args.runs, seed=args.seed))
    fusion = _parse_fusion(args)
    if fusion is not None:
        configs = [dataclasses.replace(config, fusion=fusion) for config in configs]
    print(
        f"Running {len(configs)} campaigns x {args.runs} runs "
        f"(jobs={args.jobs}, seed={args.seed}) ..."
    )
    results = run_campaigns(
        configs,
        executor=args.jobs,
        store=args.store,
        engine=args.engine,
        batch_size=args.batch_size,
    )
    print("\n=== Table II (reproduced) ===")
    for campaign in results:
        print(summarize_campaign(campaign).format_row())
    findings = headline_findings(results[:-1], results[-1])
    print("\n=== Headline findings (paper §I) ===")
    print(f"RoboTack EB rate      : {findings['robotack_eb_rate']:.1%} (paper 75.2%)")
    print(f"RoboTack crash rate   : {findings['robotack_crash_rate']:.1%} (paper 52.6%)")
    print(f"Random baseline EB    : {findings['random_eb_rate']:.1%} (paper 2.3%)")
    print(
        f"Pedestrians vs vehicles: {findings['pedestrian_success_rate']:.1%} "
        f"vs {findings['vehicle_success_rate']:.1%} (paper 84.1% vs 31.7%)"
    )


def _parse_campaign_kinds(args: argparse.Namespace):
    """Validate/convert the (scenario, attacker, vector, predictor) flags."""
    from repro.core.attack_vectors import AttackVector
    from repro.experiments.campaign import AttackerKind, PredictorKind
    from repro.sim.scenarios import list_scenario_ids

    if args.scenario not in list_scenario_ids():
        raise SystemExit(
            f"unknown scenario {args.scenario!r}; available: {list_scenario_ids()}"
        )
    try:
        attacker = AttackerKind(args.attacker)
    except ValueError:
        raise SystemExit(
            f"unknown attacker {args.attacker!r}; "
            f"choose from {[kind.value for kind in AttackerKind]}"
        ) from None
    vector = None
    if args.vector is not None:
        try:
            vector = AttackVector.from_string(args.vector)
        except ValueError as error:
            raise SystemExit(str(error)) from None
    try:
        predictor = PredictorKind(args.predictor)
    except ValueError:
        raise SystemExit(
            f"unknown predictor {args.predictor!r}; "
            f"choose from {[kind.value for kind in PredictorKind]}"
        ) from None
    if vector is None and attacker in (AttackerKind.ROBOTACK, AttackerKind.ROBOTACK_NO_SH):
        raise SystemExit(
            f"attacker {attacker.value!r} needs an attack vector; pass "
            f"--vector {{{', '.join(v.name.lower() for v in AttackVector)}}}"
        )
    return attacker, vector, predictor


def _run_single_campaign(args: argparse.Namespace) -> None:
    from repro.experiments.campaign import CampaignConfig, run_campaign
    from repro.experiments.metrics import summarize_campaign

    attacker, vector, predictor = _parse_campaign_kinds(args)
    fusion = _parse_fusion(args)
    vector_label = vector.name.title() if vector is not None else attacker.value.title()
    config = CampaignConfig(
        campaign_id=f"{args.scenario}-{vector_label}-cli",
        scenario_id=args.scenario,
        attacker=attacker,
        vector=vector,
        n_runs=args.runs,
        seed=args.seed,
        predictor=predictor,
        fusion=fusion,
    )
    print(f"Running {config.campaign_id}: {args.runs} runs (jobs={args.jobs}) ...")
    result = run_campaign(
        config,
        executor=args.jobs,
        store=args.store,
        engine=args.engine,
        batch_size=args.batch_size,
    )
    print(summarize_campaign(result).format_row())


def _run_sweep(args: argparse.Namespace) -> None:
    from repro.experiments.campaign import CampaignConfig, run_campaigns
    from repro.experiments.metrics import summarize_campaign
    from repro.sim.sweeps import ParameterSpace, parse_axis, sweep_campaigns

    attacker, vector, predictor = _parse_campaign_kinds(args)
    fusion = _parse_fusion(args)
    space = None
    if args.param:
        try:
            space = ParameterSpace(dict(parse_axis(axis) for axis in args.param))
        except ValueError as error:
            raise SystemExit(str(error)) from None
    vector_label = vector.name.title() if vector is not None else attacker.value.title()
    base = CampaignConfig(
        campaign_id=f"{args.scenario}-{vector_label}-sweep",
        scenario_id=args.scenario,
        attacker=attacker,
        vector=vector,
        n_runs=args.runs,
        seed=args.seed,
        predictor=predictor,
        fusion=fusion,
    )
    try:
        configs = sweep_campaigns(
            base, space, sampler=args.sampler, n=args.n, seed=args.sweep_seed
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None
    if args.dry_run:
        print(f"Sweep of {len(configs)} points ({args.sampler}):")
        for config in configs:
            print(f"  {config.campaign_id}")
        return
    print(
        f"Sweeping {len(configs)} points x {args.runs} runs "
        f"({args.sampler}, jobs={args.jobs}) into {args.store} ..."
    )
    results = run_campaigns(
        configs,
        executor=args.jobs,
        store=args.store,
        engine=args.engine,
        batch_size=args.batch_size,
    )
    for result in results:
        print(summarize_campaign(result).format_row())


def _run_search(args: argparse.Namespace) -> None:
    from repro.experiments.campaign import CampaignConfig
    from repro.experiments.store import ExperimentStore
    from repro.experiments.tables import search_report_from_store
    from repro.search import (
        FalsificationLoop,
        SearchSpec,
        list_objectives,
        list_search_samplers,
    )
    from repro.sim.sweeps import ParameterSpace, default_variation_space, parse_axis

    attacker, vector, predictor = _parse_campaign_kinds(args)
    fusion = _parse_fusion(args)
    if args.sampler not in list_search_samplers():
        raise SystemExit(
            f"unknown search sampler {args.sampler!r}; "
            f"choose from {list_search_samplers()}"
        )
    if args.objective not in list_objectives():
        raise SystemExit(
            f"unknown objective {args.objective!r}; "
            f"choose from {list_objectives()}"
        )
    if args.param:
        try:
            space = ParameterSpace(dict(parse_axis(axis) for axis in args.param))
        except ValueError as error:
            raise SystemExit(str(error)) from None
    else:
        space = default_variation_space()
    vector_label = vector.name.title() if vector is not None else attacker.value.title()
    base = CampaignConfig(
        campaign_id=f"{args.scenario}-{vector_label}-search",
        scenario_id=args.scenario,
        attacker=attacker,
        vector=vector,
        n_runs=args.runs,
        seed=args.seed,
        predictor=predictor,
        fusion=fusion,
    )
    try:
        spec = SearchSpec(
            base=base,
            space=space,
            sampler=args.sampler,
            objective=args.objective,
            budget_runs=args.budget,
            batch_points=args.batch_points,
            seed=args.search_seed,
            target_score=args.target,
        )
        loop = FalsificationLoop(
            spec,
            ExperimentStore(args.store),
            executor=args.jobs,
            engine=args.engine,
            batch_size=args.batch_size,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None
    resuming = loop.store.load_search_state(loop.search_hash) is not None
    print(
        f"{'Resuming' if resuming else 'Starting'} search {loop.search_hash[:12]}: "
        f"{args.sampler}/{args.objective} over {len(space)} axes, "
        f"budget {args.budget} runs ({args.batch_points} points x {args.runs} "
        f"runs per iteration, jobs={args.jobs}) into {args.store} ..."
    )
    result = loop.run(max_iterations=args.max_iterations)
    print(f"\n=== Search report ({loop.search_hash[:12]}) ===")
    print("iter points runs_spent    elite     best  best-so-far")
    for row in search_report_from_store(loop.store, loop.search_hash):
        print(row.format_row())
    print(
        f"\nBest score {result.best_score:.3f} "
        f"({args.objective}) after {result.runs_spent} runs"
        + (" — target reached" if result.reached_target else "")
    )
    if result.best_assignment:
        print("Best assignment:")
        for path, value in sorted(result.best_assignment.items()):
            print(f"  {path} = {value}")
    if result.elite_front:
        print("Elite front (last iteration):")
        for point in result.elite_front:
            rendered = ", ".join(
                f"{path}={value}" for path, value in sorted(point.assignment.items())
            )
            print(f"  score {point.score:.3f}: {rendered}")


def _loss_curve_report(train_loss: List[float], validation_loss: List[float]) -> str:
    """A compact per-epoch loss table (first epoch, ~10 waypoints, last epoch)."""
    n_epochs = len(train_loss)
    step = max(1, n_epochs // 10)
    picked = sorted(set(range(0, n_epochs, step)) | {n_epochs - 1})
    lines = ["  epoch   train loss   validation loss"]
    for epoch in picked:
        lines.append(
            f"  {epoch + 1:>5d}   {train_loss[epoch]:>10.4f}   {validation_loss[epoch]:>15.4f}"
        )
    return "\n".join(lines)


def _run_train(args: argparse.Namespace) -> None:
    from repro.core.attack_vectors import AttackVector
    from repro.core.training import train_and_register_predictor, training_spec_hash
    from repro.experiments.campaign import training_grid_for
    from repro.experiments.store import ExperimentStore
    from repro.sim.scenarios import list_scenario_ids

    if args.scenario not in list_scenario_ids():
        raise SystemExit(
            f"unknown scenario {args.scenario!r}; available: {list_scenario_ids()}"
        )
    try:
        vector = AttackVector.from_string(args.vector)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    store = ExperimentStore(args.store)
    if args.repeats != 2 or args.learning_rate != 1e-3:
        # Campaign lookups hash the spec with the fixed campaign-side
        # collection parameters; a model trained off those defaults is still
        # registered and loadable by hash, but won't be auto-loaded.
        print(
            "note: campaigns look up oracles with repeats=2 and "
            "learning-rate=1e-3; this model will not be auto-loaded by "
            "`repro-campaign --store` runs."
        )
    delta_grid, k_grid = training_grid_for(args.scenario)
    spec_hash = training_spec_hash(
        args.scenario, vector, delta_grid, k_grid,
        collect_seed=args.seed, repeats=args.repeats, epochs=args.epochs,
        learning_rate=args.learning_rate,
    )
    if not args.force:
        # Existence check only — don't deserialize the weights just to
        # discard them; the report below comes from the registry metadata.
        model_hash = store.resolve_model_spec(spec_hash)
        if model_hash is not None and store.has_model(model_hash):
            metadata = store.load_model_metadata(model_hash)
            print(
                f"Already trained: {args.scenario}/{vector.name} is registered as "
                f"model {model_hash[:12]} ({metadata['n_samples']} samples, "
                f"{metadata['epochs']} epochs); pass --force to retrain."
            )
            print(_loss_curve_report(metadata["train_loss"], metadata["validation_loss"]))
            return
    n_points = len(delta_grid) * len(k_grid) * args.repeats
    print(
        f"Collecting {n_points} scripted-attack grid points for "
        f"{args.scenario}/{vector.name} (jobs={args.jobs}, seed={args.seed}) "
        f"into {args.store} ..."
    )
    artifact = train_and_register_predictor(
        args.scenario, vector, delta_grid, k_grid,
        seed=args.seed, repeats=args.repeats, epochs=args.epochs,
        learning_rate=args.learning_rate, executor=args.jobs, store=store,
    )
    history = artifact.training.history
    print(
        f"Collected {artifact.dataset.n_samples} samples "
        f"(dataset {artifact.dataset_hash[:12]}); trained "
        f"{artifact.predictor.network.num_parameters()} parameters for "
        f"{args.epochs} epochs ({artifact.training.n_train_samples}/"
        f"{artifact.training.n_validation_samples} train/validation split)."
    )
    print(_loss_curve_report(history.train_loss, history.validation_loss))
    print(f"Registered model {artifact.model_hash[:12]} at {artifact.model_dir}")
    print(
        f"Campaigns against this store now load the pretrained oracle, e.g.\n"
        f"  repro-campaign --scenario {args.scenario} --attacker robotack "
        f"--vector {vector.name.lower()} --store {args.store}"
    )


def _run_resume(args: argparse.Namespace) -> None:
    from pathlib import Path

    from repro.experiments.campaign import run_campaign
    from repro.experiments.metrics import summarize_campaign
    from repro.experiments.store import ExperimentStore
    from repro.runtime.executor import resolve_executor

    if not Path(args.store).expanduser().is_dir():
        # A mistyped path must not masquerade as "every campaign complete".
        raise SystemExit(f"no experiment store at {args.store!r} (directory not found)")
    store = ExperimentStore(args.store)
    worklist = store.incomplete_campaigns()
    if args.fusion is not None:
        from repro.perception.fusion import list_fusion_policies

        if args.fusion not in list_fusion_policies():
            raise SystemExit(
                f"unknown fusion policy {args.fusion!r}; "
                f"choose from {list_fusion_policies()}"
            )
        worklist = [
            (config, missing)
            for config, missing in worklist
            if config.fusion_policy == args.fusion
        ]
        if not worklist:
            print(
                f"Nothing to resume: no incomplete campaign in {args.store} "
                f"runs the {args.fusion!r} fusion policy."
            )
            return
    if not worklist:
        print(f"Nothing to resume: every campaign in {args.store} is complete.")
        return
    executor = resolve_executor(args.jobs)
    try:
        for config, missing in worklist:
            print(
                f"Resuming {config.campaign_id}: "
                f"{len(missing)} of {config.n_runs} runs missing ..."
            )
            result = run_campaign(
                config,
                executor=executor,
                store=store,
                engine=args.engine,
                batch_size=args.batch_size,
            )
            print(summarize_campaign(result).format_row())
    finally:
        executor.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(list(argv) if argv is not None else None)

    if args.command is not None:
        _adopt_subcommand_args(args)

    if args.runs < 1:
        raise SystemExit("--runs must be a positive number of simulation runs")
    if args.jobs < -1:
        raise SystemExit("--jobs must be -1 (all CPUs), 0/1 (serial), or a worker count")
    if args.batch_size < 1:
        raise SystemExit("--batch-size must be a positive number of lockstep runs")

    if args.list_scenarios:
        _print_scenarios()
        return 0

    if args.command == "sweep":
        _run_sweep(args)
    elif args.command == "train":
        _run_train(args)
    elif args.command == "resume":
        _run_resume(args)
    elif args.command == "search":
        _run_search(args)
    elif args.scenario is not None:
        _run_single_campaign(args)
    else:
        _run_table2_suite(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
