"""Command-line interface: run paper experiments from the shell.

Examples::

    python -m repro list
    python -m repro info
    python -m repro run tpch-q1 --scheme iceclave
    python -m repro compare wordcount --channels 16
    python -m repro sweep channels tpch-q3
    python -m repro sweep dram tpcc
    python -m repro chaos tpch-q1 --seed 42
    python -m repro resilience --seed 7 --quick
    python -m repro serve-lab --seed 7 --tenants 1000
    python -m repro lint src --format json
    python -m repro profile tpcc --scheme iceclave --top 15
    python -m repro compare wordcount --jobs 4
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any, Callable, List, Optional

# Each subcommand imports the packages it runs inside its cmd_* function:
# importing this module must not load the simulator, or numpy.
if TYPE_CHECKING:
    from repro.platform import PlatformConfig

GIB = 1 << 30
DEFAULT_CHAOS_SEED = 42
DEFAULT_RESILIENCE_SEED = 7
DEFAULT_SERVE_SEED = 7
DEFAULT_FLEET_SEED = 42
DEFAULT_SEARCH_SEED = 7


def _make_profile(args: argparse.Namespace):
    """Instantiate and run the workload, honouring an explicit --seed."""
    from repro.workloads import workload_by_name

    kwargs = {}
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    return workload_by_name(args.workload, **kwargs).run()


def _build_config(args: argparse.Namespace) -> PlatformConfig:
    from repro.platform import PlatformConfig

    config = PlatformConfig()
    if getattr(args, "channels", None) is not None:
        config = config.with_channels(args.channels)
    if getattr(args, "dram_gb", None) is not None:
        config = config.with_dram(args.dram_gb * GIB)
    if getattr(args, "dataset_gb", None) is not None:
        config = config.with_dataset(args.dataset_gb * GIB)
    if getattr(args, "flash_latency_us", None) is not None:
        config = config.with_flash_read_latency(args.flash_latency_us * 1e-6)
    return config


def cmd_list(_: argparse.Namespace) -> int:
    from repro.platform.schemes import SCHEMES
    from repro.workloads import ALL_WORKLOADS

    print("workloads (Table 4):")
    for name, cls in sorted(ALL_WORKLOADS.items()):
        print(f"  {name:>12s}  {cls.description}")
    print("\nschemes (§6.1):")
    for name in sorted(SCHEMES):
        print(f"  {name}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from repro.platform.schemes import flash_read_throughput

    config = _build_config(args)
    geometry = config.geometry()
    print("platform configuration (Table 3 defaults):")
    print(f"  dataset            : {config.dataset_bytes / GIB:.0f} GB")
    print(f"  channels           : {config.channels}")
    print(f"  SSD capacity       : {geometry.capacity_bytes / (1 << 40):.2f} TB")
    print(f"  flash t_RD/t_WR    : {config.flash_timing.read_latency*1e6:.0f}/"
          f"{config.flash_timing.program_latency*1e6:.0f} us")
    print(f"  internal read bw   : {flash_read_throughput(config)/1e9:.2f} GB/s")
    print(f"  PCIe effective bw  : {config.pcie.effective_bandwidth/1e9:.2f} GB/s")
    print(f"  SSD cores          : {config.isc_cores}x {config.isc_core.name}")
    print(f"  SSD DRAM           : {config.iceclave.dram_bytes / GIB:.0f} GB")
    print(f"  MEE scheme         : {config.mee_scheme.value}")
    print(f"  counter cache      : {config.iceclave.counter_cache_bytes >> 10} KB")
    return 0


def _check_workload(name: str) -> Optional[str]:
    from repro.workloads import ALL_WORKLOADS

    if name not in ALL_WORKLOADS:
        known = ", ".join(sorted(ALL_WORKLOADS))
        print(f"error: unknown workload '{name}' (known: {known})", file=sys.stderr)
        return None
    return name


def cmd_run(args: argparse.Namespace) -> int:
    if _check_workload(args.workload) is None:
        return 2
    from repro.platform import make_platform

    config = _build_config(args)
    profile = _make_profile(args)
    result = make_platform(args.scheme, config).run(profile)
    print(f"{args.workload} on {args.scheme}: {result.total_time:.2f}s")
    for part, seconds in result.exposed().items():
        print(f"  {part:>10s}: {seconds:8.2f}s")
    if args.verbose:
        for key, value in sorted(result.stats.items()):
            print(f"  {key:>28s} = {value:.6g}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if _check_workload(args.workload) is None:
        return 2
    from repro.perf import map_points, platform_point
    from repro.platform.schemes import SCHEMES

    config = _build_config(args)
    jobs = getattr(args, "jobs", 1) or 1
    schemes = sorted(SCHEMES)
    seed = getattr(args, "seed", None)
    specs = [platform_point(args.workload, s, config, seed=seed) for s in schemes]
    results = dict(zip(schemes, map_points(specs, jobs=jobs)))
    host = results["host"]
    print(f"{args.workload}: ({config.channels} channels, "
          f"{config.dataset_bytes / GIB:.0f} GB dataset)")
    for name, result in results.items():
        rel = host.total_time / result.total_time
        print(f"  {name:>9s}: {result.total_time:8.2f}s  ({rel:.2f}x vs host)")
    ice, isc = results["iceclave"], results["isc"]
    print(f"  iceclave security overhead over isc: +{ice.overhead_over(isc)*100:.1f}%")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if _check_workload(args.workload) is None:
        return 2
    base = _build_config(args)
    if args.parameter == "channels":
        points = [(f"{ch}ch", base.with_channels(ch)) for ch in (4, 8, 16, 32)]
    elif args.parameter == "latency":
        points = [
            (f"{lat}us", base.with_flash_read_latency(lat * 1e-6))
            for lat in (10, 30, 50, 70, 90, 110)
        ]
    else:  # dram
        points = [(f"{gb}GB", base.with_dram(gb * GIB)) for gb in (2, 4, 8)]
    from repro.perf import map_points, platform_point

    jobs = getattr(args, "jobs", 1) or 1
    seed = getattr(args, "seed", None)
    sweep_schemes = ("host", "isc", "iceclave")
    specs = [
        platform_point(args.workload, scheme, cfg, seed=seed)
        for _, cfg in points
        for scheme in sweep_schemes
    ]
    results = map_points(specs, jobs=jobs)
    print(f"{args.workload}: sweeping {args.parameter}")
    print(f"{'point':>8s} {'host':>9s} {'isc':>9s} {'iceclave':>9s} {'ice/host':>9s}")
    for idx, (label, _) in enumerate(points):
        host, isc, ice = results[idx * 3: idx * 3 + 3]
        print(f"{label:>8s} {host.total_time:8.2f}s {isc.total_time:8.2f}s "
              f"{ice.total_time:8.2f}s {ice.speedup_over(host):8.2f}x")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    if _check_workload(args.workload) is None:
        return 2
    from repro.perf.profiler import profile_run

    config = _build_config(args)
    report = profile_run(
        args.workload,
        scheme=args.scheme,
        config=config,
        seed=getattr(args, "seed", None),
        sort=args.sort,
        top=args.top,
        top_allocs=args.top_allocs,
    )
    print(report.format())
    return 0


def _export_dirs_ready(*paths: Optional[str]) -> bool:
    """Create each export's parent directory, as ``search --out`` does.

    Called before a campaign starts, so an export path that cannot be
    written fails at once (exit 2) rather than after the whole run.
    """
    from pathlib import Path

    for path in paths:
        if path:
            try:
                Path(path).parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                reason = f"{exc.strerror}: {exc.filename}"
                print(f"error: cannot write {path}: {reason}", file=sys.stderr)
                return False
    return True


def _same_twice(first: str, second: str) -> bool:
    """Print the double-run verdict on two fingerprints of one campaign."""
    deterministic = first == second
    print(f"deterministic: {'yes' if deterministic else 'NO — runs diverged'}")
    return deterministic


def cmd_chaos(args: argparse.Namespace) -> int:
    if _check_workload(args.workload) is None:
        return 2
    if args.ops < 10:
        print("error: chaos needs at least 10 operations (--ops)", file=sys.stderr)
        return 2
    from repro.faults import run_chaos
    from repro.faults.chaos import ChaosRunner

    seed = args.seed if args.seed is not None else DEFAULT_CHAOS_SEED
    # one workload execution shapes both chaos runs, so the determinism
    # check below compares the fault machinery alone
    profile = _make_profile(args)
    suite = None
    if args.monitors:
        from repro.recovery import MonitorSuite

        # collect mode: violations become counters, the run finishes
        suite = MonitorSuite(raise_on_violation=False)
        runner = ChaosRunner(
            args.workload, profile.write_ratio, seed=seed, ops=args.ops
        )
        runner.arm_monitors(suite)
        report = runner.run()
    else:
        report = run_chaos(
            args.workload, profile.write_ratio, seed=seed, ops=args.ops
        )
    print(report.format())
    monitor_violations = 0
    if suite is not None:
        from repro.platform.metrics import RunResult

        result = RunResult.from_chaos(report)
        result.record_recovery(suite.stats)
        monitor_violations = len(suite.records)
        counts = suite.violation_counts()
        print(
            f"  monitors        : {int(suite.stats.invariant_checks)} checks,"
            f" {monitor_violations} violations"
            + (
                " ("
                + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
                + ")"
                if counts
                else ""
            )
        )
        for record in suite.records:
            print(
                f"    violation[{record['monitor']}] {record['component']}:"
                f" {record['detail']}"
            )
        print(f"  run fingerprint : {result.fingerprint()}")
    if args.events:
        print("event log:")
        for line in report.event_log:
            print(f"  {line}")
    # the repeat run is always unarmed, so with --monitors this equality also
    # proves the armed suite is fingerprint-neutral
    repeat = run_chaos(args.workload, profile.write_ratio, seed=seed, ops=args.ops)
    deterministic = _same_twice(report.fingerprint(), repeat.fingerprint())
    if not deterministic or report.invariant_violations or monitor_violations:
        return 1
    return 0


def cmd_soak(args: argparse.Namespace) -> int:
    if _check_workload(args.workload) is None:
        return 2
    if args.ops < 10:
        print("error: soak needs at least 10 operations (--ops)", file=sys.stderr)
        return 2
    if args.checkpoint_every < 1:
        print("error: --checkpoint-every must be >= 1", file=sys.stderr)
        return 2
    if not _export_dirs_ready(args.csv):
        return 2
    from repro.recovery import (
        InvariantViolation,
        RecoveryStats,
        recovery_csv_rows,
        run_soak_campaigns,
    )

    seed = args.seed if args.seed is not None else DEFAULT_CHAOS_SEED
    profile = _make_profile(args)
    stats = RecoveryStats()
    try:
        exit_code, results = run_soak_campaigns(
            args.workload,
            profile.write_ratio,
            seed,
            args.ops,
            args.state_dir,
            campaigns=args.campaigns,
            checkpoint_every=args.checkpoint_every,
            kill_at=args.kill_at,
            monitors=not args.no_monitors,
            verify=args.verify,
            stats=stats,
            log=print,
        )
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
        return 1
    for name, value in sorted(stats.as_dict().items()):
        print(f"  {name:>22s} = {value}")
    if args.csv and results:
        with open(args.csv, "w") as fh:
            for row in recovery_csv_rows(results, stats):
                fh.write(",".join(row) + "\n")
        print(f"wrote {args.csv}")
    return exit_code


def _check_oracle_args(args: argparse.Namespace) -> bool:
    """Reject sweeps the crash oracles cannot cut (``oracle`` and ``fleet-oracle``)."""
    fleet = args.command == "fleet-oracle"
    length, flag = (args.requests, "--requests") if fleet else (args.ops, "--ops")
    checks = [
        (args.points < 1, "--points must be >= 1"),
        (args.seeds < 1, "--seeds must be >= 1"),
        (length < 2, f"{flag} must be >= 2"),
        (fleet and args.devices < 2, "--devices must be >= 2"),
    ]
    for failed, message in checks:
        if failed:
            print(f"error: {message}", file=sys.stderr)
            return False
    return True


def cmd_oracle(args: argparse.Namespace) -> int:
    if _check_workload(args.workload) is None or not _check_oracle_args(args):
        return 2
    from repro.recovery import RecoveryStats, run_oracle

    seed = args.seed if args.seed is not None else DEFAULT_CHAOS_SEED
    profile = _make_profile(args)
    stats = RecoveryStats()
    report = run_oracle(
        args.workload,
        profile.write_ratio,
        base_seed=seed,
        seeds=args.seeds,
        points=args.points,
        ops=args.ops,
        stats=stats,
        progress=print if args.verbose else None,
    )
    print(report.format())
    for name, value in sorted(stats.as_dict().items()):
        print(f"  {name:>22s} = {value}")
    return 0 if report.all_passed else 1


def _run_lab(args: argparse.Namespace, run: Callable[[], Any]) -> int:
    """Print, export, rerun and gate one two-arm lab report.

    The report names the arm the availability floor judges
    (``report.JUDGED``: attribute and label) and returns its own exit gates
    as ``(held, message)`` pairs.
    """
    import json

    if not _export_dirs_ready(args.csv, getattr(args, "json", None)):
        return 2
    report = run()
    print(report.format())
    attribute, label = report.JUDGED
    arm = getattr(report, attribute)
    if args.events:
        print(f"event log ({label}):")
        for line in arm.event_log:
            print(f"  {line}")
    if args.csv:
        with open(args.csv, "w") as fh:
            for row in report.csv_rows():
                fh.write(",".join(row) + "\n")
        print(f"wrote {args.csv}")
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    # the whole campaign must be a pure function of the seed: run it again
    # and require byte-identical fingerprints
    exit_code = 0 if _same_twice(report.fingerprint(), run().fingerprint()) else 1
    if arm.availability < args.min_availability / 100.0:
        print(
            f"FAIL: {label.replace(' ', '-')} availability "
            f"{arm.availability * 100:.4f}% is below the "
            f"{args.min_availability:.2f}% floor",
            file=sys.stderr,
        )
        exit_code = 1
    for held, message in report.gates():
        if not held:
            print(f"FAIL: {message}", file=sys.stderr)
            exit_code = 1
    return exit_code


def cmd_resilience(args: argparse.Namespace) -> int:
    if args.ops < 10:
        print("error: resilience needs at least 10 requests (--ops)", file=sys.stderr)
        return 2
    from repro.resilience import run_resilience

    seed = args.seed if args.seed is not None else DEFAULT_RESILIENCE_SEED
    ops = 600 if args.quick else args.ops

    def run() -> Any:
        return run_resilience(seed=seed, ops=ops)

    return _run_lab(args, run)


def cmd_serve_lab(args: argparse.Namespace) -> int:
    if args.tenants < 1 or args.requests < 10:
        print(
            "error: serve-lab needs at least 1 tenant and 10 requests",
            file=sys.stderr,
        )
        return 2
    from repro.serve import run_serve_lab

    seed = args.seed if args.seed is not None else DEFAULT_SERVE_SEED
    tenants = 250 if args.quick else args.tenants
    requests = 1000 if args.quick else args.requests
    chaos = not args.no_chaos

    def run() -> Any:
        return run_serve_lab(
            seed=seed, tenants=tenants, requests=requests, process=args.process, chaos=chaos
        )

    return _run_lab(args, run)


def cmd_fleet_lab(args: argparse.Namespace) -> int:
    from repro.fleet import FleetReport
    from repro.fleet.lab import WORKING_SET
    from repro.perf.parallel import fleet_point, map_points

    if args.requests < WORKING_SET or args.devices < 2:
        print(
            f"error: fleet-lab needs at least {WORKING_SET} requests and 2 devices",
            file=sys.stderr,
        )
        return 2
    if not 1 <= args.replication <= args.devices:
        print(
            "error: --replication must lie in [1, --devices]", file=sys.stderr
        )
        return 2

    seed = args.seed if args.seed is not None else DEFAULT_FLEET_SEED
    requests = 600 if args.quick else args.requests

    def run() -> FleetReport:
        # both arms as fork-pool points: byte-identical at any --jobs
        specs = [
            fleet_point(seed, requests, args.devices, 1, False),
            fleet_point(seed, requests, args.devices, args.replication, True),
        ]
        off, on = map_points(specs, jobs=args.jobs)
        return FleetReport(off=off, on=on)

    return _run_lab(args, run)


def cmd_search(args: argparse.Namespace) -> int:
    from repro.search import (
        SearchConfig,
        build_corpus,
        replay_path,
        run_search,
        save_corpus,
    )
    from repro.search.genome import TARGETS

    if args.replay:
        try:
            report = replay_path(args.replay)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.format())
        if not report.all_reproduced:
            print("FAIL: corpus entries did not reproduce", file=sys.stderr)
            return 1
        return 0

    targets = tuple(t.strip() for t in args.targets.split(",") if t.strip())
    unknown = sorted(set(targets) - set(TARGETS))
    if unknown:
        print(
            f"error: unknown targets {', '.join(unknown)} "
            f"(known: {', '.join(TARGETS)})",
            file=sys.stderr,
        )
        return 2
    if args.budget < 1:
        print("error: --budget must be positive", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else DEFAULT_SEARCH_SEED
    config = SearchConfig(
        budget_ops=args.budget, targets=targets, shrink=not args.no_shrink
    )
    result = run_search(seed, config)
    for line in result.log:
        print(line)
    stats = result.stats
    print(
        f"search seed={seed}: {stats.evaluations} evaluations"
        f" ({stats.dedup_hits} deduped), {stats.sim_ops_spent} sim-ops,"
        f" {len(result.hits)} hits, {len(result.minimal)} shrunk"
    )
    for hit in result.hits[:5]:
        objectives = ", ".join(
            f"{name}={score:g}" for name, score in sorted(hit.objectives.items())
        )
        print(f"  hit {hit.scenario.fingerprint()[:12]}: {objectives}")
        print(f"      {hit.scenario.describe()}")
    for fingerprint, shrunk in sorted(result.minimal.items()):
        print(
            f"  minimal {shrunk.scenario.fingerprint()[:12]}"
            f" (from {fingerprint[:12]}): {shrunk.objective}={shrunk.score:g}"
        )
        print(f"      {shrunk.scenario.describe()}")
    document = build_corpus(result)
    out = save_corpus(document, args.out)
    print(f"wrote {out} (fingerprint {document['fingerprint']})")
    if not result.hits:
        print("FAIL: no scoring scenario found within budget", file=sys.stderr)
        return 1
    return 0


def cmd_fleet_oracle(args: argparse.Namespace) -> int:
    if not _check_oracle_args(args):
        return 2
    from repro.fleet import run_fleet_oracle

    seed = args.seed if args.seed is not None else DEFAULT_FLEET_SEED
    report = run_fleet_oracle(
        base_seed=seed,
        seeds=args.seeds,
        points=args.points,
        requests=args.requests,
        devices=args.devices,
        progress=print if args.verbose else None,
    )
    print(report.format())
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    from repro.analysis.cli import add_lint_arguments, run_lint
    from repro.platform.schemes import SCHEMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="IceClave (MICRO 2021) reproduction: run paper experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and schemes").set_defaults(func=cmd_list)

    info = sub.add_parser("info", help="show the platform configuration")
    _add_platform_flags(info)
    info.set_defaults(func=cmd_info)

    run = sub.add_parser("run", help="run one workload on one scheme")
    run.add_argument("workload")
    run.add_argument("--scheme", default="iceclave", choices=sorted(SCHEMES))
    run.add_argument("--verbose", "-v", action="store_true", help="print run stats")
    _add_platform_flags(run)
    _add_seed_flag(run)
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="run all four schemes")
    compare.add_argument("workload")
    _add_platform_flags(compare)
    _add_seed_flag(compare)
    _add_jobs_flag(compare)
    compare.set_defaults(func=cmd_compare)

    sweep = sub.add_parser("sweep", help="sensitivity sweep (Figs 12/14/16)")
    sweep.add_argument("parameter", choices=("channels", "latency", "dram"))
    sweep.add_argument("workload")
    _add_platform_flags(sweep)
    _add_seed_flag(sweep)
    _add_jobs_flag(sweep)
    sweep.set_defaults(func=cmd_sweep)

    prof = sub.add_parser(
        "profile",
        help="cProfile one workload run plus simulator-side counters",
    )
    prof.add_argument("workload")
    prof.add_argument("--scheme", default="iceclave", choices=sorted(SCHEMES))
    prof.add_argument("--top", type=_positive(int), default=25, help="profile rows to print")
    prof.add_argument(
        "--sort", default="cumulative", choices=("cumulative", "tottime", "ncalls")
    )
    prof.add_argument(
        "--top-allocs", type=int, default=0, metavar="N",
        help="also trace allocations (tracemalloc) and print the top N sites",
    )
    _add_platform_flags(prof)
    _add_seed_flag(prof)
    prof.set_defaults(func=cmd_profile)

    lint = sub.add_parser(
        "lint",
        help="static analysis: determinism, security-flow, sim-time, resilience rules",
    )
    add_lint_arguments(lint)
    lint.set_defaults(func=run_lint)

    chaos = sub.add_parser(
        "chaos", help="run a workload-shaped fault-injection campaign"
    )
    chaos.add_argument("workload")
    chaos.add_argument(
        "--ops", type=int, default=3000, help="chaos I/O operations (default 3000)"
    )
    chaos.add_argument(
        "--events", "-e", action="store_true", help="print the full fault event log"
    )
    chaos.add_argument(
        "--monitors", action="store_true",
        help="arm the runtime invariant monitors in collect mode: violations "
        "become structured counters and a nonzero exit, the fingerprint is "
        "unchanged",
    )
    _add_seed_flag(chaos)
    chaos.set_defaults(func=cmd_chaos)

    soak = sub.add_parser(
        "soak",
        help="resumable checkpointed chaos campaign (restarts from the newest snapshot)",
    )
    soak.add_argument("workload")
    soak.add_argument(
        "--ops", type=int, default=3000, help="operations per campaign (default 3000)"
    )
    soak.add_argument(
        "--checkpoint-every", type=int, default=200,
        help="operations between snapshots (default 200)",
    )
    soak.add_argument(
        "--state-dir", default=".soak-state",
        help="directory for snapshots and results.json (default .soak-state)",
    )
    soak.add_argument(
        "--campaigns", type=_positive(int), default=1,
        help="consecutive seeds to run (completed seeds are skipped on rerun)",
    )
    soak.add_argument(
        "--kill-at", type=int,
        help="simulate a host crash: exit 75 without checkpointing at this op",
    )
    soak.add_argument(
        "--verify", action="store_true",
        help="also run uninterrupted in memory and require identical fingerprints",
    )
    soak.add_argument(
        "--no-monitors", action="store_true",
        help="disable the runtime invariant monitors (they are on by default)",
    )
    soak.add_argument(
        "--csv", metavar="PATH", help="write the recovery counters as CSV"
    )
    _add_seed_flag(soak)
    soak.set_defaults(func=cmd_soak)

    oracle = sub.add_parser(
        "oracle",
        help="crash-point differential oracle: snapshot/kill/restore must be byte-identical",
    )
    oracle.add_argument("workload")
    oracle.add_argument(
        "--ops", type=int, default=1200, help="operations per campaign (default 1200)"
    )
    oracle.add_argument(
        "--seeds", type=int, default=3, help="consecutive seeds to sweep (default 3)"
    )
    oracle.add_argument(
        "--points", type=int, default=9,
        help="crash points per seed (default 9; 3 seeds x 9 points = 27)",
    )
    oracle.add_argument(
        "--verbose", "-v", action="store_true", help="print each crash point's verdict"
    )
    _add_seed_flag(oracle)
    oracle.set_defaults(func=cmd_oracle)

    resilience = sub.add_parser(
        "resilience",
        help="availability experiment: chaos plan with/without resilience policies",
    )
    resilience.add_argument(
        "--ops", type=int, default=2000, help="requests per arm (default 2000)"
    )
    _add_lab_flags(resilience, "policies-on", "600 requests")
    resilience.set_defaults(func=cmd_resilience)

    serve = sub.add_parser(
        "serve-lab",
        help="attested multi-tenant serving campaign: policies on vs off under chaos",
    )
    serve.add_argument(
        "--tenants", type=int, default=1000, help="tenant count (default 1000)"
    )
    serve.add_argument(
        "--requests", type=int, default=4000,
        help="total requests per arm (default 4000)",
    )
    serve.add_argument(
        "--process", choices=("poisson", "bursty"), default="poisson",
        help="open-loop arrival process (default poisson)",
    )
    serve.add_argument(
        "--no-chaos", action="store_true", help="disable the seeded fault plan"
    )
    serve.add_argument(
        "--json", metavar="PATH", help="write the full SLO report as JSON"
    )
    _add_lab_flags(serve, "policies-on", "250 tenants, 1000 requests")
    serve.set_defaults(func=cmd_serve_lab)

    fleet = sub.add_parser(
        "fleet-lab",
        help="sharded multi-SSD campaign: replication on vs off under device chaos",
    )
    fleet.add_argument(
        "--requests", type=int, default=2000,
        help="requests per arm (default 2000)",
    )
    fleet.add_argument(
        "--devices", type=int, default=6, help="fleet size (default 6)"
    )
    fleet.add_argument(
        "--replication", type=int, default=2,
        help="replica count for the policies-on arm (default 2)",
    )
    fleet.add_argument(
        "--json", metavar="PATH", help="write the full fleet report as JSON"
    )
    _add_lab_flags(fleet, "replication-on", "600 requests")
    _add_jobs_flag(fleet)
    fleet.set_defaults(func=cmd_fleet_lab)

    search = sub.add_parser(
        "search",
        help="adversarial scenario search over the fault x workload x config space",
    )
    search.add_argument(
        "--budget", type=int, default=20_000,
        help="simulated-operation budget for the ascent (default 20000)",
    )
    search.add_argument(
        "--targets", default="chaos,resilience",
        help="comma-separated campaign targets "
        "(chaos, fleet, oracle, resilience, serve; default chaos,resilience)",
    )
    search.add_argument(
        "--out", default="search-corpus.json",
        help="corpus output path (default search-corpus.json)",
    )
    search.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging hits down to minimal repros",
    )
    search.add_argument(
        "--replay", metavar="CORPUS",
        help="replay an existing corpus instead of searching; every entry "
        "must reproduce its objective with a byte-identical run fingerprint",
    )
    search.add_argument(
        "--seed", type=int,
        help="deterministic seed for the whole campaign (default 7)",
    )
    search.set_defaults(func=cmd_search)

    fleet_oracle = sub.add_parser(
        "fleet-oracle",
        help="fleet crash-point oracle: kill mid-rebuild, restore, fingerprints must match",
    )
    fleet_oracle.add_argument(
        "--requests", type=int, default=400,
        help="requests per campaign (default 400)",
    )
    fleet_oracle.add_argument(
        "--devices", type=int, default=6, help="fleet size (default 6)"
    )
    fleet_oracle.add_argument(
        "--seeds", type=int, default=2, help="consecutive seeds to sweep (default 2)"
    )
    fleet_oracle.add_argument(
        "--points", type=int, default=7, help="crash points per seed (default 7)"
    )
    fleet_oracle.add_argument(
        "--verbose", "-v", action="store_true",
        help="print each crash point's verdict",
    )
    fleet_oracle.add_argument(
        "--seed", type=int, help="base seed for the sweep"
    )
    fleet_oracle.set_defaults(func=cmd_fleet_oracle)
    return parser


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for independent experiment points (default 1; "
        "results are byte-identical to serial at any value)",
    )


def _positive(kind: Callable[[str], Any]) -> Callable[[str], Any]:
    """An argparse type: parse the text as ``kind`` and require it to be > 0."""

    def parse(text: str) -> Any:
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its own errors
    return parse


def _add_platform_flags(parser: argparse.ArgumentParser) -> None:
    """The flags `_build_config` reads into a PlatformConfig."""
    parser.add_argument("--channels", type=_positive(int), help="flash channels (default 8)")
    parser.add_argument("--dram-gb", type=_positive(int), help="SSD DRAM capacity in GB")
    parser.add_argument("--dataset-gb", type=_positive(int), help="dataset size in GB (default 32)")
    parser.add_argument("--flash-latency-us", type=_positive(float), help="flash read latency")


def _add_seed_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, help="deterministic seed for workload generation and faults"
    )


def _add_lab_flags(parser: argparse.ArgumentParser, arm: str, quick: str) -> None:
    """The flags every two-arm lab reads; ``arm`` names the judged arm."""
    parser.add_argument(
        "--quick", action="store_true", help=f"small run for CI smoke ({quick})"
    )
    parser.add_argument(
        "--min-availability",
        type=float,
        default=99.0,
        help=f"fail (exit 1) if {arm} availability drops below this %% (default 99)",
    )
    parser.add_argument("--csv", metavar="PATH", help="write the per-arm summary as CSV")
    parser.add_argument(
        "--events", "-e", action="store_true", help=f"print the {arm} event log"
    )
    parser.add_argument(
        "--seed", type=int, help="deterministic seed for the whole campaign"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None and args.seed < 0:
        print("error: --seed must be a non-negative integer", file=sys.stderr)
        return 2
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        print("error: --jobs must be a positive integer", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # output piped into a closed reader (e.g. `| head`): exit quietly
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
