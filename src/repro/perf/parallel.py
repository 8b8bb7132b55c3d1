"""Deterministic parallel execution of independent experiment points.

An experiment *point* is a picklable ``(kind, payload)`` tuple describing
one self-contained piece of work: run one workload on one scheme, run one
chaos campaign, run one fleet lab arm. Points carry names and
seeds — never live objects — so a worker process rebuilds exactly the same
deterministic state the serial path would, and the result is bit-identical
either way.

Ordering contract: :func:`map_points` returns results in *input order*
regardless of worker count or completion order (``Pool.map`` preserves
order; the serial path trivially does). Callers therefore merge results by
index and produce byte-identical output at ``--jobs 1`` and ``--jobs N``.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.platform.config import PlatformConfig
from repro.platform.metrics import RunResult
from repro.platform.schemes import make_platform

Spec = Tuple[str, Tuple[Any, ...]]

# Per-process cache: a worker handed several points for the same workload
# regenerates the (deterministic) profile only once.
_PROFILE_CACHE: Dict[Tuple[str, Optional[int]], Any] = {}


def platform_point(
    workload: str,
    scheme: str,
    config: PlatformConfig,
    seed: Optional[int] = None,
) -> Spec:
    """One (workload, scheme, config) run; returns a :class:`RunResult`."""
    return ("platform-run", (workload, scheme, config, seed))


def chaos_point(workload: str, write_ratio: float, seed: int, ops: int) -> Spec:
    """One fault-injection campaign; returns a ``ChaosReport``."""
    return ("chaos", (workload, write_ratio, seed, ops))


def fleet_point(
    seed: int,
    requests: int,
    devices: int,
    replication: int,
    hedge: bool,
    device_kills: int = 1,
    die_quarantines: int = 2,
) -> Spec:
    """One fleet lab arm; returns a ``FleetArmReport``."""
    return (
        "fleet-arm",
        (seed, requests, devices, replication, hedge, device_kills, die_quarantines),
    )


def _profile_for(workload: str, seed: Optional[int]) -> Any:
    key = (workload, seed)
    profile = _PROFILE_CACHE.get(key)
    if profile is None:
        from repro.workloads import workload_by_name

        kwargs = {} if seed is None else {"seed": seed}
        profile = _PROFILE_CACHE[key] = workload_by_name(workload, **kwargs).run()
    return profile


def execute_point(spec: Spec) -> Any:
    """Run one point to completion; pure in the spec (same spec ⇒ same result)."""
    kind, payload = spec
    if kind == "platform-run":
        workload, scheme, config, seed = payload
        profile = _profile_for(workload, seed)
        result: RunResult = make_platform(scheme, config).run(profile)
        return result
    if kind == "chaos":
        from repro.faults import run_chaos

        workload, write_ratio, seed, ops = payload
        return run_chaos(workload, write_ratio, seed=seed, ops=ops)
    if kind == "fleet-arm":
        from repro.fleet import FleetRunner

        seed, requests, devices, replication, hedge, kills, quarantines = payload
        return FleetRunner(
            seed,
            requests,
            devices=devices,
            replication=replication,
            hedge=hedge,
            device_kills=kills,
            die_quarantines=quarantines,
        ).run()
    raise ValueError(f"unknown point kind {kind!r}")


def map_points(specs: Iterable[Spec], jobs: int = 1) -> List[Any]:
    """Execute every point; results come back in input order.

    ``jobs <= 1`` runs inline (no pool, no pickling). With more jobs a
    process pool fans the points out; ``chunksize=1`` keeps scheduling
    greedy so one slow point does not serialize a whole chunk behind it.
    """
    spec_list = list(specs)
    if jobs <= 1 or len(spec_list) <= 1:
        return [execute_point(spec) for spec in spec_list]
    methods = multiprocessing.get_all_start_methods()
    # fork skips re-importing the world per worker; fall back where absent
    use_fork = "fork" in methods
    if use_fork:
        # build each distinct profile once in the parent: forked workers
        # inherit the cache, so no worker re-synthesizes a trace. (Profiles
        # are deterministic in (name, seed), so warming changes nothing.)
        for kind, payload in spec_list:
            if kind == "platform-run":
                _profile_for(payload[0], payload[3])
    ctx = multiprocessing.get_context("fork" if use_fork else None)
    workers = min(jobs, len(spec_list))
    with ctx.Pool(processes=workers) as pool:
        return pool.map(execute_point, spec_list, chunksize=1)
