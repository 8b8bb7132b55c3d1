"""Run reports are records: the fingerprint covers every field, in any dict order.

The six report classes of the resilience, serve and fleet labs, the chaos
report and the platform's run result each hash their dataclass fields with
the canonical codec, so a field added later is covered without a hand-kept
list. These tests pin that coverage.
"""

import dataclasses

import pytest

from repro.faults import run_chaos
from repro.fleet import run_fleet
from repro.platform import PlatformConfig, make_platform
from repro.resilience import run_resilience
from repro.serve import run_serve_lab
from repro.workloads import workload_by_name

CLASSES = (
    "ArmReport",
    "ResilienceReport",
    "ServeArmReport",
    "ServeLabReport",
    "FleetArmReport",
    "FleetReport",
    "ChaosReport",
    "RunResult",
)


@pytest.fixture(scope="module")
def reports():
    resilience = run_resilience(seed=7, ops=200)
    serve = run_serve_lab(seed=3, tenants=30, requests=120)
    fleet = run_fleet(42, 200, devices=4, working_set=32)
    found = {
        "ResilienceReport": resilience,
        "ArmReport": resilience.baseline,
        "ServeLabReport": serve,
        "ServeArmReport": serve.baseline,
        "FleetReport": fleet,
        "FleetArmReport": fleet.off,
        "ChaosReport": run_chaos("tpch-q1", 0.5, seed=11, ops=400),
        "RunResult": make_platform("iceclave", PlatformConfig()).run(
            workload_by_name("tpch-q1", seed=7).run()
        ),
    }
    assert {name: type(report).__name__ for name, report in found.items()} == {
        name: name for name in CLASSES
    }
    return found


def _changed(value):
    """A different value of the same type (an arm changes its first field)."""
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0].name
        return dataclasses.replace(value, **{first: _changed(getattr(value, first))})
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1.0
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, dict):
        return {**value, "added": 1}
    return type(value)([*value, "added"])  # a list or a tuple


def _reordered(report):
    """(path, a, b): copies of ``report`` whose one dict field holds the same
    items inserted in opposite orders (an arm's dicts included)."""
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if isinstance(value, dict):
            items = [*value.items(), ("~extra", 1)]  # at least two entries
            yield (
                f.name,
                dataclasses.replace(report, **{f.name: dict(items)}),
                dataclasses.replace(report, **{f.name: dict(reversed(items))}),
            )
        elif dataclasses.is_dataclass(value):
            for path, a, b in _reordered(value):
                yield (
                    f"{f.name}.{path}",
                    dataclasses.replace(report, **{f.name: a}),
                    dataclasses.replace(report, **{f.name: b}),
                )


@pytest.mark.parametrize("name", CLASSES)
def test_every_field_moves_the_fingerprint(reports, name):
    report = reports[name]
    fingerprint = report.fingerprint()
    for f in dataclasses.fields(report):
        other = dataclasses.replace(report, **{f.name: _changed(getattr(report, f.name))})
        assert other.fingerprint() != fingerprint, f"{name}.{f.name} is not covered"


@pytest.mark.parametrize("name", CLASSES)
def test_dict_insertion_order_does_not_move_it(reports, name):
    variants = list(_reordered(reports[name]))
    assert variants, f"{name} has no dict field to reorder"
    for path, a, b in variants:
        assert a.fingerprint() == b.fingerprint(), f"{name}.{path} hashes its order"
