# analysis-module: repro.fleet.badtopo
"""Fixture: trips det-unseeded-path exactly once.

``route_read`` takes a seeded ``rng`` (so the topology-path check stays
quiet), but places the key with builtin ``hash()`` — whose value folds in
PYTHONHASHSEED and reshuffles every replica set between processes.
"""


def route_read(key, rng, devices):
    slot = hash(key) % len(devices)
    return devices[slot]
