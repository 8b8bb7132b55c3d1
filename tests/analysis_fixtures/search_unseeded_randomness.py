# analysis-module: repro.search.badmut
"""Fixture: trips det-unseeded-path exactly once.

``mutate_seed`` does reference an ``rng`` (so the stochastic-path check
stays quiet), but it builds that PRNG fresh with ``XorShift64()`` — the
process-global default stream — instead of accepting the campaign's
threaded generator. The same genome then mutates differently depending
on what ran before, which breaks corpus replay.
"""

from repro.crypto.prng import XorShift64


def mutate_seed(scenario):
    rng = XorShift64()
    return scenario.with_seed(rng.next_below(1 << 16))
