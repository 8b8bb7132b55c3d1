# analysis-module: repro.sim.stats
"""Fixture: sec-key-containment must fire exactly once.

Every counter of the stats module is exported, so it may not name key
material at all, even to take its length.
"""


def export_row(row: dict, aes_key: bytes) -> dict:
    return {**row, "key_bytes": len(aes_key)}
