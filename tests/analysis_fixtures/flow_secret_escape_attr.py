# analysis-module: repro.faults.fixture_audit
"""Fixture: flow-secret-escape must fire exactly once.

`self.mac_key` is never assigned from a key-minting call: reading a
secret-shaped attribute is itself a taint source, and the event log is a
telemetry sink.
"""


class Auditor:
    def record(self, op: str) -> None:
        self.event_log.append((op, self.mac_key))
