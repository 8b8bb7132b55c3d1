"""Tests for repro.sim.state: the declared-state checkpoint codec."""

import enum
from collections import OrderedDict, deque
from dataclasses import dataclass

import pytest

from repro.recovery import canonical_fingerprint
from repro.recovery.snapshot import decode_canonical, encode_canonical
from repro.sim.engine import Engine
from repro.sim.state import Stateful


class Mode(enum.Enum):
    IDLE = "idle"
    BUSY = "busy"


class Leaf(Stateful):
    STATE = ("count",)

    def __init__(self) -> None:
        self.count = 0


class Holder(Stateful):
    STATE = ("_cursor", "mode", "table", "log", "pending", "lru", "leaf", "spare", "nested")

    def __init__(self, table=None) -> None:
        self._cursor = 0
        self.mode = Mode.IDLE
        self.table = dict(table or {})
        self.log = []
        self.pending = deque()
        self.lru = OrderedDict()
        self.leaf = Leaf()
        self.spare = None
        self.nested = {}


@dataclass
class Counters(Stateful):
    reads: int = 0
    latency_s: float = 0.0


def busy_holder() -> Holder:
    holder = Holder({"b": 2, "a": 1})
    holder._cursor = 7
    holder.mode = Mode.BUSY
    holder.log.extend([(1.5, "x"), (2.5, "y")])
    holder.pending.extend([3, 1, 2])
    holder.lru["k2"] = True
    holder.lru["k1"] = False
    holder.leaf.count = 4
    holder.nested[9] = [1, 2]
    return holder


class TestCodec:
    def test_item_lists_capture_insertion_order(self):
        first, second = Holder({"a": 1, "b": 2}), Holder({"b": 2, "a": 1})
        assert canonical_fingerprint(first.snapshot_state()) != canonical_fingerprint(
            second.snapshot_state()
        )
        twin = Holder()
        twin.restore_state(first.snapshot_state())
        assert twin.table == {"a": 1, "b": 2}
        twin.restore_state(second.snapshot_state())
        assert list(twin.table) == ["b", "a"]

    def test_keys_drop_the_leading_underscore(self):
        state = busy_holder().snapshot_state()
        assert list(state) == [
            "cursor", "mode", "table", "log", "pending", "lru", "leaf", "spare", "nested",
        ]

    def test_each_type_becomes_a_primitive(self):
        state = busy_holder().snapshot_state()
        assert state["cursor"] == 7
        assert state["mode"] == "busy"
        assert state["table"] == [("b", 2), ("a", 1)]
        assert state["log"] == [(1.5, "x"), (2.5, "y")]
        assert state["pending"] == [3, 1, 2]
        assert state["lru"] == [("k2", True), ("k1", False)]
        assert state["leaf"] == {"count": 4}
        assert state["spare"] is None
        assert state["nested"] == [(9, [1, 2])]
        encode_canonical(state)  # primitive all the way down

    def test_round_trip_through_the_file_encoding(self):
        holder = busy_holder()
        state = decode_canonical(encode_canonical(holder.snapshot_state()))
        twin = Holder()
        twin.restore_state(state)
        assert twin.snapshot_state() == holder.snapshot_state()
        assert twin.mode is Mode.BUSY
        assert twin.log == holder.log

    def test_restore_fills_live_containers_in_place(self):
        twin = Holder()
        table, pending, lru, leaf = twin.table, twin.pending, twin.lru, twin.leaf
        twin.restore_state(busy_holder().snapshot_state())
        assert twin.table is table and twin.pending is pending
        assert twin.lru is lru and type(twin.lru) is OrderedDict
        assert type(twin.pending) is deque and list(twin.pending) == [3, 1, 2]
        assert twin.leaf is leaf and leaf.count == 4

    def test_no_restored_list_is_shared_with_the_snapshot(self):
        state = busy_holder().snapshot_state()
        twin = Holder()
        twin.restore_state(state)
        twin.nested[9].append(3)
        twin.log.append((3.5, "z"))
        assert state["nested"] == [(9, [1, 2])]
        assert len(state["log"]) == 2

    def test_a_dict_of_components_restores_key_by_key(self):
        holder = busy_holder()
        holder.table = {"x": Leaf(), "y": Leaf()}
        holder.table["y"].count = 5
        state = holder.snapshot_state()
        assert state["table"] == [("x", {"count": 0}), ("y", {"count": 5})]
        twin = busy_holder()
        twin.table = {"x": Leaf(), "y": Leaf()}
        kept = twin.table["y"]
        twin.restore_state(state)
        assert twin.table["y"] is kept and kept.count == 5

    def test_component_state_into_a_missing_component_raises(self):
        holder = busy_holder()
        holder.spare = Leaf()
        with pytest.raises(RuntimeError, match="none is attached"):
            Holder().restore_state(holder.snapshot_state())

    def test_a_missing_component_restores_as_none(self):
        twin = Holder()
        twin.spare = Leaf()
        twin.restore_state(busy_holder().snapshot_state())
        assert twin.spare is None

    def test_a_dataclass_carries_its_fields(self):
        counters = Counters(reads=3, latency_s=1.5)
        assert counters.snapshot_state() == {"reads": 3, "latency_s": 1.5}
        twin = Counters()
        twin.restore_state(counters.snapshot_state())
        assert twin == counters

    def test_sets_have_no_rule(self):
        holder = Holder()
        holder.log = {1, 2}
        with pytest.raises(TypeError, match="no snapshot rule"):
            holder.snapshot_state()

    def test_engine_still_refuses_a_busy_queue(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        with pytest.raises(RuntimeError, match="queued"):
            engine.snapshot_state()
        with pytest.raises(RuntimeError, match="queued"):
            engine.restore_state({"now": 0.0, "seq": 0, "events_fired": 0,
                                  "cancelled_pending": 0})
        engine.run()
        state = engine.snapshot_state()
        assert state == {"now": 1.0, "seq": 1, "events_fired": 1, "cancelled_pending": 0}
        twin = Engine()
        twin.restore_state(state)
        assert twin.now == 1.0
