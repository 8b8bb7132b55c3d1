"""Workload abstraction and profiles.

A workload runs at a configurable (small) scale and produces a
:class:`WorkloadProfile`; the platform layer linearly extrapolates the
profile to the paper's 32 GB dataset via :meth:`WorkloadProfile.scaled`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Type

from repro.query.trace import AccessTrace


@dataclass
class WorkloadProfile:
    """Measured behaviour of one workload execution."""

    name: str
    rows: int
    input_bytes: int  # bytes the program streams from flash
    result_bytes: int  # final result returned to the host
    instructions: float
    trace: AccessTrace
    answer: object = None  # the actual query result (for correctness tests)

    @property
    def mem_reads(self) -> int:
        return self.trace.cpu_reads

    @property
    def dram_accesses(self) -> int:
        return self.trace.dram_accesses

    @property
    def write_ratio(self) -> float:
        """Table 1: fraction of memory accesses that are writes."""
        return self.trace.write_ratio

    def scaled(self, target_input_bytes: int) -> "WorkloadProfile":
        """Extrapolate counts to a larger dataset (same trace sample).

        Work per input byte is constant to first order for these streaming
        workloads, so counts scale linearly; the sampled trace keeps its
        statistical shape and is replayed as-is by the simulators.
        """
        if self.input_bytes <= 0:
            return self
        factor = target_input_bytes / self.input_bytes
        scaled_trace = AccessTrace(
            events=self.trace.events,
            cpu_reads=int(self.trace.cpu_reads * factor),
            cpu_writes=int(self.trace.cpu_writes * factor),
            dram_reads=int(self.trace.dram_reads * factor),
            dram_writes=int(self.trace.dram_writes * factor),
            fixed_dram_reads=self.trace.fixed_dram_reads,  # one-time costs
            fixed_dram_writes=self.trace.fixed_dram_writes,
        )
        return replace(
            self,
            rows=int(self.rows * factor),
            input_bytes=target_input_bytes,
            result_bytes=self.result_bytes,  # results do not grow with input
            instructions=self.instructions * factor,
            trace=scaled_trace,
        )


class Workload(ABC):
    """Base class: run at a given scale, return a profile."""

    name: str = "abstract"
    description: str = ""

    def __init__(self, scale_rows: Optional[int] = None, seed: int = 7) -> None:
        self.scale_rows = scale_rows or self.default_rows()
        self.seed = seed

    @staticmethod
    def default_rows() -> int:
        return 50_000

    @abstractmethod
    def run(self) -> WorkloadProfile:
        """Execute the workload and measure it."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rows={self.scale_rows})"


# populated by repro.workloads.__init__ imports via register()
ALL_WORKLOADS: Dict[str, Type[Workload]] = {}

# the paper's read- vs write-intensive split (§6.1)
READ_INTENSIVE: List[str] = [
    "arithmetic",
    "aggregate",
    "filter",
    "tpch-q1",
    "tpch-q3",
    "tpch-q12",
    "tpch-q14",
    "tpch-q19",
]
# ycsb is not in the paper's Table 4 — it is the KV mix the scenario-search
# genome reshapes — but with updates+inserts at 40% of ops it sits firmly
# on the write-intensive side of the §6.1 split
WRITE_INTENSIVE: List[str] = ["tpcb", "tpcc", "wordcount", "ycsb"]


def register(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator adding a workload to the registry."""
    ALL_WORKLOADS[cls.name] = cls
    return cls


def workload_by_name(name: str, **kwargs) -> Workload:
    """Instantiate a registered workload by its Table 4 name."""
    try:
        cls = ALL_WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(ALL_WORKLOADS))
        raise KeyError(f"unknown workload '{name}'; known: {known}") from None
    return cls(**kwargs)
