"""repro: a full-stack reproduction of IceClave (MICRO 2021).

IceClave is a lightweight trusted execution environment for in-storage
computing. This package re-implements the complete system the paper
evaluates, as a behavioral simulation:

- ``repro.core`` — the IceClave contribution: TrustZone-extended memory
  protection, the TEE runtime, the hybrid-counter memory encryption engine
  with Bonsai Merkle trees, and the Trivium stream-cipher engine.
- ``repro.flash`` / ``repro.ftl`` — the SSD substrate: discrete-event
  flash device and a page-level FTL with GC and wear leveling.
- ``repro.cpu`` — processor timing models. ``repro.dram`` is a DDR3
  bank-timing model exercised by its own tests only; platform runs charge
  the core model's constant DRAM latency.
- ``repro.workloads`` / ``repro.query`` — the Table 4 workloads, really
  executed by a miniature columnar query engine.
- ``repro.host`` / ``repro.platform`` — PCIe/SGX host models and the four
  §6.1 execution schemes, producing the paper's figures.

The top-level names in ``__all__`` resolve on first use, so
``import repro`` (which every ``python -m repro`` subcommand pays) loads
none of these packages.

Quick start::

    from repro import IceClavePlatform, workload_by_name

    result = IceClavePlatform().run(workload_by_name("tpch-q1").run())
    print(result.total_time, result.components)
"""

from importlib import import_module
from typing import Any, List

__version__ = "1.0.0"

# Each public name and the package it is imported from on first access.
_EXPORTS = {
    "IceClaveConfig": "repro.core",
    "IceClaveRuntime": "repro.core",
    "MemoryEncryptionEngine": "repro.core",
    "EncryptionScheme": "repro.core",
    "StreamCipherEngine": "repro.core",
    "Tee": "repro.core",
    "TeeState": "repro.core",
    "FlashDevice": "repro.flash",
    "FlashGeometry": "repro.flash",
    "FlashTiming": "repro.flash",
    "Ftl": "repro.ftl",
    "IceClaveLibrary": "repro.host",
    "HostPlatform": "repro.platform",
    "HostSgxPlatform": "repro.platform",
    "IceClavePlatform": "repro.platform",
    "IscPlatform": "repro.platform",
    "MultiTenantIceClave": "repro.platform",
    "PlatformConfig": "repro.platform",
    "RunResult": "repro.platform",
    "make_platform": "repro.platform",
    "ALL_WORKLOADS": "repro.workloads",
    "Workload": "repro.workloads",
    "WorkloadProfile": "repro.workloads",
    "workload_by_name": "repro.workloads",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(module), name)
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *_EXPORTS})
