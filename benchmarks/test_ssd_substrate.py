"""Substrate benchmark: the SSD system under the standard trace shapes.

Not a paper table, but validates the SimpleSSD-substitute end to end:
latency and write-amplification behaviour under sequential, random, and
skewed workloads, with GC pauses visible in the tail.
"""

from conftest import print_header, run_once

from repro.flash.geometry import small_geometry
from repro.flash.traces import (
    TraceConfig,
    random_read,
    sequential_read,
    sequential_write,
    transaction_mix,
    zipf_write,
)
from repro.ftl.ssd_system import SsdSystem


def make_ssd():
    geometry = small_geometry(channels=4, chips_per_channel=2, dies_per_chip=1,
                              planes_per_die=2, blocks_per_plane=16,
                              pages_per_block=16)
    return SsdSystem(geometry=geometry)


def replay(ssd, trace):
    for op, lpa in trace:
        (ssd.write if op == "write" else ssd.read)(lpa)
    ssd.run_to_completion()


def test_ssd_substrate_trace_shapes(benchmark):
    def experiment():
        out = {}
        for name in ("sequential", "random-read", "zipf-write", "oltp"):
            ssd = make_ssd()
            pages = ssd.ftl.logical_pages // 2
            cfg = TraceConfig(logical_pages=pages, length=pages)
            replay(ssd, sequential_write(cfg))  # populate
            churn = TraceConfig(logical_pages=pages, length=pages * 2)
            if name == "sequential":
                replay(ssd, sequential_read(churn))
            elif name == "random-read":
                replay(ssd, random_read(churn))
            elif name == "zipf-write":
                replay(ssd, zipf_write(churn))
            else:
                replay(ssd, transaction_mix(churn, write_ratio=0.3))
            out[name] = (
                ssd.mean_read_latency(),
                ssd.mean_write_latency(),
                ssd.p99_style_max_write(),
                ssd.write_amplification(),
                ssd.ftl.stats.gc_erases,
            )
        return out

    results = run_once(benchmark, experiment)

    print_header(
        "SSD substrate: trace-shape characterization",
        "GC pauses in the write tail; WA grows with skewed overwrites",
    )
    print(f"{'trace':>15s} {'rd mean':>9s} {'wr mean':>9s} {'wr max':>9s} "
          f"{'WA':>6s} {'erases':>7s}")
    for name, (rd, wr, wmax, wa, erases) in results.items():
        print(f"{name:>15s} {rd*1e6:8.1f}u {wr*1e6:8.1f}u {wmax*1e6:8.1f}u "
              f"{wa:6.2f} {erases:7d}")

    # shape checks
    assert results["zipf-write"][3] >= results["sequential"][3]  # WA ordering
    assert results["zipf-write"][4] > 0  # churn forces GC
    for name, (rd, wr, wmax, wa, erases) in results.items():
        if wr:
            assert wmax >= wr  # tail at least the mean
