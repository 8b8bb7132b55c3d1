#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Run from the repository root::

    python tools/generate_experiments_md.py > EXPERIMENTS.md
"""

from __future__ import annotations

import dataclasses
import statistics
import sys

from repro.area import CipherEngineArea
from repro.core import IceClaveConfig
from repro.core.mee import EncryptionScheme, MemoryEncryptionEngine
from repro.cpu.models import CORTEX_A53, CORTEX_A72
from repro.platform import MultiTenantIceClave, PlatformConfig, make_platform
from repro.platform.config import MAPPING_IN_SECURE
from repro.workloads import workload_by_name

WORKLOADS = [
    "arithmetic", "aggregate", "filter",
    "tpch-q1", "tpch-q3", "tpch-q12", "tpch-q14", "tpch-q19",
    "tpcb", "tpcc", "wordcount",
]

TABLE1_PAPER = {
    "arithmetic": 2.02e-4, "aggregate": 2.08e-4, "filter": 1.71e-4,
    "tpch-q1": 6.40e-6, "tpch-q3": 3.96e-3, "tpch-q12": 2.99e-5,
    "tpch-q14": 3.94e-6, "tpch-q19": 9.92e-7,
    "tpcb": 5.19e-2, "tpcc": 9.05e-2, "wordcount": 4.61e-1,
}
TABLE6_PAPER = {
    "arithmetic": (3.05, 2.27), "aggregate": (3.06, 2.26), "filter": (3.04, 2.26),
    "tpch-q1": (2.99, 2.22), "tpch-q3": (5.62, 4.50), "tpch-q12": (5.11, 3.78),
    "tpch-q14": (10.28, 5.39), "tpch-q19": (36.20, 24.75),
    "tpcb": (46.92, 36.68), "tpcc": (39.09, 31.72), "wordcount": (67.45, 43.81),
}


def emit(line: str = "") -> None:
    sys.stdout.write(line + "\n")


def main() -> None:
    profiles = {name: workload_by_name(name).run() for name in WORKLOADS}
    config = PlatformConfig()
    platforms = {s: make_platform(s, config) for s in ("host", "host+sgx", "isc", "iceclave")}
    results = {
        name: {s: platforms[s].run(profiles[name]) for s in platforms}
        for name in WORKLOADS
    }

    emit("# EXPERIMENTS — paper vs. measured")
    emit()
    emit("Generated by `python tools/generate_experiments_md.py`. Absolute times")
    emit("come from a behavioral simulator, not the authors' gem5/FPGA testbed;")
    emit("the reproduction targets are *shapes* — who wins, rough factors, and")
    emit("where crossovers fall. Bands are enforced by `pytest benchmarks/`.")
    emit()

    # ---- Table 1 -----------------------------------------------------------
    emit("## Table 1 — memory write ratios")
    emit()
    emit("| workload | paper | measured (32 GB scale) |")
    emit("|---|---|---|")
    for name in WORKLOADS:
        measured = profiles[name].scaled(32 << 30).write_ratio
        emit(f"| {name} | {TABLE1_PAPER[name]:.2e} | {measured:.2e} |")
    emit()
    emit("Shape preserved: wordcount > tpcc > tpcb >> every analytics query;")
    emit("the TPC-H join queries sit 1-2 orders above the pure scans. The")
    emit("residual gap on Q1/Q14/Q19 comes from hash-build store accounting at")
    emit("small functional scale (the paper's plans are store-free for these).")
    emit()

    # ---- Figure 5 ----------------------------------------------------------
    secure = make_platform("iceclave", config.with_mapping_location(MAPPING_IN_SECURE))
    slows = [
        secure.run(profiles[n]).total_time / results[n]["iceclave"].total_time
        for n in WORKLOADS
    ]
    emit("## Figure 5 — mapping table in protected region vs secure world")
    emit()
    emit(f"- paper: protected region improves performance by **21.6%** on average")
    emit(f"- measured: secure-world variant is **+{(statistics.mean(slows)-1)*100:.1f}%** slower "
         f"(range +{(min(slows)-1)*100:.1f}% … +{(max(slows)-1)*100:.1f}%)")
    emit()

    # ---- Figure 8 ----------------------------------------------------------
    enforced = dataclasses.replace(config, mee_latency_exposure=1.0)
    fig8 = {}
    for scheme in EncryptionScheme:
        plat = make_platform("iceclave", enforced.with_mee_scheme(scheme))
        fig8[scheme] = {n: plat.run(profiles[n]).total_time for n in WORKLOADS}
    gains = [
        fig8[EncryptionScheme.SPLIT_COUNTER][n] / fig8[EncryptionScheme.HYBRID][n] - 1
        for n in WORKLOADS
    ]
    emit("## Figure 8 — hybrid counters vs SC-64 (memory-path study)")
    emit()
    emit("| workload | SC-64 (vs none) | hybrid (vs none) | hybrid gain |")
    emit("|---|---|---|---|")
    for n in WORKLOADS:
        none = fig8[EncryptionScheme.NONE][n]
        emit(f"| {n} | {fig8[EncryptionScheme.SPLIT_COUNTER][n]/none:.2f}x "
             f"| {fig8[EncryptionScheme.HYBRID][n]/none:.2f}x "
             f"| +{(fig8[EncryptionScheme.SPLIT_COUNTER][n]/fig8[EncryptionScheme.HYBRID][n]-1)*100:.0f}% |")
    emit()
    emit(f"- paper: hybrid improves **43%** on average over split counters")
    emit(f"- measured: **+{statistics.mean(gains)*100:.0f}%** average, read-intensive "
         f"workloads gaining the most (as in the paper)")
    emit()

    # ---- Figure 11 ---------------------------------------------------------
    emit("## Figure 11 — Host / Host+SGX / ISC / IceClave")
    emit()
    emit("| workload | host | host+sgx | isc | iceclave | ice/host | ice vs isc |")
    emit("|---|---|---|---|---|---|---|")
    sus, sgx_sus, ovs = [], [], []
    for n in WORKLOADS:
        r = results[n]
        su = r["iceclave"].speedup_over(r["host"])
        ov = r["iceclave"].overhead_over(r["isc"])
        sus.append(su)
        sgx_sus.append(r["iceclave"].speedup_over(r["host+sgx"]))
        ovs.append(ov)
        emit(f"| {n} | {r['host'].total_time:.1f}s | {r['host+sgx'].total_time:.1f}s "
             f"| {r['isc'].total_time:.1f}s | {r['iceclave'].total_time:.1f}s "
             f"| {su:.2f}x | +{ov*100:.1f}% |")
    emit()
    emit(f"- paper: 2.31x over Host, 2.38x over Host+SGX, +7.6% over ISC, "
         f"Host+SGX pays ~103% extra compute")
    emit(f"- measured: **{statistics.mean(sus):.2f}x** over Host, "
         f"**{statistics.mean(sgx_sus):.2f}x** over Host+SGX, "
         f"**+{statistics.mean(ovs)*100:.1f}%** over ISC, "
         f"SGX compute inflation ~{statistics.mean(results[n]['host+sgx'].stats['sgx_compute_inflation'] for n in WORKLOADS):.2f}x")
    emit()

    # ---- Table 5 -----------------------------------------------------------
    mee = MemoryEncryptionEngine(config=IceClaveConfig(), scheme=EncryptionScheme.HYBRID)
    for n in ("tpch-q1", "tpcc", "wordcount"):
        for page, line, is_write, readonly in profiles[n].trace.events[:20000]:
            (mee.write if is_write else mee.read)(page, line, readonly=readonly)
    emit("## Table 5 — overhead sources")
    emit()
    emit("| source | paper | this repo |")
    emit("|---|---|---|")
    emit("| TEE creation | 95 µs | 95 µs (config constant, FPGA-measured in paper) |")
    emit("| TEE deletion | 58 µs | 58 µs (config constant) |")
    emit("| context switch | 3.8 µs | 3.8 µs (config constant) |")
    emit(f"| memory encryption | 102.6 ns | {mee.stats.mean_encryption_latency()*1e9:.1f} ns (measured from MEE micro-sim) |")
    emit(f"| memory verification | 151.2 ns | {mee.stats.mean_verification_latency()*1e9:.1f} ns (measured) |")
    emit()

    # ---- Table 6 -----------------------------------------------------------
    emit("## Table 6 — extra memory traffic (%)")
    emit()
    emit("| workload | paper enc | measured enc | paper verify | measured verify |")
    emit("|---|---|---|---|---|")
    encs, vers = [], []
    for n in WORKLOADS:
        m = MemoryEncryptionEngine(config=IceClaveConfig(), scheme=EncryptionScheme.HYBRID)
        for page, line, is_write, readonly in profiles[n].trace.events[:60000]:
            (m.write if is_write else m.read)(page, line, readonly=readonly)
        enc = m.stats.encryption_extra_traffic() * 100
        ver = m.stats.verification_extra_traffic() * 100
        encs.append(enc)
        vers.append(ver)
        pe, pv = TABLE6_PAPER[n]
        emit(f"| {n} | {pe:.2f} | {enc:.2f} | {pv:.2f} | {ver:.2f} |")
    emit()
    emit(f"- paper averages: 20.26% / 14.51%; measured: "
         f"**{statistics.mean(encs):.1f}% / {statistics.mean(vers):.1f}%**. The")
    emit("  write-heavy >> read-heavy gradient is preserved.")
    emit()

    # ---- Figures 12/13 -----------------------------------------------------
    emit("## Figures 12 & 13 — channel scaling")
    emit()
    emit("| channels | ice/host avg (min–max) | overhead vs ISC avg (max) |")
    emit("|---|---|---|")
    for ch in (4, 8, 16, 32):
        cfg = config.with_channels(ch)
        ice, host, isc = (make_platform(s, cfg) for s in ("iceclave", "host", "isc"))
        sp = [ice.run(profiles[n]).speedup_over(host.run(profiles[n])) for n in WORKLOADS]
        ov = [ice.run(profiles[n]).overhead_over(isc.run(profiles[n])) for n in WORKLOADS]
        emit(f"| {ch} | {statistics.mean(sp):.2f}x ({min(sp):.2f}–{max(sp):.2f}) "
             f"| +{statistics.mean(ov)*100:.1f}% (+{max(ov)*100:.1f}%) |")
    emit()
    emit("- paper: speedup scales 1.7–5.0x with channels; overhead up to 28%, 8.6% avg")
    emit()

    # ---- Figure 14 ---------------------------------------------------------
    emit("## Figure 14 — flash read latency sweep")
    emit()
    emit("| t_RD | ice/host avg (min–max) |")
    emit("|---|---|")
    for lat in (10, 30, 50, 70, 90, 110):
        cfg = config.with_flash_read_latency(lat * 1e-6)
        ice, host = make_platform("iceclave", cfg), make_platform("host", cfg)
        sp = [ice.run(profiles[n]).speedup_over(host.run(profiles[n])) for n in WORKLOADS]
        emit(f"| {lat} µs | {statistics.mean(sp):.2f}x ({min(sp):.2f}–{max(sp):.2f}) |")
    emit()
    emit("- paper: 1.8–3.2x across devices; advantage narrows as flash slows")
    emit()

    # ---- Figure 15 ---------------------------------------------------------
    emit("## Figure 15 — in-storage computing capability")
    emit()
    emit("| core | avg time | relative perf |")
    emit("|---|---|---|")
    baseline = None
    for core, freq in ((CORTEX_A72, 1.6e9), (CORTEX_A72, 1.2e9), (CORTEX_A72, 0.8e9),
                       (CORTEX_A53, 1.6e9), (CORTEX_A53, 1.2e9), (CORTEX_A53, 0.8e9)):
        cfg = config.with_isc_core(core.with_frequency(freq))
        avg = statistics.mean(
            make_platform("iceclave", cfg).run(profiles[n]).total_time for n in WORKLOADS
        )
        baseline = baseline or avg
        emit(f"| {core.name} @ {freq/1e9:.1f} GHz | {avg:.1f}s | {baseline/avg:.3f} |")
    emit()
    emit("- paper: performance drops 13.7–33.4% across the sweep; OoO A72 > A53")
    emit()

    # ---- Figure 16 ---------------------------------------------------------
    emit("## Figure 16 — SSD DRAM capacity (4 GB → 2 GB)")
    emit()
    emit("| workload | ISC drop | IceClave drop |")
    emit("|---|---|---|")
    for n in WORKLOADS:
        isc4 = make_platform("isc", config.with_dram(4 << 30)).run(profiles[n]).total_time
        isc2 = make_platform("isc", config.with_dram(2 << 30)).run(profiles[n]).total_time
        ice4 = make_platform("iceclave", config.with_dram(4 << 30)).run(profiles[n]).total_time
        ice2 = make_platform("iceclave", config.with_dram(2 << 30)).run(profiles[n]).total_time
        emit(f"| {n} | +{(isc2/isc4-1)*100:.0f}% | +{(ice2/ice4-1)*100:.0f}% |")
    emit()
    emit("- paper: ISC drops 12–44%; IceClave follows the same trend")
    emit()

    # ---- Figures 17/18 -----------------------------------------------------
    mt = MultiTenantIceClave(config)
    emit("## Figures 17 & 18 — multi-tenant IceClave")
    emit()
    emit("Two tenants (TPC-C + partner):")
    emit()
    emit("| partner | tpcc slowdown | partner slowdown |")
    emit("|---|---|---|")
    for partner in ("tpch-q1", "filter", "tpch-q3", "tpcb", "wordcount"):
        rs = mt.run([profiles["tpcc"], profiles[partner]])
        emit(f"| {partner} | +{(rs[0].stats['slowdown']-1)*100:.1f}% "
             f"| +{(rs[1].stats['slowdown']-1)*100:.1f}% |")
    quad = [profiles[n] for n in ("tpcc", "tpch-q1", "filter", "wordcount")]
    rs = mt.run(quad)
    avg = statistics.mean(r.stats["slowdown"] - 1 for r in rs)
    emit()
    emit(f"Four tenants: average slowdown **+{avg*100:.1f}%** (paper: 21.4%); shared")
    emit(f"mapping-cache miss rate stays at the solo rate, "
         f"{rs[0].stats['shared_miss_rate']*100:.3f}% (paper reports up to 8.7% more misses).")
    emit()
    emit("- paper: 6.1–15.7% for two tenants")
    emit()

    # ---- §5 / §6.3 claims ----------------------------------------------------
    engine = CipherEngineArea()
    ice_q1 = results["tpch-q1"]["iceclave"]
    emit("## §5 and §6.3 point claims")
    emit()
    emit(f"- cipher engine area: paper **1.6%** of the controller; measured "
         f"**{engine.overhead_fraction()*100:.2f}%** ({engine.engine_mm2():.2f} mm² at 32 nm)")
    emit(f"- cached-mapping-table miss rate: paper **0.17%**; measured "
         f"**{ice_q1.stats['translation_miss_rate']*100:.3f}%** (sequential scans miss "
         f"once per 512-entry translation page)")
    emit(f"- stream cipher page latency {ice_q1.stats['cipher_page_latency']*1e6:.2f} µs "
         f"vs {config.flash_timing.transfer_time(4096)*1e6:.2f} µs channel transfer — "
         f"fully pipelined, zero exposed cost (consistent with the paper's 'low overhead')")
    emit()


if __name__ == "__main__":
    main()
