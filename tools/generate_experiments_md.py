#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Every measured number comes from a ``repro.platform.figures`` builder;
this script only renders them next to the paper's values. Run from the
repository root::

    python tools/generate_experiments_md.py > EXPERIMENTS.md
"""

from __future__ import annotations

import statistics
import sys

from repro.area import CipherEngineArea
from repro.platform import PlatformConfig, figures
from repro.workloads import workload_by_name

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
    profiles = {name: workload_by_name(name).run() for name in figures.WORKLOAD_ORDER}
    config = PlatformConfig()
    results = figures.fig11_schemes(profiles, config)

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
    for name, measured in figures.table1_write_ratios(profiles).items():
        emit(f"| {name} | {TABLE1_PAPER[name]:.2e} | {measured:.2e} |")
    emit()
    emit("Shape preserved: wordcount > tpcc > tpcb >> every analytics query;")
    emit("the TPC-H join queries sit 1-2 orders above the pure scans. The")
    emit("residual gap on Q1/Q14/Q19 comes from hash-build store accounting at")
    emit("small functional scale (the paper's plans are store-free for these).")
    emit()

    # ---- Figure 5 ----------------------------------------------------------
    slows = [
        secure / protected
        for protected, secure in figures.fig5_mapping_location(profiles, config).values()
    ]
    emit("## Figure 5 — mapping table in protected region vs secure world")
    emit()
    emit(f"- paper: protected region improves performance by **21.6%** on average")
    emit(f"- measured: secure-world variant is **+{(statistics.mean(slows)-1)*100:.1f}%** slower "
         f"(range +{(min(slows)-1)*100:.1f}% … +{(max(slows)-1)*100:.1f}%)")
    emit()

    # ---- Figure 8 ----------------------------------------------------------
    fig8 = figures.fig8_mee_schemes(profiles, config)
    gains = [t["sc64"] / t["hybrid"] - 1 for t in fig8.values()]
    emit("## Figure 8 — hybrid counters vs SC-64 (memory-path study)")
    emit()
    emit("| workload | SC-64 (vs none) | hybrid (vs none) | hybrid gain |")
    emit("|---|---|---|---|")
    for n, t in fig8.items():
        emit(f"| {n} | {t['sc64']/t['none']:.2f}x | {t['hybrid']/t['none']:.2f}x "
             f"| +{(t['sc64']/t['hybrid']-1)*100:.0f}% |")
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
    for n, r in results.items():
        emit(f"| {n} | {r['host'].total_time:.1f}s | {r['host+sgx'].total_time:.1f}s "
             f"| {r['isc'].total_time:.1f}s | {r['iceclave'].total_time:.1f}s "
             f"| {r['iceclave'].speedup_over(r['host']):.2f}x "
             f"| +{r['iceclave'].overhead_over(r['isc'])*100:.1f}% |")
    summary = figures.fig11_summary(results)
    inflation = statistics.mean(
        r["host+sgx"].stats["sgx_compute_inflation"] for r in results.values()
    )
    emit()
    emit(f"- paper: 2.31x over Host, 2.38x over Host+SGX, +7.6% over ISC, "
         f"Host+SGX pays ~103% extra compute")
    emit(f"- measured: **{summary['speedup_vs_host']:.2f}x** over Host, "
         f"**{summary['speedup_vs_host_sgx']:.2f}x** over Host+SGX, "
         f"**+{summary['overhead_vs_isc']*100:.1f}%** over ISC, "
         f"SGX compute inflation ~{inflation:.2f}x")
    emit()

    # ---- Table 5 -----------------------------------------------------------
    t5 = figures.table5_overhead_sources(profiles, config)
    emit("## Table 5 — overhead sources")
    emit()
    emit("| source | paper | this repo |")
    emit("|---|---|---|")
    emit(f"| TEE creation | 95 µs | {t5['tee_create']*1e6:g} µs (config constant, FPGA-measured in paper) |")
    emit(f"| TEE deletion | 58 µs | {t5['tee_delete']*1e6:g} µs (config constant) |")
    emit(f"| context switch | 3.8 µs | {t5['context_switch']*1e6:g} µs (config constant) |")
    emit(f"| memory encryption | 102.6 ns | {t5['memory_encryption']*1e9:.1f} ns (measured from MEE micro-sim) |")
    emit(f"| memory verification | 151.2 ns | {t5['memory_verification']*1e9:.1f} ns (measured) |")
    emit()

    # ---- Table 6 -----------------------------------------------------------
    emit("## Table 6 — extra memory traffic (%)")
    emit()
    emit("| workload | paper enc | measured enc | paper verify | measured verify |")
    emit("|---|---|---|---|---|")
    encs, vers = [], []
    for n, (enc, ver) in figures.table6_extra_traffic(profiles, config).items():
        enc, ver = enc * 100, ver * 100
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
    for ch, point in figures.fig12_13_channel_sweep(profiles, config).items():
        sp = [s for s, _ in point.values()]
        ov = [o for _, o in point.values()]
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
    for lat, speedups in figures.fig14_latency_sweep(profiles, config).items():
        sp = list(speedups.values())
        emit(f"| {lat} µs | {statistics.mean(sp):.2f}x ({min(sp):.2f}–{max(sp):.2f}) |")
    emit()
    emit("- paper: 1.8–3.2x across devices; advantage narrows as flash slows")
    emit()

    # ---- Figure 15 ---------------------------------------------------------
    emit("## Figure 15 — in-storage computing capability")
    emit()
    emit("| core | avg time | relative perf |")
    emit("|---|---|---|")
    fig15 = figures.fig15_capability_sweep(profiles, config)
    baseline = next(iter(fig15.values()))
    for (core, freq), avg in fig15.items():
        emit(f"| {core} @ {freq/1e9:.1f} GHz | {avg:.1f}s | {baseline/avg:.3f} |")
    emit()
    emit("- paper: performance drops 13.7–33.4% across the sweep; OoO A72 > A53")
    emit()

    # ---- Figure 16 ---------------------------------------------------------
    emit("## Figure 16 — SSD DRAM capacity (4 GB → 2 GB)")
    emit()
    emit("| workload | ISC drop | IceClave drop |")
    emit("|---|---|---|")
    fig16 = figures.fig16_dram_sweep(profiles, config)
    for n, (isc4, ice4) in fig16[4].items():
        isc2, ice2 = fig16[2][n]
        emit(f"| {n} | +{(isc2/isc4-1)*100:.0f}% | +{(ice2/ice4-1)*100:.0f}% |")
    emit()
    emit("- paper: ISC drops 12–44%; IceClave follows the same trend")
    emit()

    # ---- Figures 17/18 -----------------------------------------------------
    emit("## Figures 17 & 18 — multi-tenant IceClave")
    emit()
    emit("Two tenants (TPC-C + partner):")
    emit()
    emit("| partner | tpcc slowdown | partner slowdown |")
    emit("|---|---|---|")
    pairs = figures.fig17_pairs(
        profiles, config, partners=["tpch-q1", "filter", "tpch-q3", "tpcb", "wordcount"]
    )
    for partner, rs in pairs.items():
        emit(f"| {partner} | +{(rs[0].stats['slowdown']-1)*100:.1f}% "
             f"| +{(rs[1].stats['slowdown']-1)*100:.1f}% |")
    rs = figures.fig18_quad(profiles, config)
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
