"""Table 6: extra memory traffic from encryption and integrity verification.

Paper claim: averages of ~20.26% (encryption) and ~14.51% (verification),
with the write-intensive workloads far above the analytics queries
(wordcount 67.45%/43.81% vs TPC-H Q1 2.99%/2.22%).
"""

import statistics

from conftest import WORKLOAD_ORDER, print_header, run_once

from repro.platform import figures

PAPER = {
    "arithmetic": (0.0305, 0.0227),
    "aggregate": (0.0306, 0.0226),
    "filter": (0.0304, 0.0226),
    "tpch-q1": (0.0299, 0.0222),
    "tpch-q3": (0.0562, 0.0450),
    "tpch-q12": (0.0511, 0.0378),
    "tpch-q14": (0.1028, 0.0539),
    "tpch-q19": (0.3620, 0.2475),
    "tpcb": (0.4692, 0.3668),
    "tpcc": (0.3909, 0.3172),
    "wordcount": (0.6745, 0.4381),
}


def test_table6_extra_traffic(benchmark, profiles, config):
    measured = run_once(benchmark, lambda: figures.table6_extra_traffic(profiles, config))

    print_header(
        "Table 6: extra memory traffic (encryption / verification)",
        "write-heavy workloads pay far more metadata traffic than scans",
    )
    print(f"{'workload':>12s} {'paper enc':>10s} {'meas enc':>10s} "
          f"{'paper ver':>10s} {'meas ver':>10s}")
    for name in WORKLOAD_ORDER:
        enc, ver = measured[name]
        penc, pver = PAPER[name]
        print(f"{name:>12s} {penc*100:9.2f}% {enc*100:9.2f}% {pver*100:9.2f}% {ver*100:9.2f}%")
    enc_avg = statistics.mean(m[0] for m in measured.values())
    ver_avg = statistics.mean(m[1] for m in measured.values())
    print(f"\n  averages: encryption {enc_avg*100:.1f}% (paper 20.3%), "
          f"verification {ver_avg*100:.1f}% (paper 14.5%)")

    # shape: write-heavy >> read-heavy, and scans stay in low single digits
    write_heavy = statistics.mean(sum(measured[n]) for n in ("tpcb", "tpcc", "wordcount"))
    read_heavy = statistics.mean(
        sum(measured[n]) for n in WORKLOAD_ORDER if n not in ("tpcb", "tpcc", "wordcount")
    )
    assert write_heavy > 4 * read_heavy
    assert sum(measured["tpch-q1"]) < 0.10
    assert sum(measured["wordcount"]) > 0.25
