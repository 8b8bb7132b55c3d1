"""Table 1: memory write ratios of the in-storage workloads.

Each workload executes for real; ratios are measured from its memory
access counts, then extrapolated to the paper's 32 GB dataset.
"""

from conftest import WORKLOAD_ORDER, print_header, run_once

from repro.platform import figures

PAPER = {
    "arithmetic": 2.02e-4,
    "aggregate": 2.08e-4,
    "filter": 1.71e-4,
    "tpch-q1": 6.40e-6,
    "tpch-q3": 3.96e-3,
    "tpch-q12": 2.99e-5,
    "tpch-q14": 3.94e-6,
    "tpch-q19": 9.92e-7,
    "tpcb": 5.19e-2,
    "tpcc": 9.05e-2,
    "wordcount": 4.61e-1,
}

DATASET = 32 << 30


def test_table1_write_ratios(benchmark, profiles):
    measured = run_once(benchmark, lambda: figures.table1_write_ratios(profiles, DATASET))

    print_header(
        "Table 1: in-storage workload write ratios",
        "write-intensive trio (tpcb/tpcc/wordcount) >> analytics queries",
    )
    print(f"{'workload':>12s} {'paper':>10s} {'measured':>10s}")
    for name in WORKLOAD_ORDER:
        print(f"{name:>12s} {PAPER[name]:10.2e} {measured[name]:10.2e}")

    # shape: the write-intensive group dominates, wordcount on top
    analytics_max = max(
        v for k, v in measured.items() if k not in ("tpcb", "tpcc", "wordcount")
    )
    assert measured["wordcount"] > measured["tpcc"] > measured["tpcb"] > analytics_max
    assert measured["wordcount"] > 0.3
    assert analytics_max < 0.05
