"""Energy comparison across the four schemes (§1's efficiency motivation).

Not a table in the paper, but backs its claims that (a) in-storage
computing saves the energy of hauling data over PCIe and burning host
cores, and (b) IceClave's cipher/MEE energy overhead is minimal.
"""

import statistics

from conftest import WORKLOAD_ORDER, print_header, run_once

from repro.platform.energy import EnergyModel
from repro.platform.figures import SCHEMES, fig11_schemes


def test_energy_comparison(benchmark, profiles, config):
    def experiment():
        model = EnergyModel(config)
        out = {}
        for name, runs in fig11_schemes(profiles, config).items():
            out[name] = {s: model.total(profiles[name], runs[s]) for s in SCHEMES}
            out[name]["cipher_fraction"] = model.cipher_overhead_fraction(
                profiles[name], runs["iceclave"]
            )
        return out

    energy = run_once(benchmark, experiment)

    print_header(
        "Energy per run (joules)",
        "ISC/IceClave avoid PCIe + host-core energy; cipher overhead minimal",
    )
    print(f"{'workload':>12s} " + " ".join(f"{s:>10s}" for s in SCHEMES)
          + f" {'cipher %':>9s}")
    for name in WORKLOAD_ORDER:
        row = " ".join(f"{energy[name][s]:9.1f}J" for s in SCHEMES)
        print(f"{name:>12s} {row} {energy[name]['cipher_fraction']*100:8.2f}%")

    savings = [energy[n]["host"] / energy[n]["iceclave"] for n in WORKLOAD_ORDER]
    print(f"\n  IceClave saves {statistics.mean(savings):.1f}x energy vs Host on average")

    for name in WORKLOAD_ORDER:
        assert energy[name]["iceclave"] < energy[name]["host"]
        assert energy[name]["host+sgx"] >= energy[name]["host"]
        assert energy[name]["iceclave"] >= energy[name]["isc"]
        assert energy[name]["cipher_fraction"] < 0.05
