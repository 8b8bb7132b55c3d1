#!/usr/bin/env python3
"""Inside the SSD: the substrate IceClave protects.

Drives the FTL + event-driven flash stack directly to show what the
secure-world flash management actually does — and why a malicious program
that could intervene in it (attack 2 of the threat model) would be so
damaging: garbage collection moves live data around constantly, and wear
leveling decides which blocks survive.
"""

from repro.flash.geometry import small_geometry
from repro.flash.traces import TraceConfig, sequential_write, zipf_write
from repro.ftl.ssd_system import SsdSystem


def main() -> None:
    geometry = small_geometry(channels=4, chips_per_channel=2, dies_per_chip=1,
                              planes_per_die=2, blocks_per_plane=16,
                              pages_per_block=16)
    ssd = SsdSystem(geometry=geometry, store_data=True)
    pages = ssd.ftl.logical_pages // 2

    print("== populate: sequential writes ==")
    for op, lpa in sequential_write(TraceConfig(logical_pages=pages, length=pages)):
        ssd.write(lpa, data=f"record-{lpa}".encode())
    ssd.run_to_completion()
    print(f"  {ssd.stats.writes_issued:,} writes, write amplification "
          f"{ssd.write_amplification():.2f} (no GC yet)")

    print("\n== churn: Zipf-skewed overwrites ==")
    for op, lpa in zipf_write(TraceConfig(logical_pages=pages,
                                          length=geometry.total_pages * 2)):
        ssd.write(lpa, data=b"hot update")
    ssd.run_to_completion()
    print(f"  GC erased {ssd.ftl.stats.gc_erases} blocks, relocated "
          f"{ssd.ftl.stats.gc_relocations} live pages")
    print(f"  write amplification now {ssd.write_amplification():.2f}")
    print(f"  mean write {ssd.mean_write_latency()*1e6:.0f} us, worst (GC pause) "
          f"{ssd.p99_style_max_write()*1e6:.0f} us")

    lo, hi, mean = ssd.ftl.wear_leveler.wear_stats()
    print(f"  wear: min={lo} max={hi} mean={mean:.1f} "
          f"({ssd.ftl.stats.wl_migrations} leveling migrations)")

    print("\n== the data survived all of it ==")
    intact = sum(
        1 for lpa in range(pages)
        if ssd.ftl.read_data(lpa) in (f"record-{lpa}".encode(), b"hot update")
    )
    print(f"  {intact}/{pages} logical pages verify")
    assert intact == pages

    print("\nThis machinery runs in IceClave's secure world; the mapping table")
    print("it maintains is what in-storage programs read (but cannot write)")
    print("through the protected memory region.")


if __name__ == "__main__":
    main()
