#!/usr/bin/env python3
"""Attack demo: the three §3 threat-model attacks, and how IceClave stops them.

Everything here is *functional*: real permission-checked mapping tables,
real MMU region checks, real Trivium ciphertext on the bus, real AES OTPs
and a real Bonsai Merkle tree in DRAM. Each attack is mounted and shown to
be blocked.
"""

from repro.core import (
    AccessType,
    IceClaveConfig,
    IceClaveRuntime,
    IntegrityError,
    MMUFault,
    StreamCipherEngine,
    TeeAbort,
    World,
)
from repro.core.config import MIB
from repro.core.functional_mee import FunctionalMee
from repro.faults import EnclaveIntegrityGuard
from repro.flash import FlashChip
from repro.flash.geometry import small_geometry
from repro.ftl import Ftl
from repro.host import IceClaveLibrary


def build_ssd():
    geo = small_geometry()
    ftl = Ftl(geo, chip=FlashChip(geo, store_data=True))
    config = IceClaveConfig(
        dram_bytes=512 * MIB,
        protected_region_bytes=8 * MIB,
        secure_region_bytes=8 * MIB,
        tee_preallocation_bytes=4 * MIB,
    )
    runtime = IceClaveRuntime(ftl, config=config)
    return ftl, runtime, IceClaveLibrary(runtime)


def attack_1_cross_tee_data_theft(ftl, runtime, lib) -> None:
    print("== Attack 1: steal a co-located tenant's data (§4.3) ==")
    # victim stores data and offloads a program over LPAs 0-7
    for lpa in range(8):
        ftl.write(lpa, f"victim-secret-{lpa}".encode())
    victim = lib.offload_code(b"\x90" * 128, lpas=list(range(8)))
    # attacker offloads its own program over LPA 8 and probes the victim's
    for lpa in [8]:
        ftl.write(lpa, b"attacker data")
    attacker = lib.offload_code(b"\x90" * 128, lpas=[8])
    print(f"  victim TEE id={victim.tee.eid}, attacker TEE id={attacker.tee.eid}")
    try:
        runtime.read_mapping_entry(attacker.tee, 0)  # brute-force probe
        raise AssertionError("attack unexpectedly succeeded!")
    except TeeAbort as abort:
        print(f"  BLOCKED: {abort}")
        print(f"  attacker TEE state: {attacker.tee.state.value} (ThrowOutTEE fired)")
    lib.execute(victim, lambda tee: b"victim unaffected")
    print(f"  victim result: {lib.get_result(victim.tid).decode()}\n")


def attack_2_mangle_ftl(runtime) -> None:
    print("== Attack 2: overwrite the FTL mapping table / GC state (§4.2) ==")
    space = runtime.address_space
    mapping_table_addr = space.protected_range.start  # cached mapping table
    ftl_code_addr = space.secure_range.start  # FTL + IceClave runtime
    for label, addr in (("mapping table", mapping_table_addr), ("FTL code", ftl_code_addr)):
        try:
            space.check(addr, World.NORMAL, AccessType.WRITE, tee_id=1)
            raise AssertionError("attack unexpectedly succeeded!")
        except MMUFault as fault:
            print(f"  write to {label}: BLOCKED ({fault})")
    # the normal world can still *read* the mapping table for translation
    space.check(mapping_table_addr, World.NORMAL, AccessType.READ, tee_id=1)
    print("  read of mapping table from normal world: allowed (no world switch)\n")


def attack_3_bus_snooping(ftl) -> None:
    print("== Attack 3: snoop the flash->DRAM bus (§4.4, §5) ==")
    engine = StreamCipherEngine(key=b"secure-key")
    secret = b"SSN=078-05-1120 balance=$1,000,000" + bytes(4096 - 35)
    ppa = ftl.write(100, secret).ppa
    iv, on_the_bus = engine.encrypt_page(ppa, secret)
    assert on_the_bus != secret and b"SSN" not in on_the_bus
    print(f"  plaintext head : {secret[:24]!r}")
    print(f"  bus observes   : {on_the_bus[:24]!r}  (Trivium ciphertext)")
    print(f"  TEE deciphers  : {engine.decrypt_page(iv, on_the_bus)[:24]!r}")
    iv2, second = engine.encrypt_page(ppa, secret)
    print(f"  same page re-read -> different IV/ciphertext: {on_the_bus != second}\n")


def attack_4_dram_tamper_and_replay() -> None:
    print("== Attack 4: tamper with / splice / replay SSD DRAM contents (§4.4) ==")
    mee = FunctionalMee(pages=8, aes_key=b"0123456789abcdef", mac_key=b"mac-key")
    mee.write_line(0, 0, b"intermediate result v1" + bytes(42))
    # cold-boot style tamper: flip a ciphertext bit in DRAM
    ct = bytearray(mee.dram_ciphertext[(0, 0)])
    ct[5] ^= 0x80
    mee.dram_ciphertext[(0, 0)] = bytes(ct)
    try:
        mee.read_line(0, 0)
        raise AssertionError("tamper undetected!")
    except IntegrityError as err:
        print(f"  bit-flip in DRAM: DETECTED ({err})")
    # replay: restore a perfectly valid but stale (ciphertext, MAC) snapshot
    mee2 = FunctionalMee(pages=8, aes_key=b"0123456789abcdef", mac_key=b"mac-key")
    mee2.write_line(1, 0, b"balance = $100" + bytes(50))
    stale = (mee2.dram_ciphertext[(1, 0)], mee2.dram_macs[(1, 0)])
    mee2.write_line(1, 0, b"balance = $0  " + bytes(50))
    mee2.dram_ciphertext[(1, 0)], mee2.dram_macs[(1, 0)] = stale
    try:
        mee2.read_line(1, 0)
        raise AssertionError("replay undetected!")
    except IntegrityError:
        print("  replay of stale snapshot: DETECTED (its MAC binds an outdated counter)")
    # splice: copy a valid pair onto the same line of another page, which
    # sits at the same counter
    mee3 = FunctionalMee(pages=8, aes_key=b"0123456789abcdef", mac_key=b"mac-key")
    mee3.write_line(0, 5, b"alice: $100" + bytes(53))
    mee3.write_line(1, 5, b"bob:   $5  " + bytes(53))
    mee3.dram_ciphertext[(1, 5)] = mee3.dram_ciphertext[(0, 5)]
    mee3.dram_macs[(1, 5)] = mee3.dram_macs[(0, 5)]
    try:
        mee3.read_line(1, 5)
        raise AssertionError("splice undetected!")
    except IntegrityError:
        print("  splice onto another page: DETECTED (its MAC binds the page)")
    # replay across a restart: corrupt DRAM to force the tenant to abort,
    # then put back a pair kept from before the restart
    guard = EnclaveIntegrityGuard()
    guard.register(1, 2, aes_key=b"0123456789abcdef", mac_key=b"mac-key")
    guard.write(1, 0, 0, b"balance = $100" + bytes(50))
    old = guard.tenants[1].mee
    stale = (old.dram_ciphertext[(0, 0)], old.dram_macs[(0, 0)])
    guard.write(1, 0, 0, b"balance = $0  " + bytes(50))
    guard.write(1, 0, 1, b"other")
    old.tamper_ciphertext(0, 1)
    assert guard.read(1, 0, 1) is None  # the tenant aborts
    reborn = guard.restart(1).mee  # same keys, the journal replayed
    reborn.dram_ciphertext[(0, 0)], reborn.dram_macs[(0, 0)] = stale
    if guard.read(1, 0, 0) is not None:
        raise AssertionError("replay across a restart undetected!")
    print(
        "  replay across an enclave restart: DETECTED (the new generation's"
        " counters start one major up)\n"
    )


def main() -> None:
    ftl, runtime, lib = build_ssd()
    attack_1_cross_tee_data_theft(ftl, runtime, lib)
    attack_2_mangle_ftl(runtime)
    attack_3_bus_snooping(ftl)
    attack_4_dram_tamper_and_replay()
    print("All attacks of the threat model were blocked.")


if __name__ == "__main__":
    main()
