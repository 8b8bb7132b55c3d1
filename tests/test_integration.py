"""End-to-end integration tests: the full Figure 9 workflow.

Host encrypts its data and stores it on the SSD; a program is offloaded
via OffloadCode; the TEE translates addresses through the protected-region
mapping cache, pulls pages through the stream-cipher engine, decrypts the
user data with the key shipped alongside the program, computes, and
returns the result via GetResult — with every protection layer functional.
"""

import pytest

from repro.core import (
    IceClaveConfig,
    IceClaveRuntime,
    StreamCipherEngine,
    TeeAbort,
    TeeState,
)
from repro.core.config import MIB
from repro.crypto.aes import AES128
from repro.flash import FlashChip
from repro.flash.geometry import small_geometry
from repro.ftl import Ftl
from repro.host import IceClaveLibrary

USER_KEY = b"users-secret-key"
PAGE = 4096


def xor_pad(key: bytes, index: int, data: bytes) -> bytes:
    """User-side encryption: AES-CTR style pad per logical page."""
    pad = AES128(key).otp(seed=index, nbytes=len(data))
    return bytes(a ^ b for a, b in zip(data, pad))


class Fixture:
    def __init__(self):
        geo = small_geometry(channels=2, chips_per_channel=2, dies_per_chip=1,
                             planes_per_die=2, blocks_per_plane=16, pages_per_block=16)
        self.ftl = Ftl(geo, chip=FlashChip(geo, store_data=True))
        config = IceClaveConfig(
            dram_bytes=512 * MIB,
            protected_region_bytes=8 * MIB,
            secure_region_bytes=8 * MIB,
            tee_preallocation_bytes=4 * MIB,
        )
        self.runtime = IceClaveRuntime(self.ftl, config=config)
        self.library = IceClaveLibrary(self.runtime)
        self.cipher = StreamCipherEngine(key=b"device-key")

    def host_store(self, lpa: int, plaintext: bytes) -> None:
        """Host encrypts with its own key before storing (threat model §3)."""
        self.ftl.write(lpa, xor_pad(USER_KEY, lpa, plaintext))


@pytest.fixture()
def ssd():
    return Fixture()


class TestFigure9Workflow:
    def test_full_offload_pipeline(self, ssd):
        # ① host stores user-encrypted records
        records = {lpa: f"record-{lpa:04d},value={lpa * 3}".encode() for lpa in range(16)}
        for lpa, record in records.items():
            ssd.host_store(lpa, record)

        # ② OffloadCode ships the program, the LPA list, and the user key
        handle = ssd.library.offload_code(
            b"\x90" * 256, lpas=list(records), decryption_key=USER_KEY
        )
        tee = handle.tee
        assert tee.state is TeeState.READY

        # ③④⑤⑥ the in-storage program translates, loads through the stream
        # cipher, and decrypts with the user key
        def program(tee):
            total = 0
            for lpa in tee.lpas:
                ppa = ssd.runtime.read_mapping_entry(tee, lpa)
                stored = ssd.ftl.chip.read(ppa)
                # flash -> DRAM transfer is ciphered on the internal bus
                iv, bus_bytes = ssd.cipher.encrypt_page(ppa, stored)
                assert bus_bytes != stored  # snooper sees ciphertext
                arrived = ssd.cipher.decrypt_page(iv, bus_bytes)
                plaintext = xor_pad(tee.decryption_key, lpa, arrived)
                assert plaintext == records[lpa]
                total += int(plaintext.split(b"value=")[1])
            return str(total).encode()

        ssd.library.execute(handle, program)

        # ⑦⑧ GetResult returns the result and tears the TEE down
        result = ssd.library.get_result(handle.tid)
        assert int(result) == sum(lpa * 3 for lpa in records)
        assert tee.state is TeeState.TERMINATED
        assert not ssd.runtime.tees

    def test_translation_uses_protected_region_cache(self, ssd):
        for lpa in range(600):
            ssd.ftl.write(lpa, b"x")
        handle = ssd.library.offload_code(b"\x90", lpas=list(range(600)))
        for lpa in range(600):
            ssd.runtime.read_mapping_entry(handle.tee, lpa)
        # 600 LPAs span two translation pages: exactly two slow paths
        assert handle.tee.translation_misses == 2
        assert handle.tee.context_switches == 2
        assert ssd.runtime.translation_miss_rate() < 0.01

    def test_concurrent_tees_are_isolated_end_to_end(self, ssd):
        for lpa in range(8):
            ssd.host_store(lpa, b"tenant-A" + bytes(8))
        for lpa in range(8, 16):
            ssd.host_store(lpa, b"tenant-B" + bytes(8))
        a = ssd.library.offload_code(b"\xaa" * 64, lpas=list(range(8)))
        b = ssd.library.offload_code(b"\xbb" * 64, lpas=list(range(8, 16)))
        assert a.tee.eid != b.tee.eid
        assert a.tee.measurement != b.tee.measurement

        # each tenant can reach its own data
        assert ssd.runtime.read_mapping_entry(a.tee, 0) is not None
        assert ssd.runtime.read_mapping_entry(b.tee, 8) is not None
        # ... but not the other's
        with pytest.raises(TeeAbort):
            ssd.runtime.read_mapping_entry(b.tee, 0)
        # tenant A is unaffected by B's abort
        ssd.library.execute(a, lambda tee: b"done")
        assert ssd.library.get_result(a.tid) == b"done"

    def test_gc_does_not_break_running_tee(self, ssd):
        """Relocations move the TEE's pages; translation still works because
        only the secure-world FTL updates the mapping table."""
        for lpa in range(4):
            ssd.host_store(lpa, f"live-{lpa}".encode())
        handle = ssd.library.offload_code(b"\x90", lpas=[0, 1, 2, 3])
        before = [ssd.runtime.read_mapping_entry(handle.tee, lpa) for lpa in range(4)]
        # churn unrelated logical pages until GC relocates the live data
        geo = ssd.ftl.geometry
        for i in range(geo.total_pages * 2):
            ssd.ftl.write(4 + (i % 6), b"churn")
        assert ssd.ftl.stats.gc_erases > 0
        after = [ssd.runtime.read_mapping_entry(handle.tee, lpa) for lpa in range(4)]
        # data still readable and correct through the new PPAs
        for lpa, ppa in enumerate(after):
            plaintext = xor_pad(USER_KEY, lpa, ssd.ftl.chip.read(ppa))
            assert plaintext == f"live-{lpa}".encode()
        # ownership stamps survived relocation
        for lpa in range(4):
            assert ssd.ftl.mapping.entry_unchecked(lpa).owner == handle.tee.eid
        del before

    def test_fifteen_tenants_round_trip(self, ssd):
        handles = []
        for i in range(15):
            lpa = 100 + i
            ssd.host_store(lpa, f"tenant-{i}".encode())
            handles.append(ssd.library.offload_code(b"\x90" * 32, lpas=[lpa]))
        for i, handle in enumerate(handles):
            ssd.library.execute(handle, lambda tee, i=i: f"result-{i}".encode())
        for i, handle in enumerate(handles):
            assert ssd.library.get_result(handle.tid) == f"result-{i}".encode()
        # every ID was recycled
        assert len(ssd.runtime._free_ids) == 15


class TestChargedTimeAccounting:
    def test_runtime_charges_accumulate(self, ssd):
        for lpa in range(4):
            ssd.ftl.write(lpa, b"x")
        cfg = ssd.runtime.config
        handle = ssd.library.offload_code(b"\x90", lpas=[0, 1, 2, 3])
        ssd.library.execute(handle, lambda tee: b"x")
        ssd.library.get_result(handle.tid)
        expected_min = cfg.tee_create_time + cfg.tee_delete_time
        assert ssd.runtime.charged_time >= expected_min
