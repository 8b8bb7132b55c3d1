"""IceClave runtime: TEE lifecycle and secure-world interaction (§4.5, §4.6).

Implements the runtime half of Table 2:

- ``CreateTEE``   — :meth:`IceClaveRuntime.create_tee`
- ``SetIDBits``   — performed inside ``create_tee``
- ``TerminateTEE``— :meth:`IceClaveRuntime.terminate_tee`
- ``ThrowOutTEE`` — :meth:`IceClaveRuntime.throw_out_tee`
- ``ReadMappingEntry`` — :meth:`IceClaveRuntime.read_mapping_entry`

The runtime executes in the secure world. Address translation normally hits
the cached mapping table in the protected region (no world switch); a miss
redirects to the secure-world FTL, which costs a context switch and a flash
read of the translation page (Figure 9, step 4).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.config import IceClaveConfig
from repro.core.exceptions import TeeAbort, TeeCreationError
from repro.core.memory_protection import AddressSpace
from repro.core.tee import Tee, TeeMessage, TeeState
from repro.ftl.ftl import Ftl
from repro.ftl.mapping import MAX_TEE_ID
from repro.ftl.mapping_cache import MappingCache


class IceClaveRuntime:
    """Manages in-storage TEEs on top of the FTL and the protection regions."""

    def __init__(
        self,
        ftl: Ftl,
        config: IceClaveConfig = IceClaveConfig(),
        mapping_cache: Optional[MappingCache] = None,
        address_space: Optional[AddressSpace] = None,
    ) -> None:
        self.ftl = ftl
        self.config = config
        self.mapping_cache = mapping_cache or MappingCache(
            cache_bytes=config.protected_region_bytes, page_bytes=config.page_bytes
        )
        self.address_space = address_space or AddressSpace(
            dram_bytes=config.dram_bytes,
            secure_bytes=config.secure_region_bytes,
            protected_bytes=config.protected_region_bytes,
        )
        self._free_ids: List[int] = list(range(1, MAX_TEE_ID + 1))
        self.tees: Dict[int, Tee] = {}
        # accumulated simulated time spent in runtime services
        self.charged_time = 0.0
        self.context_switches = 0
        self.created = 0
        self.terminated = 0
        self.aborted = 0

    # -- lifecycle ---------------------------------------------------------

    def create_tee(
        self,
        code: bytes,
        lpas: List[int],
        args: Any = None,
        tid: int = 0,
        decryption_key: Optional[bytes] = None,
    ) -> Tee:
        """CreateTEE + SetIDBits: admit an offloaded program (Figure 9 ②).

        Fails when no TEE ID is free, the program exceeds the size bound, or
        the normal region cannot host the 16 MB preallocation (the paper:
        creation fails when the program exceeds available SSD DRAM).
        """
        if len(code) > self.config.max_tee_code_bytes:
            raise TeeCreationError(
                f"program of {len(code)} bytes exceeds the "
                f"{self.config.max_tee_code_bytes}-byte bound"
            )
        if not self._free_ids:
            raise TeeCreationError("all TEE IDs are in use (IDs are recycled)")
        needed = self.config.tee_preallocation_bytes + len(code)
        if self.address_space.free_bytes() < needed:
            raise TeeCreationError(
                f"normal region cannot host TEE ({needed} bytes needed, "
                f"{self.address_space.free_bytes()} free)"
            )
        eid = self._free_ids.pop(0)
        tee = Tee(eid=eid, tid=tid, code=code, lpas=list(lpas), args=args,
                  decryption_key=decryption_key)
        tee.memory_range = self.address_space.allocate(needed, owner=eid)
        # SetIDBits: stamp ownership on the mapping entries of the declared LPAs
        for lpa in tee.lpas:
            self.ftl.mapping.set_id_bits(lpa, eid)
        tee.state = TeeState.READY
        self.tees[eid] = tee
        self.charged_time += self.config.tee_create_time
        self.created += 1
        return tee

    def terminate_tee(self, tee: Tee) -> Optional[bytes]:
        """TerminateTEE: reclaim resources and recycle the ID (Figure 9 ⑧).

        Returns the TEE's result (copied to the metadata region before
        teardown, as §4.6 describes).
        """
        if tee.eid not in self.tees:
            raise KeyError(f"TEE {tee.eid} is not managed by this runtime")
        result = tee.result
        self._release(tee)
        tee.state = TeeState.TERMINATED
        self.charged_time += self.config.tee_delete_time
        self.terminated += 1
        return result

    def throw_out_tee(self, tee: Tee, reason: str) -> TeeMessage:
        """ThrowOutTEE: abort on a violation or program exception (§4.5)."""
        message = TeeMessage(tee_id=tee.eid, reason=reason)
        tee.exception = message
        if tee.eid in self.tees:
            self._release(tee)
        tee.state = TeeState.ABORTED
        self.charged_time += self.config.tee_delete_time
        self.aborted += 1
        return message

    def _release(self, tee: Tee) -> None:
        self.ftl.mapping.clear_id_bits(tee.eid)
        if tee.memory_range is not None:
            self.address_space.free(tee.memory_range)
            tee.memory_range = None
        self.tees.pop(tee.eid, None)
        self._free_ids.append(tee.eid)
        self._free_ids.sort()

    # -- address translation (Figure 9 ③/④) ---------------------------------

    def read_mapping_entry(self, tee: Tee, lpa: int) -> int:
        """Translate an LPA for a TEE.

        Fast path: the translation page is cached in the protected region —
        a plain read, no world switch. Slow path: redirect to the secure
        FTL (context switch), which loads the translation page from flash
        and refills the protected-region cache.

        The ID-bit permission check runs on both paths; a denial aborts the
        TEE via ThrowOutTEE and re-raises as :class:`TeeAbort`.
        """
        if not tee.is_live():
            raise TeeAbort(tee.eid, f"translation from {tee.state.value} TEE")
        tee.translations += 1
        hit = self.mapping_cache.access(lpa)
        if not hit:
            tee.translation_misses += 1
            tee.context_switches += 1
            self.context_switches += 1
            # world switch + the FTL's flash read of the translation page
            self.charged_time += (
                self.config.context_switch_time
                + self.ftl.geometry.page_bytes / 600e6  # transfer
            )
        try:
            return self.ftl.translate(lpa, tee_id=tee.eid)
        except Exception as exc:
            self.throw_out_tee(tee, f"access control violated: {exc}")
            raise TeeAbort(tee.eid, str(exc)) from exc

    # -- introspection --------------------------------------------------------

    def translation_miss_rate(self) -> float:
        """Global mapping-cache miss rate (paper: 0.17%)."""
        return self.mapping_cache.miss_rate
