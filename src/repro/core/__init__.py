"""IceClave core: the paper's primary contribution.

- TrustZone-extended memory protection with the third *protected* region
  (§4.2, Figures 4 and 6).
- TEE lifecycle runtime implementing the Table 2 API (§4.5).
- Memory encryption engine with the hybrid-counter scheme and two Bonsai
  Merkle trees (§4.4, Figure 7).
- Stream-cipher engine securing flash→DRAM transfers (§5, Figure 10).
"""

from repro.core.config import IceClaveConfig
from repro.core.exceptions import (
    IceClaveError,
    IntegrityError,
    MMUFault,
    TeeAbort,
    TeeCreationError,
)
from repro.core.memory_protection import (
    AccessType,
    AddressSpace,
    MemoryRegion,
    RegionDescriptor,
    World,
)
from repro.core.counter_cache import CounterCache
from repro.core.integrity import BonsaiMerkleTree
from repro.core.mee import EncryptionScheme, MemoryEncryptionEngine
from repro.core.cipher_engine import StreamCipherEngine
from repro.core.tee import Tee, TeeState
from repro.core.runtime import IceClaveRuntime
from repro.core.scheduler import TeeScheduler
from repro.core.attestation import AttestationDevice, AttestationVerifier, Quote
from repro.core.secure_boot import BootRom, VendorSigner
from repro.core.key_management import derive_kek
from repro.core.fde import FdeEngine

__all__ = [
    "IceClaveConfig",
    "IceClaveError",
    "IntegrityError",
    "MMUFault",
    "TeeAbort",
    "TeeCreationError",
    "AccessType",
    "AddressSpace",
    "MemoryRegion",
    "RegionDescriptor",
    "World",
    "CounterCache",
    "BonsaiMerkleTree",
    "EncryptionScheme",
    "MemoryEncryptionEngine",
    "StreamCipherEngine",
    "Tee",
    "TeeState",
    "IceClaveRuntime",
    "TeeScheduler",
    "AttestationDevice",
    "AttestationVerifier",
    "Quote",
    "BootRom",
    "VendorSigner",
    "derive_kek",
    "FdeEngine",
]
