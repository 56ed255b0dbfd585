"""The NTCS naming service (paper Sec. 3).

"A single dynamic naming service supporting all name and address
resolution within the NTCS, is built entirely on top of the Nucleus.
As such it is used by the internal Nucleus layers below, as well as by
the application modules above."

* :mod:`protocol` — the NS wire protocol (packed-mode bodies) and the
  :class:`NameRecord` exchanged over it,
* :mod:`database` — the name/address database: registration, two-level
  resolution, forwarding, supersession,
* :mod:`server` — the Name Server module, "for all practical purposes
  ... nothing more than an application built on the Nucleus",
* :mod:`nsp` — the NSP-Layer, "the single naming service access point
  for all layers within the ComMod",
* :mod:`attributes` — the attribute-value naming scheme the paper's
  Sec. 7 says was being adopted,
* :mod:`shards` — the name service Sec. 7 plans for: "replicated for
  failure resiliency" and "partially distributed across two or more
  such modules" — consistent-hash sharding over replica groups, with
  generation-stamped anti-entropy; a replica set is a shard of one.
"""

from repro.naming.protocol import NameRecord, register_naming_types
from repro.naming.database import NameDatabase
from repro.naming.server import NameServer
from repro.naming.nsp import NspLayer
from repro.naming.shards import HashRing, ShardedNameServer, ShardedNspLayer

__all__ = [
    "NameRecord",
    "register_naming_types",
    "NameDatabase",
    "NameServer",
    "NspLayer",
    "HashRing",
    "ShardedNameServer",
    "ShardedNspLayer",
]
