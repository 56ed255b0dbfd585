"""The Name Server module (paper Secs. 3, 3.2).

"For all practical purposes, the naming service is nothing more than an
application built on the Nucleus; however, it is also used by the
Nucleus, forcing the Nucleus to operate recursively."

The Name Server is an ordinary process with an ordinary Nucleus; its
single special property is that it listens at a *well-known* physical
address and assigns itself the first UAdd its database generates —
which every module's well-known table knows by convention
(:data:`~repro.ntcs.address.NAME_SERVER_UADD`).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import (
    ModuleStillAlive,
    NoForwardingAddress,
    NoSuchAddress,
    NoSuchName,
    NtcsError,
)
from repro.machine.process import SimProcess
from repro.naming import protocol as p
from repro.naming.database import NameDatabase
from repro.naming.protocol import NameRecord
from repro.ntcs.address import Address
from repro.ntcs.lcm import IncomingMessage
from repro.ntcs.message import FLAG_INTERNAL
from repro.ntcs.nucleus import Nucleus, NucleusConfig
from repro.ntcs.wellknown import WellKnownTable
from repro.util.counters import CounterSet


class _LocalNsp:
    """The Name Server's own Nucleus resolves against the local
    database directly — it cannot very well ask itself over the wire."""

    def __init__(self, db: NameDatabase):
        self._db = db

    def resolve_uadd(self, uadd: Address) -> NameRecord:
        return self._db.resolve_uadd(uadd)

    def resolve_name(self, name: str) -> Address:
        return self._db.resolve_name(name).uadd

    def lookup_forwarding(self, uadd: Address) -> Address:
        return self._db.lookup_forwarding(uadd).uadd

    def list_gateways(self):
        return self._db.list_gateways()

    def evict_address(self, uadd: Address) -> None:
        """No-op: the local database is authoritative, never stale."""


class NameServer:
    """The (currently single) Name Server module."""

    DEFAULT_NAME = "name.server"

    def __init__(
        self,
        process: SimProcess,
        registry,
        wellknown: WellKnownTable,
        network: Optional[str] = None,
        binding: Optional[str] = None,
        config: Optional[NucleusConfig] = None,
        db: Optional[NameDatabase] = None,
        name: str = None,
    ):
        self.process = process
        self.name = name or self.DEFAULT_NAME
        network = network or process.machine.networks[0]
        self.nucleus = Nucleus(process, network, registry, wellknown,
                               config=config)
        scheduler = process.scheduler
        self.db = db if db is not None else NameDatabase(clock=lambda: scheduler.now)
        self.listen_blob = self.nucleus.nd.create_resource(binding)
        # Self-registration is purely local — this is the base case that
        # terminates the naming recursion.  A *restarted* Name Server
        # handed its surviving database must keep its original UAdd:
        # every module's well-known table knows that address by
        # convention, and endpoints of chained opens check it with
        # is_self.  Reuse the existing record — refreshing its physical
        # address — instead of registering a second identity.
        try:
            record = self.db.resolve_name(self.name)
            record.alive = True
            record.addresses = [(network, self.listen_blob)]
            self.db.adopt(record)
        except NoSuchName:
            # First boot: nothing to take over — register fresh.
            record = self.db.register(
                self.name,
                attrs={"kind": "nameserver"},
                addresses=[(network, self.listen_blob)],
                mtype_name=process.machine.mtype.name,
            )
        self.uadd = record.uadd
        self.nucleus.set_identity(self.uadd)
        self.nucleus.nsp = _LocalNsp(self.db)
        self.nucleus.lcm.set_handler(self._on_request)
        self.counters = CounterSet()
        self._handlers = {
            "ns_register": self._handle_register,
            "ns_resolve_name": self._handle_resolve_name,
            "ns_resolve_uadd": self._handle_resolve_uadd,
            "ns_forward": self._handle_forward,
            "ns_deregister": self._handle_deregister,
            "ns_list_gw": self._handle_list_gw,
            "ns_ping": self._handle_ping,
            "ns_query_attrs": self._handle_query_attrs,
            "ns_resolve_batch": self._handle_resolve_batch,
        }

    # Reply types that carry the database generation (PROTOCOL.md §9);
    # _on_request stamps it centrally so no handler can forget.
    _GEN_REPLIES = frozenset({
        "ns_register_ack", "ns_resolve_name_ack", "ns_record_ack",
        "ns_forward_ack", "ns_list_gw_ack", "ns_query_attrs_ack",
        "ns_resolve_batch_ack",
    })

    # -- dispatch -----------------------------------------------------------

    def _on_request(self, request: IncomingMessage) -> None:
        handler = self._handlers.get(request.type_name)
        if handler is None:
            self.counters.incr("unknown_requests")
            return
        self.counters.incr(request.type_name)
        try:
            reply_type, values = handler(request)
        except NtcsError as exc:
            self.nucleus.log_error(f"{request.type_name} failed: {exc}")
            reply_type, values = "ns_ack", {"ok": 0, "detail": str(exc)[:90]}
        if reply_type in self._GEN_REPLIES:
            values.setdefault("gen", self.db.generation)
        if request.reply_expected:
            self.nucleus.lcm.reply(request, reply_type, values,
                                   flags=FLAG_INTERNAL)

    # -- handlers ----------------------------------------------------------------

    def _handle_register(self, request: IncomingMessage):
        attrs, addresses = p.decode_register_payload(request.values["payload"])
        record = self.db.register(
            name=request.values["name"],
            attrs=attrs,
            addresses=addresses,
            mtype_name=request.values["mtype"],
        )
        self._replicate("register", record)
        return "ns_register_ack", {"uadd": record.uadd.value}

    def _handle_resolve_name(self, request: IncomingMessage):
        try:
            record = self.db.resolve_name(request.values["name"])
        except NoSuchName:
            return "ns_resolve_name_ack", {"found": 0, "uadd": 0}
        return "ns_resolve_name_ack", {"found": 1, "uadd": record.uadd.value}

    def _handle_resolve_uadd(self, request: IncomingMessage):
        try:
            record = self.db.resolve_uadd(Address(value=request.values["uadd"]))
        except NoSuchAddress:
            return "ns_record_ack", {"found": 0, "record": b""}
        return "ns_record_ack", {
            "found": 1, "record": p.encode_records([record]),
        }

    def _handle_forward(self, request: IncomingMessage):
        old = Address(value=request.values["uadd"])
        try:
            replacement = self.db.lookup_forwarding(old)
        except NoSuchAddress:
            return "ns_forward_ack", {"status": p.FWD_NONE, "new_uadd": 0}
        except NoForwardingAddress:
            return "ns_forward_ack", {"status": p.FWD_NONE, "new_uadd": 0}
        except ModuleStillAlive:
            return "ns_forward_ack", {"status": p.FWD_ALIVE, "new_uadd": 0}
        return "ns_forward_ack", {
            "status": p.FWD_FOUND, "new_uadd": replacement.uadd.value,
        }

    def _handle_deregister(self, request: IncomingMessage):
        uadd = Address(value=request.values["uadd"])
        ok = self.db.deregister(uadd)
        if ok:
            self._replicate("deregister", self.db.resolve_uadd(uadd))
        return "ns_ack", {"ok": 1 if ok else 0, "detail": ""}

    def _handle_list_gw(self, request: IncomingMessage):
        gateways = self.db.list_gateways()
        return "ns_list_gw_ack", {
            "count": len(gateways), "records": p.encode_records(gateways),
        }

    def _handle_ping(self, request: IncomingMessage):
        return "ns_ack", {"ok": 1, "detail": "pong"}

    def _handle_resolve_batch(self, request: IncomingMessage):
        """Resolve many names in one round trip (PROTOCOL.md §9): the
        found records ride back whole, so one reply primes both the
        name→UAdd and UAdd→record caches."""
        names = p.decode_name_list(request.values["names"].decode("ascii"))
        records, missing = [], []
        for name in names:
            try:
                records.append(self.db.resolve_name(name))
            except NoSuchName:
                missing.append(name)
        return "ns_resolve_batch_ack", {
            "count": len(records),
            "payload": p.encode_batch_payload(missing, records),
        }

    def _handle_query_attrs(self, request: IncomingMessage):
        query_text = request.values["query"].decode("ascii")
        # Rich predicate syntax ("shard<=3") is served when the database
        # implements it (the Sec. 7 attribute-naming extension); plain
        # "k=v;k=v" exact matching otherwise.
        if hasattr(self.db, "query_predicates") and any(
            op in query_text for op in ("<", ">", "!", "~", "*")
        ):
            from repro.naming.attributes import parse_query
            matches = self.db.query_predicates(parse_query(query_text))
        else:
            matches = self.db.query_attrs(p.decode_attrs(query_text))
        return "ns_query_attrs_ack", {
            "count": len(matches), "records": p.encode_records(matches),
        }

    # -- replication hook (filled by repro.naming.shards) --------------------------

    def _replicate(self, op: str, record: NameRecord) -> None:
        pass

    def kill(self) -> None:
        """Take the Name Server down (E2's removal experiment)."""
        self.process.kill()
