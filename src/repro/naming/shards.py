"""The sharded, replicated naming service (paper Sec. 7, PROTOCOL.md §14).

"The database could also be partially distributed across two or more
such modules ... without affecting the rest of the NTCS.  This
flexibility is a direct result of having built this service on top of
the Nucleus, and of isolating it with the NSP-Layer."

The name↔UAdd database is partitioned across N *shards* by a
deterministic consistent-hash ring over logical names; each shard is a
replica group.  A plain replicated naming service ("replicated for
failure resiliency", Sec. 7) is the one-shard case:
``deploy_sharded_naming(bed, [machines])``.  The service stays
*recursive*: every shard server is an ordinary module on the Nucleus it
serves, bootstrapped from well-known addresses exactly like the single
Name Server.

Inside a replica group:

* each server's database generates UAdds with "a unique Name Server
  identifier ... appended" (Sec. 3.2), so replicas never collide,
* every origin write (register/deregister) is fanned out to the peer
  replicas as an ``ns_repl_update`` datagram over the NTCS's own
  connectionless protocol (last write wins; the paper predates
  stronger replication and so do we),
* the :class:`ShardedNspLayer` fails over between the replicas of the
  owning shard, priming the module's address tables with every
  server's well-known blob — the Sec. 3.4 bootstrap, extended to the
  fleet.

Routing:

* name-keyed requests (register, resolve_name, resolve_batch) go to
  ``ring.owner(name)``,
* UAdd-keyed requests (resolve_uadd, forward, deregister) go to the
  shard containing the server that *minted* the UAdd — the Sec. 3.2
  server-id prefix makes this a shift and a dictionary lookup,
* a server asked about a name or UAdd it does not own answers
  ``ns_shard_redirect`` carrying the owning shard's replica directory;
  clients follow a bounded number of hops and fold newly learned
  shards into their own ring (the §9 path-compression idea applied to
  shard routing).

Reconciliation reuses the PR 4 generation stamps: every origin write
is appended to the database's :attr:`~NameDatabase.oplog` under its
generation stamp, and ``ns_antientropy`` pulls exactly the suffix past
the requester's watermark.  The merge is tombstone-wins and therefore
idempotent and order-insensitive.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    DestinationUnavailable,
    NameServerUnreachable,
    NtcsError,
    ProtocolError,
    ReplyTimeout,
)
from repro.naming import protocol as p
from repro.naming.protocol import NameRecord
from repro.naming.nsp import NspLayer
from repro.naming.server import NameServer
from repro.ntcs.address import Address, SERVER_ID_SHIFT, blob_network
from repro.ntcs.lcm import IncomingMessage
from repro.ntcs.message import FLAG_INTERNAL

# One directory entry per shard server: (uadd, listen blob, mtype name).
ShardEntry = Tuple[Address, str, str]


# -- the consistent-hash ring -----------------------------------------------------

class HashRing:
    """Deterministic consistent hashing over shard ids.

    Hash points come from CRC-32 (stable across processes and
    platforms — Python's built-in ``hash`` is salted per process and
    would break the "every client computes the same owner" invariant).
    Each shard contributes ``vnodes`` virtual points; a name is owned
    by the shard holding the first point at or after the name's hash,
    wrapping at the top.  Adding a shard only moves names *to* it;
    removing one only moves names *from* it (monotone remapping).
    """

    def __init__(self, shard_ids: Iterable[int] = (), vnodes: int = 128):
        self.vnodes = vnodes
        self._points: List[Tuple[int, int]] = []  # sorted (point, shard)
        self._shards: set = set()
        for shard_id in sorted(shard_ids):
            self.add_shard(shard_id)

    @staticmethod
    def _hash(key: str) -> int:
        return zlib.crc32(key.encode("utf-8"))

    def _shard_points(self, shard_id: int) -> List[Tuple[int, int]]:
        return [(self._hash(f"shard-{shard_id}#{v}"), shard_id)
                for v in range(self.vnodes)]

    def add_shard(self, shard_id: int) -> None:
        """Insert a shard's virtual points; idempotent."""
        if shard_id in self._shards:
            return
        self._shards.add(shard_id)
        for point in self._shard_points(shard_id):
            bisect.insort(self._points, point)

    def remove_shard(self, shard_id: int) -> None:
        """Drop a shard's virtual points; idempotent."""
        if shard_id not in self._shards:
            return
        self._shards.discard(shard_id)
        self._points = [pt for pt in self._points if pt[1] != shard_id]

    def owner(self, name: str) -> int:
        """The shard owning a logical name."""
        if not self._points:
            raise NtcsError("the hash ring has no shards")
        index = bisect.bisect_left(self._points, (self._hash(name), -1))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    @property
    def shards(self) -> List[int]:
        return sorted(self._shards)

    def __contains__(self, shard_id: int) -> bool:
        return shard_id in self._shards

    def __len__(self) -> int:
        return len(self._shards)


# -- the shard server -------------------------------------------------------------

class ShardedNameServer(NameServer):
    """One replica of one naming shard.

    Fans every origin write out to its replica peers; checks ownership
    of every name- and UAdd-keyed request against the ring, answering
    misrouted requests with ``ns_shard_redirect``; and serves/pulls the
    generation-stamped anti-entropy protocol.
    """

    def __init__(self, *args, shard_id: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        self.shard_id = shard_id
        self.peer_uadds: List[Address] = []
        self.shard_directory: Dict[int, List[ShardEntry]] = {}
        self._ring: Optional[HashRing] = None
        self._minted: Dict[int, int] = {}
        # Per-peer anti-entropy watermark: the peer's generation tip as
        # of the last completed pull.  Deliberately *not* persisted on
        # the database: a restarted replica starts at zero and replays
        # the peer's whole oplog (the merge is idempotent).
        self._applied_gen: Dict[Address, int] = {}
        self._handlers["ns_repl_update"] = self._handle_repl_update
        self._handlers["ns_antientropy"] = self._handle_antientropy
        self._handlers["ns_shard_handoff"] = self._handle_handoff

    def set_peers(self, peers: Sequence[Address]) -> None:
        """Tell this server which in-shard replica UAdds to replicate to."""
        self.peer_uadds = [u for u in peers if u != self.uadd]

    # -- shard map ------------------------------------------------------------

    def set_shard_map(self, shard_directory: Dict[int, List[ShardEntry]]) -> None:
        """Install (or refresh, after a rebalance) the shard→replicas
        directory this server routes and redirects by."""
        self.shard_directory = {
            sid: list(entries) for sid, entries in shard_directory.items()
        }
        self._ring = HashRing(self.shard_directory)
        self._minted = {
            uadd.value >> SERVER_ID_SHIFT: sid
            for sid, entries in self.shard_directory.items()
            for uadd, _, _ in entries
        }

    def _owner_of(self, name: str) -> int:
        if self._ring is None:
            return self.shard_id
        return self._ring.owner(name)

    def _redirect(self, shard_id: int):
        """A redirect reply carrying the owning shard's replica
        directory as name records, so the client can follow it without
        any further resolution."""
        self.counters.incr("shard_redirects_served")
        records = []
        for uadd, blob, mtype_name in self.shard_directory.get(shard_id, []):
            records.append(NameRecord(
                name=f"name.shard.{shard_id}",
                uadd=uadd,
                mtype_name=mtype_name,
                attrs={"kind": "nameserver", "shard": str(shard_id)},
                addresses=[(blob_network(blob), blob)] if blob else [],
            ))
        return "ns_shard_redirect", {
            "shard_id": shard_id,
            "count": len(records),
            "records": p.encode_records(records),
        }

    def _uadd_misroute(self, request: IncomingMessage) -> Optional[int]:
        """The shard that should serve a UAdd-keyed request, when it is
        not this one.  A record we hold is owned by whoever owns its
        name (it may have moved in a rebalance); an unknown UAdd routes
        by the server id that minted it.  Fleet self-registrations are
        exempt from ring ownership: a server is always the authority
        for its own address, and hashing ``name.shard.N.R`` like
        application data would bounce a redirect between the minting
        shard and the hash owner forever."""
        if self._ring is None:
            return None
        uadd = Address(value=request.values["uadd"])
        record = self.db.get(uadd)
        if record is not None:
            if record.attrs.get("kind") == "nameserver":
                return None
            owner = self._ring.owner(record.name)
            return owner if owner != self.shard_id else None
        shard = self._minted.get(uadd.value >> SERVER_ID_SHIFT)
        if shard is not None and shard != self.shard_id:
            return shard
        return None

    # -- ownership-checked handlers ---------------------------------------------

    def _handle_register(self, request: IncomingMessage):
        owner = self._owner_of(request.values["name"])
        if owner != self.shard_id:
            return self._redirect(owner)
        return super()._handle_register(request)

    def _handle_resolve_name(self, request: IncomingMessage):
        owner = self._owner_of(request.values["name"])
        if owner != self.shard_id:
            return self._redirect(owner)
        return super()._handle_resolve_name(request)

    def _handle_resolve_batch(self, request: IncomingMessage):
        names = p.decode_name_list(request.values["names"].decode("ascii"))
        for name in names:
            owner = self._owner_of(name)
            if owner != self.shard_id:
                return self._redirect(owner)
        return super()._handle_resolve_batch(request)

    def _handle_resolve_uadd(self, request: IncomingMessage):
        owner = self._uadd_misroute(request)
        if owner is not None:
            return self._redirect(owner)
        return super()._handle_resolve_uadd(request)

    def _handle_forward(self, request: IncomingMessage):
        owner = self._uadd_misroute(request)
        if owner is not None:
            return self._redirect(owner)
        return super()._handle_forward(request)

    def _handle_deregister(self, request: IncomingMessage):
        owner = self._uadd_misroute(request)
        if owner is not None:
            return self._redirect(owner)
        return super()._handle_deregister(request)

    # -- replication + anti-entropy ---------------------------------------------

    def _replicate(self, op: str, record: NameRecord) -> None:
        # Every origin write enters the anti-entropy log under its
        # generation stamp before the best-effort fan-out, so a peer
        # that missed the datagram can pull it later.
        self.db.log_write(record)
        for peer in self.peer_uadds:
            self.nucleus.lcm.datagram(peer, "ns_repl_update", {
                "op": op,
                "record": p.encode_records([record]),
            }, flags=FLAG_INTERNAL)

    def _handle_repl_update(self, request: IncomingMessage):
        op = request.values["op"]
        for record in p.decode_records(request.values["record"]):
            if op == "deregister":
                record.alive = False
            self.db.adopt(record)
        return "ns_ack", {"ok": 1, "detail": ""}

    def _handle_antientropy(self, request: IncomingMessage):
        watermark = request.values["gen"]
        entries = [(stamp, record) for stamp, record in self.db.oplog
                   if stamp > watermark]
        self.counters.incr("antientropy_served")
        return "ns_antientropy_ack", {
            "gen": self.db.generation,
            "count": len(entries),
            "records": p.encode_stamped_records(entries),
        }

    def run_antientropy(self) -> int:
        """Pull every in-shard peer's origin writes past our watermark
        and merge them (tombstone-wins).  Returns how many records
        changed this database.  Called after a restart — and callable
        any time; the exchange is idempotent."""
        applied = 0
        for peer in list(self.peer_uadds):
            watermark = self._applied_gen.get(peer, 0)
            try:
                reply = self.nucleus.lcm.call(peer, "ns_antientropy", {
                    "shard_id": self.shard_id,
                    "gen": watermark,
                    "digest": str(self.db.generation).encode("ascii"),
                }, flags=FLAG_INTERNAL)
            except (NameServerUnreachable, DestinationUnavailable,
                    ReplyTimeout):
                self.counters.incr("antientropy_skipped")
                continue
            if reply.type_name != "ns_antientropy_ack":
                self.counters.incr("antientropy_skipped")
                continue
            for _stamp, record in p.decode_stamped_records(
                    reply.values["records"]):
                if self.db.merge(record):
                    applied += 1
            self._applied_gen[peer] = reply.values["gen"]
            self.counters.incr("antientropy_rounds")
        if applied:
            self.counters.incr("antientropy_records_applied", applied)
        return applied

    # -- ownership transfer ------------------------------------------------------

    def _handle_handoff(self, request: IncomingMessage):
        if request.values["shard_id"] != self.shard_id:
            return "ns_shard_handoff_ack", {"ok": 0, "count": 0}
        pairs = p.decode_stamped_records(request.values["records"])
        applied = 0
        for _stamp, record in pairs:
            if self.db.merge(record):
                applied += 1
                # The moved record becomes an origin write of the new
                # owner: logged for anti-entropy and fanned out to the
                # shard's replicas.
                self._replicate(
                    "register" if record.alive else "deregister", record)
        if pairs:
            self.counters.incr("handoff_records_in", len(pairs))
        return "ns_shard_handoff_ack", {"ok": 1, "count": applied}

    def handoff_to(self, new_shard_id: int, target: Address) -> int:
        """Push every record the (re-drawn) ring assigns to
        ``new_shard_id`` to that shard's replica at ``target``.  The
        records stay in this database as stale copies — the ownership
        check redirects every future request for them."""
        moved = [
            (self.db.generation, record)
            for record in self.db.all_records()
            if self._owner_of(record.name) == new_shard_id
            # Fleet self-registrations stay pinned to the shard that
            # minted them (see _uadd_misroute); shipping a copy could
            # serve a stale address after the server re-binds.
            and record.attrs.get("kind") != "nameserver"
        ]
        if not moved:
            return 0
        reply = self.nucleus.lcm.call(target, "ns_shard_handoff", {
            "shard_id": new_shard_id,
            "count": len(moved),
            "records": p.encode_stamped_records(moved),
        }, flags=FLAG_INTERNAL)
        if reply.type_name != "ns_shard_handoff_ack" \
                or not reply.values["ok"]:
            raise ProtocolError(
                f"shard {new_shard_id} rejected the ownership handoff")
        self.counters.incr("handoff_records_out", len(moved))
        return len(moved)


# -- the shard-aware NSP layer ------------------------------------------------------

class ShardedNspLayer(NspLayer):
    """NSP-Layer that routes each request to the owning shard, fails
    over inside the shard's replica group, and follows a bounded
    number of ``ns_shard_redirect`` hops — folding newly learned
    shards into its own ring so the next request goes direct."""

    _NAME_KEYED = {"ns_register": "name", "ns_resolve_name": "name"}
    _UADD_KEYED = frozenset({"ns_resolve_uadd", "ns_forward",
                             "ns_deregister"})
    _MAX_HOPS = 4

    def __init__(self, nucleus, shard_directory: Dict[int, List[ShardEntry]]):
        if not shard_directory:
            raise NtcsError("a sharded NSP needs at least one shard")
        anchor = min(shard_directory)
        super().__init__(nucleus, ns_uadd=shard_directory[anchor][0][0])
        # The resolution cache and single-flight coalescing are
        # disabled: generation stamps from different replicas are not
        # comparable (each database counts its own writes), and
        # coalescing through call_async would bypass the per-shard
        # failover loop.
        self.cache = None
        self._coalesce = False
        self._directory = {
            sid: list(entries) for sid, entries in shard_directory.items()
        }
        self._ring = HashRing(self._directory)
        self._minted = {
            uadd.value >> SERVER_ID_SHIFT: sid
            for sid, entries in self._directory.items()
            for uadd, _, _ in entries
        }
        self._current: Dict[int, int] = {}
        # Every replica of every shard is "the naming service" to the
        # Sec. 6.3 patch, and its well-known blob primes our tables
        # (the Sec. 3.4 bootstrap, extended to the whole fleet).
        for entries in self._directory.values():
            for uadd, blob, mtype_name in entries:
                nucleus.ns_addresses.add(uadd)
                if blob:
                    nucleus.addr_cache.store(uadd, blob, mtype_name)

    # -- routing --------------------------------------------------------------

    def _route(self, type_name: str, values: dict) -> int:
        name_field = self._NAME_KEYED.get(type_name)
        if name_field is not None:
            return self._ring.owner(values[name_field])
        if type_name in self._UADD_KEYED:
            shard = self._minted.get(values["uadd"] >> SERVER_ID_SHIFT)
            if shard is not None:
                return shard
        return min(self._directory)

    def _learn_redirect(self, reply: IncomingMessage) -> int:
        """Absorb a redirect: count it, and if it names a shard we have
        never seen (a rebalance happened behind our back), fold its
        replica directory into the ring — shard-level path compression."""
        shard_id = reply.values["shard_id"]
        nucleus = self.nucleus
        nucleus.counters.incr("nsp_shard_redirects")
        if shard_id not in self._directory:
            entries: List[ShardEntry] = []
            for record in p.decode_records(reply.values["records"]):
                blob = record.addresses[0][1] if record.addresses else ""
                entries.append((record.uadd, blob, record.mtype_name))
                nucleus.ns_addresses.add(record.uadd)
                if blob:
                    nucleus.addr_cache.store(record.uadd, blob,
                                             record.mtype_name)
            if not entries:
                raise ProtocolError(
                    f"redirect to unknown shard {shard_id} without a directory")
            self._directory[shard_id] = entries
            self._ring.add_shard(shard_id)
            nucleus.counters.incr("nsp_shard_ring_updates")
        return shard_id

    def _call_replicas(self, shard: int, type_name: str, values: dict,
                       timeout: Optional[float]) -> IncomingMessage:
        nucleus = self.nucleus
        servers = [uadd for uadd, _, _ in self._directory[shard]]
        start = self._current.get(shard, 0)
        last_error: Optional[Exception] = None
        for i in range(len(servers)):
            index = (start + i) % len(servers)
            try:
                reply = nucleus.lcm.call(
                    servers[index], type_name, values,
                    timeout=timeout, flags=FLAG_INTERNAL,
                )
            except (NameServerUnreachable, DestinationUnavailable,
                    ReplyTimeout) as exc:
                last_error = exc
                if i + 1 < len(servers):
                    nucleus.counters.incr("ns_failovers")
                continue
            self._current[shard] = index
            return reply
        raise NameServerUnreachable(
            f"all {len(servers)} servers of naming shard {shard} "
            f"failed: {last_error}"
        )

    def _call_shard(self, shard: int, type_name: str, values: dict,
                    reason: str, timeout: Optional[float] = None,
                    follow: bool = True) -> IncomingMessage:
        nucleus = self.nucleus
        with nucleus.enter(self.LAYER, type_name, reason=reason):
            nucleus.counters.incr("nsp_calls")
            for _hop in range(1 + self._MAX_HOPS):
                reply = self._call_replicas(shard, type_name, values, timeout)
                if reply.type_name != "ns_shard_redirect":
                    return reply
                target = self._learn_redirect(reply)
                if not follow:
                    return reply
                if target == shard:
                    break
                shard = target
            raise ProtocolError(
                f"sharded naming: redirect loop for {type_name}")

    def _call(self, type_name: str, values: dict, reason: str,
              timeout: Optional[float] = None) -> IncomingMessage:
        return self._call_shard(self._route(type_name, values),
                                type_name, values, reason, timeout=timeout)

    # -- fan-out operations ------------------------------------------------------

    def _fan_out(self, type_name: str, values: dict, reason: str,
                 ack_type: str) -> List[NameRecord]:
        """Query every shard and merge the record lists (dedup by UAdd,
        sorted by UAdd value for determinism)."""
        merged: Dict[Address, NameRecord] = {}
        for shard in sorted(self._directory):
            reply = self._call_shard(shard, type_name, dict(values),
                                     reason=reason)
            self._expect(reply, ack_type)
            for record in p.decode_records(reply.values["records"]):
                merged[record.uadd] = record
        return sorted(merged.values(), key=lambda r: r.uadd.value)

    def list_gateways(self) -> List[NameRecord]:
        """The registered gateways, merged across every shard."""
        return self._fan_out("ns_list_gw", {}, "topology", "ns_list_gw_ack")

    def query_attrs(self, required: Dict[str, str]) -> List[NameRecord]:
        """Attribute-based location, merged across every shard."""
        return self._fan_out("ns_query_attrs", {
            "query": p.encode_attrs(required).encode("ascii"),
        }, "attribute query", "ns_query_attrs_ack")

    def query_predicates(self, query_text: str) -> List[NameRecord]:
        """Predicate-based location, merged across every shard."""
        return self._fan_out("ns_query_attrs", {
            "query": query_text.encode("ascii"),
        }, "predicate query", "ns_query_attrs_ack")

    def resolve_batch(self, names: List[str]) -> Dict[str, Optional[NameRecord]]:
        """Group the names by owning shard and resolve each group in one
        round trip.  A redirect (stale ring during a rebalance) folds in
        the learned shard and regroups the affected names."""
        out: Dict[str, Optional[NameRecord]] = {}
        pending = sorted(set(names))
        for _attempt in range(1 + self._MAX_HOPS):
            if not pending:
                return out
            groups: Dict[int, List[str]] = {}
            for name in pending:
                groups.setdefault(self._ring.owner(name), []).append(name)
            redo: List[str] = []
            for shard in sorted(groups):
                batch = groups[shard]
                reply = self._call_shard(shard, "ns_resolve_batch", {
                    "count": len(batch),
                    "names": p.encode_name_list(batch).encode("ascii"),
                }, reason=f"batch resolve {len(batch)} names", follow=False)
                if reply.type_name == "ns_shard_redirect":
                    redo.extend(batch)
                    continue
                self._expect(reply, "ns_resolve_batch_ack")
                self.nucleus.counters.incr("nsp_batch_resolves")
                missing, records = p.decode_batch_payload(
                    reply.values["payload"])
                for record in records:
                    out[record.name] = record
                for name in missing:
                    out[name] = None
            pending = redo
        raise ProtocolError("sharded naming: batch resolve redirect loop")


# -- deployment ------------------------------------------------------------------

def deploy_sharded_naming(testbed, shard_machines: Sequence[Sequence[str]]):
    """Start one :class:`ShardedNameServer` per machine of every shard,
    wire the intra-shard replication meshes and the cross-shard
    directory, and make every future ``testbed.module(...)`` use a
    :class:`ShardedNspLayer`.  ``shard_machines`` is one machine-name
    list per shard.  Returns {shard_id: [servers]}; shard 0's first
    replica is the conventional primary (server id 0, so it owns the
    well-known ``NAME_SERVER_UADD``)."""
    if not shard_machines:
        raise NtcsError("a sharded naming service needs at least one shard")
    groups: Dict[int, List[ShardedNameServer]] = {}
    server_id = 0
    for shard_id, machines in enumerate(shard_machines):
        group: List[ShardedNameServer] = []
        for machine_name in machines:
            group.append(_start_shard_server(
                testbed, machine_name, shard_id, len(group), server_id))
            server_id += 1
        groups[shard_id] = group
    primary = groups[0][0]
    testbed.wellknown.add_name_server_blob(primary.listen_blob)
    testbed.name_server_instance = primary
    directory = {
        shard_id: [(s.uadd, s.listen_blob, s.process.machine.mtype.name)
                   for s in group]
        for shard_id, group in groups.items()
    }
    _wire_shard_servers(groups, directory)
    testbed.shard_groups = groups
    testbed.shard_directory = directory
    testbed.nsp_factory = lambda nucleus: ShardedNspLayer(nucleus, directory)
    return groups


def _start_shard_server(testbed, machine_name: str, shard_id: int,
                        replica_index: int, server_id: int) -> "ShardedNameServer":
    from dataclasses import replace as _replace
    from repro.machine.process import SimProcess
    from repro.naming.database import NameDatabase

    machine = testbed.machines[machine_name]
    network = machine.networks[0]
    protocol = testbed.networks[network].protocol
    binding = ("411" if protocol == "tcp" else "/mbx/name.server")
    name = f"name.shard.{shard_id}.{replica_index}"
    process = SimProcess(machine, name)
    db = NameDatabase(server_id=server_id,
                      clock=lambda: testbed.scheduler.now)
    server = ShardedNameServer(
        process, testbed.registry, testbed.wellknown,
        network=network, binding=binding,
        config=_replace(testbed.config), db=db,
        name=name, shard_id=shard_id,
    )
    testbed.name_shard_servers[machine_name] = server
    return server


def _wire_shard_servers(groups: Dict[int, List[ShardedNameServer]],
                        directory: Dict[int, List[ShardEntry]]) -> None:
    """Give every server the shard map, its replica peers, the whole
    fleet's well-known blobs, and its peers' self-registrations."""
    fleet = [entry for entries in directory.values() for entry in entries]
    for shard_id, group in groups.items():
        peer_uadds = [s.uadd for s in group]
        for server in group:
            server.set_shard_map(directory)
            server.set_peers(peer_uadds)
            for uadd, blob, mtype_name in fleet:
                server.nucleus.ns_addresses.add(uadd)
                if uadd != server.uadd and blob:
                    server.nucleus.addr_cache.store(uadd, blob, mtype_name)
            for other in group:
                if other is not server:
                    for record in other.db.all_records():
                        server.db.adopt(record)


def add_naming_shard(testbed, machine_names: Sequence[str]):
    """Rebalance a live sharded deployment: start a new replica group
    as the next shard, push the re-drawn shard map to every existing
    server (a configuration push — no gateway is involved), and hand
    over the records the new ring assigns to the newcomer.  Existing
    clients keep their stale ring and are steered by redirects; new
    modules see the grown directory immediately."""
    groups = testbed.shard_groups
    directory = testbed.shard_directory
    new_shard_id = max(groups) + 1
    next_server_id = 1 + max(
        uadd.value >> SERVER_ID_SHIFT
        for entries in directory.values() for uadd, _, _ in entries
    )
    group: List[ShardedNameServer] = []
    for machine_name in machine_names:
        group.append(_start_shard_server(
            testbed, machine_name, new_shard_id, len(group),
            next_server_id + len(group)))
    groups[new_shard_id] = group
    directory[new_shard_id] = [
        (s.uadd, s.listen_blob, s.process.machine.mtype.name) for s in group
    ]
    _wire_shard_servers(groups, directory)
    # Ownership transfer: each old shard's first live replica pushes
    # the records that now belong to the newcomer.
    target = group[0].uadd
    moved = 0
    for shard_id, old_group in groups.items():
        if shard_id == new_shard_id:
            continue
        for server in old_group:
            if server.process.alive:
                moved += server.handoff_to(new_shard_id, target)
                break
    return group, moved


def heal_naming_shards(testbed) -> int:
    """Run one anti-entropy round on every live shard server (the test
    harness's convergence step); returns how many records moved."""
    applied = 0
    for group in testbed.shard_groups.values():
        for server in group:
            if server.process.alive:
                applied += server.run_antientropy()
    return applied
