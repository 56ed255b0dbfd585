"""The Name Service Protocol Layer (paper Sec. 2.4).

"The NSP-Layer is the single naming service access point for all layers
within the ComMod.  Its purpose is to fully isolate the ComMod from the
naming service implementation."

Everything here is a thin client over ordinary Nucleus communication —
"the NSP-layers talk across multiple networks in the identical manner
as application modules do" (Sec. 3.1).  Swapping the implementation
(single server → sharded replicas) only changes which class the ComMod
constructs; callers see the same methods.

The control-plane fast path (PROTOCOL.md §9) lives here:

* a generation-stamped :class:`~repro.naming.cache.ResolutionCache`
  answers repeated resolutions without a round trip,
* *single-flight coalescing* lets concurrent identical resolutions —
  issued from nested ``pump_until`` frames — share one in-flight
  Name-Server call,
* :meth:`resolve_batch` resolves many names in one ``ns_resolve_batch``
  round trip, priming the cache with the returned records.

All three are disabled by ``NucleusConfig.nsp_cache_enabled = False``,
which reproduces the uncached control plane message-for-message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    DestinationUnavailable,
    ModuleStillAlive,
    NoForwardingAddress,
    NoSuchAddress,
    NoSuchName,
    NtcsError,
    ProtocolError,
)
from repro.naming import protocol as p
from repro.naming.cache import ResolutionCache
from repro.naming.protocol import NameRecord
from repro.ntcs.address import Address
from repro.ntcs.lcm import CallHandle, IncomingMessage
from repro.ntcs.message import FLAG_INTERNAL


@dataclass
class _Flight:
    """One in-flight, shareable Name-Server call (single-flight)."""

    handle: Optional[CallHandle] = None


class NspLayer:
    """Client stub for the single-Name-Server implementation."""

    LAYER = "NSP"

    def __init__(self, nucleus, ns_uadd: Optional[Address] = None):
        self.nucleus = nucleus
        self.ns_uadd = ns_uadd or nucleus.wellknown.ns_uadd
        config = nucleus.config
        self.cache: Optional[ResolutionCache] = None
        self._coalesce = bool(config.nsp_cache_enabled)
        if config.nsp_cache_enabled:
            scheduler = nucleus.scheduler
            self.cache = ResolutionCache(
                clock=lambda: scheduler.now,
                counters=nucleus.counters,
                negative_ttl=config.nsp_negative_ttl,
            )
        self._flights: Dict[tuple, _Flight] = {}

    # -- transport ------------------------------------------------------------

    def _call(self, type_name: str, values: dict, reason: str,
              timeout: Optional[float] = None) -> IncomingMessage:
        nucleus = self.nucleus
        with nucleus.enter(self.LAYER, type_name, reason=reason):
            nucleus.counters.incr("nsp_calls")
            return nucleus.lcm.call(
                self.ns_uadd, type_name, values,
                timeout=timeout, flags=FLAG_INTERNAL,
            )

    def _resolve(self, type_name: str, values: dict, reason: str,
                 key: Optional[tuple] = None,
                 timeout: Optional[float] = None) -> IncomingMessage:
        """One resolution round trip, coalesced with any identical
        in-flight one.  ``key`` identifies the resolution; None (or
        coalescing disabled) degrades to a plain :meth:`_call`."""
        if key is None or not self._coalesce:
            return self._call(type_name, values, reason, timeout=timeout)
        flight = self._flights.get(key)
        if flight is not None and flight.handle is not None:
            self.nucleus.counters.incr("nsp_calls_coalesced")
            return self._join(flight, type_name, values, reason, timeout)
        return self._lead(key, type_name, values, reason, timeout)

    def _lead(self, key: tuple, type_name: str, values: dict, reason: str,
              timeout: Optional[float]) -> IncomingMessage:
        """Issue the shared call; mirrors :meth:`LcmLayer.call`'s retry
        discipline (circuit deaths retried, reply timeouts not) but
        exposes the in-flight handle for followers to pump on."""
        nucleus = self.nucleus
        flight = _Flight()
        try:
            with nucleus.enter(self.LAYER, type_name, reason=reason):
                nucleus.counters.incr("nsp_calls")
                attempts = 1 + max(0, nucleus.config.call_retries)
                last_error = ""
                for _ in range(attempts):
                    handle = nucleus.lcm.call_async(
                        self.ns_uadd, type_name, values, flags=FLAG_INTERNAL,
                    )
                    # Register (or refresh) the flight only after the
                    # send completed: nested frames running inside the
                    # send itself must not join a handle-less flight.
                    flight.handle = handle
                    self._flights[key] = flight
                    try:
                        return handle.result(timeout=timeout)
                    except DestinationUnavailable as exc:
                        last_error = str(exc)
                        nucleus.counters.incr("lcm_call_retries")
                raise DestinationUnavailable(
                    f"call to {self.ns_uadd}: {last_error}"
                )
        finally:
            if self._flights.get(key) is flight:
                del self._flights[key]

    def _join(self, flight: _Flight, type_name: str, values: dict,
              reason: str, timeout: Optional[float]) -> IncomingMessage:
        """Wait on the leader's in-flight call.  A follower runs in a
        pump frame *above* the leader's, so it sees the shared reply
        (or circuit death) first; on death it falls back to a private
        call — the leader cannot retry while we are on its stack."""
        try:
            return flight.handle.result(timeout=timeout)
        except DestinationUnavailable:
            return self._call(type_name, values, reason, timeout=timeout)

    def _observe(self, gen: int) -> None:
        """Feed a reply's generation stamp to the cache, if any."""
        if self.cache is not None:
            self.cache.observe_generation(gen)

    # -- the naming-service operations ----------------------------------------

    def register(
        self,
        name: str,
        attrs: Dict[str, str],
        addresses: List[Tuple[str, str]],
        mtype_name: str,
    ) -> Address:
        """Register a module; returns its freshly generated UAdd."""
        reply = self._call("ns_register", {
            "name": name,
            "mtype": mtype_name,
            "payload": p.encode_register_payload(attrs or {}, addresses),
        }, reason=f"register {name!r}")
        self._expect(reply, "ns_register_ack")
        self._observe(reply.values.get("gen", 0))
        return Address(value=reply.values["uadd"])

    def resolve_name(self, name: str) -> Address:
        """Logical name → UAdd (the first of the two mappings,
        Sec. 3.3)."""
        if self.cache is not None:
            cached = self.cache.lookup_name(name)
            if cached is not None:
                return cached
        reply = self._resolve("ns_resolve_name", {"name": name},
                              reason=f"resolve {name!r}",
                              key=("name", name))
        self._expect(reply, "ns_resolve_name_ack")
        gen = reply.values.get("gen", 0)
        self._observe(gen)
        if not reply.values["found"]:
            if self.cache is not None:
                self.cache.store_missing_name(name, gen)
            raise NoSuchName(f"no module registered as {name!r}")
        uadd = Address(value=reply.values["uadd"])
        if self.cache is not None:
            self.cache.store_name(name, uadd, gen)
        return uadd

    def resolve_uadd(self, uadd: Address) -> NameRecord:
        """UAdd → physical location record (the second mapping).
        TAdds bypass the cache entirely: "they purge within two NS
        communications" (Sec. 3.3)."""
        cacheable = self.cache is not None and not uadd.temporary
        if cacheable:
            cached = self.cache.lookup_record(uadd)
            if cached is not None:
                return cached
        reply = self._resolve("ns_resolve_uadd", {"uadd": uadd.value},
                              reason=f"locate {uadd}",
                              key=("uadd", uadd))
        self._expect(reply, "ns_record_ack")
        gen = reply.values.get("gen", 0)
        self._observe(gen)
        if not reply.values["found"]:
            if cacheable:
                self.cache.store_missing_record(uadd, gen)
            raise NoSuchAddress(f"naming service has no entry for {uadd}")
        records = p.decode_records(reply.values["record"])
        if len(records) != 1:
            raise ProtocolError("ns_record_ack carried != 1 record")
        if cacheable:
            self.cache.store_record(uadd, records[0], gen)
        return records[0]

    def lookup_forwarding(self, old_uadd: Address) -> Address:
        """Ask for a forwarding UAdd after an address fault (Sec. 3.5)."""
        cacheable = self.cache is not None and not old_uadd.temporary
        if cacheable:
            cached = self.cache.lookup_forward(old_uadd)
            if cached is not None:
                return cached
        reply = self._resolve("ns_forward", {"uadd": old_uadd.value},
                              reason=f"forwarding for {old_uadd}",
                              key=("fwd", old_uadd))
        self._expect(reply, "ns_forward_ack")
        gen = reply.values.get("gen", 0)
        self._observe(gen)
        status = reply.values["status"]
        if status == p.FWD_FOUND:
            new_uadd = Address(value=reply.values["new_uadd"])
            if cacheable:
                self.cache.store_forward(old_uadd, new_uadd, gen)
            return new_uadd
        if status == p.FWD_ALIVE:
            # Not cached: "still alive" is a statement about the link,
            # not the mapping — the next fault must re-ask.
            raise ModuleStillAlive(f"{old_uadd} is still active")
        if cacheable:
            self.cache.store_no_forward(old_uadd, gen)
        raise NoForwardingAddress(f"no replacement module for {old_uadd}")

    def resolve_batch(self, names: List[str]) -> Dict[str, Optional[NameRecord]]:
        """Resolve many logical names in one ``ns_resolve_batch`` round
        trip; returns {name: record or None}.  The returned records
        prime both cache maps, so deployment warm-up replaces one
        round trip per peer with one per module."""
        unique = sorted(set(names))
        reply = self._resolve("ns_resolve_batch", {
            "count": len(unique),
            "names": p.encode_name_list(unique).encode("ascii"),
        }, reason=f"batch resolve {len(unique)} names")
        self._expect(reply, "ns_resolve_batch_ack")
        gen = reply.values.get("gen", 0)
        self._observe(gen)
        self.nucleus.counters.incr("nsp_batch_resolves")
        missing, records = p.decode_batch_payload(reply.values["payload"])
        out: Dict[str, Optional[NameRecord]] = {}
        for record in records:
            out[record.name] = record
            if self.cache is not None:
                self.cache.store_name(record.name, record.uadd, gen)
                self.cache.store_record(record.uadd, record, gen)
        for name in missing:
            out[name] = None
            if self.cache is not None:
                self.cache.store_missing_name(name, gen)
        return out

    def evict_address(self, uadd: Address) -> None:
        """Address-fault hook (Sec. 3.5 meets §9): drop any cached
        resolution that could steer traffic back to a faulted UAdd, so
        the re-resolution asks the naming service."""
        if self.cache is not None:
            self.cache.evict_address(uadd)

    def deregister(self, uadd: Address) -> bool:
        """Tombstone a UAdd in the naming service; True on success."""
        reply = self._call("ns_deregister", {"uadd": uadd.value},
                           reason=f"deregister {uadd}")
        self._expect(reply, "ns_ack")
        self.evict_address(uadd)
        return bool(reply.values["ok"])

    def list_gateways(self) -> List[NameRecord]:
        """The registered gateway records (routing topology, Sec. 4.2)."""
        reply = self._call("ns_list_gw", {}, reason="topology")
        self._expect(reply, "ns_list_gw_ack")
        self._observe(reply.values.get("gen", 0))
        return p.decode_records(reply.values["records"])

    def query_attrs(self, required: Dict[str, str]) -> List[NameRecord]:
        """Attribute-based resource location (Sec. 7's new scheme)."""
        reply = self._call("ns_query_attrs", {
            "query": p.encode_attrs(required).encode("ascii"),
        }, reason="attribute query")
        self._expect(reply, "ns_query_attrs_ack")
        self._observe(reply.values.get("gen", 0))
        return p.decode_records(reply.values["records"])

    def query_predicates(self, query_text: str) -> List[NameRecord]:
        """Predicate-based location ("kind=index;shard<=3") — served by
        Name Servers running the attribute database extension."""
        reply = self._call("ns_query_attrs", {
            "query": query_text.encode("ascii"),
        }, reason="predicate query")
        self._expect(reply, "ns_query_attrs_ack")
        self._observe(reply.values.get("gen", 0))
        return p.decode_records(reply.values["records"])

    def ping(self, timeout: float = 2.0) -> bool:
        """Is the naming service answering?"""
        try:
            reply = self._call("ns_ping", {}, reason="ping", timeout=timeout)
        except NtcsError:
            return False
        return reply.type_name == "ns_ack" and bool(reply.values["ok"])

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _expect(reply: IncomingMessage, type_name: str) -> None:
        if reply.type_name == type_name:
            return
        if reply.type_name == "ns_ack" and not reply.values.get("ok", 1):
            raise ProtocolError(
                f"naming service error: {reply.values.get('detail', '')}"
            )
        raise ProtocolError(
            f"expected {type_name}, naming service sent {reply.type_name}"
        )
