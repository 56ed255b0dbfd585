"""The Nucleus: the passive core bound with every NTCS module.

"Internally, the NTCS is designed around a single communication
Nucleus, which provides a fundamental set of protocols and access
points supporting all NTCS functions.  The Nucleus is bound with every
NTCS module, just as the ComMod is bound with every application module.
Both ... are completely passive; they do not exist as separate
processes" (Sec. 2.1).

One :class:`Nucleus` composes the three layers (ND, IP, LCM) over one
network driver, and carries the cross-layer state: the module's current
address (a TAdd until registration), the address cache, the well-known
table, recursion accounting (Sec. 6), and the hooks through which the
DRTS services — which are built *on top of* this very Nucleus — are
called back *by* it (time stamps, monitor data, error logging).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from repro.errors import NameServerUnreachable, NtcsError, RecursionLimitExceeded
from repro.machine.arch import MachineType, machine_type
from repro.machine.process import SimProcess
from repro.ntcs.address import Address, AddressCache, TAddAllocator
from repro.ntcs.drivers import make_driver
from repro.ntcs.wellknown import WellKnownTable
from repro.util.counters import CounterSet
from repro.util.seeds import derive_rng
from repro.util.trace import LayerTracer, NullTracer


@dataclass
class NucleusConfig:
    """Per-module NTCS configuration.

    Attributes:
        monitor_enabled: report send/recv events to the DRTS monitor.
        time_enabled: timestamp with the DRTS precision time corrector
            instead of the raw (drifting) machine clock.
        ns_fault_patch: the Sec. 6.3 fix in the LCM address-fault
            handler.  Turn off only to reproduce the runaway recursion.
        ns_fault_retry_limit: bounded well-known-address retries when
            the patch is active.
        recursion_limit: maximum Nucleus re-entry depth — the
        reproduction's stand-in for the C stack limit.
        open_timeout / call_timeout: virtual-seconds deadlines.
        nsp_cache_enabled: the NSP-layer resolution cache and
            single-flight coalescing (PROTOCOL.md §9).  Off reproduces
            the uncached control plane message-for-message.
        nsp_negative_ttl: virtual seconds a cached negative resolution
            (no such name / address / forwarding) stays valid.
        repair_max_attempts: circuit-repair rounds the LCM send path
            runs after its per-round relocation attempts exhaust
            (PROTOCOL.md §10).  0 disables repair entirely, reproducing
            the pre-repair fault behavior message for message.
        repair_backoff_base / repair_backoff_cap: exponential-backoff
            schedule between repair rounds — round k waits
            ``min(base * 2**k, cap)`` virtual seconds plus seeded
            jitter.
        chaos_seed: base seed for the per-module repair-jitter RNG
            (derived per process and network, so every module draws an
            independent but reproducible stream).
        flow_control_enabled: credit-based IVC flow control and
            end-to-end backpressure (PROTOCOL.md §12).  Off reproduces
            the unbounded pre-flow data plane byte-for-byte: no credit
            kinds on the wire, every DATA aux word zero.
        flow_window: end-to-end IVC window — unconsumed flow-debited
            messages a sender may have outstanding before it stalls.
        flow_low_watermark: receive-queue depth at which a receiver
            owing a grant sends it (hysteresis: the grant is owed once
            depth crossed ``flow_high_watermark``).  Defaults to
            ``flow_window // 4``.
        flow_high_watermark: receive-queue depth above which
            connectionless arrivals are dropped (and counted) instead
            of queued.  Defaults to ``flow_window``.
        flow_probe_timeout: virtual seconds a zero-credit sender waits
            per credit probe before retrying (bounded retries, then
            the send fails as destination-unavailable).
        train_max: frame trains (PROTOCOL.md §13) — the most
            back-to-back same-destination frames one scheduled
            delivery event may carry before the next frame opens a
            fresh train (the size flush rule).  Every receive path
            takes a train; a frame is a train of one.  Purely a
            delivery-path construct: the wire is byte-identical for
            any value, and ``train_max=1`` (the ablation) reproduces
            the pre-train per-frame event schedule event-for-event.
        trace: record layer entry/exit (Sec. 6.2 debugging support).
    """

    monitor_enabled: bool = False
    time_enabled: bool = False
    ns_fault_patch: bool = True
    ns_fault_retry_limit: int = 2
    recursion_limit: int = 64
    open_timeout: float = 5.0
    call_timeout: float = 10.0
    call_retries: int = 2
    nsp_cache_enabled: bool = True
    nsp_negative_ttl: float = 2.0
    repair_max_attempts: int = 4
    repair_backoff_base: float = 0.05
    repair_backoff_cap: float = 2.0
    chaos_seed: int = 0
    flow_control_enabled: bool = True
    flow_window: int = 256
    flow_low_watermark: Optional[int] = None
    flow_high_watermark: Optional[int] = None
    flow_probe_timeout: float = 1.0
    train_max: int = 64
    trace: bool = False

    def effective_flow_low_watermark(self) -> int:
        """The queue depth below which an owed credit grant is sent
        (PROTOCOL.md §12); defaults to a quarter of the window."""
        if self.flow_low_watermark is not None:
            return self.flow_low_watermark
        return max(1, self.flow_window // 4)

    def effective_flow_high_watermark(self) -> int:
        """The queue depth at which connectionless arrivals are dropped
        rather than queued; defaults to the full window."""
        if self.flow_high_watermark is not None:
            return self.flow_high_watermark
        return self.flow_window


class Nucleus:
    """The per-module (per-network) NTCS core."""

    def __init__(
        self,
        process: SimProcess,
        network_name: str,
        registry,
        wellknown: WellKnownTable,
        config: Optional[NucleusConfig] = None,
        tracer=None,
    ):
        self.process = process
        self.machine = process.machine
        self.scheduler = process.scheduler
        self.registry = registry
        self.wellknown = wellknown
        self.config = config or NucleusConfig()
        self.mtype: MachineType = self.machine.mtype

        self.tadds = TAddAllocator()
        # Repair-jitter stream (PROTOCOL.md §10): derived — not hashed —
        # from the chaos seed and this module's identity, so two runs
        # with the same seed draw identical backoff jitter while
        # distinct modules never share a stream.
        self.repair_rng = derive_rng(
            self.config.chaos_seed, process.name, network_name,
        )
        # "Each module assigns itself one initially" (Sec. 3.4).
        self.self_addr: Address = self.tadds.allocate()
        self._past_addrs: Set[Address] = set()
        self.addr_cache = AddressCache()
        self.counters = CounterSet()
        if tracer is not None:
            self.tracer = tracer
        elif self.config.trace:
            self.tracer = LayerTracer(clock=lambda: self.scheduler.now)
        else:
            self.tracer = NullTracer()

        # Recursion accounting (Sec. 6).
        self._depth = 0
        self.max_depth_seen = 0
        self._suppress = 0

        # Frame-train scope (PROTOCOL.md §13): while a train walk is
        # active, per-IVC flow-grant checks are deferred and discharged
        # once at the walk's end — or earlier, at the entry of any
        # blocking pump, so the deferral can never hold back a grant
        # something mid-walk is waiting on.
        self.train_depth = 0
        self.train_serial = 0
        self._train_deferred: List[Callable[[], None]] = []
        self._train_deferred_keys: Set[int] = set()

        # Hooks filled in by higher components.
        self.nsp = None                   # NSP-Layer (naming service stub)
        self.gateway_handler = None       # set on gateway stacks only
        self.time_client = None           # DRTS precision time corrector
        self.monitor_client = None        # DRTS network monitor client
        self.error_log: List[str] = []
        self.error_client: Optional[Callable[[str], None]] = None
        self.tadd_purge_hooks: List[Callable[[Address, Address], None]] = []
        # Addresses the LCM's Sec. 6.3 patch must recognize as "the
        # naming service" (replicated NSP-Layers add their servers).
        self.ns_addresses: Set[Address] = {wellknown.ns_uadd}

        # The layers, bottom-up.
        ipcs_list = self.machine.ipcs_on(network_name)
        if not ipcs_list:
            raise NtcsError(
                f"machine {self.machine.name!r} has no IPCS on network "
                f"{network_name!r}"
            )
        self.driver = make_driver(ipcs_list[0])
        from repro.ntcs.ndlayer import NdLayer
        from repro.ntcs.iplayer import IpLayer
        from repro.ntcs.lcm import LcmLayer

        self.nd = NdLayer(self)
        self.ip = IpLayer(self)
        self.lcm = LcmLayer(self)
        self.tadd_purge_hooks.append(self.lcm.rekey_route)

    # -- identity ------------------------------------------------------------

    def set_identity(self, uadd: Address) -> None:
        """Adopt the real UAdd assigned by the naming service; the
        initial TAdd is remembered so in-flight messages still match."""
        self._past_addrs.add(self.self_addr)
        self.self_addr = uadd

    def is_self(self, addr: Address) -> bool:
        """True when an address is (or was) this module's identity."""
        return addr == self.self_addr or addr in self._past_addrs

    def on_tadd_purged(self, old: Address, new: Address) -> None:
        """Propagate a TAdd-to-UAdd replacement to all table holders."""
        for hook in self.tadd_purge_hooks:
            hook(old, new)

    # -- recursion accounting (Sec. 6) -------------------------------------------

    @property
    def depth(self) -> int:
        return self._depth

    @contextmanager
    def enter(self, layer: str, operation: str, caller: str = "",
              reason: str = ""):
        """Track one layer entry.  Exceeding the recursion limit raises
        — the reproduction of the paper's observed stack overflow."""
        self._depth += 1
        self.max_depth_seen = max(self.max_depth_seen, self._depth)
        self.tracer.record(
            self.process.name, layer, operation, "enter",
            caller=caller, reason=reason, depth=self._depth,
        )
        try:
            if self._depth > self.config.recursion_limit:
                raise RecursionLimitExceeded(
                    f"Nucleus re-entered {self._depth} deep in "
                    f"{self.process.name}:{layer}.{operation} "
                    f"(limit {self.config.recursion_limit}) — the Sec. 6.3 "
                    "stack overflow"
                )
            yield
        finally:
            self.tracer.record(
                self.process.name, layer, operation, "exit",
                caller=caller, reason=reason, depth=self._depth,
            )
            self._depth -= 1

    # -- frame-train scope (PROTOCOL.md §13) ---------------------------------

    def train_begin(self) -> None:
        """Open a train walk: deferrable per-IVC checks registered via
        :meth:`train_defer` accumulate until :meth:`train_end`."""
        self.train_depth += 1
        if self.train_depth == 1:
            self.train_serial += 1

    def train_end(self) -> None:
        """Close a train walk; the outermost close discharges every
        deferred check (the single owed-grant check per train)."""
        self.train_depth -= 1
        if self.train_depth == 0:
            self.train_flush()

    def train_defer(self, key, check: Callable[[], None]) -> None:
        """Defer ``check`` to the end of the active train walk, at most
        once per ``key`` (identity) per walk."""
        ident = id(key)
        if ident in self._train_deferred_keys:
            return
        if not self._train_deferred:
            # Safety net: if anything blocks mid-walk, the scheduler
            # discharges these at pump entry before running events.
            self.scheduler.defer_flush(self.train_flush)
        self._train_deferred_keys.add(ident)
        self._train_deferred.append(check)

    def train_flush(self) -> None:
        """Run the deferred checks now (idempotent)."""
        if not self._train_deferred:
            return
        checks = self._train_deferred
        self._train_deferred = []
        self._train_deferred_keys.clear()
        for check in checks:
            check()

    def trace(self, layer: str, operation: str, caller: str = "",
              reason: str = "") -> None:
        """Record a point event without changing the depth."""
        self.tracer.record(
            self.process.name, layer, operation, "enter",
            caller=caller, reason=reason, depth=self._depth,
        )

    # -- internal (control-plane) bodies ---------------------------------------

    def pack_internal(self, type_name: str, values: dict):
        """Pack an NTCS control body — always packed mode (Sec. 5.2).
        Returns (type_id, body_bytes)."""
        entry = self.registry.get_by_name(type_name)
        return entry.sdef.type_id, entry.pack(values)

    def unpack_internal(self, type_id: int, body: bytes) -> dict:
        """Unpack an NTCS control body by type id."""
        return self.registry.get(type_id).unpack(body)

    # -- naming-service access -----------------------------------------------

    def require_nsp(self):
        """The attached NSP-Layer; raises if the module has none."""
        if self.nsp is None:
            raise NameServerUnreachable(
                f"module {self.process.name!r} has no NSP-Layer attached"
            )
        return self.nsp

    # -- machine-type directory ------------------------------------------------

    _UNKNOWN_MTYPE = MachineType(name="unknown", byte_order="big",
                                 charset="unknown")

    # name -> MachineType memo, shared across all nuclei: the directory
    # of known machine types is a static table, and the send hot path
    # resolves the peer's name on every message.
    _MTYPE_CACHE: dict = {}

    def mtype_by_name(self, name: str) -> MachineType:
        """Resolve a peer's machine-type name; an unknown or missing
        name yields a type image-compatible with nothing, forcing
        packed mode (the safe default)."""
        if not name:
            return self._UNKNOWN_MTYPE
        mtype = self._MTYPE_CACHE.get(name)
        if mtype is None:
            try:
                mtype = machine_type(name)
            except KeyError:
                mtype = self._UNKNOWN_MTYPE
            self._MTYPE_CACHE[name] = mtype
        return mtype

    # -- DRTS hooks (recursion sources, Sec. 6.1) ----------------------------------

    @contextmanager
    def suppress_services(self):
        """Disable time correction and monitoring for the duration —
        used by the DRTS clients' own sends "to avoid the obvious
        infinite recursion" (Sec. 6.1)."""
        self._suppress += 1
        try:
            yield
        finally:
            self._suppress -= 1

    @property
    def services_suppressed(self) -> bool:
        return self._suppress > 0

    def timestamp(self) -> float:
        """A timestamp for monitor data: corrected time when the time
        service is enabled (possibly a recursive NTCS exchange), the raw
        drifting machine clock otherwise."""
        if (
            self.config.time_enabled
            and self.time_client is not None
            and not self.services_suppressed
        ):
            return self.time_client.corrected_now()
        return self.machine.clock.now()

    @property
    def monitoring_active(self) -> bool:
        return (
            self.config.monitor_enabled
            and self.monitor_client is not None
            and not self.services_suppressed
        )

    def emit_monitor(self, event: dict) -> None:
        """Report one event to the DRTS monitor, if active."""
        if self.monitoring_active:
            self.monitor_client.report(event)

    def log_error(self, text: str) -> None:
        """Record an error locally and ship it to the error-log service."""
        self.error_log.append(text)
        self.counters.incr("errors_logged")
        if self.error_client is not None:
            self.error_client(text)

    def __repr__(self) -> str:
        return (
            f"Nucleus({self.process.name!r} as {self.self_addr} on "
            f"{self.driver.network_name}/{self.driver.protocol})"
        )
