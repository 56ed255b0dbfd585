"""Simulated networks and host interfaces.

A :class:`Network` is one physical communication medium — the stand-in
for an Ethernet segment or the Apollo ring.  Machines attach through
:class:`Interface` objects with network-unique host addresses.  The
network delivers :class:`Datagram` frames between interfaces with a
fixed per-network latency, subject to the attached
:class:`~repro.netsim.faults.FaultPlan`.

Networks are deliberately *disjoint*: an interface can only reach other
interfaces on the same network.  Crossing networks is exactly what the
paper's IP-Layer + Gateways exist for (Sec. 4), so the substrate must
not accidentally provide it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import NetworkUnreachable, SimulationError
from repro.netsim.faults import FaultPlan
from repro.netsim.scheduler import Scheduler


class Datagram:
    """One frame on the wire.

    ``protocol`` names the IPCS that should receive it ("tcp", "mbx");
    ``payload`` is whatever that IPCS puts on the wire (its own framing;
    NTCS bytes ride inside).

    A plain ``__slots__`` class rather than a frozen dataclass: one is
    constructed for every frame the simulation moves, and the frozen
    dataclass's per-field ``object.__setattr__`` made construction the
    single largest fixed cost on the transmit path.  Treat instances as
    immutable all the same — a frame on the wire does not change.
    """

    __slots__ = ("network", "src_host", "dst_host", "protocol", "payload")

    def __init__(self, network: str, src_host: str, dst_host: str,
                 protocol: str, payload: Any):
        self.network = network
        self.src_host = src_host
        self.dst_host = dst_host
        self.protocol = protocol
        self.payload = payload

    def __repr__(self) -> str:
        return (f"Datagram({self.network!r}, {self.src_host!r}->"
                f"{self.dst_host!r}, {self.protocol!r})")


class Interface:
    """One machine's attachment point to one network."""

    def __init__(self, network: "Network", host: str):
        self.network = network
        self.host = host
        self._handlers: Dict[str, Callable[[List[Datagram]], None]] = {}
        self.up = True

    def bind_protocol(self, protocol: str,
                      handler: Callable[[List[Datagram]], None]) -> None:
        """Register the per-protocol receive handler (one per IPCS).  It
        receives one frame train per delivery (PROTOCOL.md §13) — a
        single frame arrives as a train of one."""
        if protocol in self._handlers:
            raise SimulationError(
                f"protocol {protocol!r} already bound on {self.host}@{self.network.name}"
            )
        self._handlers[protocol] = handler

    # Retired name kept only because the end-to-end benchmark's span
    # tracer resolves it by name; drop with the next benchmark change.
    bind_protocol_batch = bind_protocol

    def send(self, dst_host: str, protocol: str, payload: Any,
             size: Optional[int] = None) -> None:
        """Transmit one datagram to another host on this network.
        ``size`` (bytes) feeds the bandwidth model; None means
        header-only (a small control frame)."""
        if not self.up:
            return  # a downed interface silently loses frames
        network = self.network
        network.transmit(
            Datagram(network.name, self.host, dst_host, protocol, payload),
            size)

    def deliver(self, datagrams: List[Datagram]) -> None:
        """Called by the network when a frame train arrives — every
        datagram shares this host and one protocol, and one handler
        lookup serves the whole train."""
        if not self.up:
            return
        handler = self._handlers.get(datagrams[0].protocol)
        if handler is not None:
            handler(datagrams)
        # No handler: the frames are dropped, as a real stack would
        # discard segments for a protocol nobody registered.

    # Retired name kept only because the end-to-end benchmark's span
    # tracer resolves it by name; drop with the next benchmark change.
    deliver_train = deliver


class Network:
    """A single, isolated communication medium.

    Args:
        scheduler: the global event scheduler.
        name: the logical network identifier (what the naming service
            stores as a module's network id).
        latency: one-way frame latency in virtual seconds.
        fault_seed: seed for the probabilistic fault generator.
    """

    #: Assumed size of a control frame when the sender gives no size.
    DEFAULT_FRAME_SIZE = 64

    def __init__(
        self,
        scheduler: Scheduler,
        name: str,
        latency: float = 0.001,
        bandwidth: Optional[float] = None,
        fault_seed: int = 0,
    ):
        self.scheduler = scheduler
        self.name = name
        self.latency = latency
        # Bytes per virtual second; None models an infinitely fast wire
        # (latency only).  With a bandwidth, a frame's delivery delay is
        # latency + size / bandwidth — so packed mode's character-format
        # expansion (Sec. 5.2) costs measurable wire time.
        self.bandwidth = bandwidth
        self.faults = FaultPlan(seed=fault_seed)
        self._interfaces: Dict[str, Interface] = {}
        self.frames_sent = 0
        self.frames_delivered = 0
        self.bytes_sent = 0
        # Frame trains (PROTOCOL.md §13): coalesce back-to-back frames
        # sharing (destination interface, protocol, delay) at one
        # transmit instant into a single delivery event.  Purely a
        # delivery-path construct — transmit-side accounting, the drop
        # decision and the trace hook stay per-frame, so the wire is
        # unaffected.
        # With ``train_max = 1`` every frame is a train of one and the
        # pre-train per-frame schedule is reproduced event-for-event.
        self.train_max = 64
        # The one open train — its frames and its coalescing key.
        self._open_train: Optional[List[Datagram]] = None
        self._open_key: Optional[tuple] = None
        # Delivery events that carried more than one frame.
        self.trains_coalesced = 0
        # Optional wire tap (see repro.netsim.tracelog): called for
        # every transmitted frame, after the drop decision, with
        # (datagram, size, dropped).  Observation only — it cannot
        # alter delivery, so attaching one never perturbs a run.
        self.trace_hook: Optional[Callable[[Datagram, int, bool], None]] = None

    def attach(self, host: str) -> Interface:
        """Attach a new host; returns its interface."""
        if host in self._interfaces:
            raise SimulationError(f"host {host!r} already attached to {self.name}")
        iface = Interface(self, host)
        self._interfaces[host] = iface
        return iface

    def detach(self, host: str) -> None:
        """Remove a host from the network (its interface goes down)."""
        iface = self._interfaces.pop(host, None)
        if iface is not None:
            iface.up = False

    def interface(self, host: str) -> Optional[Interface]:
        """The interface of one host, or None."""
        return self._interfaces.get(host)

    def hosts(self):
        """All attached host addresses."""
        return list(self._interfaces)

    def transmit(self, datagram: Datagram, size: Optional[int] = None) -> None:
        """Schedule delivery of one frame after latency (plus the
        serialization delay when a bandwidth is configured)."""
        dst = self._interfaces.get(datagram.dst_host)
        if dst is None:
            raise NetworkUnreachable(
                f"no host {datagram.dst_host!r} on network {self.name!r}"
            )
        if size is None:
            size = self.DEFAULT_FRAME_SIZE
        self.frames_sent += 1
        self.bytes_sent += size
        dropped = self.faults.should_drop(datagram.src_host, datagram.dst_host)
        if self.trace_hook is not None:
            self.trace_hook(datagram, size, dropped)
        if dropped:
            return
        delay = self.latency
        if self.bandwidth:
            delay += size / self.bandwidth

        key = (dst, datagram.protocol, delay, self.scheduler.now)
        train = self._open_train
        if (train is not None and self._open_key == key
                and len(train) < self.train_max):
            # Back-to-back same-key frame: ride the open train's
            # already-scheduled delivery event.  The event was posted
            # at the head frame's (time, seq), so trains fire in
            # head-seq order and delivery order equals the per-frame
            # order exactly.
            train.append(datagram)
            return
        # Different key, a time advance, or a full train: this frame
        # opens a fresh train (closing the previous one — it can no
        # longer be joined).
        train = [datagram]
        self._open_train = train
        self._open_key = key

        def deliver():
            # Close the train before delivering: a frame transmitted
            # from inside a delivery upcall must start a new train,
            # never join one already firing.
            if self._open_train is train:
                self._open_train = None
            self.frames_delivered += len(train)
            if len(train) > 1:
                self.trains_coalesced += 1
            dst.deliver(train)

        # Fire-and-forget: a train in flight is never cancelled, so the
        # pooled no-handle flavour keeps the cost to one recycled event
        # object (PROTOCOL.md §11).
        self.scheduler.post(delay, deliver, "netsim deliver")
