"""Abstract IPCS interface shared by both simulated native IPC systems.

This is *not* the paper's STD-IF — it is the messy, machine-specific
layer below it.  Each concrete IPCS exposes the idioms of its system
(ports vs mailbox pathnames, streams vs records); the ND-Layer drivers
translate these into the uniform STD-IF virtual circuits.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import ChannelClosed
from repro.machine.machine import Machine
from repro.machine.process import SimProcess
from repro.netsim.network import Interface, Network


class Channel:
    """One established full-duplex channel.

    Concrete IPCSs create these; users interact through this class.
    ``send`` queues data for the peer; delivery invokes the receive
    handler with a list of chunks/records — one frame train's worth
    (PROTOCOL.md §13), a single chunk being a train of one.  When the
    channel dies (peer close, process death, network failure), the
    close handler runs exactly once with a reason string.
    """

    def __init__(self, ipcs: "Ipcs", channel_id: int, owner: SimProcess):
        self.ipcs = ipcs
        self.channel_id = channel_id
        self.owner = owner
        self.open = False
        self._receive_handler: Optional[Callable[[List[bytes]], None]] = None
        self._close_handler: Optional[Callable[[str], None]] = None
        self._closed_reason: Optional[str] = None
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- user side ----------------------------------------------------------

    def set_receive_handler(self, handler: Callable[[List[bytes]], None]) -> None:
        """Install the callback invoked with each delivery's list of
        chunks/records, in arrival order."""
        self._receive_handler = handler

    # Retired name kept only because the end-to-end benchmark's span
    # tracer resolves it by name; drop with the next benchmark change.
    set_batch_receive_handler = set_receive_handler

    def set_close_handler(self, handler: Callable[[str], None]) -> None:
        """Install the callback invoked once when the channel dies."""
        self._close_handler = handler
        if self._closed_reason is not None:
            # Already dead: report immediately so no close is ever missed.
            handler(self._closed_reason)

    def send(self, data: bytes) -> None:
        """Queue ``data`` for the peer.  Raises ChannelClosed if dead."""
        if not self.open:
            raise ChannelClosed(
                f"{self.ipcs.protocol} channel {self.channel_id}: "
                f"{self._closed_reason or 'not open'}"
            )
        self.bytes_sent += len(data)
        self.ipcs._channel_send(self, data)

    def close(self) -> None:
        """Locally close the channel; the peer is notified."""
        if self.open:
            self.ipcs._channel_close(self, "closed by local end", notify_peer=True)

    # -- IPCS side ------------------------------------------------------------

    def _deliver(self, chunks: List[bytes]) -> None:
        """Hand one delivery's chunks/records to the receive handler."""
        if not self.open:
            return
        self.bytes_received += sum(map(len, chunks))
        if self._receive_handler is not None:
            self._receive_handler(chunks)

    def _mark_closed(self, reason: str) -> None:
        if self._closed_reason is not None:
            return
        self.open = False
        self._closed_reason = reason
        if self._close_handler is not None:
            self._close_handler(reason)

    @property
    def closed_reason(self) -> Optional[str]:
        return self._closed_reason

    def __repr__(self) -> str:
        state = "open" if self.open else f"closed({self._closed_reason})"
        return f"Channel({self.ipcs.protocol}#{self.channel_id}, {state})"


class Listener:
    """A passive endpoint other processes can connect to.

    Its :meth:`address_blob` is the machine/network-dependent physical
    address string that the naming service stores *uninterpreted*
    (Sec. 3.2) and that only the matching ND-Layer driver can parse.
    """

    def __init__(self, ipcs: "Ipcs", binding: str, owner: SimProcess):
        self.ipcs = ipcs
        self.binding = binding
        self.owner = owner
        self.open = True
        self.on_accept: Optional[Callable[[Channel], None]] = None

    def address_blob(self) -> str:
        """The physical-address blob for this endpoint (uninterpreted upstream)."""
        return self.ipcs.address_blob_for(self.binding)

    def close(self) -> None:
        """Close this endpoint."""
        if self.open:
            self.open = False
            self.ipcs._listener_closed(self)

    def __repr__(self) -> str:
        return f"Listener({self.address_blob()!r}, {'open' if self.open else 'closed'})"


class Ipcs:
    """Base class for the simulated native IPCSs.

    Concrete subclasses implement:
      * :meth:`listen` — create a passive endpoint,
      * :meth:`connect` — blocking active open,
      * wire handling over the network interface,
      * :meth:`address_blob_for` / :meth:`parse_blob`.
    """

    protocol = "abstract"

    def __init__(self, machine: Machine, network: Network):
        self.machine = machine
        self.network = network
        self.iface: Interface = machine.interface(network.name)
        self.iface.bind_protocol(self.protocol, self._on_datagram)
        machine.register_ipcs(network.name, self.protocol, self)
        # Local FIFO for this endpoint's immediate work (rx coalescing
        # and the like): posts land in O(1) and only the queue head is
        # registered with the global timer wheel, so the idle majority
        # of a large topology is never visited (PROTOCOL.md §11).
        self.run_queue = machine.scheduler.run_queue(
            f"{machine.name}/{network.name}/{self.protocol}")

    @property
    def scheduler(self):
        return self.machine.scheduler

    # -- to implement -------------------------------------------------------

    def listen(self, owner: SimProcess, binding: Optional[str] = None) -> Listener:
        """Create a passive endpoint; see concrete IPCS for semantics."""
        raise NotImplementedError

    def connect(self, owner: SimProcess, address_blob: str, timeout: float = 5.0) -> Channel:
        """Blocking active open to a physical address blob."""
        raise NotImplementedError

    def address_blob_for(self, binding: str) -> str:
        """Format the physical-address blob for a local binding."""
        raise NotImplementedError

    def _on_datagram(self, datagrams: List) -> None:
        """One frame train's worth of datagrams for this IPCS, in
        arrival order (PROTOCOL.md §13)."""
        raise NotImplementedError

    def _channel_send(self, channel: Channel, data: bytes) -> None:
        raise NotImplementedError

    def _channel_close(self, channel: Channel, reason: str, notify_peer: bool) -> None:
        raise NotImplementedError

    def _listener_closed(self, listener: Listener) -> None:
        pass
