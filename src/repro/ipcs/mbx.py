"""Simulated Apollo-MBX-style IPCS: record channels to named mailboxes.

Contrasts with :mod:`repro.ipcs.tcp` in every dimension the ND-Layer
must paper over:

* addressing is by **pathname** ("//host/path"), not numeric port,
* **record semantics** — each send is delivered as exactly one record;
  boundaries are preserved, never coalesced,
* no retransmission: each record is acknowledged by the destination's
  mailbox daemon, and a missing acknowledgement aborts the channel
  (the Apollo ring was assumed reliable; failure means the peer died).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import AddressInUse, ConnectionRefused, NetworkUnreachable
from repro.ipcs.base import Channel, Ipcs, Listener
from repro.machine.machine import Machine
from repro.machine.process import SimProcess
from repro.netsim.network import Datagram, Network
from repro.util.idgen import SequenceGenerator

_OPEN = "MBX_OPEN"
_OPEN_ACK = "MBX_OPEN_ACK"
_NAK = "MBX_NAK"
_PUT = "MBX_PUT"
_PUT_ACK = "MBX_PUT_ACK"
_CLOSE = "MBX_CLOSE"

# Bandwidth-model size of a record's fixed header share; a PUT adds
# its data bytes.
_HEADER_SIZE = 64


class _MbxConn:
    __slots__ = ("local_id", "remote_id", "remote_host", "channel", "state",
                 "next_seq", "pending_acks")

    def __init__(self, local_id: int, remote_host: str, channel: Channel):
        self.local_id = local_id
        self.remote_id: Optional[int] = None
        self.remote_host = remote_host
        self.channel = channel
        self.state = "NEW"
        self.next_seq = 0
        self.pending_acks: Dict[int, object] = {}


class SimMbxIpcs(Ipcs):
    """The MBX-like native IPCS of one machine on one network."""

    protocol = "mbx"

    def __init__(self, machine: Machine, network: Network):
        super().__init__(machine, network)
        self._mailboxes: Dict[str, Listener] = {}
        self._conns: Dict[int, _MbxConn] = {}
        self._conn_ids = SequenceGenerator()
        self._auto_names = SequenceGenerator()
        serialization_headroom = (
            65536 / network.bandwidth if network.bandwidth else 0.0
        )
        self.ack_timeout = network.latency * 6 + 0.01 + serialization_headroom
        self.records_sent = 0
        self.close_notify_failures = 0

    # -- addressing ---------------------------------------------------------

    def address_blob_for(self, binding: str) -> str:
        """Blob for a mailbox pathname: mbx:<network>://<host><path>."""
        return f"mbx:{self.network.name}://{self.iface.host}{binding}"

    @staticmethod
    def parse_blob(blob: str) -> Tuple[str, str, str]:
        """Split an mbx address blob into (network, host, path)."""
        kind, network, pathname = blob.split(":", 2)
        if kind != "mbx" or not pathname.startswith("//"):
            raise ValueError(f"not an mbx address blob: {blob!r}")
        host, _, path = pathname[2:].partition("/")
        return network, host, "/" + path

    # -- passive open ------------------------------------------------------

    def listen(self, owner: SimProcess, binding: Optional[str] = None) -> Listener:
        """Create a server mailbox (auto-named when binding is None)."""
        path = binding or f"/mbx/auto{self._auto_names.next()}"
        if not path.startswith("/"):
            path = "/" + path
        if path in self._mailboxes:
            raise AddressInUse(f"mailbox {path} on {self.iface.host}")
        listener = Listener(self, path, owner)
        self._mailboxes[path] = listener
        owner.at_kill(listener.close)
        return listener

    def _listener_closed(self, listener: Listener) -> None:
        self._mailboxes.pop(listener.binding, None)

    # -- active open ---------------------------------------------------------

    def connect(self, owner: SimProcess, address_blob: str, timeout: float = 5.0) -> Channel:
        """Blocking open of a mailbox by pathname blob."""
        network, host, path = self.parse_blob(address_blob)
        if network != self.network.name:
            raise NetworkUnreachable(
                f"mbx IPCS on {self.network.name} cannot reach network {network}"
            )
        local_id = self._conn_ids.next()
        channel = Channel(self, local_id, owner)
        conn = _MbxConn(local_id, host, channel)
        conn.state = "OPEN_SENT"
        self._conns[local_id] = conn
        owner.at_kill(channel.close)
        self._transmit(host, (_OPEN, path, local_id))
        self.scheduler.pump_until(
            lambda: conn.state in ("ESTABLISHED", "FAILED"),
            timeout=timeout,
            what=f"mbx open {address_blob}",
        )
        if conn.state != "ESTABLISHED":
            self._conns.pop(local_id, None)
            channel._mark_closed("open failed")
            raise ConnectionRefused(
                f"mbx open {address_blob}: "
                f"{'no such mailbox' if conn.state == 'FAILED' else 'timed out'}"
            )
        channel.open = True
        return channel

    # -- data transfer ----------------------------------------------------

    def _channel_send(self, channel: Channel, data: bytes) -> None:
        conn = self._conns.get(channel.channel_id)
        if conn is None or conn.state != "ESTABLISHED":
            return
        seq = conn.next_seq
        conn.next_seq += 1
        self.records_sent += 1
        self._transmit(conn.remote_host, (_PUT, conn.remote_id, seq, data),
                       _HEADER_SIZE + len(data))
        timer = self.scheduler.schedule(
            self.ack_timeout, lambda: self._ack_timeout(conn, seq),
            "mbx ack timeout")
        conn.pending_acks[seq] = timer

    def _ack_timeout(self, conn: _MbxConn, seq: int) -> None:
        if seq in conn.pending_acks and conn.state == "ESTABLISHED":
            # No retransmission in MBX: an unacknowledged record means
            # the peer (or its host) is gone.
            self._abort(conn, "record not acknowledged", notify_peer=False)

    # -- close / abort --------------------------------------------------------

    def _channel_close(self, channel: Channel, reason: str, notify_peer: bool) -> None:
        conn = self._conns.get(channel.channel_id)
        if conn is None:
            channel._mark_closed(reason)
            return
        self._abort(conn, reason, notify_peer=notify_peer)

    def _abort(self, conn: _MbxConn, reason: str, notify_peer: bool) -> None:
        if conn.state == "CLOSED":
            return
        was_established = conn.state == "ESTABLISHED"
        conn.state = "CLOSED"
        for timer in conn.pending_acks.values():
            timer.cancel()
        conn.pending_acks.clear()
        if notify_peer and was_established and conn.remote_id is not None:
            try:
                self._transmit(conn.remote_host, (_CLOSE, conn.remote_id))
            except NetworkUnreachable:
                # Peer unreachable: it will time the connection out.
                self.close_notify_failures += 1
        self._conns.pop(conn.local_id, None)
        conn.channel._mark_closed(reason)

    # -- wire ----------------------------------------------------------------

    def _transmit(self, dst_host: str, payload: tuple,
                  size: int = _HEADER_SIZE) -> None:
        # ``size`` feeds the bandwidth model: the fixed header share,
        # plus the data bytes of a PUT record (its caller adds them).
        self.iface.send(dst_host, self.protocol, payload, size)

    def _on_datagram(self, datagrams) -> None:
        """A frame train (PROTOCOL.md §13): runs of PUT records for one
        connection are acknowledged record-by-record (the ACK burst
        coalesces into its own train on the way back) and handed to the
        channel as one delivery — record semantics: one send, one
        record, boundaries intact."""
        i = 0
        n = len(datagrams)
        while i < n:
            datagram = datagrams[i]
            payload = datagram.payload
            kind = payload[0]
            if kind != _PUT:
                i += 1
                if kind == _PUT_ACK:  # the common control record first
                    self._handle_put_ack(datagram)
                elif kind == _OPEN:
                    self._handle_open(datagram)
                elif kind == _OPEN_ACK:
                    self._handle_open_ack(datagram)
                elif kind == _NAK:
                    self._handle_nak(datagram)
                elif kind == _CLOSE:
                    self._handle_close(datagram)
                continue
            local_id = payload[1]
            j = i + 1
            while (j < n and datagrams[j].payload[0] == _PUT
                   and datagrams[j].payload[1] == local_id):
                j += 1
            conn = self._conns.get(local_id)
            if conn is not None and conn.state == "ESTABLISHED":
                records = []
                transmit = self._transmit
                remote_host = conn.remote_host
                remote_id = conn.remote_id
                for k in range(i, j):
                    _, _, seq, data = datagrams[k].payload
                    transmit(remote_host, (_PUT_ACK, remote_id, seq))
                    records.append(data)
                conn.channel._deliver(records)
            i = j

    def _handle_open(self, datagram: Datagram) -> None:
        _, path, remote_conn_id = datagram.payload
        listener = self._mailboxes.get(path)
        if listener is None or not listener.open:
            self._transmit(datagram.src_host, (_NAK, remote_conn_id))
            return
        local_id = self._conn_ids.next()
        channel = Channel(self, local_id, listener.owner)
        conn = _MbxConn(local_id, datagram.src_host, channel)
        conn.remote_id = remote_conn_id
        conn.state = "ESTABLISHED"
        channel.open = True
        self._conns[local_id] = conn
        listener.owner.at_kill(channel.close)
        self._transmit(datagram.src_host, (_OPEN_ACK, remote_conn_id, local_id))
        if listener.on_accept is not None:
            listener.on_accept(channel)

    def _handle_open_ack(self, datagram: Datagram) -> None:
        _, local_id, remote_id = datagram.payload
        conn = self._conns.get(local_id)
        if conn is None or conn.state != "OPEN_SENT":
            return
        conn.remote_id = remote_id
        conn.state = "ESTABLISHED"
        conn.channel.open = True

    def _handle_nak(self, datagram: Datagram) -> None:
        _, local_id = datagram.payload
        conn = self._conns.get(local_id)
        if conn is not None and conn.state == "OPEN_SENT":
            conn.state = "FAILED"

    def _handle_put_ack(self, datagram: Datagram) -> None:
        _, local_id, seq = datagram.payload
        conn = self._conns.get(local_id)
        if conn is None:
            return
        timer = conn.pending_acks.pop(seq, None)
        if timer is not None:
            timer.cancel()

    def _handle_close(self, datagram: Datagram) -> None:
        _, local_id = datagram.payload
        conn = self._conns.get(local_id)
        if conn is not None:
            self._abort(conn, "closed by peer", notify_peer=False)
