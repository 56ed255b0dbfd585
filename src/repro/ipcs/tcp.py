"""Simulated Unix-TCP-style IPCS: byte streams over (host, port).

Faithful-to-purpose TCP behaviours the ND-Layer driver must cope with:

* active/passive open with SYN / SYNACK (and RST on refusal),
* **byte-stream semantics** — contiguous segments are coalesced into a
  single delivery, so receivers must frame their own messages,
* per-segment acknowledgement with bounded retransmission; exhausting
  retries aborts the channel ("the link failed"),
* RST notification when the peer process dies while its host survives;
  silent loss (caught by retransmission timeout) when the host crashes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import AddressInUse, ConnectionRefused, NetworkUnreachable
from repro.ipcs.base import Channel, Ipcs, Listener
from repro.machine.machine import Machine
from repro.machine.process import SimProcess
from repro.netsim.network import Datagram, Network
from repro.util.idgen import SequenceGenerator

_SYN = "SYN"
_SYNACK = "SYNACK"
_RST = "RST"
_DATA = "DATA"
_ACK = "ACK"
_CLOSE = "CLOSE"

# Bandwidth-model size of a segment's fixed header share; a DATA
# segment adds its data bytes.
_HEADER_SIZE = 64


class _TcpConn:
    """Book-keeping for one end of a TCP connection."""

    __slots__ = (
        "local_id", "remote_id", "remote_host", "channel", "state",
        "next_send_seq", "next_recv_seq", "unacked", "out_of_order",
        "syn_timer", "syn_tries", "dst_port", "fail_reason", "rx_pending",
        "rx_flush_scheduled",
    )

    def __init__(self, local_id: int, remote_host: str, channel: Channel):
        self.local_id = local_id
        self.remote_id: Optional[int] = None
        self.remote_host = remote_host
        self.channel = channel
        self.state = "NEW"
        self.next_send_seq = 0
        self.next_recv_seq = 0
        self.unacked: Dict[int, Tuple[object, int, bytes]] = {}
        self.out_of_order: Dict[int, bytes] = {}
        self.syn_timer = None
        self.syn_tries = 0
        self.dst_port: Optional[int] = None
        self.fail_reason = ""
        self.rx_pending: list = []
        self.rx_flush_scheduled = False


class SimTcpIpcs(Ipcs):
    """The TCP-like native IPCS of one machine on one network."""

    protocol = "tcp"
    MAX_RETRIES = 5

    def __init__(self, machine: Machine, network: Network, ephemeral_base: int = 32768):
        super().__init__(machine, network)
        self._listeners: Dict[int, Listener] = {}
        self._conns: Dict[int, _TcpConn] = {}
        self._by_peer: Dict[Tuple[str, int], _TcpConn] = {}
        self._conn_ids = SequenceGenerator()
        self._ephemeral = SequenceGenerator(ephemeral_base)
        # The retransmission timeout must cover serialization delay on
        # bandwidth-limited networks or ACKs lose the race to the timer.
        serialization_headroom = (
            65536 / network.bandwidth if network.bandwidth else 0.0
        )
        self.rto = network.latency * 4 + 0.005 + serialization_headroom
        self.segments_sent = 0
        self.segments_retransmitted = 0
        self.close_notify_failures = 0

    # -- addressing -----------------------------------------------------------

    def address_blob_for(self, binding: str) -> str:
        """Blob for a port: tcp:<network>:<host>:<port>."""
        return f"tcp:{self.network.name}:{self.iface.host}:{binding}"

    @staticmethod
    def parse_blob(blob: str) -> Tuple[str, str, int]:
        """Split a tcp address blob into (network, host, port)."""
        kind, network, host, port = blob.split(":")
        if kind != "tcp":
            raise ValueError(f"not a tcp address blob: {blob!r}")
        return network, host, int(port)

    # -- passive open ------------------------------------------------------------

    def listen(self, owner: SimProcess, binding: Optional[str] = None) -> Listener:
        """Listen on a port (ephemeral when binding is None)."""
        port = int(binding) if binding is not None else self._ephemeral.next()
        if port in self._listeners:
            raise AddressInUse(f"tcp port {port} on {self.iface.host}")
        listener = Listener(self, str(port), owner)
        self._listeners[port] = listener
        owner.at_kill(listener.close)
        return listener

    def _listener_closed(self, listener: Listener) -> None:
        self._listeners.pop(int(listener.binding), None)

    # -- active open ------------------------------------------------------------

    def connect(self, owner: SimProcess, address_blob: str, timeout: float = 5.0) -> Channel:
        """Blocking active open (SYN/SYNACK) to a tcp blob."""
        network, host, port = self.parse_blob(address_blob)
        if network != self.network.name:
            raise NetworkUnreachable(
                f"tcp IPCS on {self.network.name} cannot reach network {network}"
            )
        local_id = self._conn_ids.next()
        channel = Channel(self, local_id, owner)
        conn = _TcpConn(local_id, host, channel)
        conn.state = "SYN_SENT"
        conn.dst_port = port
        self._conns[local_id] = conn
        owner.at_kill(channel.close)
        self._send_syn(conn)
        self.scheduler.pump_until(
            lambda: conn.state in ("ESTABLISHED", "FAILED"),
            timeout=timeout,
            what=f"tcp connect {address_blob}",
        )
        if conn.state != "ESTABLISHED":
            self._drop_conn(conn)
            channel._mark_closed("connect failed")
            raise ConnectionRefused(
                f"tcp connect to {address_blob}: {conn.fail_reason or 'timed out'}"
            )
        channel.open = True
        return channel

    def _send_syn(self, conn: _TcpConn) -> None:
        conn.syn_tries += 1
        if conn.syn_tries > self.MAX_RETRIES:
            conn.state = "FAILED"
            conn.fail_reason = "timed out"
            return
        self._transmit(conn.remote_host, (_SYN, self.iface.host, conn.dst_port, conn.local_id))
        conn.syn_timer = self.scheduler.schedule(
            self.rto, lambda: self._syn_timeout(conn), note="tcp syn rto"
        )

    def _syn_timeout(self, conn: _TcpConn) -> None:
        if conn.state == "SYN_SENT":
            self.segments_retransmitted += 1
            self._send_syn(conn)

    # -- data transfer ----------------------------------------------------

    def _channel_send(self, channel: Channel, data: bytes) -> None:
        conn = self._conns.get(channel.channel_id)
        if conn is None or conn.state != "ESTABLISHED":
            return
        seq = conn.next_send_seq
        conn.next_send_seq += 1
        self._send_segment(conn, seq, data, tries=1)

    def _send_segment(self, conn: _TcpConn, seq: int, data: bytes, tries: int) -> None:
        self.segments_sent += 1
        self._transmit(conn.remote_host, (_DATA, conn.remote_id, seq, data),
                       _HEADER_SIZE + len(data))
        timer = self.scheduler.schedule(
            self.rto, lambda: self._segment_timeout(conn, seq), "tcp rto")
        conn.unacked[seq] = (timer, tries, data)

    def _segment_timeout(self, conn: _TcpConn, seq: int) -> None:
        entry = conn.unacked.pop(seq, None)
        if entry is None or conn.state != "ESTABLISHED":
            return
        _, tries, data = entry
        if tries >= self.MAX_RETRIES:
            self._abort(conn, "retransmission timeout", notify_peer=False)
            return
        self.segments_retransmitted += 1
        self._send_segment(conn, seq, data, tries + 1)

    # -- close / abort -----------------------------------------------------

    def _channel_close(self, channel: Channel, reason: str, notify_peer: bool) -> None:
        conn = self._conns.get(channel.channel_id)
        if conn is None:
            channel._mark_closed(reason)
            return
        self._abort(conn, reason, notify_peer=notify_peer)

    def _abort(self, conn: _TcpConn, reason: str, notify_peer: bool) -> None:
        if conn.state == "CLOSED":
            return
        was_established = conn.state == "ESTABLISHED"
        if was_established:
            # Data that arrived before the close is deliverable — flush
            # it ahead of the close notification, as a real stack would.
            self._flush_rx(conn)
        conn.state = "CLOSED"
        for timer, _, _ in conn.unacked.values():
            timer.cancel()
        conn.unacked.clear()
        if conn.syn_timer is not None:
            conn.syn_timer.cancel()
        if notify_peer and was_established and conn.remote_id is not None:
            try:
                self._transmit(conn.remote_host, (_CLOSE, conn.remote_id))
            except NetworkUnreachable:
                # Peer unreachable: it will time the connection out.
                self.close_notify_failures += 1
        self._drop_conn(conn)
        conn.channel._mark_closed(reason)

    def _drop_conn(self, conn: _TcpConn) -> None:
        self._conns.pop(conn.local_id, None)
        for key, value in list(self._by_peer.items()):
            if value is conn:
                del self._by_peer[key]

    # -- wire ------------------------------------------------------------------

    def _transmit(self, dst_host: str, payload: tuple,
                  size: int = _HEADER_SIZE) -> None:
        # ``size`` feeds the bandwidth model: the fixed header share,
        # plus the data bytes of a DATA segment (its caller adds them).
        self.iface.send(dst_host, self.protocol, payload, size)

    def _on_datagram(self, datagrams) -> None:
        """A frame train (PROTOCOL.md §13): runs of DATA segments for
        one connection amortize the connection lookup, the in-order
        reassembly scan, and the rx-flush scheduling decision.  Every
        segment is still acknowledged individually, in arrival order —
        the wire is unchanged (the ACK burst coalesces into its own
        train on the way back)."""
        i = 0
        n = len(datagrams)
        while i < n:
            datagram = datagrams[i]
            payload = datagram.payload
            kind = payload[0]
            if kind != _DATA:
                i += 1
                if kind == _ACK:  # the common control segment first
                    self._handle_ack(datagram)
                elif kind == _SYN:
                    self._handle_syn(datagram)
                elif kind == _SYNACK:
                    self._handle_synack(datagram)
                elif kind == _RST:
                    self._handle_rst(datagram)
                elif kind == _CLOSE:
                    self._handle_close(datagram)
                continue
            local_id = payload[1]
            j = i + 1
            while (j < n and datagrams[j].payload[0] == _DATA
                   and datagrams[j].payload[1] == local_id):
                j += 1
            conn = self._conns.get(local_id)
            if conn is not None and conn.state == "ESTABLISHED":
                out_of_order = conn.out_of_order
                transmit = self._transmit
                remote_host = conn.remote_host
                remote_id = conn.remote_id
                for k in range(i, j):
                    _, _, seq, data = datagrams[k].payload
                    transmit(remote_host, (_ACK, remote_id, seq))
                    if seq >= conn.next_recv_seq:  # else a duplicate
                        out_of_order[seq] = data
                while conn.next_recv_seq in out_of_order:
                    conn.rx_pending.append(
                        out_of_order.pop(conn.next_recv_seq))
                    conn.next_recv_seq += 1
                if conn.rx_pending and not conn.rx_flush_scheduled:
                    # Byte-stream semantics: defer delivery one
                    # scheduler tick so segments arriving at the same
                    # instant coalesce into one chunk — receivers must
                    # frame their own messages.
                    conn.rx_flush_scheduled = True
                    self.run_queue.post(lambda c=conn: self._flush_rx(c),
                                        note="tcp rx flush")
            i = j

    def _handle_syn(self, datagram: Datagram) -> None:
        _, src_host, dst_port, remote_conn_id = datagram.payload
        peer_key = (src_host, remote_conn_id)
        existing = self._by_peer.get(peer_key)
        if existing is not None:
            # Duplicate SYN (our SYNACK was lost): re-answer, don't re-open.
            self._transmit(src_host, (_SYNACK, remote_conn_id, existing.local_id))
            return
        listener = self._listeners.get(dst_port)
        if listener is None or not listener.open:
            self._transmit(src_host, (_RST, remote_conn_id))
            return
        local_id = self._conn_ids.next()
        channel = Channel(self, local_id, listener.owner)
        conn = _TcpConn(local_id, src_host, channel)
        conn.remote_id = remote_conn_id
        conn.state = "ESTABLISHED"
        channel.open = True
        self._conns[local_id] = conn
        self._by_peer[peer_key] = conn
        listener.owner.at_kill(channel.close)
        self._transmit(src_host, (_SYNACK, remote_conn_id, local_id))
        if listener.on_accept is not None:
            listener.on_accept(channel)

    def _handle_synack(self, datagram: Datagram) -> None:
        _, local_id, remote_id = datagram.payload
        conn = self._conns.get(local_id)
        if conn is None or conn.state != "SYN_SENT":
            return
        if conn.syn_timer is not None:
            conn.syn_timer.cancel()
        conn.remote_id = remote_id
        conn.state = "ESTABLISHED"
        conn.channel.open = True

    def _handle_rst(self, datagram: Datagram) -> None:
        _, local_id = datagram.payload
        conn = self._conns.get(local_id)
        if conn is not None and conn.state == "SYN_SENT":
            if conn.syn_timer is not None:
                conn.syn_timer.cancel()
            conn.state = "FAILED"
            conn.fail_reason = "refused"

    def _flush_rx(self, conn: _TcpConn) -> None:
        conn.rx_flush_scheduled = False
        if not conn.rx_pending or conn.state != "ESTABLISHED":
            return
        chunk = b"".join(conn.rx_pending)
        conn.rx_pending.clear()
        conn.channel._deliver([chunk])

    def _handle_ack(self, datagram: Datagram) -> None:
        _, local_id, seq = datagram.payload
        conn = self._conns.get(local_id)
        if conn is None:
            return
        entry = conn.unacked.pop(seq, None)
        if entry is not None:
            entry[0].cancel()

    def _handle_close(self, datagram: Datagram) -> None:
        _, local_id = datagram.payload
        conn = self._conns.get(local_id)
        if conn is not None:
            self._abort(conn, "closed by peer", notify_peer=False)
