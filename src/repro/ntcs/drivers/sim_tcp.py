"""ND-Layer driver for the TCP-like IPCS.

TCP gives a byte stream, so this driver supplies the message framing:
each NTCS message is prefixed with its length as one shift-mode 32-bit
integer (endian-independent, per Sec. 5.2), and the receive side
reassembles messages from arbitrarily coalesced or fragmented chunks.
"""

from __future__ import annotations

from typing import Callable

from repro.conversion.shiftmode import shift_decode_u32s, shift_encode_u32s
from repro.errors import ProtocolError
from repro.ipcs.tcp import SimTcpIpcs
from repro.ntcs.stdif import MessageChannel, StdIfDriver

_LEN_BYTES = 4
_MAX_MESSAGE = 16 * 1024 * 1024


class FramedChannel(MessageChannel):
    """Length-prefix framing over a byte-stream channel."""

    def __init__(self, channel):
        self._buffer = bytearray()
        super().__init__(channel)

    def send_message(self, data: bytes) -> None:
        """Frame one NTCS message with a shift-mode length prefix."""
        self.channel.send(shift_encode_u32s([len(data)]) + data)

    def _on_bytes(self, chunks) -> None:
        # Extract every complete message of the delivery in one pass and
        # hand them up as one train (PROTOCOL.md §13).  The usual
        # delivery — one chunk of whole messages, nothing buffered — is
        # parsed in place; anything else goes through the buffer.
        buffer = self._buffer
        if buffer or len(chunks) != 1:
            for chunk in chunks:
                buffer.extend(chunk)
            data = buffer
        else:
            data = chunks[0]
        messages = []
        end = len(data)
        start = length = 0
        while end - start >= _LEN_BYTES:
            (length,) = shift_decode_u32s(data, 1, start)
            stop = start + _LEN_BYTES + length
            if length > _MAX_MESSAGE or stop > end:
                break
            messages.append(bytes(data[start + _LEN_BYTES:stop]))
            start = stop
        # Keep only the incomplete tail.
        if data is buffer:
            del buffer[:start]
        elif start < end:
            buffer.extend(data[start:])
        if length > _MAX_MESSAGE:
            raise ProtocolError(f"insane frame length {length}")
        self._emit(messages)


class SimTcpDriver(StdIfDriver):
    """STD-IF over :class:`~repro.ipcs.tcp.SimTcpIpcs`."""

    protocol = "tcp"

    def __init__(self, ipcs: SimTcpIpcs):
        self.ipcs = ipcs

    @property
    def network_name(self) -> str:
        return self.ipcs.network.name

    def listen(self, process, on_accept: Callable[[MessageChannel], None],
               binding: str = None) -> str:
        """Listen on a TCP port; returns the blob."""
        listener = self.ipcs.listen(process, binding)
        listener.on_accept = lambda channel: on_accept(FramedChannel(channel))
        return listener.address_blob()

    def connect(self, process, blob: str, timeout: float = 5.0) -> MessageChannel:
        """Open a framed channel to a tcp blob."""
        return FramedChannel(self.ipcs.connect(process, blob, timeout=timeout))
