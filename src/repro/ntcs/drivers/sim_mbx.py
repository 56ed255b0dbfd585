"""ND-Layer driver for the Apollo-MBX-like IPCS.

MBX already preserves record boundaries, so one NTCS message maps to
exactly one mailbox record — no framing needed.  What this driver must
handle instead is the pathname addressing of its IPCS.
"""

from __future__ import annotations

from typing import Callable

from repro.ipcs.mbx import SimMbxIpcs
from repro.ntcs.stdif import MessageChannel, StdIfDriver


class RecordChannel(MessageChannel):
    """One record per message: a trivial adaptation."""

    def send_message(self, data: bytes) -> None:
        """One NTCS message = one mailbox record."""
        self.channel.send(data)

    def _on_bytes(self, chunks) -> None:
        # Records map to messages 1:1, a train to a train.
        self._emit(chunks)


class SimMbxDriver(StdIfDriver):
    """STD-IF over :class:`~repro.ipcs.mbx.SimMbxIpcs`."""

    protocol = "mbx"

    def __init__(self, ipcs: SimMbxIpcs):
        self.ipcs = ipcs

    @property
    def network_name(self) -> str:
        return self.ipcs.network.name

    def listen(self, process, on_accept: Callable[[MessageChannel], None],
               binding: str = None) -> str:
        """Create the module's server mailbox; returns its blob."""
        listener = self.ipcs.listen(process, binding)
        listener.on_accept = lambda channel: on_accept(RecordChannel(channel))
        return listener.address_blob()

    def connect(self, process, blob: str, timeout: float = 5.0) -> MessageChannel:
        """Open a record channel to a mailbox blob."""
        return RecordChannel(self.ipcs.connect(process, blob, timeout=timeout))
