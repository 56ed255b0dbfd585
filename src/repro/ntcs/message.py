"""NTCS internal messages: shift-mode headers + mode-tagged bodies.

Per Sec. 5.2 of the paper, "all message headers are built with
structures of four byte integers", transferred with the endian-
independent shift/mask routines of
:mod:`repro.conversion.shiftmode`, while "any necessary data field in an
NTCS control message is built in packed mode".

Header layout (twelve 32-bit words, 48 bytes):

====  ==========================================================
word  meaning
====  ==========================================================
 0    magic ("NTCS")
 1    kind (DATA / LVC_HELLO / IVC_OPEN / ...)
 2    flags (transfer mode, reply bits, connectionless)
 3,4  source address (high, low; bit 63 marks a TAdd)
 5,6  destination address (high, low)
 7    message type id (conversion-registry key)
 8    correlation id (send/receive/reply matching)
 9    body length in bytes
10    aux (hop count for IVC_OPEN; cumulative credit counter on
      DATA / CREDIT_GRANT / CREDIT_PROBE when flow control is on,
      see PROTOCOL.md §12; otherwise zero)
11    checksum: sum of words 0–10 mod 2^32
====  ==========================================================

Fast path (PROTOCOL.md, "Fast path and wire invariance"): a decoded
:class:`Msg` keeps its original frame bytes, and :meth:`Msg.encode`
returns them verbatim until a wire-visible field is mutated — so a
gateway that forwards a message untouched never re-serializes it.  The
header checksum may be verified lazily (``verify=False`` on decode +
:meth:`Msg.checksum_ok` at the terminating endpoint), and
:func:`patch_frame_aux` rewrites only the aux and checksum words of a
frame in place via ``memoryview`` for the per-hop IVC_OPEN hop count.
:class:`HeaderView` exposes the routing words (1–6) of a raw frame
without materializing a full message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.conversion.shiftmode import (
    shift_decode_credit,
    shift_decode_u32s,
    shift_decode_u32s_many,
    shift_encode_credit,
    shift_encode_u32s,
)
from repro.errors import ProtocolError
from repro.ntcs.address import Address

MAGIC = 0x4E544353  # "NTCS"
HEADER_WORDS = 12
HEADER_BYTES = HEADER_WORDS * 4

# Byte offsets of the in-place-patchable words (see patch_frame_aux).
AUX_WORD_OFFSET = 10 * 4
CHECKSUM_WORD_OFFSET = 11 * 4

# -- kinds ------------------------------------------------------------------

DATA = 1
LVC_HELLO = 2
LVC_HELLO_ACK = 3
IVC_OPEN = 4
IVC_OPEN_ACK = 5
IVC_OPEN_NAK = 6
IVC_CLOSE = 7
CREDIT_GRANT = 8
CREDIT_PROBE = 9

KIND_NAMES = {
    DATA: "DATA",
    LVC_HELLO: "LVC_HELLO",
    LVC_HELLO_ACK: "LVC_HELLO_ACK",
    IVC_OPEN: "IVC_OPEN",
    IVC_OPEN_ACK: "IVC_OPEN_ACK",
    IVC_OPEN_NAK: "IVC_OPEN_NAK",
    IVC_CLOSE: "IVC_CLOSE",
    CREDIT_GRANT: "CREDIT_GRANT",
    CREDIT_PROBE: "CREDIT_PROBE",
}

# The declared wire handshake, checked by ntcsverify (pure literal —
# the analyzer reads it off the AST).  Per network hop (one LVC), a
# kind may only be transmitted once every flag it *requires* has been
# *established* by an earlier kind on that hop: the HELLO exchange
# brings up the LVC, IVC_OPEN rides an open LVC, the OPEN ACK/NAK
# answer an outstanding open, and everything else needs the LVC.
# ``verify`` model-checks this table for handshake deadlocks (MDL003)
# and replays netsim wire traces against it (TRC001/TRC002).
WIRE_PROTOCOL = {
    "LVC_HELLO":     {"requires": (),         "establishes": ("hello",)},
    "LVC_HELLO_ACK": {"requires": ("hello",), "establishes": ("lvc",)},
    "IVC_OPEN":      {"requires": ("lvc",),   "establishes": ("open",)},
    "IVC_OPEN_ACK":  {"requires": ("open",),  "establishes": ("ivc",)},
    "IVC_OPEN_NAK":  {"requires": ("open",),  "establishes": ()},
    "IVC_CLOSE":     {"requires": ("lvc",),   "establishes": ()},
    "DATA":          {"requires": ("lvc",),   "establishes": ()},
    "CREDIT_GRANT":  {"requires": ("lvc",),   "establishes": ()},
    "CREDIT_PROBE":  {"requires": ("lvc",),   "establishes": ()},
}

# -- flags -------------------------------------------------------------------

FLAG_PACKED = 0x01          # body transfer mode: set=packed, clear=image
FLAG_REPLY_EXPECTED = 0x02
FLAG_IS_REPLY = 0x04
FLAG_CONNECTIONLESS = 0x08
FLAG_INTERNAL = 0x10        # NTCS control-plane traffic (NSP, monitor, ...)

# Fields whose mutation invalidates a cached wire frame.
_WIRE_FIELDS = frozenset(
    {"kind", "src", "dst", "flags", "type_id", "corr_id", "aux", "body"}
)


class HeaderView:
    """A zero-copy view of one frame's header words.

    Gateways route on kind/src/dst/aux; this view decodes exactly the
    twelve header words (no body copy, no Address construction unless
    asked) so the pass-through plane can decide without building a
    :class:`Msg`.  Construction validates only length and magic; call
    :meth:`checksum_ok` to verify the header sum.
    """

    __slots__ = ("_words",)

    def __init__(self, frame: Union[bytes, bytearray, memoryview]):
        if len(frame) < HEADER_BYTES:
            raise ProtocolError(f"short NTCS message: {len(frame)} bytes")
        self._words = shift_decode_u32s(frame, HEADER_WORDS)
        if self._words[0] != MAGIC:
            raise ProtocolError(f"bad magic {self._words[0]:#x}")

    @property
    def kind(self) -> int:
        return self._words[1]

    @property
    def flags(self) -> int:
        return self._words[2]

    @property
    def src(self) -> Address:
        return Address.from_u32_pair(self._words[3], self._words[4])

    @property
    def dst(self) -> Address:
        return Address.from_u32_pair(self._words[5], self._words[6])

    @property
    def type_id(self) -> int:
        return self._words[7]

    @property
    def corr_id(self) -> int:
        return self._words[8]

    @property
    def body_len(self) -> int:
        return self._words[9]

    @property
    def aux(self) -> int:
        return self._words[10]

    @property
    def credit(self) -> Optional[int]:
        """The cumulative credit counter piggybacked in the aux word,
        or None when the frame carries no credit information (flow
        control off, or an aux word used for something else — gateways
        only consult this on DATA/CREDIT_* kinds)."""
        return shift_decode_credit(self._words[10])

    def checksum_ok(self) -> bool:
        """True when the checksum word matches the header sum."""
        return self._words[11] == sum(self._words[:11]) & 0xFFFFFFFF

    @classmethod
    def from_words(cls, words: List[int]) -> "HeaderView":
        """Wrap already-decoded header words (the vectorized train
        path); the words were validated by :func:`header_views`."""
        view = cls.__new__(cls)
        view._words = words
        return view


def header_views(frames: Sequence[Union[bytes, bytearray, memoryview]]
                 ) -> List[HeaderView]:
    """Decode the header words of a whole frame train in one struct
    call (PROTOCOL.md §13): the 48-byte header prefixes are joined into
    one contiguous buffer and unpacked together, then split into one
    :class:`HeaderView` per frame.  Raises ProtocolError on the first
    short or bad-magic frame, like per-frame construction would.
    """
    if len(frames) == 1:
        return [HeaderView(frames[0])]  # a train of one needs no join
    for frame in frames:
        if len(frame) < HEADER_BYTES:
            raise ProtocolError(f"short NTCS message: {len(frame)} bytes")
    joined = b"".join(bytes(frame[:HEADER_BYTES]) for frame in frames)
    groups = shift_decode_u32s_many(joined, len(frames), HEADER_WORDS)
    views = []
    for words in groups:
        if words[0] != MAGIC:
            raise ProtocolError(f"bad magic {words[0]:#x}")
        views.append(HeaderView.from_words(words))
    return views


def decode_frames(frames: Sequence[bytes]) -> List["Msg"]:
    """Vectorized :meth:`Msg.decode` over a frame train, checksum
    deferred: header words for every frame come from one struct call.
    Raises ProtocolError on the first malformed frame — callers fall
    back to the per-frame path so error handling stays identical.
    """
    views = header_views(frames)
    msgs = []
    for frame, view in zip(frames, views):
        words = view._words
        body = frame[HEADER_BYTES:]
        if len(body) != words[9]:
            raise ProtocolError(
                f"body length mismatch: header says {words[9]}, "
                f"got {len(body)}"
            )
        msg = Msg(
            kind=words[1],
            flags=words[2],
            src=Address.from_u32_pair(words[3], words[4]),
            dst=Address.from_u32_pair(words[5], words[6]),
            type_id=words[7],
            corr_id=words[8],
            aux=words[10],
            body=body,
        )
        msg._frame = bytes(frame)
        msg._checksum_deferred = True
        msgs.append(msg)
    return msgs


def encode_credit(count: int) -> int:
    """Aux-word encoding of a cumulative credit counter (nonzero, so a
    flow-disabled sender's aux == 0 is unambiguous)."""
    return shift_encode_credit(count)


def decode_credit(aux: int) -> Optional[int]:
    """Inverse of :func:`encode_credit`; None when ``aux`` carries no
    credit information."""
    return shift_decode_credit(aux)


def patch_frame_aux(frame: Union[bytes, memoryview], aux: int) -> bytes:
    """A copy of ``frame`` with only the aux and checksum words
    rewritten in place — the gateway hop-count splice.

    The checksum is word-sum mod 2^32, so it updates incrementally from
    the old aux value: no other header word is read, decoded, or
    re-encoded.  Everything else, body included, is byte-identical.
    """
    if len(frame) < HEADER_BYTES:
        raise ProtocolError(f"short NTCS message: {len(frame)} bytes")
    patched = bytearray(frame)
    view = memoryview(patched)
    old_aux, old_sum = shift_decode_u32s(view, 2, offset=AUX_WORD_OFFSET)
    new_sum = (old_sum - old_aux + aux) & 0xFFFFFFFF
    view[AUX_WORD_OFFSET:CHECKSUM_WORD_OFFSET + 4] = \
        shift_encode_u32s((aux & 0xFFFFFFFF, new_sum))
    return bytes(patched)


@dataclass(init=False)
class Msg:
    """One NTCS message: a parsed header plus its body bytes."""

    kind: int
    src: Address
    dst: Address
    flags: int = 0
    type_id: int = 0
    corr_id: int = 0
    aux: int = 0
    body: bytes = b""
    # Cached wire frame: populated by decode()/encode(), dropped on any
    # wire-field mutation (see __setattr__).  repr=False keeps dumps
    # readable; compare=False keeps Msg equality semantic, not cached;
    # init=False keeps dataclasses.replace from copying a frame that
    # no longer matches the replaced fields.
    _frame: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False)
    # False until the header checksum has been checked (decode verifies
    # eagerly unless told to defer; locally built messages are trusted).
    _checksum_deferred: bool = field(
        default=False, init=False, repr=False, compare=False)

    def __init__(self, kind: int, src: Address, dst: Address,
                 flags: int = 0, type_id: int = 0, corr_id: int = 0,
                 aux: int = 0, body: bytes = b""):
        # A new message has no cached frame to invalidate, so its
        # fields are stored directly rather than through __setattr__.
        self.__dict__.update(
            kind=kind, src=src, dst=dst, flags=flags, type_id=type_id,
            corr_id=corr_id, aux=aux, body=body,
            _frame=None, _checksum_deferred=False)

    def __setattr__(self, name: str, value) -> None:
        if name in _WIRE_FIELDS and "_frame" in self.__dict__:
            object.__setattr__(self, "_frame", None)
        object.__setattr__(self, name, value)

    # -- flag helpers ---------------------------------------------------------

    @property
    def mode(self) -> int:
        """Transfer mode of the body (conversion.IMAGE or PACKED)."""
        return 1 if self.flags & FLAG_PACKED else 0

    def set_mode(self, mode: int) -> None:
        """Set the body transfer-mode flag (IMAGE or PACKED)."""
        if mode:
            self.flags |= FLAG_PACKED
        else:
            self.flags &= ~FLAG_PACKED

    @property
    def reply_expected(self) -> bool:
        return bool(self.flags & FLAG_REPLY_EXPECTED)

    @property
    def is_reply(self) -> bool:
        return bool(self.flags & FLAG_IS_REPLY)

    @property
    def connectionless(self) -> bool:
        return bool(self.flags & FLAG_CONNECTIONLESS)

    @property
    def internal(self) -> bool:
        return bool(self.flags & FLAG_INTERNAL)

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"kind{self.kind}")

    # -- wire form ------------------------------------------------------------

    def encode(self) -> bytes:
        """Shift-mode header followed by the body bytes.  The frame is
        cached: re-encoding an unmutated message (the gateway forward
        path) returns the original bytes."""
        frame = self._frame
        if frame is not None:
            return frame
        src_hi, src_lo = self.src.to_u32_pair()
        dst_hi, dst_lo = self.dst.to_u32_pair()
        words = [
            MAGIC, self.kind, self.flags,
            src_hi, src_lo, dst_hi, dst_lo,
            self.type_id, self.corr_id, len(self.body), self.aux,
        ]
        checksum = sum(words) & 0xFFFFFFFF
        words.append(checksum)
        frame = shift_encode_u32s(words) + self.body
        self._frame = frame
        return frame

    @classmethod
    def decode(cls, data: bytes, verify: bool = True) -> "Msg":
        """Parse one complete message.  Raises ProtocolError on any
        malformation — the sanity net under the recursive layers.

        With ``verify=False`` the (length/magic) structure is still
        validated but the header-checksum comparison is deferred: the
        caller promises to run :meth:`checksum_ok` at the terminating
        endpoint (gateway pass-through hops skip it entirely — the
        single-verification rule, PROTOCOL.md).
        """
        if len(data) < HEADER_BYTES:
            raise ProtocolError(f"short NTCS message: {len(data)} bytes")
        words = shift_decode_u32s(data, HEADER_WORDS)
        if words[0] != MAGIC:
            raise ProtocolError(f"bad magic {words[0]:#x}")
        if verify:
            checksum = sum(words[:11]) & 0xFFFFFFFF
            if words[11] != checksum:
                raise ProtocolError(
                    f"header checksum mismatch ({words[11]:#x} != {checksum:#x})"
                )
        body_len = words[9]
        body = data[HEADER_BYTES:]
        if len(body) != body_len:
            raise ProtocolError(
                f"body length mismatch: header says {body_len}, got {len(body)}"
            )
        msg = cls(
            kind=words[1],
            flags=words[2],
            src=Address.from_u32_pair(words[3], words[4]),
            dst=Address.from_u32_pair(words[5], words[6]),
            type_id=words[7],
            corr_id=words[8],
            aux=words[10],
            body=body,
        )
        msg._frame = bytes(data)
        msg._checksum_deferred = not verify
        return msg

    def checksum_ok(self) -> bool:
        """Verify a deferred header checksum (idempotent; True when the
        checksum was already verified at decode or the message was built
        locally)."""
        if not self._checksum_deferred:
            return True
        frame = self._frame
        if frame is None:
            # Mutated since decode: the cached frame (and with it the
            # received checksum word) is gone; nothing left to verify.
            self._checksum_deferred = False
            return True
        words = shift_decode_u32s(frame, HEADER_WORDS)
        ok = words[11] == sum(words[:11]) & 0xFFFFFFFF
        if ok:
            self._checksum_deferred = False
        return ok

    @property
    def checksum_pending(self) -> bool:
        """True while the header checksum has not been verified yet."""
        return self._checksum_deferred

    def __repr__(self) -> str:
        return (
            f"Msg({self.kind_name} {self.src}->{self.dst} type={self.type_id} "
            f"corr={self.corr_id} flags={self.flags:#x} body={len(self.body)}B)"
        )
