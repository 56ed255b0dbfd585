"""Unit tests for NTCS message headers (shift mode, Sec. 5.2)."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.ntcs import message as m
from repro.ntcs.address import Address, make_uadd


def _msg(**overrides):
    defaults = dict(
        kind=m.DATA,
        src=make_uadd(3),
        dst=make_uadd(9),
        flags=m.FLAG_PACKED,
        type_id=100,
        corr_id=7,
        aux=2,
        body=b"payload",
    )
    defaults.update(overrides)
    return m.Msg(**defaults)


def test_encode_decode_round_trip():
    msg = _msg()
    back = m.Msg.decode(msg.encode())
    assert back.kind == msg.kind
    assert back.src == msg.src and back.dst == msg.dst
    assert back.flags == msg.flags
    assert back.type_id == msg.type_id
    assert back.corr_id == msg.corr_id
    assert back.aux == msg.aux
    assert back.body == msg.body


def test_header_is_fixed_size_shift_mode():
    msg = _msg(body=b"")
    wire = msg.encode()
    assert len(wire) == m.HEADER_BYTES
    # Shift mode defines the wire order: the magic's bytes appear MSB
    # first, independent of the host.
    assert wire[:4] == bytes([0x4E, 0x54, 0x43, 0x53])  # "NTCS"


def test_temporary_source_survives_round_trip():
    msg = _msg(src=Address(value=5, temporary=True))
    back = m.Msg.decode(msg.encode())
    assert back.src.temporary
    assert back.src.value == 5


def test_flag_helpers():
    msg = _msg(flags=0)
    assert msg.mode == 0
    msg.set_mode(1)
    assert msg.mode == 1 and (msg.flags & m.FLAG_PACKED)
    msg.set_mode(0)
    assert msg.mode == 0
    msg.flags = m.FLAG_REPLY_EXPECTED | m.FLAG_IS_REPLY | m.FLAG_CONNECTIONLESS | m.FLAG_INTERNAL
    assert msg.reply_expected and msg.is_reply
    assert msg.connectionless and msg.internal


def test_decode_rejects_short_message():
    with pytest.raises(ProtocolError, match="short"):
        m.Msg.decode(b"\x00" * 10)


def test_decode_rejects_bad_magic():
    wire = bytearray(_msg().encode())
    wire[0] ^= 0xFF
    with pytest.raises(ProtocolError, match="magic"):
        m.Msg.decode(bytes(wire))


def test_decode_rejects_corrupted_header():
    wire = bytearray(_msg().encode())
    wire[9] ^= 0x01  # flip a bit inside the kind/flags area
    with pytest.raises(ProtocolError, match="checksum"):
        m.Msg.decode(bytes(wire))


def test_decode_rejects_truncated_body():
    wire = _msg(body=b"0123456789").encode()
    with pytest.raises(ProtocolError, match="length mismatch"):
        m.Msg.decode(wire[:-3])


_MUTATIONS = {
    "kind": m.CREDIT_GRANT,
    "src": make_uadd(4),
    "dst": make_uadd(10),
    "flags": m.FLAG_PACKED | m.FLAG_IS_REPLY,
    "type_id": 101,
    "corr_id": 8,
    "aux": 3,
    "body": b"changed",
}


def test_frame_cache_covers_every_wire_field():
    assert set(_MUTATIONS) == set(m._WIRE_FIELDS)


@pytest.mark.parametrize("field", sorted(_MUTATIONS))
@pytest.mark.parametrize("origin", ["encoded", "decoded"])
def test_mutation_drops_the_cached_frame(field, origin):
    msg = _msg()
    if origin == "decoded":
        msg = m.Msg.decode(msg.encode())
    else:
        msg.encode()
    assert msg._frame is not None
    setattr(msg, field, _MUTATIONS[field])
    assert msg._frame is None
    assert getattr(m.Msg.decode(msg.encode()), field) == _MUTATIONS[field]


def test_fresh_messages_hold_no_frame():
    msg = _msg()
    assert msg._frame is None and not msg.checksum_pending
    assert m.Msg(m.DATA, make_uadd(1), make_uadd(2))._frame is None
    assert dataclasses.replace(msg, corr_id=99)._frame is None
    # Decoding passes the frame in.
    wire = _msg().encode()
    assert m.Msg.decode(wire)._frame == wire


def test_replaced_copy_encodes_its_own_fields():
    # A replaced copy is freshly built: it must encode its own fields,
    # never the frame its source had cached.
    for source in (_msg(), m.Msg.decode(_msg().encode(), verify=False)):
        source.encode()
        copy = dataclasses.replace(source, corr_id=99)
        assert copy._frame is None and not copy.checksum_pending
        assert m.Msg.decode(copy.encode()).corr_id == 99


def test_equality_ignores_the_cached_frame():
    encoded = _msg()
    encoded.encode()
    assert encoded == _msg()
    assert m.Msg.decode(encoded.encode()) == _msg()
    assert _msg(corr_id=1) != _msg(corr_id=2)


def test_kind_names():
    assert _msg(kind=m.LVC_HELLO).kind_name == "LVC_HELLO"
    assert _msg(kind=250).kind_name == "kind250"


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([m.DATA, m.LVC_HELLO, m.IVC_OPEN, m.IVC_CLOSE]),
    src=st.integers(1, 2 ** 62),
    dst=st.integers(1, 2 ** 62),
    src_temp=st.booleans(),
    flags=st.integers(0, 0x1F),
    type_id=st.integers(0, 2 ** 32 - 1),
    corr_id=st.integers(0, 2 ** 32 - 1),
    aux=st.integers(0, 255),
    body=st.binary(max_size=256),
)
def test_property_header_round_trip(kind, src, dst, src_temp, flags,
                                    type_id, corr_id, aux, body):
    msg = m.Msg(
        kind=kind,
        src=Address(value=src, temporary=src_temp),
        dst=Address(value=dst),
        flags=flags, type_id=type_id, corr_id=corr_id, aux=aux, body=body,
    )
    back = m.Msg.decode(msg.encode())
    assert (back.kind, back.src, back.dst, back.flags, back.type_id,
            back.corr_id, back.aux, back.body) == (
        kind, msg.src, msg.dst, flags, type_id, corr_id, aux, body)
