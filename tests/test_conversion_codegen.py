"""Unit and property tests for the pack/unpack code generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.conversion import (
    ConversionRegistry,
    Field,
    StructDef,
    build_codecs,
    generate_pack_source,
    generate_unpack_source,
)
from repro.errors import ConversionError, UnknownMessageType


def _sdef():
    return StructDef("sample", 100, [
        Field("count", "u32"),
        Field("delta", "i16"),
        Field("ratio", "f64"),
        Field("label", "char[12]"),
        Field("blob", "bytes"),
    ])


def test_generated_source_is_readable_python():
    sdef = _sdef()
    pack_src = generate_pack_source(sdef)
    unpack_src = generate_unpack_source(sdef)
    assert "def pack_sample(values):" in pack_src
    assert "def unpack_sample(data):" in unpack_src
    compile(pack_src, "<pack>", "exec")  # both must be valid standalone
    # unpack source references helpers from the preamble; compile only.
    compile(unpack_src, "<unpack>", "exec")


def test_round_trip():
    pack, unpack, _ = build_codecs(_sdef())
    values = {"count": 42, "delta": -3, "ratio": 0.125, "label": "hello",
              "blob": b"\x1f\x00binary\x1f"}
    assert unpack(pack(values)) == values


def test_packed_format_is_character_based():
    pack, _, _ = build_codecs(StructDef("s", 1, [Field("n", "u32")]))
    wire = pack({"n": 123456})
    assert b"123456" in wire  # decimal ASCII, per the paper's choice


def test_packed_format_endianness_independent():
    """The whole point: the packed bytes are identical no matter which
    machine packs them, because they never contain raw multi-byte ints."""
    pack, unpack, _ = build_codecs(StructDef("s", 1, [Field("n", "u32")]))
    wire = pack({"n": 0x01020304})
    assert unpack(wire) == {"n": 0x01020304}
    assert all(32 <= b < 127 or b == 0x1F for b in wire)


def test_separator_inside_text_fields_safe():
    pack, unpack, _ = build_codecs(StructDef("s", 1, [
        Field("a", "char[8]"), Field("b", "char[8]"),
    ]))
    values = {"a": "x\x1fy", "b": "1:2"}
    assert unpack(pack(values)) == values


def test_range_checked_on_pack():
    pack, _, _ = build_codecs(StructDef("s", 1, [Field("n", "u8")]))
    with pytest.raises(ConversionError, match="out of range"):
        pack({"n": 300})
    with pytest.raises(ConversionError, match="out of range"):
        pack({"n": -1})


def test_char_overflow_checked_on_pack():
    pack, _, _ = build_codecs(StructDef("s", 1, [Field("t", "char[4]")]))
    with pytest.raises(ConversionError, match="too long"):
        pack({"t": "abcdef"})


def test_non_ascii_rejected():
    pack, _, _ = build_codecs(StructDef("s", 1, [Field("t", "char[8]")]))
    with pytest.raises(ConversionError, match="not ASCII"):
        pack({"t": "héllo"})


def test_unpack_rejects_garbage():
    _, unpack, _ = build_codecs(StructDef("s", 1, [Field("n", "u32")]))
    with pytest.raises(ConversionError):
        unpack(b"not-a-number\x1f")
    with pytest.raises(ConversionError, match="unterminated"):
        unpack(b"123")


def test_unpack_rejects_truncated_counted_field():
    _, unpack, _ = build_codecs(StructDef("s", 1, [Field("t", "char[8]")]))
    with pytest.raises(ConversionError, match="truncated"):
        unpack(b"5:ab\x1f")


def test_empty_struct():
    pack, unpack, _ = build_codecs(StructDef("empty", 1, []))
    assert pack({}) == b""
    assert unpack(b"") == {}


# -- property-based round trips ------------------------------------------------

_scalars = {
    "i8": st.integers(-0x80, 0x7F),
    "u8": st.integers(0, 0xFF),
    "i16": st.integers(-0x8000, 0x7FFF),
    "u16": st.integers(0, 0xFFFF),
    "i32": st.integers(-0x80000000, 0x7FFFFFFF),
    "u32": st.integers(0, 0xFFFFFFFF),
    "i64": st.integers(-(2 ** 63), 2 ** 63 - 1),
    "u64": st.integers(0, 2 ** 64 - 1),
}

_MIXED = StructDef("mixed", 7, [
    Field("a", "i8"), Field("b", "u16"), Field("c", "i32"),
    Field("d", "u64"), Field("text", "char[20]"), Field("tail", "bytes"),
])
_PACK, _UNPACK, _ = build_codecs(_MIXED)

_ascii_text = st.text(
    alphabet=st.characters(min_codepoint=0, max_codepoint=127), max_size=20
).filter(lambda s: "\x00" not in s)


@settings(max_examples=200, deadline=None)
@given(
    a=_scalars["i8"], b=_scalars["u16"], c=_scalars["i32"], d=_scalars["u64"],
    text=_ascii_text, tail=st.binary(max_size=64),
)
def test_property_packed_round_trip(a, b, c, d, text, tail):
    values = {"a": a, "b": b, "c": c, "d": d, "text": text, "tail": tail}
    assert _UNPACK(_PACK(values)) == values


@settings(max_examples=200, deadline=None)
@given(
    a=_scalars["i8"], b=_scalars["u16"], c=_scalars["i32"], d=_scalars["u64"],
    tail=st.binary(max_size=64),
)
def test_property_image_and_packed_agree(a, b, c, d, tail):
    """Packing a VAX image and unpacking on a Sun must yield the same
    values as an image round trip on a single machine."""
    from repro.machine import SUN3, VAX

    values = {"a": a, "b": b, "c": c, "d": d, "text": "t", "tail": tail}
    vax_image = _MIXED.image_encode(values, VAX.struct_prefix)
    via_packed = _UNPACK(_PACK(_MIXED.image_decode(vax_image, VAX.struct_prefix)))
    assert via_packed == values


# -- registry -------------------------------------------------------------

def test_registry_generates_codecs():
    reg = ConversionRegistry()
    entry = reg.register(_sdef())
    assert entry.generated_source is not None
    assert "pack_sample" in entry.generated_source
    values = {"count": 1, "delta": 0, "ratio": 1.0, "label": "x", "blob": b""}
    assert entry.unpack(entry.pack(values)) == values


def test_registry_accepts_custom_codecs():
    """The transport format is application-determined (Sec. 5.1)."""
    reg = ConversionRegistry()
    sdef = StructDef("custom", 200, [Field("n", "u32")])

    entry = reg.register(
        sdef,
        pack=lambda values: f"N={values['n']}".encode(),
        unpack=lambda data: {"n": int(data.decode().split("=")[1])},
    )
    assert entry.generated_source is None
    assert entry.unpack(entry.pack({"n": 9})) == {"n": 9}


def test_registry_rejects_duplicates_and_partial_codecs():
    reg = ConversionRegistry()
    reg.register(StructDef("a", 1, []))
    with pytest.raises(ConversionError):
        reg.register(StructDef("a", 2, []))  # duplicate name
    with pytest.raises(ConversionError):
        reg.register(StructDef("b", 1, []))  # duplicate id
    with pytest.raises(ConversionError):
        reg.register(StructDef("c", 3, []), pack=lambda v: b"")  # partial


def test_registry_lookup_errors():
    reg = ConversionRegistry()
    with pytest.raises(UnknownMessageType):
        reg.get(999)
    with pytest.raises(UnknownMessageType):
        reg.get_by_name("ghost")
    assert 999 not in reg

def test_registry_errors_carry_type_id_and_name():
    """Every lookup path normalizes to a typed ConversionError carrying
    the offending type id (or name) — no raw KeyError escapes."""
    reg = ConversionRegistry()
    with pytest.raises(UnknownMessageType) as exc_info:
        reg.get(999)
    assert exc_info.value.type_id == 999
    assert exc_info.value.name is None
    with pytest.raises(UnknownMessageType) as exc_info:
        reg.get_by_name("ghost")
    assert exc_info.value.name == "ghost"
    assert exc_info.value.type_id is None


def test_pack_missing_field_is_conversion_error():
    """A missing value raises ConversionError naming the field, not a
    raw KeyError out of the generated codec."""
    pack, _, _ = build_codecs(_sdef())
    with pytest.raises(ConversionError, match="sample.count: missing field"):
        pack({"delta": 0, "ratio": 1.0, "label": "x", "blob": b""})
    with pytest.raises(ConversionError, match="sample.label: missing field"):
        pack({"count": 1, "delta": 0, "ratio": 1.0, "blob": b""})


def test_route_cache_hits_after_first_lookup():
    """(type id, src arch, dst arch) -> (codec, mode) is one dict probe
    per peer after warm-up."""
    from repro.machine.arch import machine_type

    reg = ConversionRegistry()
    entry = reg.register(_sdef())
    vax, sun = machine_type("VAX"), machine_type("Sun-3")
    first = reg.lookup_route(100, vax, sun)
    assert first == (entry, vax.image_compatible(sun))
    assert reg.counters["codec_cache_misses"] == 1
    for _ in range(5):
        assert reg.lookup_route(100, vax, sun) is not None
    assert reg.counters["codec_cache_hits"] == 5
    assert reg.counters["codec_cache_misses"] == 1
    # A different destination arch is a different decision.
    reg.lookup_route(100, vax, vax)
    assert reg.counters["codec_cache_misses"] == 2
    assert reg.lookup_route(100, vax, vax)[1] is True


def test_route_cache_unknown_type_not_cached():
    from repro.machine.arch import machine_type

    reg = ConversionRegistry()
    vax = machine_type("VAX")
    with pytest.raises(UnknownMessageType) as exc_info:
        reg.lookup_route(999, vax, vax)
    assert exc_info.value.type_id == 999


@pytest.mark.parametrize("body", [b"-4:ab\x1f", b"-100:ab\x1f"],
                         ids=["rewinds-cursor", "index-error"])
def test_packed_decode_rejects_negative_counted_length(body):
    """A negative counted length is malformed input.  The packed
    decoder raises ConversionError instead of rewinding its cursor
    (``-4:ab`` once decoded to ``{'name': 'ab'}``) or escaping as a bare
    IndexError (``-100:ab``)."""
    from repro.conversion import PACKED, decode_body
    from repro.machine.arch import machine_type
    from repro.testbed import make_registry

    registry = make_registry()
    type_id = registry.get_by_name("ns_resolve_name").sdef.type_id
    with pytest.raises(ConversionError, match="negative length"):
        decode_body(registry, type_id, PACKED, body, machine_type("VAX"))
