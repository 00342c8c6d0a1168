"""Self-describing binary serialisation of MOOD values onto pages.

Values are encoded with a one-byte tag followed by the payload, so records
can be decoded without consulting the catalog (the kernel still validates
decoded values against the declared type).  Supported values mirror the
MOOD data model: the six basic types, Tuple (``dict``), Set (``set``),
List (``list``) and Reference (:class:`~repro.storage.oid.OID`).
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Collection
from typing import Any

from repro.core.errors import SerdeError
from repro.storage.oid import OID

_TAG_NULL = 0x00
_TAG_INT = 0x01       # 64-bit signed (covers Integer and LongInteger)
_TAG_FLOAT = 0x02     # IEEE double
_TAG_STRING = 0x03    # u32 length + UTF-8 bytes
_TAG_CHAR = 0x04      # u32 length + UTF-8 bytes (1 code point)
_TAG_BOOL_TRUE = 0x05
_TAG_BOOL_FALSE = 0x06
_TAG_TUPLE = 0x07     # u16 count + (string name, value)*
_TAG_SET = 0x08       # u32 count + value*
_TAG_LIST = 0x09      # u32 count + value*
_TAG_REF = 0x0A       # u32 volume, u32 page, u32 slot

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


def encode(value: Any) -> bytes:
    """Serialise a MOOD value to bytes."""
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def _encode_into(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_TAG_NULL)
    elif isinstance(value, bool):
        out.append(_TAG_BOOL_TRUE if value else _TAG_BOOL_FALSE)
    elif isinstance(value, OID):
        out.append(_TAG_REF)
        out += _U32.pack(value.volume)
        out += _U32.pack(value.page)
        out += _U32.pack(value.slot)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        try:
            out += _I64.pack(value)
        except struct.error:
            raise SerdeError(f"integer {value} exceeds 64 bits") from None
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(_TAG_CHAR if len(value) == 1 else _TAG_STRING)
        out += _U32.pack(len(data))
        out += data
    elif isinstance(value, dict):
        if len(value) > 0xFFFF:
            raise SerdeError("tuple with too many fields")
        out.append(_TAG_TUPLE)
        out += _U16.pack(len(value))
        for name, field_value in value.items():
            if not isinstance(name, str):
                raise SerdeError(f"tuple field name {name!r} is not a string")
            data = name.encode("utf-8")
            out += _U32.pack(len(data))
            out += data
            _encode_into(field_value, out)
    elif isinstance(value, (set, frozenset)):
        out.append(_TAG_SET)
        out += _U32.pack(len(value))
        # Deterministic order: sort by each element's own encoding.
        for element in sorted(value, key=encode):
            _encode_into(element, out)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        out += _U32.pack(len(value))
        for element in value:
            _encode_into(element, out)
    else:
        raise SerdeError(f"cannot serialise {type(value).__name__}: {value!r}")


def decode(data: bytes, fields: Collection[str] | None = None) -> Any:
    """Deserialise bytes previously produced by :func:`encode`.

    With ``fields``, a top-level tuple keeps only the named fields: the
    others are walked (tags, lengths, nesting) but not built, so a scan
    that reads a few attributes skips the cost of the rest.  Every byte is
    still accounted for, so truncated records and trailing bytes raise
    :class:`SerdeError` exactly as a full decode does, and so do field
    names and strings that are not valid UTF-8 (skipped ones are decoded
    and dropped).
    """
    try:
        if fields is None or not data or data[0] != _TAG_TUPLE:
            value, offset = _decode_from(data, 0)
        else:
            keys = _field_keys(frozenset(fields))
            value, offset = _decode_fields(data, keys)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise SerdeError(f"corrupt value: {exc}") from None
    if offset != len(data):
        if offset > len(data):
            raise SerdeError("truncated value")
        raise SerdeError(f"{len(data) - offset} trailing bytes after value")
    return value


#: Bytes taken by values of a fixed-width tag, tag byte included.
_FIXED_WIDTH = {
    _TAG_NULL: 1, _TAG_BOOL_TRUE: 1, _TAG_BOOL_FALSE: 1,
    _TAG_INT: 1 + 8, _TAG_FLOAT: 1 + 8, _TAG_REF: 1 + 12,
}


@functools.lru_cache(maxsize=256)
def _field_keys(fields: frozenset[str]) -> dict[bytes, str]:
    """The field set's names as raw bytes, so record field names are
    matched without decoding them (callers must not mutate the result)."""
    return {name.encode("utf-8"): name for name in fields}


def _decode_fields(data: bytes, keys: dict[bytes, str]) -> tuple[dict, int]:
    """A top-level tuple restricted to the fields named by ``keys``."""
    unpack_u32 = _U32.unpack_from
    (count,) = _U16.unpack_from(data, 1)
    offset = 1 + _U16.size
    result: dict[str, Any] = {}
    for _ in range(count):
        (length,) = unpack_u32(data, offset)
        offset += _U32.size
        end = offset + length
        raw = data[offset:end]
        name = keys.get(raw)
        offset = end
        if name is not None:
            result[name], offset = _decode_from(data, offset)
            continue
        raw.decode("utf-8")
        width = _FIXED_WIDTH.get(data[offset])
        if width is not None:
            offset += width
        elif data[offset] in (_TAG_STRING, _TAG_CHAR):
            start = offset + 1 + _U32.size
            offset = start + unpack_u32(data, offset + 1)[0]
            data[start:offset].decode("utf-8")
        else:
            offset = _skip(data, offset)
    return result, offset


def _skip(data: bytes, offset: int) -> int:
    """The offset just past the value at ``offset``, without building it."""
    if offset >= len(data):
        raise SerdeError("truncated value")
    tag = data[offset]
    offset += 1
    if tag in (_TAG_NULL, _TAG_BOOL_TRUE, _TAG_BOOL_FALSE):
        return offset
    if tag == _TAG_INT or tag == _TAG_FLOAT:
        offset += 8
    elif tag in (_TAG_STRING, _TAG_CHAR):
        (length,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        data[offset:offset + length].decode("utf-8")
        offset += length
    elif tag == _TAG_REF:
        offset += 12
    elif tag == _TAG_TUPLE:
        (count,) = _U16.unpack_from(data, offset)
        offset += _U16.size
        for _ in range(count):
            (length,) = _U32.unpack_from(data, offset)
            offset += _U32.size
            data[offset:offset + length].decode("utf-8")
            offset = _skip(data, offset + length)
        return offset
    elif tag in (_TAG_SET, _TAG_LIST):
        (count,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        for _ in range(count):
            offset = _skip(data, offset)
        return offset
    else:
        raise SerdeError(f"unknown tag 0x{tag:02x}")
    if offset > len(data):
        raise SerdeError("truncated value")
    return offset


def _decode_from(data: bytes, offset: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise SerdeError("truncated value")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_BOOL_TRUE:
        return True, offset
    if tag == _TAG_BOOL_FALSE:
        return False, offset
    if tag == _TAG_INT:
        (value,) = _I64.unpack_from(data, offset)
        return value, offset + _I64.size
    if tag == _TAG_FLOAT:
        (value,) = _F64.unpack_from(data, offset)
        return value, offset + _F64.size
    if tag in (_TAG_STRING, _TAG_CHAR):
        (length,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        value = data[offset:offset + length].decode("utf-8")
        return value, offset + length
    if tag == _TAG_REF:
        volume, page, slot = struct.unpack_from("<III", data, offset)
        return OID(volume, page, slot), offset + 12
    if tag == _TAG_TUPLE:
        (count,) = _U16.unpack_from(data, offset)
        offset += _U16.size
        result: dict[str, Any] = {}
        for _ in range(count):
            (length,) = _U32.unpack_from(data, offset)
            offset += _U32.size
            name = data[offset:offset + length].decode("utf-8")
            offset += length
            result[name], offset = _decode_from(data, offset)
        return result, offset
    if tag == _TAG_SET:
        (count,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        elements = set()
        for _ in range(count):
            element, offset = _decode_from(data, offset)
            elements.add(element)
        return elements, offset
    if tag == _TAG_LIST:
        (count,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        elements = []
        for _ in range(count):
            element, offset = _decode_from(data, offset)
            elements.append(element)
        return elements, offset
    raise SerdeError(f"unknown tag 0x{tag:02x}")
