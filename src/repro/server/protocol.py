"""The length-prefixed wire protocol of the repro server: JSON envelopes, raw column buffers.

Every frame is a 4-byte big-endian unsigned length followed by that many
bytes of body.  A body encodes one object with a ``"type"`` field, in one of
four layouts, told apart by the body's first byte:

``{``  plain JSON (UTF-8), the whole payload — ``hello``, ``prepare``,
       literal or ``sql``-addressed ``execute`` requests, admin values and
       ``error`` frames.
``\\x01`` columnar: ``[0x01][u32 envelope length][JSON envelope][buffers]``.
       Every 1-D numpy array of kind ``b``/``i``/``u``/``f`` in the payload
       is replaced in the envelope by a descriptor ``{"$buf":"<i8","n":100}``
       (the array's ``dtype.str``, so the byte order crosses too, and its
       length), and its raw bytes follow the envelope back to back, in
       envelope order — scalar and ``executemany`` results, bulk loads.
``\\x02`` a bound EXECUTE: ``[0x02][i64 id][i64 statement][u16 n][n × f8]``.
       Only a payload that is exactly ``{"type": "execute", "statement": int,
       "params": [float, ...], "id": int}`` takes it — a prepared statement's
       execution, the hot request.
``\\x03`` a RESULT: ``[0x03][i64 id][i64 rowcount][u8 batched][u8 len][cache
       level][u8 ncols]``, then per column ``[u8 name len][3-byte dtype.str]
       [i64 n][name]``, then the columns' raw buffers back to back.  Only a
       payload with exactly the keys of a one-query reply (``type``, ``id``,
       ``rowcount``, ``cache_level``, ``batched``, ``columns``) and at least
       one whitelisted 1-D array column takes it.

Integers in the binary layouts are big-endian, as the length prefix is.
:func:`encode_frame` picks the layout: a payload of the two binary shapes
takes its binary layout, any other payload holding arrays is columnar, and
any other is plain JSON, so ``decode_frame(encode_frame(p)[4:]) == p`` with
the same types either way (ints or named bindings, ids outside int64 and
scalar results stay JSON).  :func:`decode_frame` checks every length and
dtype (the dtype on the whitelist, ``n >= 0``, the buffers using up the body
exactly) before it copies any buffer out, and returns writable arrays of the
sender's dtype that own their memory.  ``$buf`` is a reserved key: a payload
using it is refused by :func:`encode_frame`.

The client speaks first (HELLO) and correlates responses by echoing request
ids — the server may answer out of order across requests of *different*
kinds, but every response carries the ``id`` of the request it answers.

Client -> server frame types:

========== ==================================================================
``hello``       protocol handshake (``protocol`` must match)
``prepare``     lower a placeholder statement once; returns a statement id
``execute``     one statement: ``sql`` (literal), or ``sql``/``statement``
                plus ``params`` (bound — goes through batch admission)
``executemany`` one prepared shape, many bindings (each admitted separately,
                so bindings batch with *other* connections' queries too)
``admin``       DDL / bulk load / adaptive-strategy controls / stats
``close``       orderly shutdown of this connection
========== ==================================================================

Server -> client: ``hello``, ``prepared``, ``result`` and ``error`` (the
PEP 249 class name plus message — see
:func:`repro.api.exceptions.error_from_name`).
"""

from __future__ import annotations

import asyncio
import functools
import json
import struct
from typing import Any

import numpy as np

#: Bumped on incompatible frame changes; HELLO frames carry it.
PROTOCOL_VERSION = 3

#: A frame larger than this is a protocol violation, not a big result —
#: results are bounded by the engine's table sizes, not by the wire.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: The first byte of a columnar body, then the envelope's length.
_COLUMNAR_TAG = b"\x01"
_COLUMNAR = struct.Struct(">cI")

#: A bound EXECUTE's head: tag, id, statement, binding count (and framed,
#: behind the length prefix, as the encoder packs it).
_EXECUTE_TAG = b"\x02"
_EXECUTE = struct.Struct(">cqqH")
_EXECUTE_FRAME = struct.Struct(">I" + _EXECUTE.format[1:])

#: A RESULT's head: tag, id, rowcount, batched, cache-level length (and framed).
_RESULT_TAG = b"\x03"
_RESULT = struct.Struct(">cqqBB")
_RESULT_FRAME = struct.Struct(">I" + _RESULT.format[1:])
#: One column of a RESULT: name length, ``dtype.str``, value count.
_COLUMN = struct.Struct(">B3sq")

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: The dtypes a buffer may carry, by ``dtype.str``: bools, integers and floats
#: of a fixed size, in either byte order.
_DTYPES: dict[str, np.dtype] = {
    dtype.str: dtype
    for dtype in (
        np.dtype(order + code)
        for order in "<>"
        for code in ("b1", "i1", "u1", "i2", "u2", "i4", "u4", "i8", "u8", "f2", "f4", "f8")
    )
}
#: The same dtypes by the bytes of their ``dtype.str``, as a RESULT carries
#: them, and the other way round (``dtype.str`` builds a new string per read).
_WIRE_CODES: dict[bytes, np.dtype] = {code.encode(): dtype for code, dtype in _DTYPES.items()}
_CODE_OF: dict[np.dtype, bytes] = {dtype: code for code, dtype in _WIRE_CODES.items()}


class ProtocolError(Exception):
    """A malformed frame: bad length, bad JSON, a non-object payload or a bad buffer."""


@functools.lru_cache(maxsize=64)
def _bindings(n: int) -> struct.Struct:
    """The ``n`` big-endian float64 bindings of a bound EXECUTE."""
    return struct.Struct(f">{n}d")


def encode_frame(payload: dict[str, Any]) -> bytes:
    """One wire frame: 4-byte length prefix + a binary, columnar or plain JSON body."""
    kind = payload.get("type")
    if kind == "execute":
        frame = _encode_execute(payload)
    elif kind == "result":
        frame = _encode_result(payload)
    else:
        frame = None
    return _encode_json(payload) if frame is None else frame


def _int64(value: Any) -> bool:
    return type(value) is int and _INT64_MIN <= value <= _INT64_MAX


def _encode_execute(payload: dict[str, Any]) -> bytes | None:
    """The ``0x02`` frame of a bound EXECUTE, or ``None`` if the payload has another shape.

    ``len == 4`` and the three lookups pin the keys: a missing one reads
    ``None``, which no type check lets through.
    """
    statement, params, request_id = (
        payload.get("statement"), payload.get("params"), payload.get("id")
    )
    if (
        len(payload) != 4
        or not _int64(statement)
        or not _int64(request_id)
        or type(params) is not list
        or len(params) > 0xFFFF
    ):
        return None
    for value in params:
        if type(value) is not float:
            return None
    n = len(params)
    return _EXECUTE_FRAME.pack(
        _EXECUTE.size + 8 * n, _EXECUTE_TAG, request_id, statement, n
    ) + _bindings(n).pack(*params)


def _encode_result(payload: dict[str, Any]) -> bytes | None:
    """The ``0x03`` frame of a one-query reply, or ``None`` if the payload has another shape.

    As for an EXECUTE, ``len == 6`` and the five lookups pin the keys.
    """
    request_id, rowcount, batched, columns = (
        payload.get("id"), payload.get("rowcount"), payload.get("batched"),
        payload.get("columns"),
    )
    level = _short_utf8(payload.get("cache_level"))
    if (
        len(payload) != 6
        or not _int64(request_id)
        or not _int64(rowcount)
        or type(batched) is not bool
        or level is None
        or type(columns) is not dict
        or not 0 < len(columns) < 256
    ):
        return None
    parts = [b"", level, bytes((len(columns),))]  # the head is packed once the length is known
    buffers = []
    length = _RESULT.size + len(level) + 1
    for name, values in columns.items():
        name_bytes = _short_utf8(name)
        if name_bytes is None or type(values) is not np.ndarray or values.ndim != 1:
            return None
        code = _CODE_OF.get(values.dtype)
        if code is None:
            return None
        parts.append(_COLUMN.pack(len(name_bytes), code, values.size))
        parts.append(name_bytes)
        buffers.append(np.ascontiguousarray(values))
        length += _COLUMN.size + len(name_bytes) + values.nbytes
    _check_length(length)
    parts[0] = _RESULT_FRAME.pack(length, _RESULT_TAG, request_id, rowcount, batched, len(level))
    return b"".join([*parts, *buffers])


def _short_utf8(text: Any) -> bytes | None:
    """A string as at most 255 UTF-8 bytes; ``None`` for anything else."""
    if type(text) is not str:
        return None
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate (JSON escapes it)
        return None
    return raw if len(raw) <= 255 else None


def _encode_json(payload: dict[str, Any]) -> bytes:
    """A plain JSON frame, or a columnar one if the payload holds arrays."""
    buffers: list[np.ndarray] = []

    def default(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            code = value.dtype.str
            if value.ndim != 1 or code not in _DTYPES:
                raise TypeError(
                    f"a {value.ndim}-D {value.dtype} array cannot cross the wire "
                    "(only 1-D bool, integer and float arrays)"
                )
            buffers.append(np.ascontiguousarray(value))
            return {"$buf": code, "n": value.size}
        item = getattr(value, "item", None)  # numpy scalars unwrap
        if callable(item):
            return item()
        raise TypeError(f"{type(value).__name__} is not JSON serializable")

    text = json.dumps(payload, separators=(",", ":"), default=default)
    if '"$buf":' in text and (
        text.count('{"$buf":') + text.count(',"$buf":') != len(buffers)
    ):
        raise ValueError("the payload uses the reserved key '$buf'")
    envelope = text.encode("utf-8")
    if buffers:
        length = _COLUMNAR.size + len(envelope) + sum(b.nbytes for b in buffers)
        parts = [_HEADER.pack(length), _COLUMNAR.pack(_COLUMNAR_TAG, len(envelope)),
                 envelope, *buffers]
    else:
        length = len(envelope)
        parts = [_HEADER.pack(length), envelope]
    _check_length(length)
    return b"".join(parts)


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )


def decode_frame(body: bytes) -> dict[str, Any]:
    """The payload of one frame body (without the length prefix)."""
    tag = body[:1]
    if tag == _EXECUTE_TAG:
        return _decode_execute(body)
    if tag == _RESULT_TAG:
        return _decode_result(body)
    columnar = tag == _COLUMNAR_TAG
    if columnar:
        if len(body) < _COLUMNAR.size:
            raise ProtocolError("columnar frame is shorter than its header")
        _, length = _COLUMNAR.unpack_from(body)
        end = _COLUMNAR.size + length
        if end > len(body):
            raise ProtocolError("columnar envelope runs past the end of the frame")
        text = body[_COLUMNAR.size:end]
    else:
        text = body
    try:
        payload = json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, too deep
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "type" not in payload:
        raise ProtocolError("frame payload must be a JSON object with a 'type' field")
    if columnar:
        _attach_buffers(payload, body, end)
    return payload


def _decode_execute(body: bytes) -> dict[str, Any]:
    if len(body) < _EXECUTE.size:
        raise ProtocolError("bound execute frame is shorter than its header")
    _, request_id, statement, n = _EXECUTE.unpack_from(body)
    if len(body) != _EXECUTE.size + 8 * n:
        raise ProtocolError(
            f"a bound execute of {n} bindings is not {len(body)} bytes long"
        )
    params = list(_bindings(n).unpack_from(body, _EXECUTE.size))
    return {"type": "execute", "statement": statement, "params": params, "id": request_id}


def _decode_result(body: bytes) -> dict[str, Any]:
    """A RESULT's payload; every length and dtype is checked before a buffer is copied."""
    size = len(body)
    if size < _RESULT.size:
        raise ProtocolError("result frame is shorter than its header")
    _, request_id, rowcount, batched, level_length = _RESULT.unpack_from(body)
    if batched > 1:
        raise ProtocolError(f"result frame's batched flag is {batched}, not 0 or 1")
    offset = _RESULT.size + level_length
    if offset >= size:
        raise ProtocolError("result frame's cache level runs past its end")
    layout: dict[str, tuple[np.dtype, int]] = {}
    buffer_bytes = 0
    try:
        level = body[_RESULT.size:offset].decode()
        count = body[offset]
        offset += 1
        if not count:
            raise ProtocolError("a result frame must carry a column")
        for _ in range(count):
            if offset + _COLUMN.size > size:
                raise ProtocolError("result frame's column headers run past its end")
            name_length, code, n = _COLUMN.unpack_from(body, offset)
            offset += _COLUMN.size + name_length
            if offset > size:
                raise ProtocolError("result frame's column name runs past its end")
            name = body[offset - name_length:offset].decode()
            dtype = _WIRE_CODES.get(code)
            if dtype is None:
                raise ProtocolError(f"buffer dtype {code!r} is not allowed on the wire")
            if n < 0:
                raise ProtocolError(f"column {name!r} has a negative length {n}")
            if name in layout:
                raise ProtocolError(f"result frame repeats column {name!r}")
            layout[name] = dtype, n
            buffer_bytes += n * dtype.itemsize
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"result frame's text is not valid UTF-8: {exc}") from exc
    if offset + buffer_bytes != size:
        raise ProtocolError(
            f"buffers end at byte {offset + buffer_bytes} of a {size}-byte result frame"
        )
    columns = {}
    for name, (dtype, n) in layout.items():
        columns[name] = np.frombuffer(body, dtype, n, offset).copy()
        offset += n * dtype.itemsize
    return {"type": "result", "id": request_id, "rowcount": rowcount,
            "cache_level": level, "batched": bool(batched), "columns": columns}


def _attach_buffers(payload: dict[str, Any], body: bytes, offset: int) -> None:
    """Replace every descriptor in ``payload`` by a copy of its buffer.

    Every descriptor is checked, and the buffers must end exactly where the
    body does, before the first buffer is copied out.
    """
    found: list[tuple[Any, Any, dict[str, Any]]] = []
    try:
        _find_descriptors(payload, found)
    except RecursionError as exc:
        raise ProtocolError("columnar envelope is nested too deeply") from exc
    if "$buf" in payload or not found:
        raise ProtocolError("a columnar envelope must describe its buffers")
    slots: list[tuple[np.dtype, int, int]] = []
    for _, _, descriptor in found:
        code, n = descriptor.get("$buf"), descriptor.get("n")
        dtype = _DTYPES.get(code) if type(code) is str else None
        if dtype is None:
            raise ProtocolError(f"buffer dtype {code!r} is not allowed on the wire")
        if len(descriptor) != 2 or type(n) is not int or n < 0:
            raise ProtocolError(f"malformed buffer descriptor {descriptor!r}")
        slots.append((dtype, n, offset))
        offset += n * dtype.itemsize
    if offset != len(body):
        raise ProtocolError(
            f"buffers end at byte {offset} of a {len(body)}-byte columnar frame"
        )
    for (container, key, _), (dtype, n, at) in zip(found, slots):
        container[key] = np.frombuffer(body, dtype, n, at).copy()


def _find_descriptors(node: Any, found: list[tuple[Any, Any, dict[str, Any]]]) -> None:
    """Every ``$buf`` object under ``node`` with its container and key, in document order."""
    for key, value in node.items() if type(node) is dict else enumerate(node):
        if type(value) is dict:
            if "$buf" in value:
                found.append((node, key, value))
            else:
                _find_descriptors(value, found)
        elif type(value) is list:
            _find_descriptors(value, found)


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """The next frame from a stream, or ``None`` on a clean EOF.

    EOF in the middle of a frame (header or body) raises
    :class:`ProtocolError` — the peer vanished mid-sentence.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed inside a frame header") from exc
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed inside a frame body") from exc
    return decode_frame(body)


def write_frame(writer: asyncio.StreamWriter, payload: dict[str, Any]) -> None:
    """Queue one frame on a stream writer (callers ``await writer.drain()``)."""
    writer.write(encode_frame(payload))
