"""The length-prefixed wire protocol of the repro server: JSON envelopes, raw column buffers.

Every frame is a 4-byte big-endian unsigned length followed by that many
bytes of body.  A body encodes one object with a ``"type"`` field, in one of
two layouts, told apart by the body's first byte:

``{``  plain JSON (UTF-8), the whole payload — ``hello``, ``prepare``,
       ``execute`` requests, admin values and ``error`` frames.
``\\x01`` columnar: ``[0x01][u32 envelope length][JSON envelope][buffers]``.
       Every 1-D numpy array of kind ``b``/``i``/``u``/``f`` in the payload
       is replaced in the envelope by a descriptor ``{"$buf":"<i8","n":100}``
       (the array's ``dtype.str``, so the byte order crosses too, and its
       length), and its raw bytes follow the envelope back to back, in
       envelope order — ``result`` frames and bulk loads.

:func:`encode_frame` picks the layout: a payload holding arrays is columnar,
any other is plain JSON.  :func:`decode_frame` checks every descriptor (the
dtype on the whitelist, ``n >= 0``, the buffers using up the body exactly)
before it copies any buffer out, and returns writable arrays of the sender's
dtype that own their memory.  ``$buf`` is a reserved key: a payload using it
is refused by :func:`encode_frame`.

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
import json
import struct
from typing import Any

import numpy as np

#: Bumped on incompatible frame changes; HELLO frames carry it.
PROTOCOL_VERSION = 2

#: A frame larger than this is a protocol violation, not a big result —
#: results are bounded by the engine's table sizes, not by the wire.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: The first byte of a columnar body, then the envelope's length.
_COLUMNAR_TAG = b"\x01"
_COLUMNAR = struct.Struct(">cI")

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


class ProtocolError(Exception):
    """A malformed frame: bad length, bad JSON, a non-object payload or a bad buffer."""


def encode_frame(payload: dict[str, Any]) -> bytes:
    """One wire frame: 4-byte length prefix + a plain JSON or columnar body."""
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
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return b"".join(parts)


def decode_frame(body: bytes) -> dict[str, Any]:
    """The payload of one frame body (without the length prefix)."""
    columnar = body[:1] == _COLUMNAR_TAG
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
