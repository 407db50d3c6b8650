"""The asyncio server front-end: batch admission over a fleet (of one, by default).

See :mod:`repro.server.server` for the server, :mod:`repro.server.admission`
for the batching/backpressure/fairness layer, and
:mod:`repro.server.protocol` for the wire format.  The matching async client
lives in :mod:`repro.aio`.
"""

from repro.server.admission import AdmissionController, AdmissionStats
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.server.server import ReproServer, serve

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReproServer",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "serve",
    "write_frame",
]
