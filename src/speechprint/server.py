"""Threaded TCP front end for the identify/enroll pipeline.

Wire protocol, little endian throughout. Every frame is a u32 length
followed by that many bytes: one opcode byte plus the payload.

Client to server:
    0x01 AUDIO_CHUNK  payload: the next bytes of a WAV stream
    0x02 END          payload: empty, the stream is finished

Server to client:
    0x10 RESULT  payload: u8 status (0 identified, 1 enrolled),
                 u64 file_id, u64 label_id (0 = none), f32 confidence
    0x11 ERROR   payload: utf-8 message

Each connection is one :class:`~speechprint.pipeline.Session`, the same
identify-or-enroll state machine the CLI runs: AUDIO_CHUNK frames feed
it, END finishes it, and its queries go straight to the index through
the server's :class:`QueryBatcher`. A session decodes each frame as it
arrives but fingerprints only at its decision points and at END.

Both ends move frames through buffered socket files: the server reads
each connection through a 64 KiB buffer, and :func:`identify_over_socket`
writes all of its frames through one buffered writer that it flushes
once, after END. The frames on the wire are unchanged, so any client
that writes them, in pieces of any size, talks to any server.
"""

import importlib
import logging
import socket
import socketserver
import struct
import threading
from typing import BinaryIO

from .errors import IoError, SpeechprintError
from .fingerprint import Fingerprint
from .index import MatchResult
from .pipeline import (
    IdentifyOutcome,
    Pipeline,
    Session,
    STATUS_ENROLLED,
    STATUS_ERROR,
    STATUS_IDENTIFIED,
)

logger = logging.getLogger(__name__)

OP_AUDIO_CHUNK = 0x01
OP_END = 0x02
OP_RESULT = 0x10
OP_ERROR = 0x11

_STATUS_CODES = {STATUS_IDENTIFIED: 0, STATUS_ENROLLED: 1}
_RESULT_LAYOUT = "<BQQf"
_MAX_FRAME = 1 << 22  # 4 MiB of payload is far beyond any sane chunk
# socket file buffer: one recv or send moves about 16 frames of 4 KiB
_BUFFER_BYTES = 1 << 16
#: Seconds a session may wait on its client before it is dropped. Sessions
#: run on non-daemon threads that ``server_close`` joins, so without it one
#: silent client would hold a shutdown forever.
READ_TIMEOUT_S = 30.0
#: Sessions served at once. A connection past them gets one ERROR frame
#: ("server busy") and is closed before a thread starts. A session holds
#: at most 2.3 MB of samples (see ``pipeline.MAX_STREAM_S``), so 128
#: sessions hold at most about 0.3 GB.
MAX_SESSIONS = 128


def write_frame(out: BinaryIO, opcode: int, payload: bytes = b"") -> None:
    """Writes one frame to a binary stream in one write call, so that an
    unbuffered socket writer sends it in one piece."""
    out.write(_frame(opcode, payload))


def _frame(opcode: int, payload: bytes = b"") -> bytes:
    return struct.pack("<IB", len(payload) + 1, opcode) + payload


def read_frame(stream: BinaryIO) -> tuple[int, bytes] | None:
    """Reads one frame from a buffered binary stream, such as a socket's
    ``makefile("rb")``; None on clean EOF before any byte.

    A buffered reader's ``read(n)`` returns fewer than n bytes only at
    EOF, so a short read is a dropped connection.
    """
    header = stream.read(4)
    if not header:
        return None
    if len(header) < 4:
        raise SpeechprintError("connection dropped mid-frame")
    (length,) = struct.unpack("<I", header)
    if not 1 <= length <= _MAX_FRAME:
        raise SpeechprintError(f"bad frame length {length}")
    body = stream.read(length)
    if len(body) < length:
        raise SpeechprintError("connection dropped mid-frame")
    return body[0], body[1:]


class QueryBatcher:
    """The server's lookup: every session's queries go through here.

    Each submission is answered at once by one ``query_batch`` call.
    """

    def __init__(self, index) -> None:
        self.index = index

    def submit(self, fp: Fingerprint) -> MatchResult | None:
        return self.index.query_batch([fp])[0]


class _SessionHandler(socketserver.StreamRequestHandler):
    """One identify-or-enroll session per connection.

    Frames are read through ``rfile``, a buffered reader, and the one
    reply frame is written through ``wfile`` in one send; both are closed
    with the connection.
    """

    rbufsize = _BUFFER_BYTES

    def handle(self) -> None:
        server: PipelineServer = self.server
        self.request.settimeout(READ_TIMEOUT_S)
        session = Session(server.pipeline, server.batcher.submit)
        try:
            while True:
                frame = read_frame(self.rfile)
                if frame is None:
                    return  # client went away without END
                opcode, payload = frame
                if opcode == OP_AUDIO_CHUNK:
                    outcome = session.feed(payload)
                    if outcome is not None:
                        break
                elif opcode == OP_END:
                    outcome = session.finish()
                    break
                else:
                    raise SpeechprintError(f"unknown opcode 0x{opcode:02x}")
        except SpeechprintError as exc:
            self._send_error(str(exc))
            self._drain()
            return
        except (ConnectionError, OSError) as exc:
            logger.info("session dropped: %s", exc)
            return
        if outcome.status == STATUS_ERROR:
            self._send_error(outcome.message or "identification failed")
            self._drain()
            return
        payload = struct.pack(
            _RESULT_LAYOUT,
            _STATUS_CODES[outcome.status],
            outcome.file_id or 0,
            outcome.label_id or 0,
            outcome.confidence,
        )
        write_frame(self.wfile, OP_RESULT, payload)
        self._drain()

    def _send_error(self, message: str) -> None:
        try:
            write_frame(self.wfile, OP_ERROR, message.encode("utf-8"))
        except OSError:
            pass

    def _drain(self) -> None:
        """Reads out the rest of the stream after an early decision.

        Closing with unread bytes would reset the connection and could
        destroy the result frame before the client sees it.
        """
        try:
            for _ in range(100_000):
                frame = read_frame(self.rfile)
                if frame is None or frame[0] == OP_END:
                    return
        except (SpeechprintError, ConnectionError, OSError):
            return


class PipelineServer(socketserver.ThreadingTCPServer):
    """TCP server wrapping a Pipeline; one thread per session, at most
    :data:`MAX_SESSIONS` at once.

    Shutdown is graceful: in-flight sessions (including enrolments) run
    to completion before ``server_close`` returns, so the index and
    registry are never left half-updated by a stop.

    The package imports scipy only on first use. The server imports the
    resampler (``scipy.signal``) once at start, so no session streaming at
    another rate than the canonical one waits for that import.
    """

    allow_reuse_address = True
    daemon_threads = False  # close() must join in-flight enrolments
    # sessions arrive in bursts; the socketserver default backlog of 5
    # lets simultaneous connects overflow the accept queue and get reset
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], pipeline: Pipeline) -> None:
        importlib.import_module("scipy.signal")
        self.pipeline = pipeline
        self.batcher = QueryBatcher(pipeline.index)
        self._slots = threading.BoundedSemaphore(MAX_SESSIONS)
        try:
            super().__init__(address, _SessionHandler)
        except OSError as exc:
            host, port = address
            raise IoError(f"cannot listen on {host}:{port}: {exc}") from exc

    def process_request(self, request, client_address) -> None:
        if not self._slots.acquire(blocking=False):
            try:
                request.sendall(_frame(OP_ERROR, b"server busy"))
            except OSError:
                pass
            self.shutdown_request(request)
            return
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


def parse_endpoint(listen: str) -> tuple[str, int]:
    """"host:port" -> (host, port); bare ":port" binds all interfaces."""
    host, sep, port = listen.rpartition(":")
    if not sep or not port.isdigit():
        raise SpeechprintError(f"listen endpoint must be host:port, got {listen!r}")
    if int(port) > 65535:
        raise SpeechprintError(f"listen port must be in [0, 65535], got {port}")
    return host or "0.0.0.0", int(port)


def serve(listen: str, pipeline: Pipeline) -> PipelineServer:
    """Binds a PipelineServer; the caller drives serve_forever/shutdown."""
    return PipelineServer(parse_endpoint(listen), pipeline)


def identify_over_socket(
    host: str,
    port: int,
    wav_bytes: bytes,
    chunk_size: int = 4096,
    timeout_s: float = 60.0,
) -> IdentifyOutcome:
    """Small reference client: streams a WAV file, returns the outcome.

    Each frame carries ``chunk_size`` bytes of the file, and all of them
    go through one buffered writer, flushed once after END; the reply is
    read through a buffered reader.
    """
    with (
        socket.create_connection((host, port), timeout=timeout_s) as sock,
        sock.makefile("rb") as replies,
    ):
        try:
            with sock.makefile("wb", _BUFFER_BYTES) as out:
                for start in range(0, len(wav_bytes), chunk_size):
                    write_frame(out, OP_AUDIO_CHUNK, wav_bytes[start : start + chunk_size])
                write_frame(out, OP_END)
        except (BrokenPipeError, ConnectionResetError):
            pass  # a server that refused the session replied before closing
        frame = read_frame(replies)
    if frame is None:
        raise SpeechprintError("server closed the connection without a result")
    opcode, payload = frame
    if opcode == OP_ERROR:
        return IdentifyOutcome(STATUS_ERROR, message=payload.decode("utf-8"))
    if opcode != OP_RESULT:
        raise SpeechprintError(f"unexpected reply opcode 0x{opcode:02x}")
    size = struct.calcsize(_RESULT_LAYOUT)
    if len(payload) != size:
        raise SpeechprintError(f"RESULT reply of {len(payload)} bytes, not {size}")
    code, file_id, label_id, confidence = struct.unpack(_RESULT_LAYOUT, payload)
    statuses = {c: status for status, c in _STATUS_CODES.items()}
    if code not in statuses:
        raise SpeechprintError(f"RESULT reply with unknown status code {code}")
    return IdentifyOutcome(
        statuses[code],
        file_id=file_id or None,
        label_id=label_id or None,
        confidence=confidence,
    )
