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
the server's :class:`QueryBatcher`.
"""

import logging
import socket
import socketserver
import struct

from .errors import SpeechprintError
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
_MAX_FRAME = 1 << 22  # 4 MiB of payload is far beyond any sane chunk
#: Seconds a session may wait on its client before it is dropped. Sessions
#: run on non-daemon threads that ``server_close`` joins, so without it one
#: silent client would hold a shutdown forever.
READ_TIMEOUT_S = 30.0


def write_frame(sock: socket.socket, opcode: int, payload: bytes = b"") -> None:
    sock.sendall(struct.pack("<IB", len(payload) + 1, opcode) + payload)


def read_frame(sock: socket.socket) -> tuple[int, bytes] | None:
    """Reads one frame; None on clean EOF before any byte."""
    header = _read_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack("<I", header)
    if not 1 <= length <= _MAX_FRAME:
        raise SpeechprintError(f"bad frame length {length}")
    body = _read_exact(sock, length)
    if body is None:
        raise SpeechprintError("connection dropped mid-frame")
    return body[0], body[1:]


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if buf:
                raise SpeechprintError("connection dropped mid-frame")
            return None
        buf.extend(chunk)
    return bytes(buf)


class QueryBatcher:
    """The server's lookup: every session's queries go through here.

    Each submission is answered at once by one ``query_batch`` call;
    after :meth:`close` submissions are refused.
    """

    def __init__(self, index) -> None:
        self.index = index
        self._closed = False

    def submit(self, subs: list) -> MatchResult | None:
        if self._closed:
            raise SpeechprintError("batcher is shut down")
        return self.index.query_batch([subs])[0]

    def close(self) -> None:
        self._closed = True


class _SessionHandler(socketserver.BaseRequestHandler):
    """One identify-or-enroll session per connection."""

    def handle(self) -> None:
        server: PipelineServer = self.server
        self.request.settimeout(READ_TIMEOUT_S)
        session = Session(server.pipeline, server.batcher.submit)
        try:
            while True:
                frame = read_frame(self.request)
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
            "<BQQf",
            _STATUS_CODES[outcome.status],
            outcome.file_id or 0,
            outcome.label_id or 0,
            outcome.confidence,
        )
        write_frame(self.request, OP_RESULT, payload)
        self._drain()

    def _send_error(self, message: str) -> None:
        try:
            write_frame(self.request, OP_ERROR, message.encode("utf-8"))
        except OSError:
            pass

    def _drain(self) -> None:
        """Reads out the rest of the stream after an early decision.

        Closing with unread bytes would reset the connection and could
        destroy the result frame before the client sees it.
        """
        try:
            for _ in range(100_000):
                frame = read_frame(self.request)
                if frame is None or frame[0] == OP_END:
                    return
        except (SpeechprintError, ConnectionError, OSError):
            return


class PipelineServer(socketserver.ThreadingTCPServer):
    """TCP server wrapping a Pipeline; one thread per session.

    Shutdown is graceful: in-flight sessions (including enrolments) run
    to completion before ``server_close`` returns, so the index and
    registry are never left half-updated by a stop.
    """

    allow_reuse_address = True
    daemon_threads = False  # close() must join in-flight enrolments
    # sessions arrive in bursts; the socketserver default backlog of 5
    # lets simultaneous connects overflow the accept queue and get reset
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], pipeline: Pipeline) -> None:
        super().__init__(address, _SessionHandler)
        self.pipeline = pipeline
        self.batcher = QueryBatcher(pipeline.index)

    def server_close(self) -> None:
        super().server_close()
        self.batcher.close()


def parse_endpoint(listen: str) -> tuple[str, int]:
    """"host:port" -> (host, port); bare ":port" binds all interfaces."""
    host, sep, port = listen.rpartition(":")
    if not sep or not port.isdigit():
        raise SpeechprintError(f"listen endpoint must be host:port, got {listen!r}")
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
    """Small reference client: streams a WAV file, returns the outcome."""
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        for start in range(0, len(wav_bytes), chunk_size):
            write_frame(sock, OP_AUDIO_CHUNK, wav_bytes[start : start + chunk_size])
        write_frame(sock, OP_END)
        frame = read_frame(sock)
    if frame is None:
        raise SpeechprintError("server closed the connection without a result")
    opcode, payload = frame
    if opcode == OP_ERROR:
        return IdentifyOutcome(STATUS_ERROR, message=payload.decode("utf-8"))
    if opcode != OP_RESULT:
        raise SpeechprintError(f"unexpected reply opcode 0x{opcode:02x}")
    code, file_id, label_id, confidence = struct.unpack("<BQQf", payload)
    status = STATUS_IDENTIFIED if code == 0 else STATUS_ENROLLED
    return IdentifyOutcome(
        status,
        file_id=file_id or None,
        label_id=label_id or None,
        confidence=confidence,
    )
