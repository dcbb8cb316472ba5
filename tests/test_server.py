"""TCP server: framing, sessions, batched queries, graceful shutdown."""

import io
import socket
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from speechprint import pipeline as pipeline_module
from speechprint.audio import decode_wav, encode_wav, resample, slice_seconds
from speechprint.corpus import synth_speech_like
from speechprint.errors import DecodeError, IoError, SpeechprintError
from speechprint.fingerprint import FingerprintConfig, config_digest, fingerprint_audio
from speechprint.index import RetrievalIndex
from speechprint.pipeline import (
    CANONICAL_RATE,
    STATUS_ENROLLED,
    STATUS_ERROR,
    STATUS_IDENTIFIED,
    Pipeline,
    stream_wav_bytes,
)
from speechprint.registry import LabelRegistry
from speechprint.server import (
    OP_AUDIO_CHUNK,
    OP_END,
    OP_ERROR,
    OP_RESULT,
    QueryBatcher,
    identify_over_socket,
    parse_endpoint,
    read_frame,
    serve,
    write_frame,
)
from speechprint.spectral import SpectralConfig

FCFG = FingerprintConfig()
SCFG = SpectralConfig.for_variant("mel-vocal")
DIGEST = config_digest(SCFG, FCFG, CANONICAL_RATE)


def build_pipeline(corpus):
    index = RetrievalIndex.for_config(DIGEST, FCFG)
    registry = LabelRegistry()
    label = registry.create_cluster("announcements", "en")
    for i, audio in enumerate(corpus):
        index.enroll(fingerprint_audio(audio, SCFG, FCFG, file_id=i + 1))
        registry.assign(i + 1, label)
    return Pipeline(index, registry, SCFG, FCFG)


@pytest.fixture(scope="module")
def corpus(small_corpus_dir):
    paths = sorted(Path(small_corpus_dir).glob("*.wav"))
    return [decode_wav(p.read_bytes()) for p in paths]


@pytest.fixture(scope="module")
def server(corpus):
    pipeline = build_pipeline(corpus)
    srv = serve("127.0.0.1:0", pipeline)
    thread = threading.Thread(target=srv.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def server_port(srv) -> int:
    return srv.server_address[1]


class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        with a, b, a.makefile("wb") as out, b.makefile("rb") as inp:
            write_frame(out, OP_AUDIO_CHUNK, b"payload bytes")
            out.flush()
            assert read_frame(inp) == (OP_AUDIO_CHUNK, b"payload bytes")
            write_frame(out, OP_END)
            out.flush()
            assert read_frame(inp) == (OP_END, b"")

    def test_eof_returns_none(self):
        a, b = socket.socketpair()
        with b, b.makefile("rb") as inp:
            a.close()
            assert read_frame(inp) is None

    def test_drop_mid_frame_raises(self):
        a, b = socket.socketpair()
        with b, b.makefile("rb") as inp:
            a.sendall(struct.pack("<I", 10) + b"\x01ab")
            a.close()
            with pytest.raises(SpeechprintError):
                read_frame(inp)

    @pytest.mark.parametrize("sent", [b"\x05", b"\x05\x00\x00"])
    def test_drop_mid_header_raises(self, sent):
        a, b = socket.socketpair()
        with b, b.makefile("rb") as inp:
            a.sendall(sent)
            a.close()
            with pytest.raises(SpeechprintError):
                read_frame(inp)

    def test_opcode_values_pinned(self):
        assert (OP_AUDIO_CHUNK, OP_END, OP_RESULT, OP_ERROR) == (
            0x01, 0x02, 0x10, 0x11,
        )


class TestEndpoint:
    def test_host_port(self):
        assert parse_endpoint("127.0.0.1:9311") == ("127.0.0.1", 9311)

    def test_bare_port_binds_everywhere(self):
        assert parse_endpoint(":8000") == ("0.0.0.0", 8000)

    def test_garbage_rejected(self):
        with pytest.raises(SpeechprintError):
            parse_endpoint("no-port-here")

    def test_port_above_65535_rejected(self):
        with pytest.raises(SpeechprintError, match="65535"):
            parse_endpoint("127.0.0.1:70000")

    def test_failed_bind_raises_one_library_error(self):
        """A busy port and a port out of range each raise the package's
        own error, naming the endpoint, not a traceback from the close."""
        index = RetrievalIndex.for_config(DIGEST, FCFG)
        pipeline = Pipeline(index, LabelRegistry(), SCFG, FCFG)
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            with pytest.raises(IoError, match=f"cannot listen on 127.0.0.1:{port}"):
                serve(f"127.0.0.1:{port}", pipeline)
        with pytest.raises(SpeechprintError):
            serve("127.0.0.1:70000", pipeline)


class TestSessions:
    def test_enrolled_file_identified(self, server, corpus):
        outcome = identify_over_socket(
            "127.0.0.1", server_port(server), encode_wav(corpus[1])
        )
        assert outcome.status == STATUS_IDENTIFIED
        assert outcome.file_id == 2
        assert outcome.label_id == 1
        assert outcome.confidence > 0.5

    def test_unknown_file_enrolled_then_identifiable(self, server):
        stranger = synth_speech_like(8.0, CANONICAL_RATE, seed=4001)
        blob = encode_wav(stranger)
        port = server_port(server)
        first = identify_over_socket("127.0.0.1", port, blob)
        assert first.status == STATUS_ENROLLED
        assert first.file_id is not None
        assert first.label_id is None
        second = identify_over_socket("127.0.0.1", port, blob)
        assert second.status == STATUS_IDENTIFIED
        assert second.file_id == first.file_id

    def test_empty_stream_gets_error_frame(self, server):
        with socket.create_connection(
            ("127.0.0.1", server_port(server)), timeout=10
        ) as sock, sock.makefile("rwb") as stream:
            write_frame(stream, OP_END)
            stream.flush()
            opcode, payload = read_frame(stream)
        assert opcode == OP_ERROR
        assert b"no audio" in payload

    def test_unknown_opcode_gets_error_frame(self, server):
        with socket.create_connection(
            ("127.0.0.1", server_port(server)), timeout=10
        ) as sock, sock.makefile("rwb") as stream:
            write_frame(stream, 0x7F, b"?")
            stream.flush()
            opcode, payload = read_frame(stream)
        assert opcode == OP_ERROR
        assert b"opcode" in payload

    # (channels, sample rate, bit depth) of PCM fmt chunks that decode_wav
    # rejects; the first three once ended the session without a reply
    # frame, and 192,007 Hz once designed a 3,840,141-tap resampling filter
    @pytest.mark.parametrize(
        "channels, rate, bits", [(0, 8000, 16), (1, 8000, 4), (1, 0, 16), (1, 192_007, 16)]
    )
    def test_bad_fmt_gets_error_frame(self, server, channels, rate, bits):
        """The header gets one ERROR frame, and no resampling filter is
        designed for it."""
        from speechprint.audio import _rate_filter

        block = channels * bits // 8
        fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * block, block, bits)
        raw = bytes(16000)
        body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", len(raw)) + raw
        blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        with pytest.raises(DecodeError) as batch:
            decode_wav(blob)
        designed = _rate_filter.cache_info()
        with socket.create_connection(
            ("127.0.0.1", server_port(server)), timeout=10
        ) as sock, sock.makefile("rwb") as stream:
            write_frame(stream, OP_AUDIO_CHUNK, blob)
            write_frame(stream, OP_END)
            stream.flush()
            opcode, payload = read_frame(stream)
        assert opcode == OP_ERROR
        assert payload.decode("utf-8") == str(batch.value)
        assert _rate_filter.cache_info() == designed

    def test_bad_frame_length_gets_error_frame(self, server):
        with socket.create_connection(
            ("127.0.0.1", server_port(server)), timeout=10
        ) as sock, sock.makefile("rb") as replies:
            sock.sendall(struct.pack("<I", 0))
            opcode, payload = read_frame(replies)
        assert opcode == OP_ERROR
        assert b"length" in payload

    @pytest.mark.parametrize("piece", [1, 3, 5000])
    def test_stream_written_in_any_pieces_gets_same_outcome(
        self, server, corpus, piece
    ):
        """The server reassembles frames however the bytes are cut."""
        port = server_port(server)
        blob = encode_wav(slice_seconds(corpus[3], 0.0, 7.0))
        reference = identify_over_socket("127.0.0.1", port, blob)
        framed = io.BytesIO()
        for start in range(0, len(blob), 4096):
            write_frame(framed, OP_AUDIO_CHUNK, blob[start : start + 4096])
        write_frame(framed, OP_END)
        wire = framed.getvalue()
        with socket.create_connection(
            ("127.0.0.1", port), timeout=30
        ) as sock, sock.makefile("rb") as replies:
            for start in range(0, len(wire), piece):
                sock.sendall(wire[start : start + piece])
            reply = read_frame(replies)
        assert reference.status == STATUS_IDENTIFIED
        assert reply == (
            OP_RESULT,
            struct.pack(
                "<BQQf", 0, reference.file_id, reference.label_id, reference.confidence
            ),
        )

    def test_overlong_stream_gets_error_frame(self, server, corpus, monkeypatch):
        monkeypatch.setattr(pipeline_module, "MAX_STREAM_S", 3.0)
        outcome = identify_over_socket(
            "127.0.0.1", server_port(server), encode_wav(corpus[0])
        )
        assert outcome.status == STATUS_ERROR
        assert "3 s cap" in outcome.message

    def test_concurrent_sessions_match_serial(self, server, corpus):
        """12 parallel identifications equal the serial pipeline answers."""
        port = server_port(server)
        blobs = [encode_wav(corpus[i % len(corpus)]) for i in range(12)]
        pipeline = server.pipeline
        serial = [
            pipeline.index.query(pipeline.fingerprint(corpus[i % len(corpus)]))
            for i in range(12)
        ]
        with ThreadPoolExecutor(max_workers=12) as pool:
            outcomes = list(
                pool.map(
                    lambda blob: identify_over_socket("127.0.0.1", port, blob),
                    blobs,
                )
            )
        for outcome, reference in zip(outcomes, serial):
            assert outcome.status == STATUS_IDENTIFIED
            assert outcome.file_id == reference.file_id
            assert outcome.confidence == pytest.approx(
                reference.confidence, rel=1e-6
            )


def answer_end_with(payload: bytes) -> tuple[int, threading.Thread]:
    """A one-connection stub server on 127.0.0.1 that reads frames up to
    END, then replies with one RESULT frame carrying ``payload``."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answer():
        with listener:
            conn, _addr = listener.accept()
            with conn, conn.makefile("rwb") as stream:
                while read_frame(stream)[0] != OP_END:
                    pass
                write_frame(stream, OP_RESULT, payload)

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


class TestClient:
    @pytest.mark.parametrize(
        "payload,message",
        [
            (struct.pack("<BQQf", 0, 3, 1, 0.9)[:-1], "RESULT reply of 20 bytes, not 21"),
            (struct.pack("<BQQf", 7, 3, 1, 0.9), "unknown status code 7"),
        ],
        ids=["short", "status-7"],
    )
    def test_malformed_result_raises_library_error(self, payload, message):
        """A reply not laid out as ``<BQQf`` with status 0 or 1 raises a
        library error, not struct.error or a made-up status."""
        port, thread = answer_end_with(payload)
        blob = encode_wav(synth_speech_like(1.0, 8000, seed=4003))
        with pytest.raises(SpeechprintError, match=message):
            identify_over_socket("127.0.0.1", port, blob, timeout_s=10)
        thread.join(timeout=10)


def outcome_fields(outcome):
    """What the wire carries of an outcome; confidence travels as f32."""
    return (
        outcome.status,
        outcome.file_id,
        outcome.label_id,
        float(np.float32(outcome.confidence)),
        outcome.message,
    )


class TestParityWithIdentifyStream:
    def test_same_outcomes_on_both_paths(self, corpus):
        """identify_stream and the server run one Session: same answers."""
        upsampled = encode_wav(resample(corpus[1], 16000))
        streams = [
            encode_wav(corpus[0]),
            upsampled,
            encode_wav(slice_seconds(corpus[2], 1.3, 10.0)),
            encode_wav(synth_speech_like(8.0, CANONICAL_RATE, seed=4200)),
            encode_wav(synth_speech_like(0.5, CANONICAL_RATE, seed=4201)),
            b"definitely not RIFF data",
        ]
        cli = build_pipeline(corpus)
        local = [cli.identify_stream(stream_wav_bytes(blob)) for blob in streams]
        srv = serve("127.0.0.1:0", build_pipeline(corpus))
        thread = threading.Thread(target=srv.serve_forever, args=(0.02,), daemon=True)
        thread.start()
        port = server_port(srv)
        try:
            remote = [identify_over_socket("127.0.0.1", port, b) for b in streams]
            # the 16 kHz stream is answered before 8 s of it has been sent
            head = upsampled[: 44 + 8 * 16000 * 2]
            with socket.create_connection(
                ("127.0.0.1", port), timeout=30
            ) as sock, sock.makefile("rwb") as stream:
                for start in range(0, len(head), 4096):
                    write_frame(stream, OP_AUDIO_CHUNK, head[start : start + 4096])
                stream.flush()
                early = read_frame(stream)
                write_frame(stream, OP_END)
                stream.flush()
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert [outcome_fields(o) for o in remote] == [
            outcome_fields(o) for o in local
        ]
        statuses = [o.status for o in local]
        assert statuses[:2] == [STATUS_IDENTIFIED, STATUS_IDENTIFIED]
        assert statuses[3:] == [STATUS_ENROLLED, STATUS_ERROR, STATUS_ERROR]
        assert local[1].audio_consumed_s < 8.0
        assert early[0] == OP_RESULT
        assert early[1] == struct.pack("<BQQf", 0, 2, 1, local[1].confidence)


class TestBatcher:
    def test_batched_answers_equal_direct_queries(self, corpus):
        pipeline = build_pipeline(corpus)
        batcher = QueryBatcher(pipeline.index)
        prints = [fingerprint_audio(c, SCFG, FCFG) for c in corpus[:4]]
        direct = [pipeline.index.query(fp) for fp in prints]
        with ThreadPoolExecutor(max_workers=4) as pool:
            batched = list(pool.map(batcher.submit, prints))
        assert batched == direct


class TestSessionCap:
    def test_session_past_the_cap_gets_busy_frame(self, corpus, monkeypatch):
        """Past MAX_SESSIONS a connection gets one ERROR frame and is
        closed; a finished session frees its place."""
        import time

        from speechprint import server as server_module

        monkeypatch.setattr(server_module, "MAX_SESSIONS", 1)
        srv = serve("127.0.0.1:0", build_pipeline(corpus))
        thread = threading.Thread(target=srv.serve_forever, args=(0.02,), daemon=True)
        thread.start()
        port = server_port(srv)
        blob = encode_wav(corpus[0])
        try:
            with socket.create_connection(srv.server_address, timeout=5):
                deadline = time.monotonic() + 10.0
                while not vars(srv).get("_threads") and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert vars(srv).get("_threads"), "session never reached the server"
                with socket.create_connection(
                    srv.server_address, timeout=5
                ) as sock, sock.makefile("rb") as replies:
                    assert read_frame(replies) == (OP_ERROR, b"server busy")
                    assert read_frame(replies) is None
                # the client, refused while it streams, reads the frame too
                outcome = identify_over_socket("127.0.0.1", port, blob, timeout_s=5)
                assert (outcome.status, outcome.message) == (STATUS_ERROR, "server busy")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                outcome = identify_over_socket("127.0.0.1", port, blob, timeout_s=5)
                if outcome.message != "server busy":
                    break
                time.sleep(0.02)
            assert outcome.status == STATUS_IDENTIFIED and outcome.file_id == 1
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)


class TestShutdown:
    def test_inflight_enrolment_completes_before_close(self, corpus):
        """server_close joins live sessions: no half-enrolled state."""
        import time

        pipeline = build_pipeline(corpus)
        srv = serve("127.0.0.1:0", pipeline)
        thread = threading.Thread(target=srv.serve_forever, args=(0.02,), daemon=True)
        thread.start()
        port = srv.server_address[1]
        stranger = synth_speech_like(8.0, CANONICAL_RATE, seed=4100)
        blob = encode_wav(stranger)
        holder = {}

        def client():
            holder["outcome"] = identify_over_socket("127.0.0.1", port, blob)

        worker = threading.Thread(target=client)
        worker.start()
        deadline = time.monotonic() + 10.0
        while not vars(srv).get("_threads") and time.monotonic() < deadline:
            time.sleep(0.005)
        assert vars(srv).get("_threads"), "session never reached the server"
        srv.shutdown()
        srv.server_close()  # joins the live session before returning
        thread.join(timeout=5)
        worker.join(timeout=10)
        outcome = holder["outcome"]
        assert outcome.status == STATUS_ENROLLED
        assert outcome.file_id in pipeline.index
        assert outcome.file_id in pipeline.registry.pending()

    def test_silent_client_does_not_hold_close(self, corpus, monkeypatch):
        """A client that connects and then sends nothing times out."""
        import time

        from speechprint import server as server_module

        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2)
        srv = serve("127.0.0.1:0", build_pipeline(corpus))
        thread = threading.Thread(target=srv.serve_forever, args=(0.02,), daemon=True)
        thread.start()
        with socket.create_connection(srv.server_address, timeout=10) as silent:
            deadline = time.monotonic() + 10.0
            while not vars(srv).get("_threads") and time.monotonic() < deadline:
                time.sleep(0.005)
            assert vars(srv).get("_threads"), "session never reached the server"
            srv.shutdown()
            closer = threading.Thread(target=srv.server_close, daemon=True)
            closer.start()
            closer.join(timeout=10)
            assert not closer.is_alive(), "server_close waited on a silent client"
            assert silent.recv(1) == b""  # the server dropped the session
        thread.join(timeout=5)
