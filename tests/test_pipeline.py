"""Streaming identify-or-enroll pipeline and the incremental WAV decoder."""

import dataclasses
import struct
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from speechprint import audio as audio_module
from speechprint import pipeline as pipeline_module
from speechprint.audio import (
    clip_stats,
    decode_canonical,
    decode_wav,
    encode_wav,
    resample,
    slice_seconds,
)
from speechprint.corpus import synth_speech_like
from speechprint.errors import (
    DecodeError,
    IncompatibleIndex,
    SpeechprintError,
    UnsupportedFormat,
)
from speechprint.fingerprint import (
    FingerprintConfig,
    StreamingFingerprinter,
    config_digest,
    fingerprint_audio,
    min_audio_seconds,
)
from speechprint.index import RetrievalIndex
from speechprint.pipeline import (
    CANONICAL_RATE,
    DECISION_POINTS_S,
    STATUS_ENROLLED,
    STATUS_ERROR,
    STATUS_IDENTIFIED,
    IdentifyOutcome,
    Pipeline,
    Session,
    WavStreamDecoder,
    stream_wav_bytes,
)
from speechprint.registry import LabelRegistry, TranscriptDoc
from speechprint.spectral import FrameTransform, SpectralConfig

FCFG = FingerprintConfig()
SCFG = SpectralConfig.for_variant("mel-vocal")
DIGEST = config_digest(SCFG, FCFG, CANONICAL_RATE)

# (channels, sample rate, bit depth, the error) of PCM fmt chunks that
# decode_wav rejects; the first three once divided by zero in the stream
# decoder, and the rates past the resampling bound (a term above
# MAX_RATE_TERM in their ratio to 8 kHz) once designed filters of
# millions of taps
BAD_FMTS = {
    "no-channels": (0, 8000, 16, UnsupportedFormat),
    "4-bit": (1, 8000, 4, UnsupportedFormat),
    "rate-0": (1, 0, 16, DecodeError),
    "rate-10001": (1, 10_001, 16, UnsupportedFormat),
    "rate-192007": (1, 192_007, 16, UnsupportedFormat),
    "rate-2^32-5": (1, 2**32 - 5, 16, UnsupportedFormat),
}


@pytest.fixture(scope="module")
def corpus(small_corpus_dir):
    paths = sorted(Path(small_corpus_dir).glob("*.wav"))
    return [decode_wav(p.read_bytes()) for p in paths]


def build_pipeline(corpus):
    index = RetrievalIndex.for_config(DIGEST, FCFG)
    registry = LabelRegistry()
    label = registry.create_cluster("announcements", "en")
    for i, audio in enumerate(corpus):
        index.enroll(fingerprint_audio(audio, SCFG, FCFG, file_id=i + 1))
        registry.assign(i + 1, label)
    return Pipeline(index, registry, SCFG, FCFG)


@pytest.fixture()
def pipeline(corpus):
    return build_pipeline(corpus)


class TestDecoder:
    def test_chunked_equals_whole_file(self, speech_clip):
        blob = encode_wav(slice_two_seconds(speech_clip))
        reference = decode_wav(blob)
        for chunk_size in (1, 7, 977, 4096, len(blob)):
            decoder = WavStreamDecoder()
            parts = [
                decoder.feed(blob[i : i + chunk_size])
                for i in range(0, len(blob), chunk_size)
            ]
            samples = np.concatenate([p for p in parts if p.size])
            assert decoder.sample_rate == reference.sample_rate
            assert np.array_equal(samples, reference.samples)

    def test_chunk_after_data_not_decoded(self, speech_clip):
        """Bytes past the data chunk's declared size are not samples."""
        wav = encode_wav(slice_two_seconds(speech_clip))
        info = b"INFOISFT" + struct.pack("<I", 6) + b"synth\x00"
        trailer = b"LIST" + struct.pack("<I", len(info)) + info
        size = struct.pack("<I", len(wav) - 8 + len(trailer))
        blob = b"RIFF" + size + wav[8:] + trailer
        reference = decode_wav(blob)
        for chunk_size in (1, 7, 977, len(blob)):
            decoder = WavStreamDecoder()
            parts = [
                decoder.feed(blob[i : i + chunk_size])
                for i in range(0, len(blob), chunk_size)
            ]
            samples = np.concatenate([p for p in parts if p.size])
            assert np.array_equal(samples, reference.samples)

    def test_sample_rate_unknown_before_header(self):
        decoder = WavStreamDecoder()
        assert decoder.sample_rate is None

    def test_stereo_averaged_like_batch_decoder(self):
        frames = [(1000, 3000), (-2000, 2000), (0, 0), (-32768, -32768)]
        raw = b"".join(struct.pack("<hh", left, right) for left, right in frames)
        blob = pcm_wav(raw, channels=2, rate=8000)
        reference = decode_wav(blob)
        decoder = WavStreamDecoder()
        parts = [decoder.feed(blob[i : i + 5]) for i in range(0, len(blob), 5)]
        samples = np.concatenate([p for p in parts if p.size])
        assert np.array_equal(samples, reference.samples)

    def test_rejects_non_wav(self):
        decoder = WavStreamDecoder()
        with pytest.raises(DecodeError):
            decoder.feed(b"this is not audio at all")

    def test_rejects_data_before_fmt(self):
        blob = b"RIFF" + struct.pack("<I", 36) + b"WAVE"
        blob += b"data" + struct.pack("<I", 4) + b"\x00" * 4
        decoder = WavStreamDecoder()
        with pytest.raises(DecodeError):
            decoder.feed(blob)

    @pytest.mark.parametrize("header", sorted(BAD_FMTS))
    @pytest.mark.parametrize("chunk_size", [1, 4096])
    def test_bad_fmt_raises_like_batch_decoder(self, header, chunk_size):
        channels, rate, bits, error = BAD_FMTS[header]
        blob = pcm_wav(bytes(16000), channels, rate, bits)
        with pytest.raises(DecodeError) as batch:
            decode_wav(blob)
        decoder = WavStreamDecoder()
        with pytest.raises(DecodeError) as stream:
            for i in range(0, len(blob), chunk_size):
                decoder.feed(blob[i : i + chunk_size])
        assert type(batch.value) is type(stream.value) is error
        assert str(stream.value) == str(batch.value)


def riff(*chunks: tuple[bytes, bytes], sizes: dict | None = None) -> bytes:
    """A RIFF/WAVE container of (id, body) chunks, each word aligned.

    ``sizes`` overrides the declared size of the chunk with that id.
    """
    body = b""
    for chunk_id, chunk in chunks:
        size = (sizes or {}).get(chunk_id, len(chunk))
        body += chunk_id + struct.pack("<I", size) + chunk + b"\x00" * (len(chunk) & 1)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


FMT_8K = (b"fmt ", struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16))
PCM_100 = np.arange(-50, 50, dtype="<i2").tobytes()
PCM_10 = np.full(10, 1234, dtype="<i2").tobytes()
LIST = (b"LIST", b"INFOISFT" + struct.pack("<I", 6) + b"synth\x00")

# name -> (WAV bytes, the samples as int16 codes or the error class of
# decode_wav, the int16 codes a stream of the same bytes decodes). A
# stream cannot know that it has ended, so where a whole file is
# malformed at its end (truncated data, no data chunk) it keeps what
# arrived; everywhere else both decoders agree.
DECODER_CASES = {
    "plain": (riff(FMT_8K, (b"data", PCM_100)), PCM_100, PCM_100),
    "two-data-chunks": (
        riff(FMT_8K, (b"data", PCM_100), (b"data", PCM_10)), PCM_100, PCM_100
    ),
    "fmt-after-data": (
        riff((b"data", PCM_100), FMT_8K), DecodeError, DecodeError
    ),
    "list-after-data": (
        riff(FMT_8K, (b"data", PCM_100), LIST), PCM_100, PCM_100
    ),
    "odd-sized-data": (
        riff(FMT_8K, (b"data", PCM_100 + b"\x07"), LIST), PCM_100, PCM_100
    ),
    "truncated-data": (
        riff(FMT_8K, (b"data", PCM_100), sizes={b"data": 400}), DecodeError, PCM_100
    ),
    "missing-data": (riff(FMT_8K, LIST), DecodeError, b""),
    "not-riff": (b"RIFX" + riff(FMT_8K, (b"data", PCM_100))[4:], DecodeError, DecodeError),
    "header-over-cap": (
        riff(
            FMT_8K,
            LIST,
            (b"data", PCM_100),
            sizes={b"LIST": audio_module._MAX_HEADER_BYTES},
        ),
        DecodeError,
        DecodeError,
    ),
}


def stream_decode(blob: bytes, chunk_size: int):
    """The samples a WavStreamDecoder yields for blob, or its error class."""
    decoder = WavStreamDecoder()
    try:
        parts = [
            decoder.feed(blob[i : i + chunk_size])
            for i in range(0, len(blob), chunk_size)
        ]
    except DecodeError as exc:
        return type(exc)
    return np.concatenate([np.empty(0), *parts])


class TestDecoderAgreement:
    """Both decoders follow one rule: fmt before data, the first data wins."""

    @pytest.mark.parametrize("case", list(DECODER_CASES))
    @pytest.mark.parametrize("chunk_size", [1, 7, 4096])
    def test_stream_decodes_like_whole_file(self, case, chunk_size):
        blob, whole, streamed = DECODER_CASES[case]
        if isinstance(whole, type):
            with pytest.raises(whole):
                decode_wav(blob)
        else:
            assert np.array_equal(decode_wav(blob).samples, codes(whole))
        got = stream_decode(blob, chunk_size)
        if isinstance(streamed, type):
            assert got is streamed
        else:
            assert np.array_equal(got, codes(streamed))

    def test_long_header_walked_a_bounded_number_of_times(self, monkeypatch):
        """A 4 MiB chunk before the data, fed in 4 KiB pieces, is walked
        once it has arrived, not once per piece."""
        calls = []

        def counting_walk(data):
            calls.append(len(data))
            return walk(data)

        walk = audio_module._walk_header
        monkeypatch.setattr(audio_module, "_walk_header", counting_walk)
        blob = riff(FMT_8K, (b"LIST", bytes(1 << 22)), (b"data", PCM_100))
        assert np.array_equal(stream_decode(blob, 4096), codes(PCM_100))
        assert len(calls) <= 3
        calls.clear()
        assert np.array_equal(decode_wav(blob).samples, codes(PCM_100))
        assert calls == [len(blob)]


def codes(raw: bytes) -> np.ndarray:
    return np.frombuffer(raw, dtype="<i2") / 32768.0


def slice_two_seconds(clip):
    return slice_seconds(clip, 0.0, 2.0)


def pcm_wav(raw_frames: bytes, channels: int, rate: int, bits: int = 16) -> bytes:
    block = channels * bits // 8
    byte_rate = rate * block % 2**32
    fmt = struct.pack("<HHIIHH", 1, channels, rate, byte_rate, block, bits)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(raw_frames)) + raw_frames
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestIdentifyStream:
    def test_enrolled_file_identified_before_seven_seconds(self, pipeline, corpus):
        blob = encode_wav(corpus[2])
        outcome = pipeline.identify_stream(stream_wav_bytes(blob))
        assert outcome.status == STATUS_IDENTIFIED
        assert outcome.file_id == 3
        assert outcome.label_id == 1
        assert outcome.audio_consumed_s < 7.0
        assert outcome.confidence > 0.5

    def test_early_exit_matches_full_file_query(self, pipeline, corpus):
        """Streaming decision agrees with the offline whole-file query."""
        for i, audio in enumerate(corpus):
            streamed = pipeline.identify_stream(
                stream_wav_bytes(encode_wav(audio))
            )
            offline = pipeline.index.query(pipeline.fingerprint(audio))
            assert streamed.status == STATUS_IDENTIFIED
            assert offline is not None
            assert streamed.file_id == offline.file_id == i + 1

    def test_unknown_file_enrolled_with_new_id(self, pipeline):
        stranger = synth_speech_like(8.0, CANONICAL_RATE, seed=777)
        outcome = pipeline.identify_stream(stream_wav_bytes(encode_wav(stranger)))
        assert outcome.status == STATUS_ENROLLED
        assert outcome.file_id == 7
        assert outcome.label_id is None
        assert outcome.audio_consumed_s == pytest.approx(8.0)
        assert 7 in pipeline.registry.pending()
        followup = pipeline.index.query(pipeline.fingerprint(stranger))
        assert followup is not None and followup.file_id == 7

    def test_non_canonical_rate_stream_identified(self, pipeline, corpus):
        upsampled = resample(corpus[0], 16000)
        outcome = pipeline.identify_stream(stream_wav_bytes(encode_wav(upsampled)))
        assert outcome.status == STATUS_IDENTIFIED
        assert outcome.file_id == 1

    def test_canonical_rate_enrolment_fingerprints_each_sample_once(
        self, pipeline, monkeypatch
    ):
        """Early queries, the final query and the enrolment share one pass."""
        calls = [0]
        column = FrameTransform.column

        def counting_column(transform, frame):
            calls[0] += 1 if frame.ndim == 1 else frame.shape[0]
            return column(transform, frame)

        monkeypatch.setattr(FrameTransform, "column", counting_column)
        clip = decode_wav(encode_wav(synth_speech_like(8.0, CANONICAL_RATE, seed=840)))
        fingerprint_audio(clip, SCFG, FCFG)
        one_pass, calls[0] = calls[0], 0
        outcome = pipeline.identify_stream(stream_wav_bytes(encode_wav(clip)))
        assert outcome.status == STATUS_ENROLLED
        assert calls[0] == one_pass

    def test_streamer_fed_at_decision_points_only(self, corpus, monkeypatch):
        """Chunk size changes neither the streamer's calls nor its bits."""
        blob = encode_wav(synth_speech_like(10.0, CANONICAL_RATE, seed=850))
        whole = fingerprint_audio(decode_wav(blob), SCFG, FCFG)
        feeds = [0]
        feed = StreamingFingerprinter.feed

        def counting_feed(streamer, samples):
            feeds[0] += 1
            return feed(streamer, samples)

        monkeypatch.setattr(StreamingFingerprinter, "feed", counting_feed)
        outcomes = []
        for chunk_size in (4096, 320):
            pipeline = build_pipeline(corpus)
            enrolled = []
            monkeypatch.setattr(pipeline.index, "enroll", enrolled.append)
            reached = [t for t in DECISION_POINTS_S if t <= 10.0]
            feeds[0] = 0
            outcomes.append(
                pipeline.identify_stream(stream_wav_bytes(blob, chunk_size))
            )
            assert 1 <= feeds[0] <= len(reached) + 1
            [fp] = enrolled
            assert np.array_equal(fp.signatures, whole.signatures)
        assert outcomes[0].status == STATUS_ENROLLED
        assert outcomes[0] == outcomes[1]

    def test_stream_over_the_audio_cap_is_error(self, pipeline, monkeypatch):
        monkeypatch.setattr(pipeline_module, "MAX_STREAM_S", 4.0)
        at_cap = encode_wav(synth_speech_like(4.0, CANONICAL_RATE, seed=860))
        outcome = pipeline.identify_stream(stream_wav_bytes(at_cap))
        assert outcome.status == STATUS_ENROLLED
        over = encode_wav(synth_speech_like(4.5, CANONICAL_RATE, seed=861))
        session = Session(pipeline, pipeline.index.query)
        with pytest.raises(SpeechprintError, match="4 s cap"):
            for chunk in stream_wav_bytes(over):
                session.feed(chunk)
        outcome = pipeline.identify_stream(stream_wav_bytes(over))
        assert outcome.status == STATUS_ERROR
        assert "4 s cap" in outcome.message

    def test_empty_stream_is_error(self, pipeline):
        outcome = pipeline.identify_stream(iter([]))
        assert outcome.status == STATUS_ERROR

    def test_undecodable_stream_is_error(self, pipeline):
        outcome = pipeline.identify_stream(iter([b"definitely not RIFF data"]))
        assert outcome.status == STATUS_ERROR
        assert "RIFF" in outcome.message

    @pytest.mark.parametrize("header", sorted(BAD_FMTS))
    def test_bad_fmt_stream_is_error(self, pipeline, header):
        channels, rate, bits, error = BAD_FMTS[header]
        blob = pcm_wav(bytes(16000), channels, rate, bits)
        with pytest.raises(error) as batch:
            decode_wav(blob)
        outcome = pipeline.identify_stream(stream_wav_bytes(blob))
        assert outcome.status == STATUS_ERROR
        assert outcome.message == str(batch.value)

    def test_stream_shorter_than_one_block_is_error(self, pipeline):
        tiny = synth_speech_like(0.5, CANONICAL_RATE, seed=1)
        outcome = pipeline.identify_stream(stream_wav_bytes(encode_wav(tiny)))
        assert outcome.status == STATUS_ERROR
        assert "minimum" in outcome.message

    @pytest.mark.parametrize("rate", [8000, 16000])
    @pytest.mark.parametrize("variant", ["linear-vocal", "mel-vocal", "mel-wide"])
    def test_minimum_length_boundary(self, variant, rate):
        """A stream exactly min_audio_seconds long at the canonical rate
        is enrolled; one canonical sample less is below the minimum."""
        spectral = SpectralConfig.for_variant(variant)
        need = round(min_audio_seconds(spectral, FCFG) * CANONICAL_RATE)
        clip = synth_speech_like(need / CANONICAL_RATE + 0.1, rate, seed=43)
        # 16 kHz: 2n input samples give n canonical ones, 2n - 2 give n - 1
        per = rate // CANONICAL_RATE
        for n, status in ((need, STATUS_ENROLLED), (need - 1, STATUS_ERROR)):
            samples = clip.samples[: per * n]
            digest = config_digest(spectral, FCFG, CANONICAL_RATE)
            pipeline = Pipeline(
                RetrievalIndex.for_config(digest, FCFG), LabelRegistry(), spectral, FCFG
            )
            blob = encode_wav(audio_module.AudioBuffer(samples, rate))
            outcome = pipeline.identify_stream(stream_wav_bytes(blob))
            assert outcome.status == status
            assert outcome.audio_consumed_s == pytest.approx(n / CANONICAL_RATE)
            if status == STATUS_ERROR:
                assert "below the" in outcome.message
                assert "fingerprinting minimum" in outcome.message
            else:
                assert pipeline.index.stats().n_subs == 1


def split_bytes(blob: bytes, piece, rng=None):
    """blob in pieces of ``piece`` bytes, or of random sizes up to 8 KiB."""
    if piece == "random":
        cuts = np.cumsum(rng.integers(1, 8192, len(blob) // 2048 + 1))
        cuts = cuts[cuts < len(blob)]
        return [blob[a:b] for a, b in zip([0, *cuts], [*cuts, len(blob)])]
    return list(stream_wav_bytes(blob, piece))


class TestOneSessionPath:
    """Every rate takes one path: a stream's outcome and enrolled rows do
    not depend on how its bytes are split, and equal the whole file's."""

    @pytest.mark.parametrize("rate", [8000, 11025, 16000, 44100])
    def test_any_split_gives_the_whole_file_outcome(self, corpus, rate):
        rng = np.random.default_rng(rate)
        known = encode_wav(resample(corpus[1], rate))
        new = encode_wav(resample(synth_speech_like(6.2, CANONICAL_RATE, seed=880), rate))
        whole_rows = fingerprint_audio(decode_canonical(new), SCFG, FCFG).signatures
        cases = (
            (known, (320, 4096, "random"), STATUS_IDENTIFIED),
            (new, (1, 320, 4096, "random"), STATUS_ENROLLED),
        )
        for blob, pieces, status in cases:
            outcomes = set()
            for piece in (len(blob), *pieces):
                pipeline = build_pipeline(corpus)
                enrolled = []
                enroll = pipeline.index.enroll

                def recording_enroll(fp):
                    enrolled.append(fp)
                    enroll(fp)

                pipeline.index.enroll = recording_enroll
                outcome = pipeline.identify_stream(split_bytes(blob, piece, rng))
                assert outcome.status == status
                if status == STATUS_ENROLLED:
                    [fp] = enrolled
                    assert np.array_equal(fp.signatures, whole_rows)
                    outcomes.add(outcome)
                else:  # decided when 6 s had arrived, however the bytes were cut
                    assert not enrolled
                    outcomes.add(outcome.file_id)
            assert len(outcomes) == 1

    def test_clip_count_is_the_whole_file_resample(self):
        """Each input sample is resampled, and each clip counted, once."""
        pipeline = Pipeline(
            RetrievalIndex.for_config(DIGEST, FCFG), LabelRegistry(), SCFG, FCFG
        )
        loud = 3.0 * synth_speech_like(13.0, 16000, seed=890).samples
        blob = encode_wav(audio_module.AudioBuffer(np.clip(loud, -1, 1), 16000))
        before = clip_stats.count
        resample(decode_wav(blob), CANONICAL_RATE)
        whole = clip_stats.count - before
        before = clip_stats.count
        outcome = pipeline.identify_stream(stream_wav_bytes(blob))
        assert outcome.status == STATUS_ENROLLED
        assert clip_stats.count - before == whole > 0

    def test_session_keeps_one_copy_of_its_audio(self):
        """A 60 s 8 kHz stream nothing matches, fed in 4 KiB chunks and
        enrolled, allocates at its peak under three times its decoded
        float64 samples: the collected samples, their concatenation for
        the fingerprinter and the fingerprinter's working set."""
        pipeline = Pipeline(
            RetrievalIndex.for_config(DIGEST, FCFG), LabelRegistry(), SCFG, FCFG
        )
        clip = synth_speech_like(60.0, CANONICAL_RATE, seed=897)
        chunks = list(stream_wav_bytes(encode_wav(clip), 4096))
        pipeline.fingerprint(slice_seconds(clip, 0.0, 7.0))  # builds cached tables
        tracemalloc.start()
        try:
            session = Session(pipeline, pipeline.index.query)
            for chunk in chunks:
                assert session.feed(chunk) is None
            outcome = session.finish()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.status == STATUS_ENROLLED
        assert peak < 3 * clip.samples.nbytes

    @pytest.mark.parametrize("rate, bound_mb", [(8000, 4), (48000, 10)])
    def test_long_session_holds_no_more_than_a_decision_step(self, rate, bound_mb):
        """Past the last decision point a session feeds its samples on to
        the streamer every decision step, so a 60 s stream nothing
        matches, fed in 4 KiB chunks and enrolled, peaks at a few MB at
        any rate (its source float64 is 23 MB at 48 kHz), and enrols the
        rows of its whole file."""
        import scipy.signal  # noqa: F401  (its import allocates about 44 MB)

        pipeline = Pipeline(
            RetrievalIndex.for_config(DIGEST, FCFG), LabelRegistry(), SCFG, FCFG
        )
        enrolled = []
        enroll = pipeline.index.enroll

        def recording_enroll(fp):
            enrolled.append(fp)
            enroll(fp)

        pipeline.index.enroll = recording_enroll
        blob = encode_wav(synth_speech_like(60.0, rate, seed=898))
        chunks = list(stream_wav_bytes(blob, 4096))
        # also designs the resampling filter and builds cached tables
        whole = fingerprint_audio(decode_canonical(blob), SCFG, FCFG)
        tracemalloc.start()
        try:
            session = Session(pipeline, pipeline.index.query)
            for chunk in chunks:
                assert session.feed(chunk) is None
            outcome = session.finish()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.status == STATUS_ENROLLED
        assert peak < bound_mb * 1e6
        [fp] = enrolled
        assert np.array_equal(fp.signatures, whole.signatures)


class TestEnroll:
    def test_enroll_then_identify(self, pipeline):
        clip = synth_speech_like(8.0, CANONICAL_RATE, seed=801)
        outcome = pipeline.enroll_file(pipeline.fingerprint(clip))
        assert outcome.status == STATUS_ENROLLED
        result = pipeline.index.query(pipeline.fingerprint(clip))
        assert result is not None and result.file_id == outcome.file_id

    def test_concurrent_enrolments_get_distinct_ids(self, pipeline):
        clips = [
            synth_speech_like(8.0, CANONICAL_RATE, seed=820 + i) for i in range(6)
        ]
        with ThreadPoolExecutor(max_workers=6) as pool:
            outcomes = list(
                pool.map(lambda c: pipeline.enroll_file(pipeline.fingerprint(c)), clips)
            )
        ids = [o.file_id for o in outcomes]
        assert len(set(ids)) == 6
        for clip, outcome in zip(clips, outcomes):
            result = pipeline.index.query(pipeline.fingerprint(clip))
            assert result is not None and result.file_id == outcome.file_id

    @pytest.mark.parametrize("rate", [8000, 16000])
    def test_labeler_gets_the_transcript_once_per_enrolment(
        self, pipeline, rate, monkeypatch
    ):
        """A streamed enrolment reports the stream's length at the
        canonical rate, and the registry's label_for is called once with
        exactly the transcript given, or None."""
        calls = []
        monkeypatch.setattr(pipeline.registry, "label_for", calls.append)
        doc = TranscriptDoc.from_text(0, "the number you dialled is busy", "en")
        for seed, transcript in ((833, doc), (834, None)):
            blob = encode_wav(synth_speech_like(9.3001, rate, seed=seed))
            outcome = pipeline.identify_stream(stream_wav_bytes(blob), transcript)
            assert outcome.status == STATUS_ENROLLED
            n_out = len(decode_canonical(blob))  # 74,401 at either rate
            assert outcome.audio_consumed_s == n_out / CANONICAL_RATE
            assert len(calls) == 1 and calls.pop() is transcript
        clip = synth_speech_like(8.0, CANONICAL_RATE, seed=835)
        pipeline.enroll_file(pipeline.fingerprint(clip), doc)
        assert len(calls) == 1 and calls[0] is doc

    def test_id_enrolled_directly_into_the_index_not_reused(self, corpus):
        """An id enrolled into the index after the pipeline was made is
        never handed out again."""
        index = RetrievalIndex.for_config(DIGEST, FCFG)
        pipeline = Pipeline(index, LabelRegistry(), SCFG, FCFG)
        clip = synth_speech_like(8.0, CANONICAL_RATE, seed=840)
        first = dataclasses.replace(pipeline.fingerprint(clip), file_id=1)
        pipeline.index.enroll(first)
        outcome = pipeline.enroll_file(pipeline.fingerprint(corpus[0]))
        assert outcome.file_id == 2
        index.enroll(dataclasses.replace(pipeline.fingerprint(corpus[1]), file_id=7))
        assert pipeline.enroll_file(pipeline.fingerprint(corpus[2])).file_id == 8
        assert index.file_ids == [1, 2, 7, 8]

    def test_enrolment_with_transcript_gets_label(self, corpus):
        registry = LabelRegistry()
        registry.create_cluster(
            "voicemail greetings",
            "en",
            [("voicemail", 0.8), ("message", 0.5), ("reached", 0.4)],
        )
        pipeline = Pipeline(RetrievalIndex.for_config(DIGEST, FCFG), registry, SCFG, FCFG)
        doc = TranscriptDoc.from_text(0, "you have reached the voicemail", "en")
        outcome = pipeline.enroll_file(pipeline.fingerprint(corpus[0]), doc)
        assert outcome.label_id == 1
        assert pipeline.registry.lookup(outcome.file_id) == 1
        assert outcome.file_id not in pipeline.registry.pending()


class TestPolicy:
    def test_new_stream_queried_at_6_8_10_12_s_and_at_finish(self):
        """A stream nothing matches is queried at each decision point, then
        once over all of it before it is enrolled."""
        pipeline = Pipeline(
            RetrievalIndex.for_config(DIGEST, FCFG), LabelRegistry(), SCFG, FCFG
        )
        clip = synth_speech_like(13.0, CANONICAL_RATE, seed=870)
        blob = encode_wav(clip)
        header = len(blob) - 2 * len(clip)  # 16-bit mono samples end the file
        bytes_per_s = 2 * CANONICAL_RATE
        queried = []

        def query(fp):
            queried.append(len(fp.signatures))
            return None

        session = Session(pipeline, query)
        chunks = [
            blob[i : i + bytes_per_s] for i in range(header, len(blob), bytes_per_s)
        ]
        for chunk in [blob[:header], *chunks]:
            assert session.feed(chunk) is None
        assert session.finish().status == STATUS_ENROLLED
        expected = [
            len(fingerprint_audio(slice_seconds(clip, 0.0, t), SCFG, FCFG).signatures)
            for t in (6.0, 8.0, 10.0, 12.0, 13.0)
        ]
        assert queried == expected

    def test_finish_repeats_no_query_that_cannot_change(self):
        """A new 10 s stream is queried at 6, 8 and 10 s; at finish the
        fingerprint and the index are those of its 10 s query."""
        pipeline = Pipeline(
            RetrievalIndex.for_config(DIGEST, FCFG), LabelRegistry(), SCFG, FCFG
        )
        queried = []

        def query(fp):
            queried.append(len(fp.signatures))
            return pipeline.index.query(fp)

        blob = encode_wav(synth_speech_like(10.0, CANONICAL_RATE, seed=895))
        session = Session(pipeline, query)
        for chunk in stream_wav_bytes(blob):
            assert session.feed(chunk) is None
        assert session.finish().status == STATUS_ENROLLED
        assert len(queried) == 3

    def test_finish_requeries_after_an_enrolment(self):
        """A copy enrolled after the last decision point is found at finish."""
        pipeline = Pipeline(
            RetrievalIndex.for_config(DIGEST, FCFG), LabelRegistry(), SCFG, FCFG
        )
        clip = synth_speech_like(10.0, CANONICAL_RATE, seed=896)
        queried = []

        def query(fp):
            queried.append(len(fp.signatures))
            return pipeline.index.query(fp)

        session = Session(pipeline, query)
        for chunk in stream_wav_bytes(encode_wav(clip)):
            assert session.feed(chunk) is None
        assert len(queried) == 3
        copy = pipeline.enroll_file(pipeline.fingerprint(clip))
        outcome = session.finish()
        assert len(queried) == 4
        assert outcome.status == STATUS_IDENTIFIED
        assert outcome.file_id == copy.file_id

    def test_concurrent_streams_of_one_new_clip_enrol_it_once(self):
        """Four streams of one never-enrolled clip finish together: one
        enrols it, and the three that waited for it are identified as it."""
        pipeline = Pipeline(
            RetrievalIndex.for_config(DIGEST, FCFG), LabelRegistry(), SCFG, FCFG
        )
        blob = encode_wav(synth_speech_like(10.0, CANONICAL_RATE, seed=899))
        # lets every stream that reaches enroll_file enrol at once
        barrier = threading.Barrier(4, timeout=1.0)
        enroll_file = pipeline.enroll_file

        def held(fp, transcript=None):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
            return enroll_file(fp, transcript)

        pipeline.enroll_file = held
        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(
                pool.map(
                    lambda _: pipeline.identify_stream(stream_wav_bytes(blob)), range(4)
                )
            )
        statuses = sorted(o.status for o in outcomes)
        assert statuses == [STATUS_ENROLLED] + [STATUS_IDENTIFIED] * 3
        assert [o.file_id for o in outcomes] == pipeline.index.file_ids * 4

    def test_index_of_another_config_rejected(self):
        linear = SpectralConfig.for_variant("linear-vocal")
        index = RetrievalIndex.for_config(
            config_digest(linear, FCFG, CANONICAL_RATE), FCFG
        )
        with pytest.raises(IncompatibleIndex):
            Pipeline(index, LabelRegistry(), SCFG, FCFG)

    def test_outcome_defaults(self):
        outcome = IdentifyOutcome(STATUS_ERROR, message="x")
        assert outcome.file_id is None
        assert outcome.confidence == 0.0
