"""Streaming identify-or-enroll pipeline and the incremental WAV decoder."""

import struct
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from speechprint.audio import decode_wav, encode_wav, resample
from speechprint.corpus import synth_speech_like
from speechprint.errors import DecodeError, IncompatibleIndex
from speechprint.fingerprint import FingerprintConfig, config_digest, fingerprint_audio
from speechprint.index import RetrievalIndex
from speechprint.pipeline import (
    CANONICAL_RATE,
    STATUS_ENROLLED,
    STATUS_ERROR,
    STATUS_IDENTIFIED,
    IdentifyOutcome,
    PendingLabeler,
    Pipeline,
    TranscriptLabeler,
    WavStreamDecoder,
    stream_wav_bytes,
)
from speechprint.registry import LabelRegistry
from speechprint.spectral import FrameTransform, SpectralConfig

FCFG = FingerprintConfig()
SCFG = SpectralConfig.for_variant("mel-vocal")
DIGEST = config_digest(SCFG, FCFG, CANONICAL_RATE)


@pytest.fixture(scope="module")
def corpus(small_corpus_dir):
    paths = sorted(Path(small_corpus_dir).glob("*.wav"))
    return [decode_wav(p.read_bytes()) for p in paths]


@pytest.fixture()
def pipeline(corpus):
    index = RetrievalIndex.for_config(DIGEST, FCFG)
    registry = LabelRegistry()
    label = registry.create_cluster("announcements", "en")
    for i, audio in enumerate(corpus):
        index.enroll(fingerprint_audio(audio, SCFG, FCFG, file_id=i + 1))
        registry.assign(i + 1, label)
    return Pipeline(index, registry, SCFG, FCFG)


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


def slice_two_seconds(clip):
    from speechprint.audio import slice_seconds

    return slice_seconds(clip, 0.0, 2.0)


def pcm_wav(raw_frames: bytes, channels: int, rate: int, bits: int = 16) -> bytes:
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * block, block, bits)
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
            offline = pipeline.identify_buffer(audio)
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
        followup = pipeline.identify_buffer(stranger)
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

    def test_empty_stream_is_error(self, pipeline):
        outcome = pipeline.identify_stream(iter([]))
        assert outcome.status == STATUS_ERROR

    def test_undecodable_stream_is_error(self, pipeline):
        outcome = pipeline.identify_stream(iter([b"definitely not RIFF data"]))
        assert outcome.status == STATUS_ERROR
        assert "RIFF" in outcome.message

    def test_stream_shorter_than_one_block_is_error(self, pipeline):
        tiny = synth_speech_like(0.5, CANONICAL_RATE, seed=1)
        outcome = pipeline.identify_stream(stream_wav_bytes(encode_wav(tiny)))
        assert outcome.status == STATUS_ERROR
        assert "minimum" in outcome.message


class TestEnroll:
    def test_enroll_then_identify(self, pipeline):
        clip = synth_speech_like(8.0, CANONICAL_RATE, seed=801)
        outcome = pipeline.enroll_file(clip)
        assert outcome.status == STATUS_ENROLLED
        result = pipeline.identify_buffer(clip)
        assert result is not None and result.file_id == outcome.file_id

    def test_concurrent_enrolments_get_distinct_ids(self, pipeline):
        clips = [
            synth_speech_like(8.0, CANONICAL_RATE, seed=820 + i) for i in range(6)
        ]
        with ThreadPoolExecutor(max_workers=6) as pool:
            outcomes = list(pool.map(pipeline.enroll_file, clips))
        ids = [o.file_id for o in outcomes]
        assert len(set(ids)) == 6
        for clip, outcome in zip(clips, outcomes):
            result = pipeline.identify_buffer(clip)
            assert result is not None and result.file_id == outcome.file_id

    def test_raising_labeler_leaves_pending(self, pipeline):
        def exploding_labeler(audio, transcript_path=None):
            raise RuntimeError("labeler dependency down")

        pipeline.labeler = exploding_labeler
        clip = synth_speech_like(8.0, CANONICAL_RATE, seed=830)
        outcome = pipeline.enroll_file(clip)
        assert outcome.status == STATUS_ENROLLED
        assert outcome.label_id is None
        assert outcome.file_id in pipeline.registry.pending()

    def test_labeler_returning_unknown_label_leaves_pending(self, pipeline):
        pipeline.labeler = lambda audio, transcript_path=None: 999
        clip = synth_speech_like(8.0, CANONICAL_RATE, seed=831)
        outcome = pipeline.enroll_file(clip)
        assert outcome.label_id is None
        assert outcome.file_id in pipeline.registry.pending()


class TestTranscriptLabeler:
    @pytest.fixture()
    def registry(self):
        registry = LabelRegistry()
        registry.create_cluster(
            "voicemail greetings",
            "en",
            [("voicemail", 0.8), ("message", 0.5), ("reached", 0.4)],
        )
        return registry

    def test_matching_transcript_labelled(self, registry, tmp_path):
        path = tmp_path / "0.txt"
        path.write_text(
            "lang=en\nyou have reached the voicemail message box\n",
            encoding="utf-8",
        )
        labeler = TranscriptLabeler(registry)
        assert labeler(None, path) == 1

    def test_no_transcript_abstains(self, registry):
        assert TranscriptLabeler(registry)(None, None) is None

    def test_other_language_abstains(self, registry, tmp_path):
        path = tmp_path / "0.txt"
        path.write_text(
            "lang=de\nsie haben die voicemail message erreicht\n",
            encoding="utf-8",
        )
        assert TranscriptLabeler(registry)(None, path) is None

    def test_dissimilar_transcript_abstains(self, registry, tmp_path):
        path = tmp_path / "0.txt"
        path.write_text(
            "lang=en\ncompletely unrelated weather forecast talk\n",
            encoding="utf-8",
        )
        assert TranscriptLabeler(registry)(None, path) is None

    def test_enrolment_with_transcript_gets_label(self, corpus, tmp_path, registry):
        index = RetrievalIndex.for_config(DIGEST, FCFG)
        pipeline = Pipeline(
            index, registry, SCFG, FCFG, labeler=TranscriptLabeler(registry)
        )
        path = tmp_path / "t.txt"
        path.write_text("lang=en\nyou have reached the voicemail\n", encoding="utf-8")
        outcome = pipeline.enroll_file(corpus[0], transcript_path=path)
        assert outcome.label_id == 1
        assert pipeline.registry.lookup(outcome.file_id) == 1


class TestPolicy:
    def test_decision_points_follow_requery_schedule(self, pipeline):
        assert pipeline._decision_points(6.0) == [6.0, 8.0, 10.0, 12.0]

    def test_validation(self, corpus):
        index = RetrievalIndex.for_config(DIGEST, FCFG)
        registry = LabelRegistry()
        from speechprint.errors import SpeechprintError

        with pytest.raises(SpeechprintError):
            Pipeline(index, registry, SCFG, FCFG, decision_after_s=0.0)
        with pytest.raises(SpeechprintError):
            Pipeline(index, registry, SCFG, FCFG, max_wait_s=2.0)

    def test_index_of_another_config_rejected(self):
        linear = SpectralConfig.for_variant("linear-vocal")
        index = RetrievalIndex.for_config(
            config_digest(linear, FCFG, CANONICAL_RATE), FCFG
        )
        with pytest.raises(IncompatibleIndex):
            Pipeline(index, LabelRegistry(), SCFG, FCFG)

    def test_pending_labeler_always_abstains(self):
        assert PendingLabeler()(None, None) is None

    def test_outcome_defaults(self):
        outcome = IdentifyOutcome(STATUS_ERROR, message="x")
        assert outcome.file_id is None
        assert outcome.confidence == 0.0
