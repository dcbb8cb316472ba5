"""End-to-end identify/enroll pipeline over streaming WAV bytes.

The intended deployment listens to early media: audio arrives in small
chunks, and after a few seconds we either recognise an already-enrolled
announcement (and can act on its label immediately) or keep listening,
eventually enrolling the whole recording as a new file. Decisions happen
at 6 s of audio and are retried every 2 s up to 12 s
(:data:`DECISION_POINTS_S`), after which the stream is just collected
for enrolment. :class:`Session` is that state machine; the CLI and the
TCP server both run it.
"""

import dataclasses
import threading
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .audio import (
    CANONICAL_RATE,
    AudioBuffer,
    Resampler,
    WavStreamDecoder,
    resample,
    resampled_length,
)
from .errors import IncompatibleIndex, SpeechprintError
from .fingerprint import (
    VERSION_NOTE,
    FingerprintConfig,
    Fingerprint,
    StreamingFingerprinter,
    config_digest,
    fingerprint_audio,
    min_audio_seconds,
)
from .index import RetrievalIndex
from .registry import LabelRegistry
from .spectral import SpectralConfig

#: Seconds of decoded audio at which a stream is queried; after the last
#: it is only fingerprinted for enrolment, a decision step at a time
DECISION_POINTS_S = (6.0, 8.0, 10.0, 12.0)
_DECISION_STEP_S = DECISION_POINTS_S[-1] - DECISION_POINTS_S[-2]
#: Seconds of audio a session accepts before it fails. A SIP proxy gives up
#: on an unanswered INVITE after three minutes (RFC 3261 timer C), so no
#: early-media phase runs longer. The cap bounds a session's time and its
#: signature rows, not its audio: a session's only copy of its audio, the
#: decoded samples not yet fingerprinted, is at most the 6 s before the
#: first decision point, 2.3 MB of float64 samples at 48 kHz.
MAX_STREAM_S = 180.0

STATUS_IDENTIFIED = "identified"
STATUS_ENROLLED = "enrolled"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class IdentifyOutcome:
    """Terminal state of one stream: identified, enrolled or error.

    audio_consumed_s is how much audio had been decoded when the decision
    fired; for identifications it doubles as the decision latency in
    stream time.
    """

    status: str
    file_id: int | None = None
    label_id: int | None = None
    confidence: float = 0.0
    audio_consumed_s: float = 0.0
    message: str = ""


class Pipeline:
    """Identify-or-enroll orchestration shared by the CLI and the server.

    Each enrolment is labelled by :meth:`LabelRegistry.label_for
    <speechprint.registry.LabelRegistry.label_for>` from its
    :class:`~speechprint.registry.TranscriptDoc` or None; with no
    transcript the file stays pending.
    """

    def __init__(
        self,
        index: RetrievalIndex,
        registry: LabelRegistry,
        spectral_config: SpectralConfig,
        fingerprint_config: FingerprintConfig,
    ) -> None:
        digest = config_digest(spectral_config, fingerprint_config, CANONICAL_RATE)
        if digest != index.config_digest:
            raise IncompatibleIndex(
                f"pipeline config digest 0x{digest:016x} != "
                f"index digest 0x{index.config_digest:016x}{VERSION_NOTE}"
            )
        self.index = index
        self.registry = registry
        self.spectral_config = spectral_config
        self.fingerprint_config = fingerprint_config
        # reentrant: Session.finish holds it from its last query through
        # enroll_file, which takes it again to hand out the file id
        self._lock = threading.RLock()
        self._next_id = 1

    def allocate_file_id(self) -> int:
        """The next file id: above every id handed out so far and every id
        in the index, including those enrolled into it directly."""
        with self._lock:
            file_id = max(self._next_id, max(self.index.file_ids, default=0) + 1)
            self._next_id = file_id + 1
            return file_id

    def fingerprint(self, audio: AudioBuffer) -> Fingerprint:
        if audio.sample_rate != CANONICAL_RATE:
            audio = resample(audio, CANONICAL_RATE)
        return fingerprint_audio(audio, self.spectral_config, self.fingerprint_config)

    def enroll_file(self, fingerprint: Fingerprint, transcript=None) -> IdentifyOutcome:
        """Enrolls a fingerprint's rows as a new file, then labels it.

        The rows go in under the next file id, whatever file id
        ``fingerprint`` carries. The registry's
        :meth:`~speechprint.registry.LabelRegistry.label_for` then labels
        it from ``transcript``; when it abstains the file is marked
        pending. The outcome's ``audio_consumed_s`` is 0: an enrolment
        sees no audio, and a :class:`Session` sets it to the stream's
        length.
        """
        file_id = self.allocate_file_id()
        self.index.enroll(dataclasses.replace(fingerprint, file_id=file_id))
        label_id = self.registry.label_for(transcript)
        if label_id is None:
            self.registry.mark_pending(file_id)
        else:
            self.registry.assign(file_id, label_id)
        return IdentifyOutcome(STATUS_ENROLLED, file_id=file_id, label_id=label_id)

    def identify_stream(
        self, chunks: Iterable[bytes], transcript=None
    ) -> IdentifyOutcome:
        """Consumes a chunked WAV byte stream until a terminal outcome.

        Runs one :class:`Session` against the index directly. A confident
        early match returns at once (the rest of the stream is not
        consumed); any library error becomes an error outcome. An
        enrolment is labelled from ``transcript``.
        """
        session = Session(self, self.index.query, transcript)
        try:
            for chunk in chunks:
                outcome = session.feed(bytes(chunk))
                if outcome is not None:
                    return outcome
            return session.finish()
        except SpeechprintError as exc:
            return IdentifyOutcome(STATUS_ERROR, message=str(exc))


class Session:
    """One stream's identify-or-enroll state machine.

    Feed it the stream's WAV bytes as they arrive. Queries fire as the
    decoded audio reaches each of :data:`DECISION_POINTS_S`; the first
    confident match is the outcome. Otherwise :meth:`finish` queries the
    whole stream and enrolls it as a new file on a miss.

    ``query`` is the lookup, called with a :class:`Fingerprint` of the
    stream so far: ``pipeline.index.query``, or a server's batcher.
    :meth:`feed` only decodes and collects samples until a decision point
    is due. Every stream takes one path: at each decision point, every
    decision step past the last one (with no query), and at
    :meth:`finish`, the samples collected since the last feed go in one
    array through the stream's :class:`~speechprint.audio.Resampler`
    (none at the canonical rate) into one streamer. Its signature rows
    serve every query and the enrolment; the decoded samples not yet fed
    are the session's only copy of its audio. Neither stage's output
    depends on how its input is chunked, so a stream gets the bits of its
    whole file at one call per decision.
    The price: a real-time stream does its first decision's work at once
    (about 1.2 ms of fingerprinting for 6 s of mel-vocal at the library
    geometry on a 2-CPU box), and a decision misses what the last few
    samples complete, which waits for more input: the resampler's outputs
    at another rate, and for the vocal variants a frame until 13
    canonical samples past its end have arrived, the reach of the
    spectral front end's decimation filter. Six seconds still hold four
    library blocks, and :func:`~speechprint.fingerprint.min_audio_seconds`
    counts the reach.
    :meth:`finish` queries again only if the answer could have changed:
    the fingerprint has rows the last query lacked, or a file was
    enrolled since (files are only ever added). That query and the
    enrolment hold one pipeline lock, so concurrent streams of one new
    recording enrol it once; decision-point queries take no lock. An
    enrolment is labelled from ``transcript``.

    A stream longer than :data:`MAX_STREAM_S` seconds of audio fails.

    Library errors (undecodable bytes, a failed enrolment) raise. Once an
    outcome is returned the session is over.
    """

    def __init__(self, pipeline: Pipeline, query, transcript=None) -> None:
        self.pipeline = pipeline
        self._query = query
        self._transcript = transcript
        self._decoder = WavStreamDecoder()
        self._decisions = list(DECISION_POINTS_S)
        self._collected: list[np.ndarray] = []  # decoded, not yet fingerprinted
        self._consumed = 0
        self._fed = 0  # of the samples consumed, those fed to the streamer
        # both set at the first decision point
        self._resampler: Resampler | None = None
        self._streamer: StreamingFingerprinter | None = None
        self._signatures: list[np.ndarray] = []
        self._asked: tuple[int, int] | None = None  # (rows, files) at the last query

    def feed(self, chunk: bytes) -> IdentifyOutcome | None:
        """Consumes the next bytes; an outcome when a decision point hits."""
        samples = self._decoder.feed(chunk)
        if not samples.size:
            return None
        rate = self._decoder.sample_rate
        if self._consumed + samples.size > MAX_STREAM_S * rate:
            raise SpeechprintError(
                f"stream exceeds the {MAX_STREAM_S:g} s cap on a session's audio"
            )
        self._collected.append(samples)
        self._consumed += samples.size
        if not self._decisions:
            if self._consumed - self._fed >= _DECISION_STEP_S * rate:
                self._feed()
            return None
        consumed_s = self._consumed / rate
        due = [t for t in self._decisions if t <= consumed_s + 1e-9]
        if not due:
            return None
        del self._decisions[: len(due)]
        return self._identify(self._fingerprint(), consumed_s)

    def finish(self) -> IdentifyOutcome:
        """Ends the stream: a last query over all of it, else enrolment."""
        if not self._consumed:
            return IdentifyOutcome(STATUS_ERROR, message="stream carried no audio")
        pipeline = self.pipeline
        n_out = resampled_length(
            self._consumed, self._decoder.sample_rate, CANONICAL_RATE
        )
        duration_s = n_out / CANONICAL_RATE
        minimum = min_audio_seconds(
            pipeline.spectral_config, pipeline.fingerprint_config, CANONICAL_RATE
        )
        if duration_s < minimum - 1e-9:
            return IdentifyOutcome(
                STATUS_ERROR,
                message=(
                    f"{duration_s:.3f}s of audio is below the "
                    f"{minimum:.3f}s fingerprinting minimum"
                ),
                audio_consumed_s=duration_s,
            )
        fp = self._fingerprint(n_out)
        with pipeline._lock:
            if self._asked != (len(fp.signatures), len(pipeline.index)):
                outcome = self._identify(fp, duration_s)
                if outcome is not None:
                    return outcome
            outcome = pipeline.enroll_file(fp, self._transcript)
        return dataclasses.replace(outcome, audio_consumed_s=duration_s)

    def _fingerprint(self, n_out: int | None = None) -> Fingerprint:
        """The stream's signature rows so far, blocks 0 onwards, after
        :meth:`_feed`."""
        self._feed(n_out)
        signatures = np.concatenate(self._signatures)
        return Fingerprint(0, signatures, self.pipeline.index.config_digest)

    def _feed(self, n_out: int | None = None) -> None:
        """Feeds every sample collected since the last call, in one array,
        through the resampler into the streamer. ``n_out``, at the end, is
        the stream's length at the canonical rate, and the resampler's
        rest goes too."""
        pipeline = self.pipeline
        if self._streamer is None:
            rate = self._decoder.sample_rate
            if rate != CANONICAL_RATE:
                self._resampler = Resampler(CANONICAL_RATE, rate, "resample")
            self._streamer = StreamingFingerprinter(
                CANONICAL_RATE, pipeline.spectral_config, pipeline.fingerprint_config
            )
        fresh = np.concatenate(self._collected) if self._collected else np.empty(0)
        self._collected = []
        self._fed = self._consumed
        if self._resampler is not None:
            if n_out is None:
                fresh = self._resampler.feed(fresh)
            else:
                fresh = self._resampler.finish(n_out, fresh)
        self._signatures.append(self._streamer.feed(fresh))

    def _identify(self, fp: Fingerprint, consumed_s: float) -> IdentifyOutcome | None:
        if not len(fp.signatures):
            return None
        self._asked = (len(fp.signatures), len(self.pipeline.index))
        result = self._query(fp)
        if result is None:
            return None
        return IdentifyOutcome(
            STATUS_IDENTIFIED,
            file_id=result.file_id,
            label_id=self.pipeline.registry.lookup(result.file_id),
            confidence=result.confidence,
            audio_consumed_s=consumed_s,
        )


def stream_wav_bytes(data: bytes, chunk_size: int = 4096) -> Iterable[bytes]:
    """Splits WAV bytes into chunks, for driving identify_stream."""
    return (data[i : i + chunk_size] for i in range(0, len(data), chunk_size))
