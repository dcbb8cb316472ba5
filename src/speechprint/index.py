"""Banded min-hash retrieval index.

Each sub-fingerprint's signature is split into ``band_count`` bands of
``band_width`` values; every band is digested to 64 bits and used as an
exact hash key. Two signatures with Jaccard similarity J collide on one
band with probability J**band_width, which turns "similar enough" into
"shares at least min_band_votes band keys" without any nearest-neighbour
scan.

Queries then aggregate per file: a query sub that collects enough band
matches against some enrolled block is a vote for that file, and the file
whose votes cover the largest fraction of the query's subs wins, subject
to a confidence floor. Absence of a confident match is a normal outcome
(``query`` returns None), not an error.
"""

import hashlib
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorruptIndex, DuplicateId, IncompatibleIndex, IoError
from .fileio import write_atomic
from .fingerprint import Fingerprint, SubFingerprint
from .hashing import fnv1a64, fnv1a64_rows

INDEX_MAGIC = b"SPIX"
INDEX_VERSION = 2
# after the magic: version, config digest, band_count, band_width,
# min_band_votes, min_confidence, file count
_HEADER_FMT = "<HQHHHdI"
_HEADER_LEN = 4 + struct.calcsize(_HEADER_FMT)
_U64_MAX = np.uint64(2**64 - 1)

DEFAULT_MIN_BAND_VOTES = 2
DEFAULT_MIN_CONFIDENCE = 0.1
DEFAULT_DUPLICATE_THRESHOLD = 0.8


@dataclass(frozen=True)
class MatchResult:
    """One retrieval decision.

    score is the total number of matching bands accumulated by the
    winning file's qualifying postings; confidence is the fraction of
    query subs that matched at least one of its blocks.
    """

    file_id: int
    score: int
    matched_subs: int
    confidence: float


@dataclass(frozen=True)
class IndexStats:
    n_files: int
    n_subs: int
    n_postings: int
    n_buckets: int


class RetrievalIndex:
    """In-memory LSH index over banded sub-fingerprint digests.

    Each band is one sorted array of band keys with an aligned array of
    postings, so a query finds a bucket with two binary searches and
    loading rebuilds every band with one stable sort. Thread safety:
    enrolment, queries and persistence hold one lock. The index stores
    band digests only (signatures are not needed once banded), which
    keeps persistence compact.
    """

    def __init__(
        self,
        config_digest: int,
        band_count: int = 20,
        band_width: int = 5,
        min_band_votes: int = DEFAULT_MIN_BAND_VOTES,
        min_confidence: float = DEFAULT_MIN_CONFIDENCE,
    ) -> None:
        if band_count < 1 or band_width < 1:
            raise ConfigError("band_count and band_width must be >= 1")
        if min_band_votes < 1:
            raise ConfigError(f"min_band_votes must be >= 1, got {min_band_votes}")
        if not 0.0 < min_confidence <= 1.0:
            raise ConfigError(
                f"min_confidence must be in (0, 1], got {min_confidence}"
            )
        self.config_digest = config_digest
        self.band_count = band_count
        self.band_width = band_width
        self.min_band_votes = min_band_votes
        self.min_confidence = min_confidence
        # row j: every enrolled sub's band-j key in ascending order, equal
        # keys in enrolment order, and aligned with it that sub's posting,
        # an int64 packed as ordinal << 32 | block index, where a file's
        # ordinal is its position in _ids
        self._keys = np.empty((band_count, 0), dtype=np.uint64)
        self._postings = np.empty((band_count, 0), dtype=np.int64)
        # file_id -> (band digest matrix [n_subs, band_count], block indices)
        self._files: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._ids: list[int] = []
        self._ordinals: dict[int, int] = {}
        self._lock = threading.RLock()

    @classmethod
    def for_config(
        cls,
        config_digest: int,
        fingerprint_config,
        min_band_votes: int = DEFAULT_MIN_BAND_VOTES,
        min_confidence: float = DEFAULT_MIN_CONFIDENCE,
    ) -> "RetrievalIndex":
        return cls(
            config_digest,
            band_count=fingerprint_config.band_count,
            band_width=fingerprint_config.band_width,
            min_band_votes=min_band_votes,
            min_confidence=min_confidence,
        )

    def _band_digests(self, signatures: np.ndarray) -> np.ndarray:
        """[n_subs, p] uint8 signatures -> [n_subs, band_count] uint64 keys.

        Band j's digest only ever meets table j, so bands never alias
        each other even when their byte runs coincide.
        """
        n_subs = signatures.shape[0]
        if signatures.shape[1] != self.band_count * self.band_width:
            raise IncompatibleIndex(
                f"signature width {signatures.shape[1]} != "
                f"{self.band_count} bands x {self.band_width}"
            )
        rows = signatures.reshape(n_subs * self.band_count, self.band_width)
        return fnv1a64_rows(rows).reshape(n_subs, self.band_count)

    def _check_digest(self, fp: Fingerprint) -> None:
        if fp.config_digest != self.config_digest:
            raise IncompatibleIndex(
                f"fingerprint config digest 0x{fp.config_digest:016x} != "
                f"index digest 0x{self.config_digest:016x}"
            )

    def enroll(self, fp: Fingerprint) -> None:
        """Adds a file's sub-fingerprints. file_id must be new.

        Raises:
            DuplicateId: the id is already enrolled.
            IncompatibleIndex: fingerprint built under another config.
        """
        self._check_digest(fp)
        if not fp.subs:
            raise ConfigError(f"fingerprint for file {fp.file_id} has no subs")
        digests = self._band_digests(fp.signature_matrix)
        blocks = np.array([s.block_index for s in fp.subs], dtype=np.int64)
        if blocks.min() < 0 or blocks.max() >= 1 << 32:
            raise ConfigError(f"file {fp.file_id} has block indices outside u32")
        with self._lock:
            if fp.file_id in self._files:
                raise DuplicateId(f"file id {fp.file_id} already enrolled")
            self._merge(fp.file_id, digests, blocks)

    def _merge(self, file_id: int, digests: np.ndarray, blocks: np.ndarray) -> None:
        """Merges one new file's keys into every band; lock held.

        Its keys go after equal keys already enrolled, in block order, so
        the bands equal what :meth:`_build` makes of all files at once.
        """
        ordinal = len(self._ids)
        self._ids.append(file_id)
        self._ordinals[file_id] = ordinal
        self._files[file_id] = (digests, blocks)
        n_new = blocks.size
        width = self._keys.shape[1] + n_new
        order = np.argsort(digests, axis=0, kind="stable")
        new_keys = np.take_along_axis(digests, order, axis=0).T
        new_postings = (ordinal << 32 | blocks)[order].T
        # merged position of each new key: after the equal keys already
        # enrolled and the new keys before it, in the flattened bands
        dest = np.array(
            [k.searchsorted(new, side="right") for k, new in zip(self._keys, new_keys)]
        )
        dest += np.arange(n_new) + width * np.arange(self.band_count)[:, None]
        is_new = np.zeros(self.band_count * width, dtype=bool)
        is_new[dest.ravel()] = True
        keys = np.empty(self.band_count * width, dtype=np.uint64)
        keys[is_new] = new_keys.ravel()
        keys[~is_new] = self._keys.ravel()
        postings = np.empty(self.band_count * width, dtype=np.int64)
        postings[is_new] = new_postings.ravel()
        postings[~is_new] = self._postings.ravel()
        self._keys = keys.reshape(self.band_count, width)
        self._postings = postings.reshape(self.band_count, width)

    def _build(
        self, ids: list[int], counts: np.ndarray, blocks: np.ndarray, digests: np.ndarray
    ) -> None:
        """Fills an empty index from whole-index columns in one pass.

        File k has id ``ids[k]`` and the next ``counts[k]`` rows of
        ``blocks`` and ``digests``; its ordinal is k.
        """
        ends = np.cumsum(counts).tolist()
        starts = [0] + ends[:-1]
        self._ids = list(ids)
        self._ordinals = {file_id: k for k, file_id in enumerate(ids)}
        self._files = {
            file_id: (digests[a:b], blocks[a:b])
            for file_id, a, b in zip(ids, starts, ends)
        }
        ordinals = np.repeat(np.arange(len(ids), dtype=np.int64), counts)
        by_band = np.ascontiguousarray(digests.T)
        order = np.argsort(by_band, axis=1, kind="stable")
        self._keys = np.take_along_axis(by_band, order, axis=1)
        self._postings = (ordinals << 32 | blocks)[order]

    def __contains__(self, file_id: int) -> bool:
        with self._lock:
            return file_id in self._files

    def __len__(self) -> int:
        with self._lock:
            return len(self._files)

    @property
    def file_ids(self) -> list[int]:
        with self._lock:
            return sorted(self._files)

    def _tally(
        self, digest_rows: np.ndarray, min_band_votes: int, skip_file: int | None = None
    ) -> dict[int, tuple[int, int]]:
        """Votes for one query: file_id -> (matched sub count, band votes).

        A (query sub, posting) pair qualifies when they share at least
        min_band_votes band keys; a file's matched count is the number of
        query subs with a qualifying posting of it, its band votes the
        shared keys summed over its qualifying pairs.
        """
        n_subs = digest_rows.shape[0]
        width = self._keys.shape[1]
        # a bucket of key k runs from the band's first key >= k to its
        # first key >= k + 1, so one search per band finds both ends
        probes = np.empty((self.band_count, 2 * n_subs), dtype=np.uint64)
        probes[:, :n_subs] = digest_rows.T
        probes[:, n_subs:] = probes[:, :n_subs] + np.uint64(1)
        bounds = np.array([k.searchsorted(p) for k, p in zip(self._keys, probes)])
        # k + 1 wraps to 0 for the largest u64, whose bucket ends the band
        bounds[:, n_subs:][probes[:, :n_subs] == _U64_MAX] = width
        bounds += width * np.arange(self.band_count)[:, None]
        # band-major: bucket i belongs to sub i % n_subs and spans
        # postings [starts[i], ends[i]) of the flattened bands
        starts, ends = bounds[:, :n_subs], bounds[:, n_subs:]
        sizes = (ends - starts).ravel()
        total = int(sizes.sum())
        if not total:
            return {}
        # one range expansion over every bucket
        skip = np.repeat(starts.ravel() - (np.cumsum(sizes) - sizes), sizes)
        postings = self._postings.ravel()[np.arange(total) + skip]
        subs = np.repeat(np.arange(sizes.size) % n_subs, sizes)
        # one hit count per (sub, posting) pair, pairs sorted by sub then posting
        distinct, code = np.unique(postings, return_inverse=True)
        pairs, hits = np.unique(subs * distinct.size + code, return_counts=True)
        qualifies = hits >= min_band_votes
        pairs, hits = pairs[qualifies], hits[qualifies]
        ordinals = distinct[pairs % distinct.size] >> 32
        if skip_file is not None:
            kept = ordinals != self._ordinals.get(skip_file, -1)
            pairs, hits, ordinals = pairs[kept], hits[kept], ordinals[kept]
        if not pairs.size:
            return {}
        # within one sub the ordinals ascend, so a new (sub, file) starts
        # wherever either changes
        sub_of = pairs // distinct.size
        first = np.ones(pairs.size, dtype=bool)
        first[1:] = (sub_of[1:] != sub_of[:-1]) | (ordinals[1:] != ordinals[:-1])
        matched = np.bincount(ordinals[first])
        votes = np.bincount(ordinals, weights=hits)
        return {
            self._ids[o]: (int(matched[o]), int(votes[o]))
            for o in np.flatnonzero(matched).tolist()
        }

    def query(
        self,
        subs: list[SubFingerprint] | Fingerprint,
        min_band_votes: int | None = None,
        min_confidence: float | None = None,
    ) -> MatchResult | None:
        """Most likely enrolled file for a query fingerprint, or None.

        Ranking: most matched query subs, then most total band votes,
        then lowest file id. The winner is reported only when its
        confidence (matched subs / query subs) reaches the floor.

        Raises:
            IncompatibleIndex: a Fingerprint built under another config.
        """
        if isinstance(subs, Fingerprint):
            self._check_digest(subs)
            subs = list(subs.subs)
        if not subs:
            return None
        v = self.min_band_votes if min_band_votes is None else min_band_votes
        c = self.min_confidence if min_confidence is None else min_confidence
        if v < 1:
            raise ConfigError(f"min_band_votes must be >= 1, got {v}")
        if not 0.0 < c <= 1.0:
            raise ConfigError(f"min_confidence must be in (0, 1], got {c}")
        digest_rows = self._band_digests(np.stack([s.signature for s in subs]))
        with self._lock:
            tally = self._tally(digest_rows, v)
        if not tally:
            return None
        best = min(tally, key=lambda f: (-tally[f][0], -tally[f][1], f))
        matched, band_votes = tally[best]
        confidence = matched / len(subs)
        if confidence < c:
            return None
        return MatchResult(best, band_votes, matched, confidence)

    def query_batch(
        self,
        queries: list[list[SubFingerprint] | Fingerprint],
        min_band_votes: int | None = None,
        min_confidence: float | None = None,
    ) -> list[MatchResult | None]:
        """Answers many queries in one call.

        Results are exactly what per-query :meth:`query` calls would
        return, in input order; batching only saves locking.
        """
        with self._lock:
            return [self.query(q, min_band_votes, min_confidence) for q in queries]

    def find_duplicates(
        self,
        threshold: float = DEFAULT_DUPLICATE_THRESHOLD,
        min_band_votes: int | None = None,
    ) -> list[tuple[int, int, float]]:
        """Pairs of enrolled files whose fingerprints overlap heavily.

        Overlap of (a, b) is the fraction of a's subs that collect at
        least min_band_votes band matches against some block of b; the
        pair is reported when either direction exceeds ``threshold``.

        Returns (file_a, file_b, overlap) tuples, file_a < file_b,
        sorted by descending overlap then ids.
        """
        if not 0.0 < threshold <= 1.0:
            raise ConfigError(f"threshold must be in (0, 1], got {threshold}")
        v = self.min_band_votes if min_band_votes is None else min_band_votes
        overlap: dict[tuple[int, int], float] = {}
        with self._lock:
            for file_id, (digests, _blocks) in self._files.items():
                tally = self._tally(digests, v, skip_file=file_id)
                for other, (count, _votes) in tally.items():
                    frac = count / digests.shape[0]
                    pair = (min(file_id, other), max(file_id, other))
                    if frac > overlap.get(pair, -1.0):
                        overlap[pair] = frac
        pairs = [
            (a, b, frac) for (a, b), frac in overlap.items() if frac > threshold
        ]
        pairs.sort(key=lambda item: (-item[2], item[0], item[1]))
        return pairs

    def stats(self) -> IndexStats:
        with self._lock:
            n_subs = sum(d.shape[0] for d, _ in self._files.values())
            keys = self._keys
            # a bucket starts at each band's first key and at every key change
            n_buckets = int(np.count_nonzero(keys[:, 1:] != keys[:, :-1]))
            if keys.size:
                n_buckets += self.band_count
            return IndexStats(len(self._files), n_subs, keys.size, n_buckets)

    def save(self, path: str | Path) -> None:
        """Writes the index to ``path`` atomically (see :func:`write_atomic`).

        Layout (little endian, version 2): "SPIX", u16 version, u64
        config digest, u16 band_count, u16 band_width, u16
        min_band_votes, f64 min_confidence, u32 file count n; then, over
        the files in ascending id order, the ids (u64[n]), their sub
        counts (u32[n]), all block indices (u32[N], N the total sub
        count) and all band digests (u64[N, band_count], row-major);
        finally the 8-byte blake2b digest of all preceding bytes.
        """
        with self._lock:
            ids = sorted(self._files)
            files = [self._files[file_id] for file_id in ids]
            parts = [
                INDEX_MAGIC,
                struct.pack(
                    _HEADER_FMT,
                    INDEX_VERSION,
                    self.config_digest,
                    self.band_count,
                    self.band_width,
                    self.min_band_votes,
                    self.min_confidence,
                    len(ids),
                ),
                np.array(ids, dtype="<u8").tobytes(),
                np.array([d.shape[0] for d, _ in files], dtype="<u4").tobytes(),
            ]
            parts += [blocks.astype("<u4").tobytes() for _, blocks in files]
            parts += [digests.astype("<u8").tobytes() for digests, _ in files]
        blob = b"".join(parts)
        write_atomic(path, blob + _blake2b(blob), "index")

    @classmethod
    def load(
        cls, path: str | Path, expected_config_digest: int | None = None
    ) -> "RetrievalIndex":
        """Reads an index written by :meth:`save`, version 1 or 2.

        Raises:
            CorruptIndex: bad magic, truncation, checksum mismatch, or
                counts that disagree with the payload.
            IncompatibleIndex: unknown version, or the stored config
                digest differs from ``expected_config_digest``.
        """
        try:
            blob = Path(path).read_bytes()
        except OSError as exc:
            raise IoError(f"cannot read index from {path}: {exc}") from exc
        if len(blob) < _HEADER_LEN + 8 or blob[:4] != INDEX_MAGIC:
            raise CorruptIndex("not an index file")
        version, digest, bands, width, votes, confidence, n_files = struct.unpack(
            _HEADER_FMT, blob[4:_HEADER_LEN]
        )
        if version == 1:
            checksum_ok = fnv1a64(blob[:-8]) == struct.unpack("<Q", blob[-8:])[0]
        elif version == 2:
            checksum_ok = _blake2b(blob[:-8]) == blob[-8:]
        else:
            raise IncompatibleIndex(f"unsupported index version {version}")
        if not checksum_ok:
            raise CorruptIndex("index checksum mismatch")
        if expected_config_digest is not None and digest != expected_config_digest:
            raise IncompatibleIndex(
                f"index built for config 0x{digest:016x}, expected "
                f"0x{expected_config_digest:016x}"
            )
        index = cls(
            digest,
            band_count=bands,
            band_width=width,
            min_band_votes=votes,
            min_confidence=confidence,
        )
        read = _read_v1 if version == 1 else _read_v2
        ids, counts, blocks, digests = read(blob, n_files, bands)
        seen: set[int] = set()
        for file_id in ids:
            if file_id in seen:
                raise CorruptIndex(f"file id {file_id} stored twice")
            seen.add(file_id)
        index._build(ids, counts, blocks, digests)
        return index


def _blake2b(data: bytes) -> bytes:
    """The version 2 checksum: an 8-byte blake2b digest."""
    return hashlib.blake2b(data, digest_size=8).digest()


def _read_v2(blob: bytes, n_files: int, bands: int):
    """Whole-index columns of a version 2 payload (checksum verified).

    The file table and the sub counts are checked against the payload
    length before anything sized by them is allocated.
    """
    pos = _HEADER_LEN
    body_end = len(blob) - 8
    if pos + 12 * n_files > body_end:
        raise CorruptIndex("index truncated inside file table")
    ids = np.frombuffer(blob, dtype="<u8", count=n_files, offset=pos).tolist()
    pos += 8 * n_files
    counts = np.frombuffer(blob, dtype="<u4", count=n_files, offset=pos)
    pos += 4 * n_files
    n_subs = int(counts.sum(dtype=np.int64))
    if pos + n_subs * (4 + 8 * bands) != body_end:
        raise CorruptIndex(
            f"index payload of {body_end - pos} bytes does not hold "
            f"{n_subs} subs of {bands} bands"
        )
    blocks = np.frombuffer(blob, dtype="<u4", count=n_subs, offset=pos)
    pos += 4 * n_subs
    digests = np.frombuffer(blob, dtype="<u8", count=n_subs * bands, offset=pos)
    return (
        ids,
        counts.astype(np.int64),
        blocks.astype(np.int64),
        digests.astype(np.uint64, copy=False).reshape(n_subs, bands),
    )


def _read_v1(blob: bytes, n_files: int, bands: int):
    """Whole-index columns of a version 1 payload (checksum verified).

    Version 1 stores one record per file: u64 id, u32 sub count, the
    block indices (u32 each) and the digest matrix (u64, row-major).
    """
    ids, counts, blocks, digests = [], [], [], []
    pos = _HEADER_LEN
    body_end = len(blob) - 8
    for _ in range(n_files):
        if pos + 12 > body_end:
            raise CorruptIndex("index truncated inside file table")
        file_id, n_subs = struct.unpack("<QI", blob[pos : pos + 12])
        pos += 12
        blocks_len = 4 * n_subs
        digests_len = 8 * n_subs * bands
        if pos + blocks_len + digests_len > body_end:
            raise CorruptIndex("index truncated inside digest data")
        blocks.append(blob[pos : pos + blocks_len])
        pos += blocks_len
        digests.append(blob[pos : pos + digests_len])
        pos += digests_len
        ids.append(file_id)
        counts.append(n_subs)
    if pos != body_end:
        raise CorruptIndex("trailing bytes after index payload")
    return (
        ids,
        np.array(counts, dtype=np.int64),
        np.frombuffer(b"".join(blocks), dtype="<u4").astype(np.int64),
        np.frombuffer(b"".join(digests), dtype="<u8")
        .astype(np.uint64)
        .reshape(-1, bands),
    )
