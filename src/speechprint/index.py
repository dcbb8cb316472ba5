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

import struct
import threading
from array import array
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorruptIndex, DuplicateId, IncompatibleIndex, IoError
from .fingerprint import Fingerprint, SubFingerprint
from .hashing import fnv1a64, fnv1a64_rows

INDEX_MAGIC = b"SPIX"
INDEX_VERSION = 1

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

    Thread safety: enrolment takes an exclusive lock; queries are
    read-only over the table dicts and may run concurrently with each
    other. The index stores band digests only (signatures are not needed
    once banded), which keeps persistence compact.
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
        # band key -> postings, each an int64 packed as ordinal << 32 | block
        # index, where a file's ordinal is its position in _ids
        self._tables: list[dict[int, array]] = [{} for _ in range(band_count)]
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
            self._insert(fp.file_id, digests, blocks)

    def _insert(self, file_id: int, digests: np.ndarray, blocks: np.ndarray) -> None:
        """Files one new file's digests under its postings; lock held."""
        ordinal = len(self._ids)
        self._ids.append(file_id)
        self._ordinals[file_id] = ordinal
        self._files[file_id] = (digests, blocks)
        postings = [ordinal << 32 | block_index for block_index in blocks.tolist()]
        for table, keys in zip(self._tables, digests.T.tolist()):
            for key, posting in zip(keys, postings):
                bucket = table.get(key)
                if bucket is None:
                    table[key] = array("q", (posting,))
                else:
                    bucket.append(posting)

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
        # band-major: bucket i belongs to sub i % n_subs; b"" is no bucket
        buckets: list = []
        for table, keys in zip(self._tables, digest_rows.T.tolist()):
            buckets += map(table.get, keys, repeat(b"", n_subs))
        sizes = np.fromiter(map(len, buckets), np.int64, len(buckets))
        if not sizes.any():
            return {}
        postings = np.frombuffer(b"".join(buckets), dtype=np.int64)
        subs = np.repeat(np.arange(len(buckets)) % n_subs, sizes)
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
            n_buckets = sum(len(t) for t in self._tables)
            n_postings = sum(
                len(postings) for t in self._tables for postings in t.values()
            )
            return IndexStats(len(self._files), n_subs, n_postings, n_buckets)

    def save(self, path: str | Path) -> None:
        """Writes the index to ``path`` (atomic enough for our uses).

        Layout (little endian): "SPIX", u16 version, u64 config digest,
        u16 band_count, u16 band_width, u16 min_band_votes, f64
        min_confidence, u32 file count; per file u64 id, u32 sub count,
        the block indices (u32 each) and the digest matrix (u64,
        row-major); finally a u64 FNV-1a checksum of all preceding bytes.
        """
        with self._lock:
            parts = [
                INDEX_MAGIC,
                struct.pack(
                    "<HQHHHdI",
                    INDEX_VERSION,
                    self.config_digest,
                    self.band_count,
                    self.band_width,
                    self.min_band_votes,
                    self.min_confidence,
                    len(self._files),
                ),
            ]
            for file_id in sorted(self._files):
                digests, blocks = self._files[file_id]
                parts.append(struct.pack("<QI", file_id, digests.shape[0]))
                parts.append(blocks.astype("<u4").tobytes())
                parts.append(digests.astype("<u8").tobytes())
        blob = b"".join(parts)
        blob += struct.pack("<Q", fnv1a64(blob))
        try:
            Path(path).write_bytes(blob)
        except OSError as exc:
            raise IoError(f"cannot write index to {path}: {exc}") from exc

    @classmethod
    def load(
        cls, path: str | Path, expected_config_digest: int | None = None
    ) -> "RetrievalIndex":
        """Reads an index written by :meth:`save` and rebuilds its tables.

        Raises:
            CorruptIndex: bad magic, truncation or checksum mismatch.
            IncompatibleIndex: unknown version, or the stored config
                digest differs from ``expected_config_digest``.
        """
        try:
            blob = Path(path).read_bytes()
        except OSError as exc:
            raise IoError(f"cannot read index from {path}: {exc}") from exc
        header_fmt = "<HQHHHdI"
        header_len = 4 + struct.calcsize(header_fmt)
        if len(blob) < header_len + 8 or blob[:4] != INDEX_MAGIC:
            raise CorruptIndex("not an index file")
        (stored_sum,) = struct.unpack("<Q", blob[-8:])
        if fnv1a64(blob[:-8]) != stored_sum:
            raise CorruptIndex("index checksum mismatch")
        version, digest, bands, width, votes, confidence, n_files = struct.unpack(
            header_fmt, blob[4:header_len]
        )
        if version != INDEX_VERSION:
            raise IncompatibleIndex(f"unsupported index version {version}")
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
        pos = header_len
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
            blocks = np.frombuffer(blob[pos : pos + blocks_len], dtype="<u4").astype(
                np.int64
            )
            pos += blocks_len
            digests = (
                np.frombuffer(blob[pos : pos + digests_len], dtype="<u8")
                .reshape(n_subs, bands)
                .astype(np.uint64)
            )
            pos += digests_len
            if file_id in index._files:
                raise CorruptIndex(f"file id {file_id} stored twice")
            index._insert(file_id, digests, blocks)
        if pos != body_end:
            raise CorruptIndex("trailing bytes after index payload")
        return index
