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
from .fingerprint import VERSION_NOTE, Fingerprint
from .hashing import fnv1a64, fnv1a64_rows

INDEX_MAGIC = b"SPIX"
INDEX_VERSION = 2
# after the magic: version, config digest, band_count, band_width,
# min_band_votes, min_confidence, file count
_HEADER_FMT = "<HQHHHdI"
_HEADER_LEN = 4 + struct.calcsize(_HEADER_FMT)
# postings are int32 row numbers
_MAX_ROWS = 2**31 - 1

#: Upper bound on the (row, posting) pairs that one slice of a band join
#: expands and counts at once, about 4 MiB of temporaries: a batch of
#: queries, or a self-join over buckets that many subs share, stays in
#: bounded memory. A slice holds whole rows, so one row with more pairs
#: than this is a slice of its own. Of 2^12 to 2^22, 2^14 to 2^16 ran
#: the fastest self-join of the benchmark's catalog-build index (14
#: files, 7,924 subs, about 240,000 pairs in 4 slices at 2^16); from
#: 2^18 it ran 25-35% slower.
PAIR_ELEMENTS = 1 << 16

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

    Every enrolled sub is one row, numbered in enrolment order, and two
    row columns hold each row's file ordinal and block index. Each band
    is one sorted array of band keys with an aligned array of postings,
    the row numbers of the subs holding each key. A query finds all of
    its buckets with one binary search per band, probing k and k + 1;
    :meth:`find_duplicates` joins the bands with themselves, with no
    search; loading rebuilds every band with one stable sort. The band
    digests live in the bands only, and :meth:`save` scatters them back
    into rows. Thread safety: enrolment, queries and persistence hold
    one lock.
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
        _check_thresholds(min_band_votes, min_confidence)
        self.config_digest = config_digest
        self.band_count = band_count
        self.band_width = band_width
        self.min_band_votes = min_band_votes
        self.min_confidence = min_confidence
        # row j: every enrolled sub's band-j key in ascending order, equal
        # keys in row order, and aligned with it the row number of the sub
        # holding each key
        self._keys = np.empty((band_count, 0), dtype=np.uint64)
        self._postings = np.empty((band_count, 0), dtype=np.int32)
        # per row: its file's ordinal (the file's position in _ids) and its
        # block index; a file's rows are contiguous and in block order
        self._row_file = np.empty(0, dtype=np.int32)
        self._row_block = np.empty(0, dtype=np.uint32)
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
        self._check_width(signatures.shape[1])
        rows = signatures.reshape(n_subs * self.band_count, self.band_width)
        return fnv1a64_rows(rows).reshape(n_subs, self.band_count)

    def _check_width(self, width: int) -> None:
        if width != self.band_count * self.band_width:
            raise IncompatibleIndex(
                f"signature width {width} != {self.band_count} bands x {self.band_width}"
            )

    def _check_digest(self, fp: Fingerprint) -> None:
        if fp.config_digest != self.config_digest:
            raise IncompatibleIndex(
                f"fingerprint config digest 0x{fp.config_digest:016x} != "
                f"index digest 0x{self.config_digest:016x}{VERSION_NOTE}"
            )

    def enroll(self, fp: Fingerprint) -> None:
        """Adds a file's sub-fingerprints. file_id must be new.

        :class:`Fingerprint` has already checked that the id fits the u64
        and the block indices the u32 an index file stores.

        Raises:
            ConfigError: the fingerprint has no subs.
            DuplicateId: the id is already enrolled.
            IncompatibleIndex: fingerprint built under another config.
        """
        self._check_digest(fp)
        if not fp.blocks.size:
            raise ConfigError(f"fingerprint for file {fp.file_id} has no subs")
        digests = self._band_digests(fp.signatures)
        with self._lock:
            if fp.file_id in self._ordinals:
                raise DuplicateId(f"file id {fp.file_id} already enrolled")
            if self._row_file.size + fp.blocks.size > _MAX_ROWS:
                raise ConfigError(f"an index holds at most {_MAX_ROWS} subs")
            self._merge(fp.file_id, digests, fp.blocks)

    def _merge(self, file_id: int, digests: np.ndarray, blocks: np.ndarray) -> None:
        """Appends one new file's rows and merges its keys into every band;
        lock held.

        Its keys go after equal keys already enrolled, in row order, so the
        bands equal what :meth:`_build` makes of all rows at once.
        """
        first_row = self._row_file.size
        ordinal = len(self._ids)
        self._ids.append(file_id)
        self._ordinals[file_id] = ordinal
        n_new = blocks.size
        self._row_file = np.append(self._row_file, np.full(n_new, ordinal, np.int32))
        self._row_block = np.append(self._row_block, blocks.astype(np.uint32))
        width = self._keys.shape[1] + n_new
        order = np.argsort(digests, axis=0, kind="stable")
        new_keys = np.take_along_axis(digests, order, axis=0).T
        new_postings = (first_row + order).T
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
        postings = np.empty(self.band_count * width, dtype=np.int32)
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
        if blocks.size > _MAX_ROWS:
            raise ConfigError(f"an index holds at most {_MAX_ROWS} subs")
        self._ids = list(ids)
        self._ordinals = {file_id: k for k, file_id in enumerate(ids)}
        self._row_file = np.repeat(np.arange(len(ids), dtype=np.int32), counts)
        self._row_block = blocks.astype(np.uint32)
        by_band = np.ascontiguousarray(digests.T)
        order = np.argsort(by_band, axis=1, kind="stable")
        self._keys = np.take_along_axis(by_band, order, axis=1)
        self._postings = order.astype(np.int32)

    def __contains__(self, file_id: int) -> bool:
        with self._lock:
            return file_id in self._ordinals

    def __len__(self) -> int:
        with self._lock:
            return len(self._ids)

    @property
    def file_ids(self) -> list[int]:
        with self._lock:
            return sorted(self._ids)

    @property
    def nbytes(self) -> int:
        """Bytes held by the index's arrays: bands, postings, row columns."""
        with self._lock:
            arrays = (self._keys, self._postings, self._row_file, self._row_block)
            return sum(a.nbytes for a in arrays)

    def _join(self, starts: np.ndarray, sizes: np.ndarray, min_band_votes: int):
        """Band hits of (row, index row) pairs, in slices of whole rows.

        Row r of ``starts`` and ``sizes`` ([n_rows, band_count]) shares
        band j's key with the postings at flat positions ``starts[r, j]``
        onwards, ``sizes[r, j]`` of them, in the flattened bands. Yields
        per slice (rows, index rows, hits) of the pairs that share at
        least min_band_votes keys, sorted by row then index row. A slice
        expands at most PAIR_ELEMENTS pairs, unless one row has more.
        Lock held.
        """
        n_index = self._row_file.size
        flat = self._postings.ravel()
        per_row = sizes.sum(axis=1)
        # pairs before each row
        before = np.zeros(per_row.size + 1, dtype=np.int64)
        np.cumsum(per_row, out=before[1:])
        lo = 0
        while lo < per_row.size:
            hi = int(np.searchsorted(before, before[lo] + PAIR_ELEMENTS, "right")) - 1
            hi = max(hi, lo + 1)
            total = int(before[hi] - before[lo])
            if total:
                seg_sizes = sizes[lo:hi].ravel()
                seg_starts = starts[lo:hi].ravel()
                # one range expansion over the slice's buckets
                skip = np.repeat(seg_starts - (np.cumsum(seg_sizes) - seg_sizes), seg_sizes)
                partners = flat[np.arange(total) + skip]
                row_base = np.repeat(np.arange(lo, hi, dtype=np.int64) * n_index, per_row[lo:hi])
                # one hit count per (row, index row) pair
                pairs, hits = np.unique(row_base + partners, return_counts=True)
                qualifies = hits >= min_band_votes
                pairs, hits = pairs[qualifies], hits[qualifies]
                yield pairs // n_index, pairs % n_index, hits
            lo = hi

    def _probe(self, digest_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each query row's bucket of each band starts, and its size,
        as [n_rows, band_count] flat positions and counts; lock held."""
        n_rows, bands = digest_rows.shape
        width = self._keys.shape[1]
        # a bucket of key k runs from the band's first key >= k to its
        # first key >= k + 1, so one search per band finds both ends
        probes = np.empty((bands, 2 * n_rows), dtype=np.uint64)
        probes[:, :n_rows] = digest_rows.T
        probes[:, n_rows:] = probes[:, :n_rows] + np.uint64(1)
        bounds = np.array([k.searchsorted(p) for k, p in zip(self._keys, probes)])
        # k + 1 wraps to 0 for the largest u64, whose bucket ends the band
        bounds[:, n_rows:][probes[:, n_rows:] == 0] = width
        starts = bounds[:, :n_rows] + width * np.arange(bands)[:, None]
        return starts.T, (bounds[:, n_rows:] - bounds[:, :n_rows]).T

    def _later_partners(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's partners in the self-join, as :meth:`_probe` gives a
        query row's buckets: in each band, the postings of later files in
        its bucket. Lock held.

        Within a bucket the postings ascend by row and so by file, so a
        row's partners are the rest of its bucket after its own file's run.
        """
        bands, n_rows = self._keys.shape
        files = self._row_file[self._postings]
        new_bucket = np.ones((bands, n_rows), dtype=bool)
        new_bucket[:, 1:] = self._keys[:, 1:] != self._keys[:, :-1]
        new_run = new_bucket.copy()
        new_run[:, 1:] |= files[:, 1:] != files[:, :-1]
        # flat position of row r's posting in band j
        where = np.empty((n_rows, bands), dtype=np.int64)
        where[self._postings, np.arange(bands)[:, None]] = np.arange(
            bands * n_rows
        ).reshape(bands, n_rows)
        starts = _run_ends(new_run)[where]
        return starts, _run_ends(new_bucket)[where] - starts

    def _answer(
        self,
        queries: list[Fingerprint],
        min_band_votes: int | None,
        min_confidence: float | None,
    ) -> list[MatchResult | None]:
        """Every query's answer from one probe of the bands and one join."""
        v = self.min_band_votes if min_band_votes is None else min_band_votes
        c = self.min_confidence if min_confidence is None else min_confidence
        _check_thresholds(v, c)
        for q in queries:
            self._check_digest(q)
        results: list[MatchResult | None] = [None] * len(queries)
        asked = [k for k, q in enumerate(queries) if q.blocks.size]
        if not asked:
            return results
        n_subs = [queries[k].blocks.size for k in asked]
        # a query of another geometry raises here, not as a stacking error
        for k in asked:
            self._check_width(queries[k].signatures.shape[1])
        digest_rows = self._band_digests(
            np.concatenate([queries[k].signatures for k in asked])
        )
        query_of_row = np.repeat(np.arange(len(asked)), n_subs)
        with self._lock:
            ids = self._ids
            n_files = len(ids)
            tallies = []
            for rows, index_rows, hits in self._join(*self._probe(digest_rows), v):
                files = self._row_file[index_rows]
                # within a row the index rows, and so the files, ascend: a
                # new (row, file) starts wherever either changes
                first = np.ones(rows.size, dtype=bool)
                first[1:] = (rows[1:] != rows[:-1]) | (files[1:] != files[:-1])
                tallies.append(
                    _sum_by_key(query_of_row[rows] * n_files + files, first, hits)
                )
        if not tallies:
            return results
        if len(tallies) > 1:
            tallies = [_sum_by_key(*map(np.concatenate, zip(*tallies)))]
        keys, matched, votes = tallies[0]
        # per query the best (matched subs, band votes, -file id); every
        # entry has a matched sub, so it beats (0, 0, 0)
        best: dict[int, tuple[int, int, int]] = {}
        for key, n_matched, n_votes in zip(keys.tolist(), matched.tolist(), votes.tolist()):
            q, ordinal = divmod(key, n_files)
            rank = (n_matched, n_votes, -ids[ordinal])
            if rank > best.get(q, (0, 0, 0)):
                best[q] = rank
        for q, (n_matched, n_votes, neg_id) in best.items():
            confidence = n_matched / n_subs[q]
            if confidence >= c:
                results[asked[q]] = MatchResult(-neg_id, n_votes, n_matched, confidence)
        return results

    def query(
        self,
        fp: Fingerprint,
        min_band_votes: int | None = None,
        min_confidence: float | None = None,
    ) -> MatchResult | None:
        """Most likely enrolled file for a query fingerprint, or None.

        A (query sub, enrolled sub) pair qualifies when they share at
        least min_band_votes band keys. A file's matched count is the
        number of query subs with a qualifying pair in it, and its band
        votes are the shared keys summed over those pairs. Ranking: most
        matched query subs, then most band votes, then lowest file id.
        The winner is reported only when its confidence (matched subs /
        query subs) reaches the floor.

        Raises:
            IncompatibleIndex: the fingerprint was built under another config.
        """
        return self._answer([fp], min_band_votes, min_confidence)[0]

    def query_batch(
        self,
        queries: list[Fingerprint],
        min_band_votes: int | None = None,
        min_confidence: float | None = None,
    ) -> list[MatchResult | None]:
        """Answers many queries in one pass.

        Results are exactly what per-query :meth:`query` calls would
        return, in input order (None for an empty query). The whole batch
        shares one search per band and one counting step, so it costs
        less than the same queries one by one.
        """
        return self._answer(queries, min_band_votes, min_confidence)

    def find_duplicates(
        self,
        threshold: float = DEFAULT_DUPLICATE_THRESHOLD,
        min_band_votes: int | None = None,
    ) -> list[tuple[int, int, float]]:
        """Pairs of enrolled files whose fingerprints overlap heavily.

        Overlap of (a, b) is the fraction of a's subs that share at least
        min_band_votes band keys with some sub of b; the pair is reported
        when either direction exceeds ``threshold``.

        The pairs come from one self-join of the bands, with no search.
        Within a bucket the postings ascend by file, so each posting pairs
        only with the later-file postings of its bucket: same-file pairs
        never form, and each pair of subs is met once, its band hits
        counted as a query counts them. Band hits are symmetric, so the
        qualifying pairs give the overlap in both directions.

        Returns (file_a, file_b, overlap) tuples, file_a < file_b,
        sorted by descending overlap then ids.
        """
        if not 0.0 < threshold <= 1.0:
            raise ConfigError(f"threshold must be in (0, 1], got {threshold}")
        v = self.min_band_votes if min_band_votes is None else min_band_votes
        _check_thresholds(v)
        forward, backward = [], []
        with self._lock:
            ids = self._ids
            n_files = len(ids)
            row_file = self._row_file
            for rows, partners, _hits in self._join(*self._later_partners(), v):
                files = row_file[rows].astype(np.int64)
                partner_files = row_file[partners]
                # one entry per distinct (row, partner file): within a row
                # the partners, and so their files, ascend
                first = np.ones(rows.size, dtype=bool)
                first[1:] = (rows[1:] != rows[:-1]) | (
                    partner_files[1:] != partner_files[:-1]
                )
                forward.append(files[first] * n_files + partner_files[first])
                backward.append(np.unique(partners * n_files + files))
        if not forward:
            return []
        # file pair fa * n_files + fb, fa < fb, -> subs of fa matched in fb
        pair_keys, ahead = np.unique(np.concatenate(forward), return_counts=True)
        behind_rows = np.unique(np.concatenate(backward))
        # and -> subs of fb matched in fa; both directions hold the same pairs
        _, behind = np.unique(
            behind_rows % n_files * n_files + row_file[behind_rows // n_files],
            return_counts=True,
        )
        counts = np.bincount(row_file, minlength=n_files)
        fa, fb = pair_keys // n_files, pair_keys % n_files
        overlap = np.maximum(ahead / counts[fa], behind / counts[fb])
        found = np.flatnonzero(overlap > threshold)
        pairs = []
        for a, b, frac in zip(fa[found].tolist(), fb[found].tolist(), overlap[found].tolist()):
            pairs.append((min(ids[a], ids[b]), max(ids[a], ids[b]), frac))
        pairs.sort(key=lambda item: (-item[2], item[0], item[1]))
        return pairs

    def stats(self) -> IndexStats:
        with self._lock:
            keys = self._keys
            # a bucket starts at each band's first key and at every key change
            n_buckets = int(np.count_nonzero(keys[:, 1:] != keys[:, :-1]))
            if keys.size:
                n_buckets += self.band_count
            return IndexStats(len(self._ids), self._row_file.size, keys.size, n_buckets)

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
            ids = self._ids
            n_rows = self._row_file.size
            saved = sorted(range(len(ids)), key=ids.__getitem__)  # ordinals by id
            counts = np.bincount(self._row_file, minlength=len(ids))
            saved_counts = counts[saved]
            # a row's place in the file: its file's first place there plus
            # the row's place within its file
            saved_first = np.empty(len(ids), dtype=np.int64)
            saved_first[saved] = np.cumsum(saved_counts) - saved_counts
            shift = saved_first - (np.cumsum(counts) - counts)
            place = np.arange(n_rows) + shift[self._row_file]
            blocks = np.empty(n_rows, dtype="<u4")
            blocks[place] = self._row_block
            digests = np.empty((n_rows, self.band_count), dtype="<u8")
            digests[place[self._postings], np.arange(self.band_count)[:, None]] = (
                self._keys
            )
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
                np.array([ids[k] for k in saved], dtype="<u8").tobytes(),
                saved_counts.astype("<u4").tobytes(),
                blocks.tobytes(),
                digests.tobytes(),
            ]
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
                f"0x{expected_config_digest:016x}{VERSION_NOTE}"
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


def _check_thresholds(min_band_votes: int, min_confidence: float = 1.0) -> None:
    """Raises ConfigError for a vote count or a confidence floor out of range."""
    if min_band_votes < 1:
        raise ConfigError(f"min_band_votes must be >= 1, got {min_band_votes}")
    if not 0.0 < min_confidence <= 1.0:
        raise ConfigError(f"min_confidence must be in (0, 1], got {min_confidence}")


def _sum_by_key(keys: np.ndarray, *weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct keys, ascending, and each weight summed per key."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    sums = (np.bincount(inverse, w, distinct.size).astype(np.int64) for w in weights)
    return distinct, *sums


def _run_ends(run_starts: np.ndarray) -> np.ndarray:
    """Per flat position, the end of the run holding it, where a run
    starts at every True of ``run_starts``."""
    flat = run_starts.ravel()
    firsts = np.flatnonzero(flat)
    return np.append(firsts[1:], flat.size)[np.cumsum(flat) - 1]


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
