"""Banded min-hash retrieval index.

Each sub-fingerprint's signature is split into ``band_count`` bands of
``band_width`` values; every band is digested to 32 bits, the top half
of its 64-bit FNV-1a digest, and used as an exact hash key. Two
signatures with Jaccard similarity J collide on one band with
probability J**band_width, which turns "similar enough" into "shares at
least min_band_votes band keys" without any nearest-neighbour scan.

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

from .errors import ConfigError, CorruptIndex, DuplicateId, IncompatibleIndex
from .fileio import read_bytes, write_atomic
from .fingerprint import VERSION_NOTE, Fingerprint
# fnv1a64 is not called here, but perfbench/spans.py wraps this binding
# of it (ROADMAP item 1 drops that wrapper and this import)
from .hashing import fnv1a64, fnv1a64_rows  # noqa: F401

INDEX_MAGIC = b"SPIX"
INDEX_VERSION = 3
# after the magic: version, config digest, band_count, band_width,
# min_band_votes, min_confidence, file count
_HEADER_FMT = "<HQHHHdI"
_HEADER_LEN = 4 + struct.calcsize(_HEADER_FMT)
# rows are numbered below 2**31 - 1: they fit the int32 row column, and
# a word's row half never reaches 0xFFFFFFFF, so a probe of
# k << 32 | 0xFFFFFFFF lands after every word of key k
_MAX_ROWS = 2**31 - 1
# a band word is key << 32 | row
_KEY_SHIFT = np.uint64(32)
_ROW_MASK = np.uint64(0xFFFFFFFF)

#: Upper bound on the (row, posting) pairs that one slice of a band join
#: expands and counts at once, about 2.5 MiB of temporaries: a batch of
#: queries, or a self-join over buckets that many subs share, stays in
#: bounded memory. A slice holds whole rows, so one row with more pairs
#: than this is a slice of its own. Of 2^12 to 2^20, 2^15 to 2^17 ran
#: the fastest self-join of the benchmark's seed-1 catalog-build index
#: (14 files, 7,910 subs, 248,006 pairs in 4 slices at 2^16): medians of
#: 12.1 and 14.4 ms at 2^16 in two sweeps on a 2-CPU box, 14-20% more at
#: 2^13 and 22-30% more from 2^18.
PAIR_ELEMENTS = 1 << 16
#: A band join numbers each (row, index row) pair of a slice in one u32 of
#: this many bits: the row's place in the slice above the index row.
_PAIR_BITS = 32

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

    Every enrolled sub is one row, numbered in enrolment order, and a
    row column holds each row's file ordinal. A file's rows are
    contiguous and in block order, so a row's block is the row minus its
    file's first row. Each band is one sorted array of u64 words, one per
    posting: the band key above the row number of the sub holding it. A
    query finds all of its buckets with one search per band, for the
    first and the last word a key can have; :meth:`find_duplicates` joins
    the bands with themselves, with no search. Loading sorts each band
    once, and enrolment sorts a file's words the same way and merges them
    in (see :func:`_sort_bands`). The band digests live in the bands
    only, and :meth:`save` scatters them back into rows. Thread safety:
    enrolment, queries and persistence hold one lock.

    ``min_band_votes`` and ``min_confidence`` are fixed when the index is
    made: queries and dedup use them, and the file header stores them.
    """

    def __init__(
        self,
        config_digest: int,
        band_count: int,
        band_width: int,
        min_band_votes: int = DEFAULT_MIN_BAND_VOTES,
        min_confidence: float = DEFAULT_MIN_CONFIDENCE,
    ) -> None:
        if band_count < 1 or band_width < 1:
            raise ConfigError("band_count and band_width must be >= 1")
        # a pair of subs shares at most band_count band keys
        if not 1 <= min_band_votes <= band_count:
            raise ConfigError(
                f"min_band_votes must be in [1, {band_count}] for {band_count} bands, "
                f"got {min_band_votes}"
            )
        if not 0.0 < min_confidence <= 1.0:
            raise ConfigError(f"min_confidence must be in (0, 1], got {min_confidence}")
        self.config_digest = config_digest
        self.band_count = band_count
        self.band_width = band_width
        self.min_band_votes = min_band_votes
        self.min_confidence = min_confidence
        # row j: a word key << 32 | row per enrolled sub, its band-j key
        # above its row number, ascending, so equal keys are in row order
        self._bands = np.empty((band_count, 0), dtype=np.uint64)
        # per row: its file's ordinal (the file's position in _ids); a
        # file's rows are contiguous and in block order
        self._row_file = np.empty(0, dtype=np.int32)
        self._ids: list[int] = []
        self._ordinals: dict[int, int] = {}
        self._lock = threading.RLock()

    @classmethod
    def for_config(cls, config_digest: int, fingerprint_config) -> "RetrievalIndex":
        """An index of ``fingerprint_config``'s geometry, at the default thresholds."""
        return cls(
            config_digest,
            band_count=fingerprint_config.band_count,
            band_width=fingerprint_config.band_width,
        )

    def _band_digests(self, signatures: np.ndarray) -> np.ndarray:
        """[n_subs, p] uint8 signatures -> [n_subs, band_count] uint32 keys,
        the top half of each band's FNV-1a digest.

        Band j's digest only ever meets table j, so bands never alias
        each other even when their byte runs coincide.
        """
        n_subs = signatures.shape[0]
        self._check_width(signatures.shape[1])
        rows = signatures.reshape(n_subs * self.band_count, self.band_width)
        top = (fnv1a64_rows(rows) >> np.uint64(32)).astype(np.uint32)
        return top.reshape(n_subs, self.band_count)

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
        an index file stores.

        Raises:
            ConfigError: the fingerprint has no subs.
            DuplicateId: the id is already enrolled.
            IncompatibleIndex: fingerprint built under another config.
        """
        self._check_digest(fp)
        n_subs = len(fp.signatures)
        if not n_subs:
            raise ConfigError(f"fingerprint for file {fp.file_id} has no subs")
        digests = self._band_digests(fp.signatures)
        with self._lock:
            if fp.file_id in self._ordinals:
                raise DuplicateId(f"file id {fp.file_id} already enrolled")
            if self._row_file.size + n_subs > _MAX_ROWS:
                raise ConfigError(f"an index holds at most {_MAX_ROWS} subs")
            self._merge(fp.file_id, digests)

    def _merge(self, file_id: int, digests: np.ndarray) -> None:
        """Appends one new file's rows and merges its words into every
        band; lock held.

        The new words are sorted as :meth:`_build` sorts them. Their rows
        follow every enrolled row, so each goes after the equal keys
        already enrolled and the new words before it, and the old words
        fill the other places in order: the bands equal what
        :meth:`_build` makes of all rows at once.
        """
        first_row = self._row_file.size
        ordinal = len(self._ids)
        self._ids.append(file_id)
        self._ordinals[file_id] = ordinal
        n_new = len(digests)
        self._row_file = np.append(self._row_file, np.full(n_new, ordinal, np.int32))
        new = _sort_bands(digests.T) + np.uint64(first_row)
        width = self._bands.shape[1] + n_new
        # merged position of each new word: after the old words below it
        # and the new words before it, in the flattened bands
        dest = np.array([b.searchsorted(w) for b, w in zip(self._bands, new)])
        dest += np.arange(n_new) + width * np.arange(self.band_count)[:, None]
        old = np.ones(self.band_count * width, dtype=bool)
        old[dest] = False
        bands = np.empty(old.size, dtype=np.uint64)
        bands[old] = self._bands.ravel()
        bands[dest] = new
        self._bands = bands.reshape(self.band_count, width)

    def _build(self, ids: list[int], counts: np.ndarray, digests: np.ndarray) -> None:
        """Fills an empty index from whole-index columns in one pass.

        File k has id ``ids[k]`` and the next ``counts[k]`` rows of
        ``digests``, its blocks in order; its ordinal is k. Each band is
        sorted once by :func:`_sort_bands`, equal keys in row order.
        """
        if len(digests) > _MAX_ROWS:
            raise ConfigError(f"an index holds at most {_MAX_ROWS} subs")
        self._ids = list(ids)
        self._ordinals = {file_id: k for k, file_id in enumerate(ids)}
        self._row_file = np.repeat(np.arange(len(ids), dtype=np.int32), counts)
        self._bands = _sort_bands(digests.T)

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
        """Bytes held by the index's arrays: band words and row files."""
        with self._lock:
            return self._bands.nbytes + self._row_file.nbytes

    def _join(self, bounds: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
        """Band hits of (row, index row) pairs, in slices of whole rows.

        Row r shares a band key with ``sizes[k]`` postings from flat
        position ``starts[k]`` onwards in the flattened bands, for each k
        in ``bounds[r]:bounds[r + 1]``. Yields per slice (rows, index
        rows, hits) of the pairs that share at least min_band_votes keys,
        sorted by row then index row. A slice expands at most
        PAIR_ELEMENTS pairs, unless one row has more, and at most the rows
        that _PAIR_BITS can number above an index row. One sort of a
        slice's pair numbers and the length of each run of equal numbers
        give the hits. Lock held.
        """
        words = self._bands.ravel()
        bits = max(self._row_file.size - 1, 0).bit_length()
        # pairs before each row
        before = np.zeros(starts.size + 1, dtype=np.int64)
        sizes.cumsum(out=before[1:])
        before = before.take(bounds)
        n_rows = bounds.size - 1
        lo = 0
        while lo < n_rows:
            hi = int(before.searchsorted(before[lo] + PAIR_ELEMENTS, "right")) - 1
            hi = min(max(hi, lo + 1), lo + (1 << _PAIR_BITS - bits))
            total = int(before[hi] - before[lo])
            if total:
                # the flat positions of the slice's buckets
                at = _ranges(starts[bounds[lo] : bounds[hi]], sizes[bounds[lo] : bounds[hi]])
                pairs = (np.arange(hi - lo, dtype=np.uint32) << bits).repeat(
                    before[lo + 1 : hi + 1] - before[lo:hi]
                )
                # the cast to u32 keeps each word's low half, its row
                pairs |= words.take(at).astype(np.uint32)
                pairs.sort()
                runs = _run_bounds(pairs)
                hits = runs[1:] - runs[:-1]
                qualifies = (hits >= self.min_band_votes).nonzero()[0]
                pairs = pairs.take(runs.take(qualifies))
                yield (
                    (pairs >> bits).astype(np.int64) + lo,
                    (pairs & (1 << bits) - 1).astype(np.int64),
                    hits.take(qualifies),
                )
            lo = hi

    def _probe(self, digest_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each query row's bucket of each band, in the form :meth:`_join`
        takes: row r's buckets are entries r * band_count onwards, one per
        band; lock held."""
        n_rows, bands = digest_rows.shape
        # a bucket of key k runs from the band's first word >= k << 32 to
        # its first word >= k << 32 | 0xFFFFFFFF, a row no word holds. One
        # search per band finds both ends of every bucket, for the keys in
        # ascending order: numpy starts each search where the last ended
        order = digest_rows.T.argsort(axis=1)
        probes = np.empty((bands, n_rows, 2), dtype=np.uint64)
        probes[..., 0] = np.take_along_axis(digest_rows.T, order, axis=1)
        probes[..., 0] <<= _KEY_SHIFT
        probes[..., 1] = probes[..., 0] | _ROW_MASK
        found = [b.searchsorted(p) for b, p in zip(self._bands, probes.reshape(bands, -1))]
        bounds = np.empty((bands, n_rows, 2), dtype=np.int64)
        bounds[np.arange(bands)[:, None], order] = np.reshape(found, bounds.shape)
        starts = bounds[..., 0] + self._bands.shape[1] * np.arange(bands)[:, None]
        sizes = bounds[..., 1] - bounds[..., 0]
        return np.arange(0, (n_rows + 1) * bands, bands), starts.T.ravel(), sizes.T.ravel()

    def _later_partners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's partners in the self-join, in the form :meth:`_join`
        takes: in each band, the postings of later files in its bucket.
        Lock held; the index holds at least one row.

        Within a bucket the postings ascend by row and so by file. Every
        posting of a run of one file in a bucket has the same partners,
        the rest of the bucket after the run, so only the runs that do not
        end their bucket have any.
        """
        words = self._bands.ravel()
        new_bucket = _bucket_starts(self._bands)
        # the cast to u32 keeps each word's low half, its row
        files = self._row_file.take(words.astype(np.uint32))
        # a run of one file starts with each bucket and each change of file
        new_run = new_bucket.copy()
        new_run[1:-1] |= files[1:] != files[:-1]
        # each run's first position, then the end of the bands, and
        # whether each starts a bucket, the end counting as one
        first = np.flatnonzero(new_run)
        starts_bucket = new_bucket.take(first)
        # a run followed by a run of its own bucket has partners, from its
        # end to the first position of the next run that starts a bucket
        has = np.flatnonzero(~starts_bucket[1:])
        ends = first.take(has + 1)
        bucket_runs = starts_bucket.nonzero()[0]
        bucket_ends = first.take(bucket_runs.take(bucket_runs.searchsorted(has, "right")))
        # the positions of those runs, grouped by row
        run_first = first.take(has)
        lengths = ends - run_first
        rows = words.take(_ranges(run_first, lengths)).astype(np.uint32)
        order = np.argsort(rows)
        run = np.repeat(np.arange(has.size), lengths).take(order)
        starts = ends.take(run)
        sizes = bucket_ends.take(run) - starts
        bounds = rows.take(order).searchsorted(np.arange(self._row_file.size + 1))
        return bounds, starts, sizes

    def _answer(self, queries: list[Fingerprint]) -> list[MatchResult | None]:
        """Every query's answer from one probe of the bands and one join."""
        for q in queries:
            self._check_digest(q)
        results: list[MatchResult | None] = [None] * len(queries)
        asked = [k for k, q in enumerate(queries) if len(q.signatures)]
        if not asked:
            return results
        n_subs = [len(queries[k].signatures) for k in asked]
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
            for rows, index_rows, hits in self._join(*self._probe(digest_rows)):
                files = self._row_file.take(index_rows)
                # within a row the index rows, and so the files, ascend: a
                # new (row, file) starts wherever either changes
                first = np.ones(rows.size, dtype=np.int64)
                first[1:] = (rows[1:] != rows[:-1]) | (files[1:] != files[:-1])
                tallies.append(
                    _sum_by_key(query_of_row.take(rows) * n_files + files, first, hits)
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
            if confidence >= self.min_confidence:
                results[asked[q]] = MatchResult(-neg_id, n_votes, n_matched, confidence)
        return results

    def query(self, fp: Fingerprint) -> MatchResult | None:
        """Most likely enrolled file for a query fingerprint, or None.

        A (query sub, enrolled sub) pair qualifies when they share at
        least the index's min_band_votes band keys. A file's matched
        count is the number of query subs with a qualifying pair in it,
        and its band votes are the shared keys summed over those pairs.
        Ranking: most matched query subs, then most band votes, then
        lowest file id. The winner is reported only when its confidence
        (matched subs / query subs) reaches the index's min_confidence.

        Raises:
            IncompatibleIndex: the fingerprint was built under another config.
        """
        return self._answer([fp])[0]

    def query_batch(self, queries: list[Fingerprint]) -> list[MatchResult | None]:
        """Answers many queries in one pass, at the index's thresholds.

        Results are exactly what per-query :meth:`query` calls would
        return, in input order (None for an empty query). The whole batch
        shares one search per band and one counting step, so it costs
        less than the same queries one by one.
        """
        return self._answer(queries)

    def find_duplicates(
        self, threshold: float = DEFAULT_DUPLICATE_THRESHOLD
    ) -> list[tuple[int, int, float]]:
        """Pairs of enrolled files whose fingerprints overlap heavily.

        Overlap of (a, b) is the fraction of a's subs that share at least
        the index's min_band_votes band keys with some sub of b; the pair
        is reported when either direction exceeds ``threshold``.

        The pairs come from one self-join of the bands, with no search.
        Within a bucket the postings ascend by file, so each posting pairs
        only with the later-file postings of its bucket: same-file pairs
        never form, and each pair of subs is met once, its band hits
        counted as a query counts them. Band hits are symmetric, so the
        qualifying pairs give the overlap in both directions.

        Returns (file_a, file_b, overlap) tuples, file_a < file_b,
        sorted by descending overlap then ids.

        Raises:
            ConfigError: threshold outside (0, 1), since no overlap
                exceeds 1.
        """
        if not 0.0 < threshold < 1.0:
            raise ConfigError(f"threshold must be in (0, 1), got {threshold}")
        forward, backward = [], []
        with self._lock:
            ids = self._ids
            n_files = len(ids)
            if n_files < 2:
                return []
            row_file = self._row_file
            for rows, partners, _hits in self._join(*self._later_partners()):
                files = row_file.take(rows)
                partner_files = row_file.take(partners)
                # one entry per distinct (row, partner file): within a row
                # the partners, and so their files, ascend
                first = _run_bounds(rows << 32 | partner_files)[:-1]
                forward.append(
                    files.take(first).astype(np.int64) << 32 | partner_files.take(first)
                )
                backward.append(_count_distinct(partners << 32 | files)[0])
        if not forward:
            return []
        # file pair fa << 32 | fb, fa < fb, -> subs of fa matched in fb
        pair_keys, ahead = _count_distinct(np.concatenate(forward))
        behind_rows = _count_distinct(np.concatenate(backward))[0]
        # and -> subs of fb matched in fa; both directions hold the same pairs
        _, behind = _count_distinct(
            (behind_rows & 0xFFFFFFFF) << 32 | row_file.take(behind_rows >> 32)
        )
        counts = np.bincount(row_file, minlength=n_files)
        fa, fb = pair_keys >> 32, pair_keys & 0xFFFFFFFF
        overlap = np.maximum(ahead / counts[fa], behind / counts[fb])
        found = np.flatnonzero(overlap > threshold)
        pairs = []
        for a, b, frac in zip(fa[found].tolist(), fb[found].tolist(), overlap[found].tolist()):
            pairs.append((min(ids[a], ids[b]), max(ids[a], ids[b]), frac))
        pairs.sort(key=lambda item: (-item[2], item[0], item[1]))
        return pairs

    def stats(self) -> IndexStats:
        with self._lock:
            # less the True past the end
            n_buckets = int(np.count_nonzero(_bucket_starts(self._bands))) - 1
            n_postings = self._bands.size
            return IndexStats(len(self._ids), self._row_file.size, n_postings, n_buckets)

    def save(self, path: str | Path) -> None:
        """Writes the index to ``path`` atomically (see :func:`write_atomic`).

        Layout (little endian, version 3): "SPIX", u16 version, u64
        config digest, u16 band_count, u16 band_width, u16
        min_band_votes, f64 min_confidence, u32 file count n; then, over
        the files in ascending id order, the ids (u64[n]), their sub
        counts (u32[n]) and all band keys (u32[N, band_count], N the
        total sub count, row-major); finally the 8-byte blake2b digest of
        all preceding bytes. Version 2 stored block indices (u32[N]) and
        u64 digests, whose top halves are the keys, in their place.
        """
        with self._lock:
            ids = self._ids
            n_rows = self._row_file.size
            saved = sorted(range(len(ids)), key=ids.__getitem__)  # ordinals by id
            counts = np.bincount(self._row_file, minlength=len(ids))
            saved_counts = counts[saved]
            # each band's keys in row order, then each saved file's rows
            keys = np.empty((self.band_count, n_rows), dtype="<u4")
            for by_row, words in zip(keys, self._bands):
                by_row[words & _ROW_MASK] = words >> _KEY_SHIFT
            first = np.cumsum(counts) - counts
            digests = keys.take(_ranges(first[saved], saved_counts), axis=1).T
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
                digests.tobytes(),
            ]
        blob = b"".join(parts)
        write_atomic(path, blob + _blake2b(blob), "index")

    @classmethod
    def load(
        cls, path: str | Path, expected_config_digest: int | None = None
    ) -> "RetrievalIndex":
        """Reads an index written by :meth:`save`, with the thresholds
        its header stores.

        Versions 2 and 3 are read, and both load to the same index. A
        version 1 file holds fingerprint version 1 bits, which this build
        can neither query nor enrol into: rebuild it.

        Raises:
            CorruptIndex: bad magic, truncation, checksum mismatch, a
                geometry or threshold out of range in the header, counts
                that disagree with the payload, a file of no subs or
                stored twice, or version 2 block indices that are not
                each file's 0..n-1.
            IncompatibleIndex: another version, or the stored config
                digest differs from ``expected_config_digest``.
            ConfigError: more subs than an index holds.
        """
        blob = read_bytes(path, "index")
        if len(blob) < _HEADER_LEN + 8 or blob[:4] != INDEX_MAGIC:
            raise CorruptIndex("not an index file")
        version, digest, bands, width, votes, confidence, n_files = struct.unpack(
            _HEADER_FMT, blob[4:_HEADER_LEN]
        )
        if version not in (2, 3):
            raise IncompatibleIndex(
                f"unsupported index version {version}; this build reads versions "
                "2 and 3: rebuild the index from the audio"
            )
        if _blake2b(blob[:-8]) != blob[-8:]:
            raise CorruptIndex("index checksum mismatch")
        if expected_config_digest is not None and digest != expected_config_digest:
            raise IncompatibleIndex(
                f"index built for config 0x{digest:016x}, expected "
                f"0x{expected_config_digest:016x}{VERSION_NOTE}"
            )
        try:
            index = cls(
                digest,
                band_count=bands,
                band_width=width,
                min_band_votes=votes,
                min_confidence=confidence,
            )
        except ConfigError as exc:
            raise CorruptIndex(f"index header out of range: {exc}") from exc
        ids, counts, digests = _read_payload(blob, version, n_files, bands)
        seen: set[int] = set()
        for file_id in ids:
            if file_id in seen:
                raise CorruptIndex(f"file id {file_id} stored twice")
            seen.add(file_id)
        index._build(ids, counts, digests)
        return index


def _sum_by_key(keys: np.ndarray, *weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct keys, ascending, and each weight summed per key."""
    order = keys.argsort()
    keys = keys.take(order)
    first = _run_bounds(keys)[:-1]
    return keys.take(first), *(np.add.reduceat(w.take(order), first) for w in weights)


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The positions ``starts[k]`` onwards, ``sizes[k]`` of them, for
    each k in turn."""
    at = (starts - sizes.cumsum() + sizes).repeat(sizes)
    at += np.arange(at.size)
    return at


def _run_bounds(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in ``values``, then its size."""
    first = np.ones(values.size + 1, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:-1])
    return first.nonzero()[0]


def _count_distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values, ascending, and how often each occurs; sorts
    ``values`` in place."""
    values.sort()
    bounds = _run_bounds(values)
    return values[bounds[:-1]], np.diff(bounds)


def _bucket_starts(bands: np.ndarray) -> np.ndarray:
    """Whether a bucket starts at each position of the flattened [bands,
    n] words, at each band's first word and at every change of key; then
    True past the end."""
    starts = np.ones(bands.size + 1, dtype=bool)
    keys = bands.ravel() >> _KEY_SHIFT
    np.not_equal(keys[1:], keys[:-1], out=starts[1:-1])
    starts[: bands.size : bands.shape[1] or 1] = True
    return starts


def _sort_bands(by_band: np.ndarray) -> np.ndarray:
    """Each row of [bands, n] u32 keys as u64 words key << 32 | column,
    ascending: the keys in order, equal keys in column order, as a stable
    argsort gives them (columns are rows, fewer than 2**31).
    """
    words = by_band.astype(np.uint64, order="C") << _KEY_SHIFT
    words |= np.arange(by_band.shape[1], dtype=np.uint64)
    words.sort(axis=1)
    return words


def _blake2b(data: bytes) -> bytes:
    """The checksum of versions 2 and 3: an 8-byte blake2b digest."""
    return hashlib.blake2b(data, digest_size=8).digest()


def _read_payload(blob: bytes, version: int, n_files: int, bands: int):
    """Ids, sub counts and [N, bands] u32 band keys of a version 2 or 3
    payload (checksum verified).

    The file table and the sub counts are checked against the payload
    length before anything sized by them is allocated. A version 2 file
    also stores block indices, which must read each file's 0..n-1, and
    u64 digests, whose top halves are the keys.
    """
    pos = _HEADER_LEN
    body_end = len(blob) - 8
    if pos + 12 * n_files > body_end:
        raise CorruptIndex("index truncated inside file table")
    ids = np.frombuffer(blob, dtype="<u8", count=n_files, offset=pos).tolist()
    pos += 8 * n_files
    counts = np.frombuffer(blob, dtype="<u4", count=n_files, offset=pos).astype(np.int64)
    pos += 4 * n_files
    if not counts.all():
        raise CorruptIndex(f"file id {ids[counts.argmin()]} stored with no subs")
    n_subs = int(counts.sum())
    v2 = version == 2
    if pos + n_subs * (4 + 8 * bands if v2 else 4 * bands) != body_end:
        raise CorruptIndex(
            f"index payload of {body_end - pos} bytes does not hold "
            f"{n_subs} subs of {bands} bands"
        )
    if v2:
        blocks = np.frombuffer(blob, dtype="<u4", count=n_subs, offset=pos)
        if not np.array_equal(blocks, _ranges(np.zeros_like(counts), counts)):
            raise CorruptIndex("index block indices are not each file's 0..n-1")
        pos += 4 * n_subs
        digests = np.frombuffer(blob, dtype="<u8", count=n_subs * bands, offset=pos)
        keys = (digests >> np.uint64(32)).astype(np.uint32)
    else:
        keys = np.frombuffer(blob, dtype="<u4", count=n_subs * bands, offset=pos)
    return ids, counts, keys.reshape(n_subs, bands)
