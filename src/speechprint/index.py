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
# fnv1a64 is not called here, but perfbench/spans.py wraps this binding
# of it (ROADMAP item 1 drops that wrapper and this import)
from .hashing import fnv1a64, fnv1a64_rows  # noqa: F401

INDEX_MAGIC = b"SPIX"
INDEX_VERSION = 2
# after the magic: version, config digest, band_count, band_width,
# min_band_votes, min_confidence, file count
_HEADER_FMT = "<HQHHHdI"
_HEADER_LEN = 4 + struct.calcsize(_HEADER_FMT)
# postings are int32 row numbers
_MAX_ROWS = 2**31 - 1

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
    file's first row. Each band is one sorted array of band keys with an
    aligned array of postings, the row numbers of the subs holding each
    key. A query finds all of its buckets with one binary search per
    band, probing k and k + 1; :meth:`find_duplicates` joins the bands
    with themselves, with no search. Loading sorts each band once, and
    enrolment sorts a file's keys the same way and merges them in (see
    :func:`_sort_bands`). The band digests live in the bands only, and
    :meth:`save` scatters them back into rows. Thread safety: enrolment,
    queries and persistence hold one lock.

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
        # row j: every enrolled sub's band-j key in ascending order, equal
        # keys in row order, and aligned with it the row number of the sub
        # holding each key
        self._keys = np.empty((band_count, 0), dtype=np.uint64)
        self._postings = np.empty((band_count, 0), dtype=np.int32)
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
        """Appends one new file's rows and merges its keys into every band;
        lock held.

        The new keys are sorted as :meth:`_build` sorts them. Each goes
        after the equal keys already enrolled and the new keys before it,
        and the old keys fill the other places in order, so the bands
        equal what :meth:`_build` makes of all rows at once.
        """
        first_row = self._row_file.size
        ordinal = len(self._ids)
        self._ids.append(file_id)
        self._ordinals[file_id] = ordinal
        n_new = len(digests)
        self._row_file = np.append(self._row_file, np.full(n_new, ordinal, np.int32))
        new_keys, order = _sort_bands(np.ascontiguousarray(digests.T))
        width = self._keys.shape[1] + n_new
        # merged position of each new key: after the equal keys already
        # enrolled and the new keys before it, in the flattened bands
        dest = np.array(
            [k.searchsorted(new, side="right") for k, new in zip(self._keys, new_keys)]
        )
        dest += np.arange(n_new) + width * np.arange(self.band_count)[:, None]
        dest = dest.ravel()
        old = np.ones(self.band_count * width, dtype=bool)
        old[dest] = False
        keys = np.empty(old.size, dtype=np.uint64)
        keys[old] = self._keys.ravel()
        keys[dest] = new_keys.ravel()
        postings = np.empty(old.size, dtype=np.int32)
        postings[old] = self._postings.ravel()
        postings[dest] = (order + first_row).ravel()
        self._keys = keys.reshape(self.band_count, width)
        self._postings = postings.reshape(self.band_count, width)

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
        self._keys, self._postings = _sort_bands(np.ascontiguousarray(digests.T))

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
        """Bytes held by the index's arrays: bands, postings, row files."""
        with self._lock:
            arrays = (self._keys, self._postings, self._row_file)
            return sum(a.nbytes for a in arrays)

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
        flat = self._postings.ravel().view(np.uint32)
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
                pairs |= flat.take(at)
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
        sizes = bounds[:, n_rows:] - bounds[:, :n_rows]
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
        width = self._keys.shape[1]
        keys = self._keys.ravel()
        postings = self._postings.ravel()
        new_bucket = np.empty(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=new_bucket[1:])
        new_bucket[::width] = True
        files = self._row_file.take(postings)
        new_run = np.empty(keys.size, dtype=bool)
        np.not_equal(files[1:], files[:-1], out=new_run[1:])
        new_run |= new_bucket
        # each run's first position, then the end of the bands, and
        # whether each starts a bucket, the end counting as one
        first = np.append(np.flatnonzero(new_run), keys.size)
        starts_bucket = np.append(new_bucket.take(first[:-1]), True)
        # a run followed by a run of its own bucket has partners, from its
        # end to the first position of the next run that starts a bucket
        has = np.flatnonzero(~starts_bucket[1:])
        ends = first.take(has + 1)
        next_bucket = starts_bucket.cumsum().take(has)
        bucket_ends = first.take(starts_bucket.nonzero()[0].take(next_bucket))
        # the positions of those runs, grouped by row
        run_first = first.take(has)
        lengths = ends - run_first
        rows = postings.take(_ranges(run_first, lengths))
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
        count; each file's 0..n-1) and all band digests (u64[N,
        band_count], row-major); finally the 8-byte blake2b digest of all
        preceding bytes.
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
                _block_column(saved_counts).astype("<u4").tobytes(),
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

        Only :data:`INDEX_VERSION`, the version :meth:`save` writes, is
        read. A version 1 file holds fingerprint version 1 bits, which
        this build can neither query nor enrol into: rebuild it.

        Raises:
            CorruptIndex: bad magic, truncation, checksum mismatch, a
                geometry or threshold out of range in the header, counts
                that disagree with the payload, or block indices that are
                not each file's 0..n-1.
            IncompatibleIndex: another version, or the stored config
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
        if version != INDEX_VERSION:
            raise IncompatibleIndex(
                f"unsupported index version {version}; this build reads version "
                f"{INDEX_VERSION} only: rebuild the index from the audio"
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
        ids, counts, blocks, digests = _read_v2(blob, n_files, bands)
        seen: set[int] = set()
        for file_id in ids:
            if file_id in seen:
                raise CorruptIndex(f"file id {file_id} stored twice")
            seen.add(file_id)
        if not np.array_equal(blocks, _block_column(counts)):
            raise CorruptIndex("index block indices are not each file's 0..n-1")
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


def _block_column(counts: np.ndarray) -> np.ndarray:
    """The block indices of files of ``counts`` rows: each file's 0..n-1."""
    return _ranges(np.zeros_like(counts), counts)


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


def _sort_bands(by_band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of [bands, n] u64 keys in ascending order, and the int32
    column each key came from, equal keys in column order: what a stable
    argsort gives.

    One sort of u64 words, each a key's top 32 bits above its column
    (columns are rows, fewer than 2**31), orders the keys by top half and
    then by column. Distinct hash keys that share a top half are rare
    (about n**2 / 2**33 pairs in a band of n); a run of equal top halves
    that holds them out of order is sorted again, stably by key.
    """
    packed = by_band & np.uint64(0xFFFFFFFF00000000)
    packed |= np.arange(by_band.shape[1], dtype=np.uint64)
    packed.sort(axis=1)
    order = (packed & np.uint64(0xFFFFFFFF)).astype(np.int32)
    keys = np.take_along_axis(by_band, order, axis=1)
    down = keys[:, 1:] < keys[:, :-1]
    if down.any():
        top = keys >> np.uint64(32)
        new_top = np.ones(keys.shape, dtype=bool)
        new_top[:, 1:] = top[:, 1:] != top[:, :-1]
        run = np.cumsum(new_top).reshape(keys.shape)
        redo = np.nonzero(np.isin(run, run[:, 1:][down]))
        again = np.lexsort((keys[redo], run[redo]))
        order[redo] = order[redo][again]
        keys[redo] = keys[redo][again]
    return keys, order


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
        blocks,
        digests.astype(np.uint64, copy=False).reshape(n_subs, bands),
    )
