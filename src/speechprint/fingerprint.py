"""Wavelet min-hash fingerprints over spectral images.

The image is cut into overlapping blocks of frames; each block gets a 2-D
Haar transform, the t strongest coefficients are kept as sign bits, and
the resulting sparse bit set is crushed into a short min-hash signature.
Min-hash keeps the key property we rely on for retrieval: the probability
two signatures agree at one position equals the Jaccard similarity of the
underlying bit sets, so similarity survives into the compressed domain.

A block's coefficients are defined (FINGERPRINT_VERSION 2) in an order
that lets overlapping blocks share their work:

1. Each frame's column is Haar transformed along frequency once, as it
   arrives, zero-padded to a power of two and keeping only the rows the
   padding can leave non-zero.
2. The time axis is transformed for a whole run of blocks at once by
   the undecimated recursion ``D_l[j] = (A[j] - A[j + 2^(l-1)]) / sqrt2``
   and ``A_l[j] = (A[j] + A[j + 2^(l-1)]) / sqrt2`` over the run's
   frames. Block k gathers ``D_l[k * hop + p * 2^l]`` and ``A_L[k * hop]``,
   the same float operations on the same operands as its own decimated
   transform, so a block's bits never depend on its run or stack.
3. The block is centred after the transform: its mean times
   ``sqrt(block_frames) * H(1)``, the frequency transform of a column of
   ones on the real rows, is subtracted from its time-DC column. The mean
   is the block's per-frame sums added pairwise in the Haar tree's order.

Centring first, as version 1 did, gives the same coefficients in exact
arithmetic; in floats a block's bits can differ, so version 2 data never
meets version 1 data (:func:`config_digest` includes the version).

Version 3 keeps that kernel and changes the image it reads: a variant
whose band ends far enough below the input's Nyquist frequency is
computed from a decimated copy of the signal
(:class:`~speechprint.spectral.FrameTransform`). At 8 kHz the vocal
variants read 2 kHz, where their image values are close to the 8 kHz
ones but not equal, and at 16 kHz every variant is decimated. Those
signatures differ from version 2's; mel-wide at 8 kHz and every variant
at 11.025 kHz are not decimated and keep version 2's signatures. Every
config digest names the version, so no version 2 index or fingerprint
meets version 3 data.

Every stage also takes a stack of blocks, shaped [n_blocks, rows, cols],
so one call per stage covers a stack of the blocks an audio chunk
completes; a stack's sign bits are rows of one width. The Haar transform
needs power-of-two sides, so a block is defined as its real rows
zero-padded to the next power of two; the kernel computes the rows the
padding can make non-zero only, and the sign selection skips the others
bit for bit.

A file's fingerprint is a [n_subs, n_permutations] matrix of its block
signatures ("sub-fingerprints"), row k for block k. Matching happens in
:mod:`speechprint.index` via banded signature digests.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .audio import CANONICAL_RATE, AudioBuffer
from .errors import ConfigError, TooShort, require_int
from .hashing import fnv1a64, mix64, splitmix64
from .spectral import Decimator, FrameTransform, SpectralConfig

SQRT2 = np.sqrt(2.0)

FINGERPRINT_VERSION = 3
#: Appended to a config digest mismatch: the digest covers the version
VERSION_NOTE = (
    f" (digests include the fingerprint version, {FINGERPRINT_VERSION} in this "
    f"build; data made by another version must be rebuilt)"
)

#: Values a signature byte can take; min-hash positions are capped here.
SIGNATURE_CAP = 255


@dataclass(frozen=True)
class FingerprintConfig:
    """Block geometry, with the min-hash layout as class constants.

    Defaults follow the classic wavelet fingerprinting regime (128-frame
    blocks, top 200 coefficients, 100 permutations banded 20 x 5). The
    three fields are tunable; the benchmark harness runs a smaller block
    so short queries still produce sub-fingerprints at coarse strides.
    """

    #: Signatures are read as band_count bands of band_width bytes, one
    #: byte per min-hash permutation; seed fixes the permutations
    band_count: ClassVar[int] = 20
    band_width: ClassVar[int] = 5
    seed: ClassVar[int] = 0x53504650
    n_permutations: ClassVar[int] = band_count * band_width

    block_frames: int = 128
    block_hop_frames: int = 32
    top_t: int = 200

    def __post_init__(self) -> None:
        if self.block_frames < 1 or self.block_frames & (self.block_frames - 1):
            raise ConfigError(
                f"block_frames must be a power of two, got {self.block_frames}"
            )
        if not 1 <= self.block_hop_frames <= self.block_frames:
            raise ConfigError(
                f"block_hop_frames must be in [1, block_frames], "
                f"got {self.block_hop_frames}"
            )
        if self.top_t < 1:
            raise ConfigError(f"top_t must be >= 1, got {self.top_t}")


@dataclass(frozen=True, eq=False)
class SparseBits:
    """Sparse bit vector: set bit indices plus the full dimension.

    ``indices`` is [k] for one vector or [n, k] for a stack of n, one row
    per block, every row the same width. An entry equal to ``dimension``
    marks a slot with no bit. ``len`` is the number of set bits over the
    whole stack.
    """

    indices: np.ndarray
    dimension: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        if idx.ndim not in (1, 2):
            raise ConfigError(f"expected [k] or [n, k] bit indices, got {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() > self.dimension):
            raise ConfigError("bit index out of range")

    def __len__(self) -> int:
        return int(np.count_nonzero(self.indices < self.dimension))


@dataclass(frozen=True, eq=False)
class Fingerprint:
    """One file's block signatures as a read-only matrix.

    Row k of the [n_subs, n_permutations] uint8 ``signatures`` (a view of
    the matrix passed in, not a copy) is the min-hash signature of block
    k. The id and the config digest are held as ``int``s that fit the u64
    an index file stores; a bool or any other value raises ConfigError.
    """

    file_id: int
    signatures: np.ndarray
    config_digest: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "file_id", require_int(self.file_id, "file id", bits=64))
        digest = require_int(self.config_digest, "config digest", bits=64)
        object.__setattr__(self, "config_digest", digest)
        signatures = np.asarray(self.signatures)
        if signatures.ndim != 2 or signatures.dtype != np.uint8:
            raise ConfigError(
                f"signatures must be a 2-D uint8 matrix, got "
                f"{signatures.dtype} of shape {signatures.shape}"
            )
        signatures = signatures.view()
        signatures.flags.writeable = False
        object.__setattr__(self, "signatures", signatures)


def config_digest(
    spectral: SpectralConfig, fingerprint: FingerprintConfig, sample_rate: int
) -> int:
    """Stable 64-bit digest of everything that shapes a signature.

    Fingerprints and indexes are only comparable when this matches. The
    fingerprint version is part of it, so data made by another version of
    the kernel is refused rather than quietly matched.
    """
    canonical = "|".join(
        [
            "speechprint-cfg-v1",
            f"fingerprint-v{FINGERPRINT_VERSION}",
            spectral.variant.value,
            repr(float(spectral.window_s)),
            repr(float(spectral.stride_s)),
            repr(float(spectral.f_min)),
            repr(float(spectral.f_max)),
            str(spectral.n_bins),
            str(fingerprint.block_frames),
            str(fingerprint.block_hop_frames),
            str(fingerprint.top_t),
            str(fingerprint.n_permutations),
            str(fingerprint.band_count),
            str(fingerprint.band_width),
            str(fingerprint.seed),
            str(sample_rate),
        ]
    )
    return fnv1a64(canonical.encode())


def _next_pow2(n: int) -> int:
    return 1 << max(n - 1, 0).bit_length() if n > 1 else 1


def _haar_levels(low: np.ndarray, length: int) -> tuple[np.ndarray, list]:
    """Levels of the 1-D orthonormal Haar transform along the last axis.

    ``low`` is taken as zero-padded to ``length``, a power of two, and
    each level computes only the pairs that hold a real entry: an odd
    count gets one padding zero appended, so its last pair is x - 0.0 and
    x + 0.0, exactly as in the padded transform. Returns the final
    approximation and, finest level first, (half, detail) pairs: a
    level's details belong at [half, half + detail count) of the padded
    output, and the rest of it is zero.
    """
    levels = []
    while length > 1:
        length //= 2
        if low.shape[-1] % 2:
            low = np.concatenate([low, np.zeros(low.shape[:-1] + (1,))], axis=-1)
        even, odd = low[..., 0::2], low[..., 1::2]
        high = np.subtract(even, odd)
        high /= SQRT2
        levels.append((length, high))
        low = np.add(even, odd)
        low /= SQRT2
    return low, levels


def _haar_axis(src: np.ndarray, dst: np.ndarray, axis: int) -> None:
    """Full 1-D orthonormal Haar transform along ``axis``, from src to dst.

    ``src`` is taken as zero-padded along ``axis`` to dst's length there,
    a power of two (see :func:`_haar_levels`). The coefficients the
    padding leaves zero are not written, so dst must already hold zeros
    there.
    """
    dst = np.moveaxis(dst, axis, -1)
    low, levels = _haar_levels(np.moveaxis(src, axis, -1), dst.shape[-1])
    for half, high in levels:
        dst[..., half : half + high.shape[-1]] = high
    dst[..., :1] = low


def _haar_live(src: np.ndarray, length: int) -> np.ndarray:
    """The Haar transform of :func:`_haar_axis` along the last axis, with
    only the coefficients the padding can leave non-zero, in ascending
    order of their padded index (the rows of :func:`_support`)."""
    low, levels = _haar_levels(src, length)
    return np.concatenate([low] + [high for _half, high in levels[::-1]], axis=-1)


def _check_sides(shape: tuple[int, ...], height: int | None = None) -> None:
    if len(shape) not in (2, 3):
        raise ConfigError(f"expected a block or a stack of blocks, got {shape}")
    rows, cols = shape[-2:]
    if height is None:
        height = rows
    powers = not height & (height - 1) and not cols & (cols - 1) and cols >= 1
    if not powers or not 1 <= rows <= height:
        padded = "" if height == rows else f" padded to {height} rows"
        raise ConfigError(f"block sides must be powers of two, got {shape}{padded}")


def haar2d(block: np.ndarray, height: int | None = None) -> np.ndarray:
    """Standard 2-D orthonormal Haar decomposition (rows fully, then columns).

    Takes one [rows, cols] block or a [n_blocks, rows, cols] stack, which
    is transformed block by block over its last two axes. Both sides must
    be powers of two. The transform is orthonormal, so coefficient energy
    equals signal energy and a constant c block maps to a single DC
    coefficient c * sqrt(n_rows * n_cols).

    Given ``height``, a power of two at least ``rows``, the block may have
    any row count: it is treated as zero-padded to ``height`` rows and the
    result is [..., height, cols], bit for bit the transform of the padded
    block. Only the pairs that hold a real row are computed.

    Reference oracle with no production caller: it transforms time first,
    and the kernel frequency first (see the module docstring), which can
    differ in the last bits. The other oracles are in ``tests/oracle.py``;
    this one, with :func:`_haar_axis` and :func:`_check_sides`, stays only
    because ``perfbench/spans.py`` wraps ``fingerprint.haar2d``.
    """
    _check_sides(block.shape, height)
    block = np.asarray(block, dtype=np.float64)
    timed = np.empty(block.shape)
    _haar_axis(block, timed, axis=-1)
    *outer, rows, cols = block.shape
    out = np.zeros((*outer, height or rows, cols))
    _haar_axis(timed, out, axis=-2)
    return out


@lru_cache(maxsize=16)
def _support(real_rows: int, height: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows of a block that can be non-zero, and their flat indices.

    The block has ``real_rows`` real rows zero-padded to ``height``; the
    row pass of :func:`haar2d` leaves every other coefficient row zero.
    Both arrays are ascending.
    """
    live = [0]
    count = real_rows
    while height > 1:
        # this level's detail rows: one per pair with a real row in it
        height //= 2
        count -= count // 2
        live.extend(range(height, height + count))
    rows = np.array(sorted(live))
    flat = (rows[:, None] * cols + np.arange(cols)).reshape(-1)
    rows.flags.writeable = flat.flags.writeable = False
    return rows, flat


def top_t_signs(
    coeffs: np.ndarray,
    t: int,
    real_rows: int | None = None,
    height: int | None = None,
) -> SparseBits:
    """Sign encoding of the t largest-magnitude coefficients.

    Flat coefficient i contributes bit 2i when positive and bit 2i+1 when
    negative; a zero contributes nothing even when ranked, and its slot
    holds the no-bit marker ``dimension``. Magnitude ties at the cut are
    resolved toward lower flat indices, so the output is a pure function
    of the coefficient values. Each vector has min(t, area) slots, its
    bits ascending.

    A [n_blocks, rows, cols] stack is encoded block by block into one
    stacked :class:`SparseBits`; a single 2-D block gives a single vector.

    Given ``real_rows`` and ``height``, ``coeffs`` is the transform of
    blocks with that many real rows zero-padded to ``height`` rows, with
    only the rows the padding can leave non-zero, in ascending order (see
    :func:`_haar_live`); flat indices still count the padded block. The
    bits are those of the whole padded transform, because zeros never
    rank above a non-zero magnitude and never set a bit.
    """
    if t < 1:
        raise ConfigError(f"t must be >= 1, got {t}")
    rows, cols = coeffs.shape[-2:]
    padded = rows if height is None else height
    dimension = 2 * padded * cols
    support = None
    live_rows = padded
    if real_rows is not None and real_rows < padded:
        live, support = _support(real_rows, padded, cols)
        live_rows = live.size
    if rows != live_rows:
        raise ConfigError(
            f"{real_rows} real rows padded to {padded} leave {live_rows} "
            f"coefficient rows, got {rows}"
        )
    flat = coeffs.reshape(-1, rows * cols)
    area = flat.shape[1]
    t = min(t, area)
    magnitude = np.abs(flat)
    cutoff = np.partition(magnitude, area - t, axis=1)[:, area - t, None]
    keep = magnitude >= cutoff
    over = np.flatnonzero(keep.sum(axis=1) > t)
    if over.size:
        # more ties at the cut than free slots: the lowest indices win
        ties = magnitude[over] == cutoff[over]
        free = t - (magnitude[over] > cutoff[over]).sum(axis=1)
        keep[over] &= ~ties | (np.cumsum(ties, axis=1) <= free[:, None])
    # every row keeps exactly t flat positions
    kept = np.flatnonzero(keep).reshape(len(flat), t)
    values = flat.reshape(-1)[kept]
    column = kept % area
    bits = 2 * (column if support is None else support[column]) + (values < 0.0)
    bits[values == 0.0] = dimension
    return SparseBits(bits.reshape(coeffs.shape[:-2] + (t,)), dimension)


class MinHasher:
    """Fixed family of seeded random permutations over a bit domain.

    Permutation j is the ranking of splitmix64 keys derived from (seed, j),
    which is indistinguishable from a uniform random permutation for our
    purposes and reproducible everywhere. Signature entry j is the
    position of the first set bit under permutation j, capped at 255 so it
    fits a byte.

    ``table[b, j]``, uint8, is bit b's position under permutation j, so
    capped; bit-major, one bit's positions are one contiguous row to
    gather. Its last row, all 255, is the no-bit marker's.
    """

    def __init__(self, n_permutations: int, dimension: int, seed: int) -> None:
        if dimension < 1:
            raise ConfigError(f"dimension must be >= 1, got {dimension}")
        self.n_permutations = n_permutations
        self.dimension = dimension
        self.seed = seed
        salts = np.array(
            [mix64(seed * 0x1F123BB5 + j) for j in range(n_permutations)],
            dtype=np.uint64,
        )
        keys = splitmix64(salts[:, None] ^ np.arange(dimension, dtype=np.uint64))
        # xor with a salt is injective and splitmix64 is a bijection on u64,
        # so one permutation's keys are distinct: its lowest keys are one
        # set however they are found, and sort into one order. Only those
        # below the cap get a position of their own.
        ranked = min(SIGNATURE_CAP, dimension)
        lowest = np.argpartition(keys, ranked - 1, axis=1)[:, :ranked]
        rank = np.take_along_axis(keys, lowest, axis=1).argsort(axis=1).argsort(axis=1)
        self.table = np.full((dimension + 1, n_permutations), SIGNATURE_CAP, np.uint8)
        self.table[lowest.T, np.arange(n_permutations)] = rank.T
        self.table.flags.writeable = False

    def signature(self, bits: SparseBits) -> np.ndarray:
        """Min-hash signature of a sparse bit set, dtype uint8.

        An empty set yields the all-255 signature. A stacked bit set gives
        one signature per vector, shaped [n_vectors, n_permutations].
        """
        if bits.dimension != self.dimension:
            raise ConfigError(
                f"bit vector dimension {bits.dimension} != hasher "
                f"dimension {self.dimension}"
            )
        return self.table[bits.indices].min(axis=-2, initial=SIGNATURE_CAP)


@lru_cache(maxsize=16)
def get_minhasher(n_permutations: int, dimension: int, seed: int) -> MinHasher:
    """Shared cache; permutation tables are deterministic in their key."""
    return MinHasher(n_permutations, dimension, seed)


#: Upper bound on the real-row elements of one stacked kernel call:
#: 256 KiB of float64 blocks. With 32-frame blocks (the benchmark
#: geometry) that is 25 blocks of the mel variants' 40 rows, 32 blocks of
#: linear-vocal's 32 rows at 8 and 16 kHz and 21 of its 47 rows at
#: 11.025 kHz; with 128-frame blocks (the library's) it is 6, 8 and 5. The
#: coefficient stack keeps only the rows the padding can leave non-zero,
#: 42 of 64 for 40 real rows: 263 KiB for 25 mel blocks. It also bounds a
#: run, the blocks that share one time recursion: whole stacks over at
#: most STACK_ELEMENTS // n_bins frames (819 for 40 rows), so 775 mel
#: blocks at hop 1 and 18 at the library's hop 32, and a 15 s file is one
#: run. A run's level arrays hold up to 1.3 MiB at 32/1 and 1.8 MiB at
#: 128/1. A long file is fingerprinted in bounded memory. (On a 2-CPU box
#: the recursion, gathers and centring of a 15 s file took 2.7-3.0 ms at
#: 128/1 and 1.0-1.2 ms at 32/1, against 15-18 and 2.8-3.8 ms with one
#: recursion per stack; no 15 s or 60 s file faulted a page in, at runs of
#: one stack, of this bound or of four times it.)
STACK_ELEMENTS = 1 << 15


def _time_levels(
    freq: np.ndarray, sums: np.ndarray, n_blocks: int, hop: int, width: int
) -> tuple[list, np.ndarray, np.ndarray]:
    """Time-axis Haar of ``n_blocks`` blocks, shared over their run.

    ``freq`` is the [span, live] frequency transform of the run's frames
    and ``sums`` their per-frame sums, span being
    ``(n_blocks - 1) * hop + width``. Level l pairs entries 2^(l-1) frames
    apart; it is computed only at the frames some block reads, which lie
    ``gcd(hop, 2^l)`` apart. Returns, finest level first, one strided
    [n_blocks, live, width / 2^l] view per level of every block's detail
    coefficients, which belong at columns [width / 2^l, width / 2^(l-1))
    of its transform; and each block's final approximation [n_blocks,
    live] and its sum, added in the same tree.
    """
    levels = []
    low, total = freq, sums
    step, pair = 1, 1  # frames between low's entries, and between a pair's
    while pair < width:
        lattice = math.gcd(hop, 2 * pair)
        stride, offset = lattice // step, pair // step
        count = ((n_blocks - 1) * hop + width - 2 * pair) // lattice + 1
        first = slice(0, (count - 1) * stride + 1, stride)
        second = slice(offset, offset + (count - 1) * stride + 1, stride)
        even, odd = low[first], low[second]
        high = np.subtract(even, odd)
        high /= SQRT2
        low = np.add(even, odd)
        low /= SQRT2
        total = total[first] + total[second]
        # block k reads this level's entries k * hop + p * 2 * pair, p <
        # width / (2 * pair); the last block's last one is high's last row
        row, item = high.strides
        shape = (n_blocks, high.shape[1], width // (2 * pair))
        strides = (hop // lattice * row, item, 2 * pair // lattice * row)
        levels.append(np.ndarray(shape, high.dtype, high, strides=strides))
        step, pair = lattice, 2 * pair
    pick = slice(0, (n_blocks - 1) * (hop // step) + 1, hop // step)
    return levels, low[pick], total[pick]


class StreamingFingerprinter:
    """Incrementally fingerprints audio fed in arbitrary chunks.

    Feed any split of the sample stream; the signatures of completed
    blocks come back as soon as their block's last frame is available, one
    row per block in block order, so the rows of every feed so far are
    blocks 0 to :attr:`blocks_emitted` - 1. The result is bit-identical to
    a whole-file pass because neither a frame's column nor a block's bits
    depend on the run or stack they are computed in. Each feed computes the
    columns of the frames it completes, and their frequency transforms,
    in one :meth:`FrameTransform.column` call and one Haar pass.
    """

    def __init__(
        self,
        sample_rate: int,
        spectral_config: SpectralConfig,
        fingerprint_config: FingerprintConfig,
    ) -> None:
        self.spectral_config = spectral_config
        self.fingerprint_config = fingerprint_config
        self._transform = FrameTransform(sample_rate, spectral_config)
        self._decimator = Decimator(self._transform.decimation)
        n_bins = self._transform.n_bins
        rows = _next_pow2(n_bins)
        width = fingerprint_config.block_frames
        area = rows * width
        if fingerprint_config.top_t > area:
            raise ConfigError(
                f"top_t {fingerprint_config.top_t} exceeds padded block "
                f"area {area}"
            )
        self._rows = rows
        self._max_stack = max(1, STACK_ELEMENTS // (n_bins * width))
        # one time recursion covers a run of whole stacks: see STACK_ELEMENTS
        hop = fingerprint_config.block_hop_frames
        run = (STACK_ELEMENTS // n_bins - width) // hop + 1
        self._max_run = max(1, run // self._max_stack) * self._max_stack
        self._hasher = get_minhasher(
            fingerprint_config.n_permutations, 2 * area, fingerprint_config.seed
        )
        # a block's mean times this is the transform of the block's mean
        # over its real rows, all in its time-DC column
        self._dc = np.sqrt(width) * _haar_live(np.ones(n_bins), rows)
        self._no_rows = np.empty((0, fingerprint_config.n_permutations), np.uint8)
        # the analysis-rate signal from the next frame's start
        self._buffer = np.empty(0, dtype=np.float64)
        # per frame from _columns_start on: its frequency transform, its sum
        self._columns = np.empty((0, self._dc.size))
        self._sums = np.empty(0)
        self._columns_start = 0  # absolute frame index of _columns[0]
        self._frames_done = 0
        self._blocks_done = 0
        self._samples_seen = 0

    @property
    def config_digest(self) -> int:
        return config_digest(
            self.spectral_config, self.fingerprint_config, self._transform.sample_rate
        )

    @property
    def blocks_emitted(self) -> int:
        return self._blocks_done

    @property
    def seconds_consumed(self) -> float:
        return self._samples_seen / self._transform.sample_rate

    def feed(self, samples: np.ndarray) -> np.ndarray:
        """Consumes more samples; returns the [n_new, n_permutations] uint8
        signatures of the blocks they completed."""
        samples = np.asarray(samples, dtype=np.float64)
        self._samples_seen += samples.size
        self._buffer = np.concatenate([self._buffer, self._decimator.feed(samples)])
        transform = self._transform
        frames = transform.frames(self._buffer)
        if len(frames):
            columns = transform.column(frames)
            self._sums = np.concatenate([self._sums, columns.sum(axis=1)])
            self._columns = np.concatenate(
                [self._columns, _haar_live(columns, self._rows)]
            )
            self._frames_done += len(frames)
            # drop samples no frame will touch again
            self._buffer = self._buffer[len(frames) * transform.hop :]
        cfg = self.fingerprint_config
        fresh = []
        hop, width = cfg.block_hop_frames, cfg.block_frames
        ready = 0
        if self._frames_done >= width:
            ready = (self._frames_done - width) // hop + 1 - self._blocks_done
        while ready > 0:
            n_blocks = min(ready, self._max_run)
            fresh.extend(self._emit_run(n_blocks))
            ready -= n_blocks
        return np.concatenate(fresh) if fresh else self._no_rows

    def _emit_run(self, n_blocks: int) -> list[np.ndarray]:
        """Fingerprints the next ``n_blocks`` blocks: one time recursion,
        then one top-t and one min-hash call per stack of them."""
        cfg = self.fingerprint_config
        hop, width = cfg.block_hop_frames, cfg.block_frames
        local = self._blocks_done * hop - self._columns_start
        span = slice(local, local + (n_blocks - 1) * hop + width)
        levels, low, total = _time_levels(
            self._columns[span], self._sums[span], n_blocks, hop, width
        )
        n_bins = self._transform.n_bins
        means = total / (n_bins * width)
        dc = low - means[:, None] * self._dc
        signatures = []
        for start in range(0, n_blocks, self._max_stack):
            stack = slice(start, start + self._max_stack)
            # the time-DC column, then the levels coarsest first
            coeffs = np.concatenate(
                [dc[stack, :, None]] + [high[stack] for high in levels[::-1]], axis=2
            )
            bits = top_t_signs(coeffs, cfg.top_t, real_rows=n_bins, height=self._rows)
            signatures.append(self._hasher.signature(bits))
        self._blocks_done += n_blocks
        # columns before the next block's start are done
        drop = self._blocks_done * hop - self._columns_start
        self._columns = self._columns[drop:]
        self._sums = self._sums[drop:]
        self._columns_start += drop
        return signatures

    def finish(self) -> None:
        """Signals end of stream. No partial blocks are ever emitted.

        Raises TooShort when the total stream never filled one block.
        """
        if self._blocks_done == 0:
            raise TooShort(
                f"{self.seconds_consumed:.3f}s of audio never completed a "
                f"{self.fingerprint_config.block_frames}-frame block"
            )


def fingerprint_audio(
    audio: AudioBuffer,
    spectral_config: SpectralConfig,
    fingerprint_config: FingerprintConfig,
    file_id: int = 0,
) -> Fingerprint:
    """Full fingerprint of a buffer: image, blocks, Haar, signs, min-hash.

    Raises TooShort when the audio cannot fill a single block, i.e. it is
    shorter than :func:`min_audio_seconds` at its rate.
    """
    streamer = StreamingFingerprinter(
        audio.sample_rate, spectral_config, fingerprint_config
    )
    signatures = streamer.feed(audio.samples)
    streamer.finish()
    return Fingerprint(file_id, signatures, streamer.config_digest)


def min_audio_seconds(
    spectral_config: SpectralConfig,
    fingerprint_config: FingerprintConfig,
    sample_rate: int = CANONICAL_RATE,
) -> float:
    """Shortest audio at ``sample_rate`` that yields a block signature.

    That is the block's frames, a window plus block_frames - 1 hops, each
    rounded to whole samples, plus the reach of the decimation filter past
    the last frame's end (see :class:`~speechprint.spectral.FrameTransform`):
    13 samples at 8 kHz for the vocal variants, none for mel-wide.
    """
    transform = FrameTransform(sample_rate, spectral_config)
    return transform.samples_for(fingerprint_config.block_frames) / sample_rate
