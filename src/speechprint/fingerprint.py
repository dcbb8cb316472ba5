"""Wavelet min-hash fingerprints over spectral images.

The image is cut into overlapping blocks of frames; each block gets a 2-D
Haar transform, the t strongest coefficients are kept as sign bits, and
the resulting sparse bit set is crushed into a short min-hash signature.
Min-hash keeps the key property we rely on for retrieval: the probability
two signatures agree at one position equals the Jaccard similarity of the
underlying bit sets, so similarity survives into the compressed domain.

Every stage also takes a stack of blocks, shaped [n_blocks, rows, cols],
so one call per stage covers all the blocks an audio chunk completes; a
block's bits never depend on the stack it is computed in. The Haar
transform needs power-of-two sides, so a block is defined as its real
rows zero-padded to the next power of two; the streaming kernel cuts the
real rows only, and the transform and the sign selection skip the
padding bit for bit.

A file's fingerprint is two aligned columns: a [n_subs, n_permutations]
matrix of its block signatures ("sub-fingerprints"), one row per block,
and the block index of each row. Matching happens in
:mod:`speechprint.index` via banded signature digests.
"""

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import AudioBuffer
from .errors import ConfigError, CorruptIndex, TooShort
from .hashing import fnv1a64, mix64, splitmix64
from .spectral import FrameTransform, SpectralConfig, SpectralImage

SQRT2 = np.sqrt(2.0)

FINGERPRINT_MAGIC = b"SPFP"
FINGERPRINT_VERSION = 1

#: Values a signature byte can take; min-hash positions are capped here.
SIGNATURE_CAP = 255


@dataclass(frozen=True)
class FingerprintConfig:
    """Block geometry and hashing parameters.

    Defaults follow the classic wavelet fingerprinting regime (128-frame
    blocks, top 200 coefficients, 100 permutations banded 20 x 5). Every
    field is tunable; the benchmark harness runs a smaller block so short
    queries still produce sub-fingerprints at coarse strides.
    """

    block_frames: int = 128
    block_hop_frames: int = 32
    top_t: int = 200
    n_permutations: int = 100
    band_count: int = 20
    band_width: int = 5
    seed: int = 0x53504650

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
        if self.n_permutations < 1:
            raise ConfigError(
                f"n_permutations must be >= 1, got {self.n_permutations}"
            )
        if self.band_count < 1 or self.band_width < 1:
            raise ConfigError("band_count and band_width must be >= 1")
        if self.band_count * self.band_width != self.n_permutations:
            raise ConfigError(
                f"band_count * band_width must equal n_permutations "
                f"({self.band_count} * {self.band_width} != {self.n_permutations})"
            )


@dataclass(frozen=True, eq=False)
class SparseBits:
    """Sparse bit vector: sorted set bit indices plus the full dimension.

    A stack of vectors, one per block, keeps every vector's indices back
    to back in ``indices`` and the number belonging to vector k in
    ``counts[k]``; ``counts`` is None for a single vector. ``len`` is the
    number of set bits over the whole stack.
    """

    indices: np.ndarray
    dimension: int
    counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        if idx.size and (idx.min() < 0 or idx.max() >= self.dimension):
            raise ConfigError("bit index out of range")
        if self.counts is not None:
            counts = np.asarray(self.counts, dtype=np.int64)
            object.__setattr__(self, "counts", counts)
            if counts.ndim != 1 or np.any(counts < 0) or counts.sum() != idx.size:
                raise ConfigError("bit counts must be >= 0 and sum to the index count")

    def __len__(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True, eq=False)
class Fingerprint:
    """One file's block signatures as two aligned read-only columns.

    Row k of the [n_subs, n_permutations] uint8 ``signatures`` (a view of
    the matrix passed in, not a copy) is the min-hash signature of block
    ``blocks[k]``. The id must fit the u64 and each block index the u32
    that index files and the wire format store; ConfigError otherwise.
    """

    file_id: int
    signatures: np.ndarray
    blocks: np.ndarray
    config_digest: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.file_id < 1 << 64:
            raise ConfigError(f"file id {self.file_id} is outside [0, 2^64)")
        signatures = np.asarray(self.signatures)
        if signatures.ndim != 2 or signatures.dtype != np.uint8:
            raise ConfigError(
                f"signatures must be a 2-D uint8 matrix, got "
                f"{signatures.dtype} of shape {signatures.shape}"
            )
        blocks = np.asarray(self.blocks)
        if blocks.shape != signatures.shape[:1] or blocks.dtype.kind not in "iu":
            raise ConfigError(
                f"blocks must be {len(signatures)} integers, one per signature "
                f"row, got {blocks.dtype} of shape {blocks.shape}"
            )
        if blocks.size and (blocks.min() < 0 or blocks.max() >= 1 << 32):
            raise ConfigError(f"file {self.file_id} has block indices outside u32")
        signatures = signatures.view()
        blocks = blocks.astype(np.int64)
        signatures.flags.writeable = blocks.flags.writeable = False
        object.__setattr__(self, "signatures", signatures)
        object.__setattr__(self, "blocks", blocks)


def config_digest(
    spectral: SpectralConfig, fingerprint: FingerprintConfig, sample_rate: int
) -> int:
    """Stable 64-bit digest of everything that shapes a signature.

    Fingerprints and indexes are only comparable when this matches.
    """
    canonical = "|".join(
        [
            "speechprint-cfg-v1",
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


def _cut_blocks(
    frames: np.ndarray, n_blocks: int, config: FingerprintConfig
) -> np.ndarray:
    """Stack of ``n_blocks`` centred blocks from [n_frames, n_bins], unpadded.

    Block k takes frames [k * hop, k * hop + block_frames) as its columns,
    giving a C-contiguous [n_blocks, n_bins, block_frames] stack. Each
    block's mean is one pairwise sum over its n_bins * block_frames values
    flattened in row-major order, divided by their count. That sum does not
    depend on the stack's length, so a block's bits never depend on the
    stack it was cut in. (A copy of a block in another memory order sums
    in another order and can differ in the last bit.)
    """
    windows = np.lib.stride_tricks.sliding_window_view(
        frames, config.block_frames, axis=0
    )[:: config.block_hop_frames][:n_blocks]
    stack = np.array(windows, dtype=np.float64, order="C")
    stack -= stack.reshape(n_blocks, -1).mean(axis=1)[:, None, None]
    return stack


def blocks(image: SpectralImage, config: FingerprintConfig) -> np.ndarray:
    """Overlapping frame blocks, centred and zero padded to a power of two.

    Returns a [n_blocks, rows, block_frames] stack. Block k covers frames
    [k * hop, k * hop + block_frames); the count is
    floor((n_frames - block_frames) / hop) + 1. Rows are padded so the
    Haar transform sees power-of-two sides.

    Each block's real rows have their scalar mean subtracted. Spectral
    image values are all positive, so without centring every block in
    every file shares a strong same-sign energy offset (and near-silent
    blocks are virtually identical everywhere); centring leaves only the
    content-dependent structure to be hashed.

    Reference oracle with no production caller, kept for tests to compare
    the streaming kernel against the stages run on its padded blocks.
    """
    n_frames = image.n_frames
    if n_frames < config.block_frames:
        raise TooShort(
            f"{n_frames} frames < one {config.block_frames}-frame block"
        )
    n_blocks = (n_frames - config.block_frames) // config.block_hop_frames + 1
    real = _cut_blocks(image.data.T, n_blocks, config)
    stack = np.zeros((n_blocks, _next_pow2(image.n_bins), config.block_frames))
    stack[:, : image.n_bins] = real
    return stack


def _haar_axis(src: np.ndarray, dst: np.ndarray, axis: int) -> None:
    """Full 1-D orthonormal Haar transform along ``axis``, from src to dst.

    ``src`` is taken as zero-padded along ``axis`` to dst's length there, a
    power of two, and each level computes only the pairs that hold a real
    entry: an odd count gets one padding zero appended, so its last pair
    is x - 0.0 and x + 0.0, exactly as in the padded transform. The pairs
    of zeros past it give zeros, which dst must already hold. Each level
    writes its detail half into ``dst`` and carries its approximation
    half on in a scratch array.
    """
    low = np.moveaxis(src, axis, -1)
    dst = np.moveaxis(dst, axis, -1)
    length = dst.shape[-1]
    while length > 1:
        half = length // 2
        if low.shape[-1] % 2:
            low = np.concatenate([low, np.zeros(low.shape[:-1] + (1,))], axis=-1)
        even, odd = low[..., 0::2], low[..., 1::2]
        high = np.subtract(even, odd)
        high /= SQRT2
        dst[..., half : half + high.shape[-1]] = high
        low = np.add(even, odd)
        low /= SQRT2
        length = half
    dst[..., :1] = low


def _ihaar_axis(a: np.ndarray, axis: int) -> None:
    n = a.shape[axis]
    length = 2
    while length <= n:
        half = length // 2
        idx = [slice(None)] * a.ndim
        idx[axis] = slice(0, half)
        s = a[tuple(idx)].copy()
        idx[axis] = slice(half, length)
        d = a[tuple(idx)].copy()
        idx[axis] = slice(0, length, 2)
        a[tuple(idx)] = (s + d) / SQRT2
        idx[axis] = slice(1, length, 2)
        a[tuple(idx)] = (s - d) / SQRT2
        length *= 2


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
    """
    _check_sides(block.shape, height)
    block = np.asarray(block, dtype=np.float64)
    timed = np.empty(block.shape)
    _haar_axis(block, timed, axis=-1)
    *outer, rows, cols = block.shape
    out = np.zeros((*outer, height or rows, cols))
    _haar_axis(timed, out, axis=-2)
    return out


def ihaar2d(coeffs: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`haar2d`, for a block or a stack of blocks.

    Reference oracle with no production caller, kept for tests to check
    :func:`haar2d` against.
    """
    _check_sides(coeffs.shape)
    out = np.array(coeffs, dtype=np.float64, copy=True)
    _ihaar_axis(out, axis=-2)
    _ihaar_axis(out, axis=-1)
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
    coeffs: np.ndarray, t: int, real_rows: int | None = None
) -> SparseBits:
    """Sign encoding of the t largest-magnitude coefficients.

    Flat coefficient i contributes bit 2i when positive and bit 2i+1 when
    negative; zeros contribute nothing even when ranked. Magnitude ties at
    the cut are resolved toward lower flat indices, so the output is a
    pure function of the coefficient values.

    A [n_blocks, rows, cols] stack is encoded block by block into one
    stacked :class:`SparseBits`; a single 2-D block gives a single vector.

    Given ``real_rows``, ``coeffs`` is the :func:`haar2d` of blocks with
    that many real rows zero-padded to ``rows``, and the coefficient rows
    the padding leaves zero are left out of the ranking. The bits are the
    same, because zeros never rank above a non-zero magnitude and never
    set a bit.
    """
    if t < 1:
        raise ConfigError(f"t must be >= 1, got {t}")
    stacked = coeffs.ndim == 3
    n_blocks = coeffs.shape[0] if stacked else 1
    rows, cols = coeffs.shape[-2:]
    dimension = 2 * rows * cols
    support = None
    if real_rows is not None and real_rows < rows:
        live, support = _support(real_rows, rows, cols)
        flat = np.take(coeffs.reshape(n_blocks, rows, cols), live, axis=1)
        flat = flat.reshape(n_blocks, -1)
    else:
        flat = coeffs.reshape(n_blocks, -1)
    area = flat.shape[1]
    if t >= area:
        keep = flat != 0.0
    else:
        magnitude = np.abs(flat)
        cutoff = np.partition(magnitude, area - t, axis=1)[:, area - t, None]
        keep = magnitude >= cutoff
        over = np.flatnonzero(keep.sum(axis=1) > t)
        if over.size:
            # more ties at the cut than free slots: the lowest indices win
            ties = magnitude[over] == cutoff[over]
            free = t - (magnitude[over] > cutoff[over]).sum(axis=1)
            keep[over] &= ~ties | (np.cumsum(ties, axis=1) <= free[:, None])
    kept = np.flatnonzero(keep)
    values = flat.reshape(-1)[kept]
    nonzero = values != 0.0
    block, column = np.divmod(kept[nonzero], area)
    if support is not None:
        column = support[column]
    bits = 2 * column + (values[nonzero] < 0.0)
    if not stacked:
        return SparseBits(bits, dimension)
    return SparseBits(bits, dimension, np.bincount(block, minlength=n_blocks))


class MinHasher:
    """Fixed family of seeded random permutations over a bit domain.

    Permutation j is the ranking of splitmix64 keys derived from (seed, j),
    which is indistinguishable from a uniform random permutation for our
    purposes and reproducible everywhere. Signature entry j is the
    position of the first set bit under permutation j, capped at 255 so it
    fits a byte.
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
        # so one permutation's keys are distinct and every sort kind gives
        # the same order: the default kind is exact, not only faster
        order = np.argsort(keys, axis=1)
        # stored bit-major, so one bit's positions under every permutation
        # are one contiguous row to gather; bit order[j, r] has rank r
        self._by_bit = np.empty((dimension, n_permutations), dtype=np.int32)
        np.put_along_axis(
            self._by_bit, order.T, np.arange(dimension, dtype=np.int32)[:, None], axis=0
        )
        self._positions = self._by_bit.T

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
        counts = np.array([len(bits)]) if bits.counts is None else bits.counts
        out = np.full((counts.size, self.n_permutations), SIGNATURE_CAP, dtype=np.uint8)
        filled = np.flatnonzero(counts)
        if filled.size:
            starts = (np.cumsum(counts) - counts)[filled]
            mins = np.minimum.reduceat(self._by_bit[bits.indices], starts, axis=0)
            out[filled] = np.minimum(mins, SIGNATURE_CAP)
        return out[0] if bits.counts is None else out


@lru_cache(maxsize=16)
def get_minhasher(n_permutations: int, dimension: int, seed: int) -> MinHasher:
    """Shared cache; permutation tables are deterministic in their key."""
    return MinHasher(n_permutations, dimension, seed)


#: Upper bound on the real-row elements of one stacked kernel call:
#: 256 KiB of float64 blocks. With 32-frame blocks (the benchmark
#: geometry) that is 25 blocks of the mel variants' 40 rows, 32 blocks of
#: linear-vocal's 32 rows at 8 and 16 kHz and 21 of its 47 rows at
#: 11.025 kHz; with 128-frame blocks (the library's) it is 6, 8 and 5. The
#: Haar output is padded to 64 rows, 400 KiB for 25 mel blocks. A long file
#: is fingerprinted in bounded memory, and the kernel's temporaries stay
#: small enough for the allocator to reuse them from one call to the next.
#: With 1 MiB stacks every call faulted its temporaries in afresh: about
#: 2,200 page faults per 6 s benchmark-geometry query and 1,400 per 15 s
#: library-geometry file, against fewer than one here.
STACK_ELEMENTS = 1 << 15


class StreamingFingerprinter:
    """Incrementally fingerprints audio fed in arbitrary chunks.

    Feed any split of the sample stream; the signatures of completed
    blocks come back as soon as their block's last frame is available, one
    row per block in block order, so the rows of every feed so far are
    blocks 0 to :attr:`blocks_emitted` - 1. The result is bit-identical to
    a whole-file pass because neither a frame's column nor a block's bits
    depend on the stack they are computed in. Each feed computes the
    columns of the frames it completes in one :meth:`FrameTransform.column`
    call.
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
        n_bins = self._transform.n_bins
        rows = _next_pow2(n_bins)
        area = rows * fingerprint_config.block_frames
        if fingerprint_config.top_t > area:
            raise ConfigError(
                f"top_t {fingerprint_config.top_t} exceeds padded block "
                f"area {area}"
            )
        self._rows = rows
        self._max_stack = max(
            1, STACK_ELEMENTS // (n_bins * fingerprint_config.block_frames)
        )
        self._hasher = get_minhasher(
            fingerprint_config.n_permutations, 2 * area, fingerprint_config.seed
        )
        self._no_rows = np.empty((0, fingerprint_config.n_permutations), np.uint8)
        self._buffer = np.empty(0, dtype=np.float64)  # from the next frame's start
        self._columns = np.empty((0, self._transform.n_bins))
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
        self._buffer = np.concatenate([self._buffer, samples])
        transform = self._transform
        frames = transform.frames(self._buffer)
        if len(frames):
            columns = transform.column(frames)
            self._columns = np.concatenate([self._columns, columns])
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
            n_blocks = min(ready, self._max_stack)
            fresh.append(self._emit_stack(n_blocks))
            ready -= n_blocks
        return np.concatenate(fresh) if fresh else self._no_rows

    def _emit_stack(self, n_blocks: int) -> np.ndarray:
        """Fingerprints the next ``n_blocks`` blocks in one kernel call."""
        cfg = self.fingerprint_config
        hop = cfg.block_hop_frames
        local = self._blocks_done * hop - self._columns_start
        span = (n_blocks - 1) * hop + cfg.block_frames
        frames = self._columns[local : local + span]
        stack = _cut_blocks(frames, n_blocks, cfg)
        coeffs = haar2d(stack, self._rows)
        bits = top_t_signs(coeffs, cfg.top_t, real_rows=stack.shape[1])
        signatures = self._hasher.signature(bits)
        self._blocks_done += n_blocks
        # columns before the next block's start are done
        keep_from = self._blocks_done * hop
        if keep_from > self._columns_start:
            self._columns = self._columns[keep_from - self._columns_start :]
            self._columns_start = keep_from
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
    shorter than window_s + (block_frames - 1) * stride_s.
    """
    streamer = StreamingFingerprinter(
        audio.sample_rate, spectral_config, fingerprint_config
    )
    signatures = streamer.feed(audio.samples)
    streamer.finish()
    blocks = np.arange(streamer.blocks_emitted)
    return Fingerprint(file_id, signatures, blocks, streamer.config_digest)


def min_audio_seconds(
    spectral_config: SpectralConfig, fingerprint_config: FingerprintConfig
) -> float:
    """Shortest audio that yields at least one block signature."""
    return (
        spectral_config.window_s
        + (fingerprint_config.block_frames - 1) * spectral_config.stride_s
    )


def _record_dtype(n_permutations: int) -> np.dtype:
    """One wire row: a u32 block index, then the raw signature bytes."""
    return np.dtype([("block", "<u4"), ("signature", "u1", (n_permutations,))])


def serialize_fingerprint(fp: Fingerprint) -> bytes:
    """Compact binary form: magic, version, config digest, id, rows.

    Layout (little endian): "SPFP", u16 version, u64 config digest,
    u64 file_id, u32 row count, then per row a u32 block index followed
    by its n_permutations signature bytes. Every record has the same
    width, so a reader gets the signature width from the body length.
    """
    records = np.empty(len(fp.blocks), dtype=_record_dtype(fp.signatures.shape[1]))
    records["block"] = fp.blocks
    records["signature"] = fp.signatures
    header = struct.pack(
        "<HQQI", FINGERPRINT_VERSION, fp.config_digest, fp.file_id, len(records)
    )
    return FINGERPRINT_MAGIC + header + records.tobytes()


def deserialize_fingerprint(data: bytes) -> Fingerprint:
    """Inverse of :func:`serialize_fingerprint`; a record of no rows has no
    signature width, so it comes back with a [0, 0] signature matrix."""
    header = 4 + struct.calcsize("<HQQI")
    if len(data) < header or data[:4] != FINGERPRINT_MAGIC:
        raise CorruptIndex("not a fingerprint record")
    version, digest, file_id, count = struct.unpack("<HQQI", data[4:header])
    if version != FINGERPRINT_VERSION:
        raise CorruptIndex(f"unsupported fingerprint version {version}")
    body = len(data) - header
    if count == 0:
        if body:
            raise CorruptIndex("trailing bytes after empty fingerprint")
        return Fingerprint(
            file_id, np.empty((0, 0), np.uint8), np.empty(0, np.int64), digest
        )
    if body % count or body // count <= 4:
        raise CorruptIndex("fingerprint record length inconsistent with count")
    records = np.frombuffer(data, _record_dtype(body // count - 4), offset=header)
    return Fingerprint(file_id, records["signature"], records["block"], digest)
