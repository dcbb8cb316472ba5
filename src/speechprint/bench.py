"""Accuracy benchmark: degradation grid, hypothesis checks, CSV output.

The experiment enrolls a clean corpus once per (variant, stride), then
fires seeded degraded queries for every (variant, stride, query length)
cell and scores top-1 retrieval accuracy. Three claims are checked over
the resulting table:

  h1  six seconds of audio is enough: accuracy at 6 s sits within 0.05
      of accuracy at the longest query length for every variant.
  h2  finer strides win: per variant, accuracy is negatively rank
      correlated with stride (Spearman rho <= -0.5).
  h3  the three spectral variants are interchangeable: the mean over
      cells of the largest pairwise accuracy gap is at most 0.1.

Every trial's randomness is pre-assigned from the master seed and the
trial's grid coordinates, so results do not depend on execution order.
"""

import csv
import io
import logging
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .audio import CANONICAL_RATE, AudioBuffer, decode_canonical
from .degrade import RATE_RANGE, DeteriorationSpec, make_query
from .errors import ConfigError, TooShort
from .fileio import read_bytes, read_text, write_atomic
from .fingerprint import FingerprintConfig, config_digest, fingerprint_audio
from .index import RetrievalIndex
from .spectral import SpectralConfig, Variant

logger = logging.getLogger(__name__)

DEFAULT_STRIDES_MS = (12.5, 25.0, 50.0, 100.0)
DEFAULT_QUERY_LENS_S = (2.0, 4.0, 6.0, 8.0, 10.0)
DEFAULT_SNR_RANGE_DB = (10.0, 30.0)

#: Block geometry used for benchmarking. The library default block of
#: 128 frames needs window + 127 * stride seconds of audio, which at a
#: 100 ms stride is 12.8 s, more than most of the query lengths under
#: test; a 32-frame block keeps every grid cell able to produce at least
#: one sub-fingerprint while leaving the hashing pipeline identical.
#: Dense blocks (hop 1) on both sides make extraction insensitive to
#: where the degraded query's slice begins, and a small top_t keeps the
#: sign sets stable under the sub-frame misalignment the offset and
#: rate-change stages introduce.
BENCH_FINGERPRINT = FingerprintConfig(
    block_frames=32, block_hop_frames=1, top_t=25
)

CSV_HEADER = ("variant", "stride_ms", "query_len_s", "accuracy", "n_trials", "latency_s")
LONG_CSV_HEADER = ("axis", "variant", "x", "group", "accuracy")


@dataclass(frozen=True)
class ExperimentGrid:
    """The full factorial experiment description."""

    variants: tuple[Variant, ...] = (
        Variant.LINEAR_VOCAL,
        Variant.MEL_VOCAL,
        Variant.MEL_WIDE,
    )
    strides_ms: tuple[float, ...] = DEFAULT_STRIDES_MS
    query_lens_s: tuple[float, ...] = DEFAULT_QUERY_LENS_S
    snr_db_range: tuple[float, float] = DEFAULT_SNR_RANGE_DB
    rate_range: tuple[float, float] = RATE_RANGE
    trials_per_cell: int = 30
    master_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "variants", tuple(Variant(v) for v in self.variants)
        )
        if not self.variants or not self.strides_ms or not self.query_lens_s:
            raise ConfigError("grid axes must be non-empty")
        if self.trials_per_cell < 1:
            raise ConfigError(
                f"trials_per_cell must be >= 1, got {self.trials_per_cell}"
            )
        if any(s <= 0 for s in self.strides_ms):
            raise ConfigError("strides must be positive")
        if any(q <= 0 for q in self.query_lens_s):
            raise ConfigError("query lengths must be positive")
        if self.snr_db_range[0] > self.snr_db_range[1]:
            raise ConfigError("snr_db_range must be (low, high)")
        lo, hi = self.rate_range
        if not RATE_RANGE[0] <= lo <= hi <= RATE_RANGE[1]:
            raise ConfigError(
                f"rate_range must sit inside [{RATE_RANGE[0]}, {RATE_RANGE[1]}]"
            )


@dataclass(frozen=True)
class CellResult:
    """Accuracy of one (variant, stride, query length) cell."""

    variant: Variant
    stride_ms: float
    query_len_s: float
    accuracy: float
    n_trials: int
    mean_query_latency_s: float


@dataclass(frozen=True)
class HypothesisOutcome:
    passed: bool
    detail: str
    metrics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class HypothesisReport:
    h1: HypothesisOutcome
    h2: HypothesisOutcome
    h3: HypothesisOutcome

    @property
    def all_passed(self) -> bool:
        return self.h1.passed and self.h2.passed and self.h3.passed

    def render(self) -> str:
        lines = []
        for name, outcome in (("h1", self.h1), ("h2", self.h2), ("h3", self.h3)):
            flag = "pass" if outcome.passed else "FAIL"
            lines.append(f"{name}: {flag} - {outcome.detail}")
        return "\n".join(lines)


def _trial_seed(grid: ExperimentGrid, vi: int, si: int, li: int, trial: int):
    """Seed for one trial, independent of execution order."""
    return np.random.SeedSequence(
        entropy=(grid.master_seed & 0xFFFFFFFF, vi, si, li, trial)
    )


def _corpus_files(corpus_dir: str | Path) -> list[tuple[int, Path]]:
    """(file id, path) of every WAV under ``corpus_dir``; ids follow sorted
    names from 1."""
    paths = sorted(Path(corpus_dir).glob("*.wav"))
    if not paths:
        raise ConfigError(f"no .wav files under {corpus_dir}")
    return list(enumerate(paths, start=1))


def load_corpus(corpus_dir: str | Path) -> list[tuple[int, AudioBuffer]]:
    """Decodes every WAV under ``corpus_dir`` to 8 kHz; ids follow sorted names."""
    return [
        (file_id, decode_canonical(read_bytes(path, "audio")))
        for file_id, path in _corpus_files(corpus_dir)
    ]


def run_grid(
    corpus_dir: str | Path,
    grid: ExperimentGrid,
    progress=None,
) -> list[CellResult]:
    """Runs the full grid and returns one CellResult per cell.

    For each (variant, stride) the corpus is enrolled once, at
    :data:`BENCH_FINGERPRINT` and the default analysis window; each cell
    then runs trials_per_cell degraded queries (random offset, random
    rate in rate_range, random SNR in snr_db_range) against it at the
    index's default thresholds. A trial counts as correct when the top
    match is the query's source file. Latency covers fingerprinting plus
    querying, not degradation. A query length longer than a corpus file
    raises ConfigError before anything is enrolled.
    """
    corpus = load_corpus(corpus_dir)
    # the longest query must fit the shortest file, in samples rounded as
    # random_offset_slice rounds them, before anything is enrolled
    longest = max(grid.query_lens_s)
    file_id, shortest = min(corpus, key=lambda item: len(item[1]))
    if int(np.floor(longest * CANONICAL_RATE + 0.5)) > len(shortest):
        path = _corpus_files(corpus_dir)[file_id - 1][1]
        raise ConfigError(
            f"query length {longest:g}s is longer than {path} "
            f"({shortest.duration_seconds:.3f}s)"
        )
    results = []
    for vi, variant in enumerate(grid.variants):
        for si, stride_ms in enumerate(grid.strides_ms):
            spectral = SpectralConfig.for_variant(variant, stride_s=stride_ms / 1000.0)
            digest = config_digest(spectral, BENCH_FINGERPRINT, CANONICAL_RATE)
            index = RetrievalIndex.for_config(digest, BENCH_FINGERPRINT)
            for file_id, audio in corpus:
                index.enroll(
                    fingerprint_audio(audio, spectral, BENCH_FINGERPRINT, file_id)
                )
            for li, query_len_s in enumerate(grid.query_lens_s):
                correct = 0
                latency = 0.0
                timed = 0
                for trial in range(grid.trials_per_cell):
                    seed = _trial_seed(grid, vi, si, li, trial)
                    draw = np.random.default_rng(seed.spawn(1)[0])
                    file_id, audio = corpus[trial % len(corpus)]
                    spec = DeteriorationSpec(
                        query_len_s=query_len_s,
                        snr_db=float(draw.uniform(*grid.snr_db_range)),
                        rate=float(draw.uniform(*grid.rate_range)),
                    )
                    query = make_query(audio, spec, seed)
                    t0 = time.perf_counter()
                    try:
                        fp = fingerprint_audio(query, spectral, BENCH_FINGERPRINT)
                    except TooShort:
                        # query shorter than one block at this stride:
                        # the system cannot answer, scored as a miss
                        continue
                    result = index.query(fp)
                    latency += time.perf_counter() - t0
                    timed += 1
                    if result is not None and result.file_id == file_id:
                        correct += 1
                cell = CellResult(
                    variant,
                    stride_ms,
                    query_len_s,
                    correct / grid.trials_per_cell,
                    grid.trials_per_cell,
                    latency / timed if timed else 0.0,
                )
                results.append(cell)
                if progress is not None:
                    progress(cell)
                logger.info(
                    "%s stride=%gms len=%gs accuracy=%.3f",
                    variant.value,
                    stride_ms,
                    query_len_s,
                    cell.accuracy,
                )
    return results


def _cell_table(results: list[CellResult]) -> dict:
    table = {}
    for cell in results:
        table[(cell.variant, cell.stride_ms, cell.query_len_s)] = cell.accuracy
    return table


def _axes(results: list[CellResult]):
    variants = sorted({c.variant for c in results}, key=lambda v: v.value)
    strides = sorted({c.stride_ms for c in results})
    lens = sorted({c.query_len_s for c in results})
    return variants, strides, lens


def check_hypotheses(results: list[CellResult]) -> HypothesisReport:
    """Evaluates the three claims over a completed grid.

    Requires at least two variants, three strides and three query
    lengths including one >= 6 s, since the claims are about those axes.
    The Spearman test is scipy's ``spearmanr``, imported on first use.
    """
    from scipy.stats import spearmanr

    if not results:
        raise ConfigError("no results to check")
    variants, strides, lens = _axes(results)
    if len(variants) < 2 or len(strides) < 3 or len(lens) < 3:
        raise ConfigError(
            "hypothesis checks need >= 2 variants, >= 3 strides and "
            f">= 3 query lengths, got {len(variants)}/{len(strides)}/{len(lens)}"
        )
    six = [q for q in lens if q >= 6.0]
    if not six:
        raise ConfigError("hypothesis h1 needs a query length >= 6 s")
    table = _cell_table(results)

    # h1: accuracy at ~6 s within 0.05 of the longest-query accuracy
    pivot, longest = six[0], lens[-1]
    h1_gaps = {}
    for variant in variants:
        acc_six = float(
            np.mean([table[(variant, s, pivot)] for s in strides])
        )
        acc_long = float(
            np.mean([table[(variant, s, longest)] for s in strides])
        )
        h1_gaps[variant.value] = acc_long - acc_six
    worst_gap = max(h1_gaps.values())
    # accuracies are small-integer ratios; the epsilon only absorbs float
    # representation error so a gap of exactly the allowance passes
    h1 = HypothesisOutcome(
        worst_gap <= 0.05 + 1e-9,
        f"max accuracy({longest:g}s) - accuracy({pivot:g}s) = {worst_gap:.3f} "
        f"(allowed 0.05)",
        {"gaps": h1_gaps, "pivot_len_s": pivot, "longest_len_s": longest},
    )

    # h2: accuracy decreases with stride (Spearman rho <= -0.5 per variant)
    h2_rho = {}
    for variant in variants:
        by_stride = [
            float(np.mean([table[(variant, s, q)] for q in lens])) for s in strides
        ]
        rho = spearmanr(strides, by_stride).statistic
        h2_rho[variant.value] = float(rho)
    worst_rho = max(h2_rho.values())
    h2 = HypothesisOutcome(
        worst_rho <= -0.5 + 1e-9,
        f"max Spearman rho(stride, accuracy) = {worst_rho:.3f} (allowed -0.5)",
        {"rho": h2_rho},
    )

    # h3: variants agree: mean over cells of max pairwise gap <= 0.1
    gaps = []
    for stride in strides:
        for q in lens:
            accs = [table[(v, stride, q)] for v in variants]
            gaps.append(max(accs) - min(accs))
    mean_gap = float(np.mean(gaps))
    h3 = HypothesisOutcome(
        mean_gap <= 0.1 + 1e-9,
        f"mean max pairwise variant gap = {mean_gap:.3f} (allowed 0.1)",
        {"mean_gap": mean_gap, "max_gap": float(np.max(gaps))},
    )
    return HypothesisReport(h1, h2, h3)


def emit(results: list[CellResult], out_csv: str | Path) -> list[Path]:
    """Writes the results table plus a long-format companion for plots.

    The main file has one row per cell. The companion ``*_long.csv``
    repeats each cell once per axis (stride on x, then query length on
    x) so a plotting tool can facet both figures straight off the file.
    """
    if not results:
        raise ConfigError("no results to emit")
    out_csv = Path(out_csv)
    long_csv = out_csv.with_name(out_csv.stem + "_long" + out_csv.suffix)
    rows = [
        (c.variant.value, c.stride_ms, c.query_len_s, c.accuracy, c.n_trials,
         c.mean_query_latency_s)
        for c in results
    ]
    long_rows = [
        ("stride_ms", c.variant.value, c.stride_ms, c.query_len_s, c.accuracy)
        for c in results
    ] + [
        ("query_len_s", c.variant.value, c.query_len_s, c.stride_ms, c.accuracy)
        for c in results
    ]
    write_atomic(out_csv, _csv_bytes([CSV_HEADER, *rows]), "results")
    write_atomic(long_csv, _csv_bytes([LONG_CSV_HEADER, *long_rows]), "results")
    return [out_csv, long_csv]


def _csv_bytes(rows) -> bytes:
    """``rows`` as UTF-8 CSV, each ended by CRLF as the csv module writes it."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


def load_results_csv(path: str | Path) -> list[CellResult]:
    """Reads back a CSV written by :func:`emit`.

    Raises:
        ConfigError: a header other than :data:`CSV_HEADER`, or a row
            that is not one cell; the message names the file and line.
    """
    reader = csv.reader(io.StringIO(read_text(path, "results"), newline=""))
    header = tuple(next(reader, ()))
    if header != CSV_HEADER:
        raise ConfigError(f"unexpected results header {header!r}")
    results = []
    for row in reader:
        try:
            variant, stride, length, accuracy, n_trials, latency = row
            results.append(
                CellResult(
                    Variant(variant),
                    float(stride),
                    float(length),
                    float(accuracy),
                    int(n_trials),
                    float(latency),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{path}:{reader.line_num}: bad results row: {exc}") from exc
    return results


def parse_grid_config(path: str | Path) -> ExperimentGrid:
    """Parses a key=value grid file; unknown keys are rejected.

    Recognised keys: variants, strides_ms, query_lens_s, snr_db_range,
    rate_range, trials_per_cell, master_seed. List values are comma
    separated; ranges take "low,high".
    """
    text = read_text(path, "grid config")
    grid = ExperimentGrid()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        parts = [p.strip() for p in value.split(",") if p.strip()]
        try:
            if key == "variants":
                grid = replace(grid, variants=tuple(Variant(p) for p in parts))
            elif key == "strides_ms":
                grid = replace(grid, strides_ms=tuple(float(p) for p in parts))
            elif key == "query_lens_s":
                grid = replace(grid, query_lens_s=tuple(float(p) for p in parts))
            elif key == "snr_db_range":
                low, high = (float(p) for p in parts)
                grid = replace(grid, snr_db_range=(low, high))
            elif key == "rate_range":
                low, high = (float(p) for p in parts)
                grid = replace(grid, rate_range=(low, high))
            elif key == "trials_per_cell":
                grid = replace(grid, trials_per_cell=int(value))
            elif key == "master_seed":
                grid = replace(grid, master_seed=int(value))
            else:
                raise ConfigError(f"unknown grid key {key!r}")
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return grid
