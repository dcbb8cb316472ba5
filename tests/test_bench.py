"""Tests for the degradation-grid benchmark and hypothesis checks."""

import numpy as np
import pytest

from speechprint.audio import decode_wav, encode_wav, resample
from speechprint.bench import (
    BENCH_FINGERPRINT,
    CSV_HEADER,
    LONG_CSV_HEADER,
    CellResult,
    ExperimentGrid,
    check_hypotheses,
    emit,
    load_corpus,
    load_results_csv,
    parse_grid_config,
    run_grid,
)
from speechprint.corpus import synth_corpus, synth_speech_like
from speechprint.errors import ConfigError, IoError
from speechprint.spectral import Variant

VARIANTS = (Variant.LINEAR_VOCAL, Variant.MEL_VOCAL, Variant.MEL_WIDE)


def make_cells(acc_fn, variants=VARIANTS, strides=(10.0, 20.0, 50.0), lens=(2.0, 6.0, 10.0)):
    """Builds a full factorial table from an accuracy function."""
    return [
        CellResult(v, s, q, acc_fn(v, s, q), 30, 0.001)
        for v in variants
        for s in strides
        for q in lens
    ]


def cell_key(cell):
    """Everything except latency, which is a wall-clock measurement."""
    return (cell.variant, cell.stride_ms, cell.query_len_s, cell.accuracy, cell.n_trials)


class TestExperimentGrid:
    def test_defaults(self):
        grid = ExperimentGrid()
        assert grid.variants == VARIANTS
        assert grid.strides_ms == (12.5, 25.0, 50.0, 100.0)
        assert grid.query_lens_s == (2.0, 4.0, 6.0, 8.0, 10.0)
        assert grid.trials_per_cell == 30
        assert len(grid.variants) * len(grid.strides_ms) * len(grid.query_lens_s) == 60

    def test_variant_values_are_coerced(self):
        grid = ExperimentGrid(variants=("mel-vocal", "mel-wide"))
        assert grid.variants == (Variant.MEL_VOCAL, Variant.MEL_WIDE)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"variants": ()},
            {"strides_ms": ()},
            {"query_lens_s": ()},
            {"trials_per_cell": 0},
            {"strides_ms": (25.0, -1.0)},
            {"query_lens_s": (0.0,)},
            {"snr_db_range": (30.0, 10.0)},
            {"rate_range": (0.90, 1.00)},
            {"rate_range": (1.00, 1.10)},
        ],
    )
    def test_invalid_grid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentGrid(**kwargs)


class TestLoadCorpus:
    def test_ids_follow_sorted_names(self, tmp_path):
        paths = synth_corpus(tmp_path / "src", n_files=2, duration_s=2.0, seed=5)
        first = paths[0].read_bytes()
        second = paths[1].read_bytes()
        out = tmp_path / "corpus"
        out.mkdir()
        # write them under names whose sort order reverses creation order
        (out / "z.wav").write_bytes(first)
        (out / "a.wav").write_bytes(second)
        corpus = load_corpus(out)
        assert [file_id for file_id, _ in corpus] == [1, 2]
        assert np.array_equal(corpus[0][1].samples, decode_wav(second).samples)
        assert np.array_equal(corpus[1][1].samples, decode_wav(first).samples)

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_corpus(tmp_path)

    def test_audio_is_at_the_canonical_rate(self, tmp_path):
        paths = mixed_rate_corpus(tmp_path / "corpus")
        corpus = load_corpus(tmp_path / "corpus")
        assert [audio.sample_rate for _id, audio in corpus] == [8000] * 3
        rewritten = resample(decode_wav(paths[1].read_bytes()), 8000)
        assert np.array_equal(corpus[1][1].samples, rewritten.samples)


def mixed_rate_corpus(corpus_dir):
    """Three 6 s files, the second rewritten at 16 kHz."""
    paths = synth_corpus(corpus_dir, n_files=3, duration_s=6.0, seed=12)
    clip = decode_wav(paths[1].read_bytes())
    paths[1].write_bytes(encode_wav(resample(clip, 16000)))
    return paths


class TestRunGrid:
    def test_same_seed_reproduces_results(self, small_corpus_dir):
        grid = ExperimentGrid(
            variants=(Variant.MEL_VOCAL,),
            strides_ms=(25.0, 50.0),
            query_lens_s=(4.0, 6.0),
            trials_per_cell=3,
            master_seed=42,
        )
        first = run_grid(small_corpus_dir, grid)
        second = run_grid(small_corpus_dir, grid)
        assert len(first) == 1 * 2 * 2  # one result per cell
        assert [cell_key(c) for c in first] == [cell_key(c) for c in second]

    def test_master_seed_changes_trials(self, small_corpus_dir):
        base = dict(
            variants=(Variant.MEL_VOCAL,),
            strides_ms=(50.0,),
            query_lens_s=(4.0,),
            trials_per_cell=4,
        )
        harsh = dict(snr_db_range=(0.0, 2.0))
        first = run_grid(small_corpus_dir, ExperimentGrid(master_seed=1, **base, **harsh))
        second = run_grid(small_corpus_dir, ExperimentGrid(master_seed=2, **base, **harsh))
        # different seeds draw different offsets and noise; the cells are
        # built from the same corpus so only the trial outcomes may move
        assert len(first) == len(second) == 1

    def test_clean_self_retrieval_is_perfect(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        synth_corpus(corpus_dir, n_files=4, duration_s=6.0, seed=3)
        # queries as long as the files leave no room for a random offset,
        # rate pinned to 1.0 skips resampling and the SNR is high enough
        # that the added noise never moves a coefficient ranking
        grid = ExperimentGrid(
            variants=(Variant.MEL_VOCAL, Variant.MEL_WIDE),
            strides_ms=(25.0,),
            query_lens_s=(6.0,),
            snr_db_range=(200.0, 200.0),
            rate_range=(1.0, 1.0),
            trials_per_cell=4,
        )
        for cell in run_grid(corpus_dir, grid):
            assert cell.accuracy == 1.0
            assert cell.n_trials == 4
            assert cell.mean_query_latency_s > 0.0

    def test_degradation_does_not_raise_accuracy(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        synth_corpus(corpus_dir, n_files=4, duration_s=6.0, seed=3)
        base = dict(
            variants=(Variant.MEL_VOCAL,),
            strides_ms=(25.0,),
            query_lens_s=(4.0,),
            trials_per_cell=4,
        )
        mild = run_grid(
            corpus_dir,
            ExperimentGrid(snr_db_range=(200.0, 200.0), rate_range=(1.0, 1.0), **base),
        )
        harsh = run_grid(
            corpus_dir,
            ExperimentGrid(snr_db_range=(0.0, 0.0), rate_range=(0.97, 1.03), **base),
        )
        assert np.mean([c.accuracy for c in mild]) >= np.mean([c.accuracy for c in harsh])

    def test_too_short_query_scores_as_miss(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        synth_corpus(corpus_dir, n_files=2, duration_s=6.0, seed=9)
        # a 0.5 s query at a 100 ms stride cannot fill one analysis block,
        # so every trial is an unanswerable miss rather than an error
        grid = ExperimentGrid(
            variants=(Variant.MEL_VOCAL,),
            strides_ms=(100.0,),
            query_lens_s=(0.5,),
            trials_per_cell=2,
        )
        (cell,) = run_grid(corpus_dir, grid)
        assert cell.accuracy == 0.0
        assert cell.mean_query_latency_s == 0.0

    def test_mixed_rate_corpus_is_enrolled_at_the_canonical_rate(self, tmp_path):
        mixed_rate_corpus(tmp_path / "corpus")
        # whole-file queries with no noise and no rate change: the 16 kHz
        # file is found like the others once both sides are at 8 kHz
        grid = ExperimentGrid(
            variants=(Variant.MEL_VOCAL,),
            strides_ms=(25.0,),
            query_lens_s=(6.0,),
            snr_db_range=(200.0, 200.0),
            rate_range=(1.0, 1.0),
            trials_per_cell=3,
        )
        (cell,) = run_grid(tmp_path / "corpus", grid)
        assert cell.accuracy == 1.0

    def test_query_longer_than_a_file_is_an_error_before_any_cell(self, tmp_path):
        paths = synth_corpus(tmp_path / "corpus", n_files=2, duration_s=8.0, seed=9)
        paths[1].write_bytes(encode_wav(synth_speech_like(4.0, 8000, seed=9)))
        grid = ExperimentGrid(
            variants=(Variant.MEL_VOCAL,),
            strides_ms=(100.0,),
            query_lens_s=(2.0, 4.0, 6.0),
            trials_per_cell=1,
        )
        seen = []
        with pytest.raises(ConfigError, match=r"6s is longer than .*file001\.wav \(4\.000s\)"):
            run_grid(tmp_path / "corpus", grid, progress=seen.append)
        assert seen == []

    def test_progress_callback_sees_every_cell(self, small_corpus_dir):
        grid = ExperimentGrid(
            variants=(Variant.MEL_VOCAL,),
            strides_ms=(50.0,),
            query_lens_s=(4.0, 6.0),
            trials_per_cell=2,
        )
        seen = []
        results = run_grid(small_corpus_dir, grid, progress=seen.append)
        assert seen == results


class TestCheckHypotheses:
    def test_well_behaved_grid_passes_all(self):
        def acc(v, s, q):
            return 1.0 - 0.002 * s - (0.05 if q < 6.0 else 0.0)

        report = check_hypotheses(make_cells(acc))
        assert report.h1.passed and report.h2.passed and report.h3.passed
        assert report.all_passed
        rendered = report.render()
        assert "h1: pass" in rendered and "h3: pass" in rendered

    @pytest.mark.filterwarnings("ignore::scipy.stats.ConstantInputWarning")
    def test_h1_gap_of_exactly_the_allowance_passes(self):
        # 0.90 - 0.85 lands just above 0.05 in binary floats; the check
        # must treat that as the stated bound, not a violation
        def acc(v, s, q):
            return 0.90 if q >= 10.0 else 0.85

        report = check_hypotheses(make_cells(acc))
        assert report.h1.metrics["gaps"][Variant.MEL_VOCAL.value] > 0.05
        assert report.h1.passed

    @pytest.mark.filterwarnings("ignore::scipy.stats.ConstantInputWarning")
    def test_h1_fails_when_six_seconds_lags_the_longest(self):
        def acc(v, s, q):
            return 0.96 if q >= 10.0 else 0.90

        report = check_hypotheses(make_cells(acc))
        assert not report.h1.passed
        assert not report.all_passed
        assert "FAIL" in report.render()

    def test_h2_passes_on_monotone_stride_decay(self):
        def acc(v, s, q):
            return 1.0 - 0.001 * s

        report = check_hypotheses(make_cells(acc))
        assert report.h2.passed
        assert report.h2.metrics["rho"][Variant.MEL_WIDE.value] == -1.0

    @pytest.mark.filterwarnings("ignore::scipy.stats.ConstantInputWarning")
    def test_h2_fails_on_flat_accuracy(self):
        report = check_hypotheses(make_cells(lambda v, s, q: 0.9))
        assert not report.h2.passed

    def test_h2_fails_when_coarser_strides_win(self):
        report = check_hypotheses(make_cells(lambda v, s, q: 0.5 + 0.001 * s))
        assert not report.h2.passed

    def test_h3_fails_when_one_variant_diverges(self):
        def acc(v, s, q):
            base = 1.0 - 0.002 * s
            return base - 0.2 if v is Variant.MEL_WIDE else base

        report = check_hypotheses(make_cells(acc))
        assert report.h1.passed and report.h2.passed
        assert not report.h3.passed
        assert report.h3.metrics["mean_gap"] == pytest.approx(0.2)

    def test_empty_results_rejected(self):
        with pytest.raises(ConfigError):
            check_hypotheses([])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"variants": (Variant.MEL_VOCAL,)},
            {"strides": (10.0, 20.0)},
            {"lens": (2.0, 6.0)},
        ],
    )
    def test_thin_axes_rejected(self, kwargs):
        cells = make_cells(lambda v, s, q: 0.9, **kwargs)
        with pytest.raises(ConfigError, match="hypothesis"):
            check_hypotheses(cells)

    def test_missing_long_query_rejected(self):
        cells = make_cells(lambda v, s, q: 0.9, lens=(2.0, 3.0, 4.0))
        with pytest.raises(ConfigError, match=">= 6 s"):
            check_hypotheses(cells)


class TestCsvRoundTrip:
    def results(self):
        def acc(v, s, q):
            return round(0.5 + 0.004 * s + 0.01 * q, 6)

        return make_cells(acc, variants=(Variant.MEL_VOCAL, Variant.LINEAR_VOCAL))

    def test_emit_then_load_is_identity(self, tmp_path):
        results = self.results()
        out = tmp_path / "results.csv"
        written = emit(results, out)
        assert written == [out, tmp_path / "results_long.csv"]
        assert all(p.exists() for p in written)
        assert load_results_csv(out) == results

    def test_wide_header_is_pinned(self, tmp_path):
        out = tmp_path / "results.csv"
        emit(self.results(), out)
        first_line = out.read_text(encoding="utf-8").splitlines()[0]
        assert first_line == ",".join(CSV_HEADER)
        assert first_line == "variant,stride_ms,query_len_s,accuracy,n_trials,latency_s"

    def test_long_companion_repeats_cells_per_axis(self, tmp_path):
        results = self.results()
        out = tmp_path / "results.csv"
        _, long_path = emit(results, out)
        lines = long_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(LONG_CSV_HEADER)
        assert len(lines) == 1 + 2 * len(results)
        axes = {line.split(",", 1)[0] for line in lines[1:]}
        assert axes == {"stride_ms", "query_len_s"}

    def test_emit_empty_results_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit([], tmp_path / "results.csv")

    def test_load_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="header"):
            load_results_csv(path)

    def test_load_missing_file_raises_io_error(self, tmp_path):
        with pytest.raises(IoError):
            load_results_csv(tmp_path / "absent.csv")

    def test_load_not_utf8_raises_io_error(self, tmp_path):
        path = tmp_path / "results.csv"
        emit(self.results(), path)
        path.write_bytes(path.read_bytes() + b"mel-vocal,\xff\r\n")
        with pytest.raises(IoError, match="results"):
            load_results_csv(path)

    @pytest.mark.parametrize(
        "row,match",
        [("mel-vocal,25.0", "expected 6"), ("mel-vocal,25.0,6.0,x,30,0.01", "'x'")],
        ids=["two-fields", "accuracy-not-a-number"],
    )
    def test_load_rejects_bad_rows(self, tmp_path, row, match):
        path = tmp_path / "results.csv"
        emit(self.results(), path)
        n_lines = len(path.read_bytes().splitlines())
        path.write_bytes(path.read_bytes() + row.encode() + b"\r\n")
        with pytest.raises(ConfigError, match=f"results.csv:{n_lines + 1}: .*{match}"):
            load_results_csv(path)


class TestParseGridConfig:
    def test_full_config(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text(
            "# benchmark sweep\n"
            "variants = mel-vocal, mel-wide\n"
            "strides_ms = 12.5, 25, 50\n"
            "query_lens_s = 2, 6, 10\n"
            "snr_db_range = 5, 25\n"
            "rate_range = 0.98, 1.02\n"
            "trials_per_cell = 7\n"
            "master_seed = 99  # inline comment\n"
            "\n",
            encoding="utf-8",
        )
        grid = parse_grid_config(path)
        assert grid.variants == (Variant.MEL_VOCAL, Variant.MEL_WIDE)
        assert grid.strides_ms == (12.5, 25.0, 50.0)
        assert grid.query_lens_s == (2.0, 6.0, 10.0)
        assert grid.snr_db_range == (5.0, 25.0)
        assert grid.rate_range == (0.98, 1.02)
        assert grid.trials_per_cell == 7
        assert grid.master_seed == 99

    def test_unset_keys_keep_defaults(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("trials_per_cell = 3\n", encoding="utf-8")
        grid = parse_grid_config(path)
        assert grid.trials_per_cell == 3
        assert grid.strides_ms == ExperimentGrid().strides_ms
        assert grid.variants == VARIANTS

    def test_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("\ufefftrials_per_cell = 3\n", encoding="utf-8")
        assert parse_grid_config(path).trials_per_cell == 3

    @pytest.mark.parametrize(
        "line,match",
        [
            ("unknown_key = 1", "unknown"),
            ("strides_ms = fast", "bad value"),
            ("just a line", "key=value"),
            ("trials_per_cell = 0", "trials_per_cell"),
            ("variants = klingon", "bad value"),
        ],
    )
    def test_bad_lines_rejected(self, tmp_path, line, match):
        path = tmp_path / "grid.cfg"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=match):
            parse_grid_config(path)

    def test_missing_file_raises_io_error(self, tmp_path):
        with pytest.raises(IoError):
            parse_grid_config(tmp_path / "absent.cfg")

    def test_not_utf8_raises_io_error(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_bytes(b"trials_per_cell = 3  # \xff\n")
        with pytest.raises(IoError, match="grid config"):
            parse_grid_config(path)


class TestBenchFingerprintDefaults:
    def test_bench_geometry_fits_short_queries(self):
        # one block at a 100 ms window and stride must fit inside the
        # shortest default query length once per-frame hop is accounted for
        frames_needed = BENCH_FINGERPRINT.block_frames
        seconds = 0.1 + (frames_needed - 1) * 0.0125
        assert seconds <= min(ExperimentGrid().query_lens_s)
