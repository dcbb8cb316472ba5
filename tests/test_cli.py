"""The command line end to end: synth, inspect, index, identify, enroll
and training, and its pinned surface."""

import argparse
import csv
import socket
from pathlib import Path

import numpy as np
import pytest

from speechprint.audio import (
    CANONICAL_RATE,
    AudioBuffer,
    decode_canonical,
    decode_wav,
    dump_raw,
    encode_wav,
    resample,
)
from speechprint.bench import BENCH_FINGERPRINT
from speechprint.cli import build_parser, main
from speechprint.corpus import synth_speech_like
from speechprint.fingerprint import FingerprintConfig, config_digest, fingerprint_audio
from speechprint.index import RetrievalIndex
from speechprint.registry import LabelRegistry
from speechprint.spectral import SpectralConfig, Variant, make_image

# Every leaf command and its argument names. Adding or removing a command
# or a flag changes the command-line surface: update this table in the
# same change and say so in CHANGES.md.
COMMANDS = {
    "synth": ["out_dir", "--n-files", "--duration-s", "--seed"],
    "inspect audio": ["wav", "--dump-raw"],
    "inspect image": ["wav", "--out", "--variant"],
    "index build": ["--corpus", "--out", "--variant"],
    "index stats": ["--index"],
    "index dedup": ["--index", "--threshold"],
    "degrade": ["wav", "out", "--len-s", "--snr-db", "--rate", "--offset-s", "--seed"],
    "identify": ["wav", "--index", "--registry", "--transcript", "--save-index"],
    "enroll": ["wav", "--index", "--registry", "--transcript"],
    "serve": ["--listen", "--index", "--registry"],
    "train cluster": ["--transcripts", "--out", "--algo", "--k", "--eps", "--min-pts",
                      "--seed", "--top-k"],
    "train keywords": ["--transcripts", "--registry", "--top-k"],
    "train name-cluster": ["--registry", "label_id", "name"],
    "label lookup": ["--registry", "file_id"],
    "bench run": ["--corpus", "--out", "--grid"],
}


def leaf_commands(parser, path=()):
    """(command words, argument names) of every leaf under ``parser``."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        names = [
            a.option_strings[-1] if a.option_strings else a.dest
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        yield " ".join(path), names
        return
    for word, child in subparsers[0].choices.items():
        yield from leaf_commands(child, (*path, word))


def test_command_surface_is_pinned():
    surface = dict(leaf_commands(build_parser()))
    assert surface == COMMANDS
    assert (len(surface), sum(map(len, surface.values()))) == (15, 53)


def test_inspect_writes_raw_samples_and_image(tmp_path):
    wav = tmp_path / "wide.wav"
    wav.write_bytes(encode_wav(resample(synth_speech_like(2.0, 8000, seed=92), 16000)))
    raw, table = tmp_path / "samples.f32", tmp_path / "image.csv"
    assert main(["inspect", "audio", str(wav), "--dump-raw", str(raw)]) == 0
    assert raw.read_bytes() == dump_raw(decode_wav(wav.read_bytes()))

    assert main(["inspect", "image", str(wav), "--out", str(table)]) == 0
    image = make_image(
        decode_canonical(wav.read_bytes()), SpectralConfig.for_variant("mel-vocal")
    )
    with open(table, newline="", encoding="utf-8") as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh)]
    assert [len(row) for row in rows] == [image.n_frames] * image.n_bins
    np.testing.assert_allclose(rows, image.data, rtol=1e-5, atol=0)


def test_round_trip(tmp_path, capsys):
    corpus, index = tmp_path / "corpus", str(tmp_path / "calls.idx")
    assert main(["synth", str(corpus), "--n-files", "3", "--duration-s", "8"]) == 0
    assert main(["index", "build", "--corpus", str(corpus), "--out", index]) == 0

    # a 16 kHz file is enrolled at 8 kHz, under the next free id
    wide = tmp_path / "wide.wav"
    wide.write_bytes(encode_wav(resample(synth_speech_like(8.0, 8000, seed=90), 16000)))
    capsys.readouterr()
    assert main(["enroll", str(wide), "--index", index]) == 0
    assert capsys.readouterr().out == "enrolled file 4 label=None\n"

    assert main(["identify", str(corpus / "file001.wav"), "--index", index]) == 0
    assert "status=identified file_id=2 " in capsys.readouterr().out
    assert main(["identify", str(wide), "--index", index]) == 0
    assert "status=identified file_id=4 " in capsys.readouterr().out

    new = tmp_path / "new.wav"
    new.write_bytes(encode_wav(synth_speech_like(8.0, 8000, seed=91)))
    assert main(["enroll", str(new), "--index", index]) == 0
    assert capsys.readouterr().out == "enrolled file 5 label=None\n"
    assert RetrievalIndex.load(index).file_ids == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_identify_reads_the_variant_off_the_index(tmp_path, capsys, variant):
    """identify, given no flag, fingerprints at the variant the index was
    built with, and index stats names it."""
    corpus, index = tmp_path / "corpus", str(tmp_path / "calls.idx")
    main(["synth", str(corpus), "--n-files", "2", "--duration-s", "8"])
    assert main(["index", "build", "--corpus", str(corpus), "--out", index,
                 "--variant", variant]) == 0
    capsys.readouterr()
    assert main(["identify", str(corpus / "file001.wav"), "--index", index]) == 0
    assert "status=identified file_id=2 " in capsys.readouterr().out
    assert main(["index", "stats", "--index", index]) == 0
    assert f"variant:  {variant}" in capsys.readouterr().out.splitlines()


def test_index_of_another_config_is_an_error(tmp_path, capsys):
    """An index the library saved at a config no --variant makes stops
    identify and enroll with one error line naming its digest, and is left
    as it was."""
    wav = tmp_path / "new.wav"
    wav.write_bytes(encode_wav(synth_speech_like(8.0, 8000, seed=95)))
    spectral = SpectralConfig.for_variant("mel-vocal")
    digest = config_digest(spectral, BENCH_FINGERPRINT, CANONICAL_RATE)
    library = RetrievalIndex.for_config(digest, BENCH_FINGERPRINT)
    library.enroll(fingerprint_audio(decode_canonical(wav.read_bytes()), spectral,
                                     BENCH_FINGERPRINT, file_id=1))
    index = tmp_path / "bench.idx"
    library.save(index)
    before = index.read_bytes()
    for command in ("identify", "enroll"):
        capsys.readouterr()
        assert main([command, str(wav), "--index", str(index)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: index built for config 0x{digest:016x}")
        assert err.count("\n") == 1 and not out, err
        assert index.read_bytes() == before


def test_train_keywords_restores_the_cluster_keywords(tmp_path):
    words = "voicemail number busy later again service call tone hold".split()
    transcripts = tmp_path / "transcripts"
    transcripts.mkdir()
    for i in range(12):
        language = "es" if i % 3 == 0 else "en"
        text = " ".join(words[(i * j) % len(words)] for j in range(1, 7))
        (transcripts / f"{i + 1}.txt").write_text(f"lang={language}\n{text}\n")
    registry = str(tmp_path / "labels.tsv")
    assert main(["train", "cluster", "--transcripts", str(transcripts),
                 "--out", registry, "--k", "2"]) == 0
    clustered = LabelRegistry.load(registry)
    keywords = {info.label_id: info.keywords for info in clustered.clusters()}
    assert any(keywords.values())
    for info in clustered.clusters():
        info.keywords = ()
    clustered.save(registry)

    assert main(["train", "keywords", "--transcripts", str(transcripts),
                 "--registry", registry]) == 0
    refreshed = LabelRegistry.load(registry)
    assert {info.label_id: info.keywords for info in refreshed.clusters()} == keywords


def test_identify_with_transcript_labels_the_enrolment(tmp_path, capsys):
    """identify-or-enroll labels a new file from its transcript, as enroll
    does."""
    corpus, index = tmp_path / "corpus", str(tmp_path / "calls.idx")
    main(["synth", str(corpus), "--n-files", "2", "--duration-s", "8"])
    main(["index", "build", "--corpus", str(corpus), "--out", index])
    labels = str(tmp_path / "labels.tsv")
    registry = LabelRegistry()
    registry.create_cluster("voicemail", "en", [("voicemail", 0.8), ("message", 0.5)])
    registry.create_cluster("busy", "en", [("busy", 0.8), ("later", 0.5)])
    registry.save(labels)
    new, transcript = tmp_path / "new.wav", tmp_path / "new.txt"
    new.write_bytes(encode_wav(synth_speech_like(8.0, 8000, seed=91)))
    transcript.write_text("lang=en\nthe line is busy please call later\n")
    capsys.readouterr()
    assert main(["identify", str(new), "--index", index, "--registry", labels,
                 "--transcript", str(transcript), "--save-index"]) == 0
    assert "status=enrolled file_id=3 label_id=2 " in capsys.readouterr().out
    saved = LabelRegistry.load(labels)
    assert saved.lookup(3) == 2 and 3 not in saved.pending()


@pytest.mark.parametrize("command", ["enroll", "identify"])
@pytest.mark.parametrize("kind", ["missing", "not-utf8"])
def test_unreadable_transcript_is_one_error_line(tmp_path, capsys, command, kind):
    """A transcript that cannot be read stops enroll and identify with one
    error line, before the audio is opened, and leaves the index as it
    was."""
    corpus, index = tmp_path / "corpus", tmp_path / "calls.idx"
    main(["synth", str(corpus), "--n-files", "1", "--duration-s", "8"])
    main(["index", "build", "--corpus", str(corpus), "--out", str(index)])
    before = index.read_bytes()
    new, transcript = tmp_path / "new.wav", tmp_path / "new.txt"
    new.write_bytes(encode_wav(synth_speech_like(8.0, 8000, seed=92)))
    if kind == "not-utf8":
        transcript.write_bytes(b"lang=en\n\xff\xfe busy\n")
    save = ["--save-index"] if command == "identify" else []
    for wav in (new, tmp_path / "absent.wav"):
        capsys.readouterr()
        assert main([command, str(wav), "--index", str(index),
                     "--transcript", str(transcript), *save]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "transcript" in err and not out
        assert index.read_bytes() == before


def test_bench_run_checks_its_output_directory_first(tmp_path, capsys):
    """bench run refuses an output in a directory that does not exist
    before it runs a single cell."""
    corpus, grid = tmp_path / "corpus", tmp_path / "grid.cfg"
    main(["synth", str(corpus), "--n-files", "2", "--duration-s", "4"])
    grid.write_text("variants = mel-vocal\nstrides_ms = 100\n"
                    "query_lens_s = 2\ntrials_per_cell = 1\n")
    before = tree(tmp_path)
    capsys.readouterr()
    assert main(["bench", "run", "--corpus", str(corpus), "--grid", str(grid),
                 "--out", str(tmp_path / "absent" / "results.csv")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot write results to ") and err.count("\n") == 1
    assert not out
    assert tree(tmp_path) == before


def test_bench_run_checks_its_grid_before_the_corpus(tmp_path, capsys):
    """A grid stride past the 100 ms window stops bench run with one error
    line before it reads the corpus, which here does not exist."""
    grid = tmp_path / "grid.cfg"
    grid.write_text("variants = mel-vocal\nstrides_ms = 25, 50, 150\n")
    assert main(["bench", "run", "--corpus", str(tmp_path / "absent"),
                 "--grid", str(grid), "--out", str(tmp_path / "r.csv")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {grid}:2: bad value for strides_ms: window_s (0.1) must be")
    assert err.count("\n") == 1
    assert not out


NON_FINITE_ARGS = {
    "synth-duration-nan": ["synth", "{d}/corpus", "--duration-s", "nan"],
    "degrade-len-nan": ["degrade", "{d}/a.wav", "{d}/q.wav", "--len-s", "nan"],
    "degrade-len-inf": ["degrade", "{d}/a.wav", "{d}/q.wav", "--len-s", "inf"],
    "degrade-offset-nan": ["degrade", "{d}/a.wav", "{d}/q.wav", "--len-s", "1",
                           "--offset-s", "nan"],
}


@pytest.mark.parametrize("argv", NON_FINITE_ARGS.values(), ids=NON_FINITE_ARGS.keys())
def test_non_finite_number_is_one_error_line(tmp_path, capsys, argv):
    """A NaN or infinity given as a number is refused with one error line
    and exit status 2, not a traceback."""
    (tmp_path / "a.wav").write_bytes(encode_wav(synth_speech_like(3.0, seed=93)))
    assert main([arg.format(d=tmp_path) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out
    assert [p.name for p in tmp_path.rglob("*.wav")] == ["a.wav"]


@pytest.mark.parametrize("snr_db", ["4000", "-4000"])
def test_degrade_snr_past_float64_is_one_error_line(tmp_path, capsys, snr_db):
    """An SNR whose power ratio float64 cannot hold is refused with one
    error line and exit status 2, and writes no query."""
    (tmp_path / "a.wav").write_bytes(encode_wav(synth_speech_like(3.0, seed=93)))
    argv = ["degrade", str(tmp_path / "a.wav"), str(tmp_path / "q.wav"), "--len-s", "1",
            "--snr-db", snr_db]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: snr_db must be finite") and err.count("\n") == 1, err
    assert not out
    assert not (tmp_path / "q.wav").exists()


def test_train_on_no_transcripts_is_one_error_line(tmp_path, capsys):
    """train cluster and train keywords refuse a directory with no *.txt
    and write no registry."""
    registry = LabelRegistry()
    registry.create_cluster("busy", "en", [("busy", 0.8)])
    registry.save(tmp_path / "labels.tsv")
    (tmp_path / "empty").mkdir()
    before = tree(tmp_path)
    for transcripts in ("empty", "absent"):
        for argv in (["train", "cluster", "--out", str(tmp_path / "new.tsv")],
                     ["train", "keywords", "--registry", str(tmp_path / "labels.tsv")]):
            capsys.readouterr()
            assert main([*argv, "--transcripts", str(tmp_path / transcripts)]) == 2
            out, err = capsys.readouterr()
            assert err.startswith("error: no .txt files under ")
            assert err.count("\n") == 1 and not out, err
            assert tree(tmp_path) == before


def test_version_1_index_is_one_error_line(tmp_path, capsys):
    """index stats, index dedup and identify refuse a version 1 index file
    with one error line naming its version, and leave it as it was."""
    index = tmp_path / "v1.spix"
    index.write_bytes((Path(__file__).parent / "data" / "index_v1.spix").read_bytes())
    before = index.read_bytes()
    wav = tmp_path / "new.wav"
    wav.write_bytes(encode_wav(synth_speech_like(8.0, 8000, seed=93)))
    for command in (["index", "stats"], ["index", "dedup"], ["identify", str(wav)]):
        capsys.readouterr()
        assert main([*command, "--index", str(index)]) == 2, command
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "index version 1" in err and not out
        assert index.read_bytes() == before


def test_serve_on_a_bad_endpoint_is_one_error_line(tmp_path, capsys):
    corpus, index = tmp_path / "corpus", str(tmp_path / "calls.idx")
    main(["synth", str(corpus), "--n-files", "1", "--duration-s", "4"])
    main(["index", "build", "--corpus", str(corpus), "--out", index])
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        port = busy.getsockname()[1]
        for listen in (f"127.0.0.1:{port}", "127.0.0.1:70000"):
            capsys.readouterr()
            assert main(["serve", "--listen", listen, "--index", index]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err


# Commands whose input is missing, unreadable or an empty corpus, or whose
# output has no directory to go to; ``{d}`` is the test's directory.
FILE_FAULTS = {
    "inspect-audio-missing-wav": ["inspect", "audio", "{d}/absent.wav"],
    "inspect-image-missing-wav": ["inspect", "image", "{d}/absent.wav",
                                  "--out", "{d}/image.csv"],
    "degrade-missing-wav": ["degrade", "{d}/absent.wav", "{d}/out.wav", "--len-s", "1"],
    "identify-missing-wav": ["identify", "{d}/absent.wav", "--index", "{d}/calls.idx"],
    "enroll-missing-wav": ["enroll", "{d}/absent.wav", "--index", "{d}/calls.idx"],
    "index-build-directory-named-wav": ["index", "build", "--corpus", "{d}/corpus",
                                        "--out", "{d}/new.idx"],
    "index-build-empty-directory": ["index", "build", "--corpus", "{d}/empty",
                                    "--out", "{d}/new.idx"],
    "bench-run-grid-not-utf8": ["bench", "run", "--corpus", "{d}/corpus",
                                "--out", "{d}/results.csv", "--grid", "{d}/grid.cfg"],
    "degrade-out-in-missing-dir": ["degrade", "{d}/ok.wav", "{d}/absent/out.wav",
                                   "--len-s", "1"],
    "inspect-image-out-in-missing-dir": ["inspect", "image", "{d}/ok.wav",
                                         "--out", "{d}/absent/image.csv"],
    "inspect-audio-dump-in-missing-dir": ["inspect", "audio", "{d}/ok.wav",
                                          "--dump-raw", "{d}/absent/samples.f32"],
}


def tree(path):
    """Every entry under ``path`` and the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in path.rglob("*")}


@pytest.mark.parametrize("argv", FILE_FAULTS.values(), ids=FILE_FAULTS.keys())
def test_file_fault_is_one_error_line(tmp_path, capsys, argv):
    """A path that cannot be read or written stops the command with one
    error line and exit status 2, printing nothing else and leaving no
    file behind."""
    (tmp_path / "ok.wav").write_bytes(encode_wav(synth_speech_like(2.0, 8000, seed=94)))
    fingerprint = FingerprintConfig()
    digest = config_digest(SpectralConfig.for_variant("mel-vocal"), fingerprint,
                           CANONICAL_RATE)
    RetrievalIndex.for_config(digest, fingerprint).save(tmp_path / "calls.idx")
    (tmp_path / "corpus" / "x.wav").mkdir(parents=True)
    (tmp_path / "empty").mkdir()
    (tmp_path / "grid.cfg").write_bytes(b"trials_per_cell = 3 \xff\n")
    before = tree(tmp_path)
    capsys.readouterr()
    assert main([arg.format(d=tmp_path) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out
    assert tree(tmp_path) == before


def test_inspect_audio_of_no_samples_reads_peak_zero(tmp_path, capsys):
    wav = tmp_path / "empty.wav"
    wav.write_bytes(encode_wav(AudioBuffer(np.zeros(0), 8000)))
    assert main(["inspect", "audio", str(wav)]) == 0
    assert capsys.readouterr().out == f"{wav}: 0 samples @ 8000 Hz (0.000s), peak 0.0000\n"
