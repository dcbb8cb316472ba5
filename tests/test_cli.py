"""The command line end to end: synth, index, identify, enroll and training."""

from speechprint.audio import encode_wav, resample
from speechprint.cli import main
from speechprint.corpus import synth_speech_like
from speechprint.index import RetrievalIndex
from speechprint.registry import LabelRegistry


def test_round_trip(tmp_path, capsys):
    corpus, index = tmp_path / "corpus", str(tmp_path / "calls.idx")
    assert main(["synth", str(corpus), "--n-files", "3", "--duration-s", "8"]) == 0
    assert main(["index", "build", "--corpus", str(corpus), "--out", index]) == 0

    # a 16 kHz file is enrolled at 8 kHz, under the next free id
    wide = tmp_path / "wide.wav"
    wide.write_bytes(encode_wav(resample(synth_speech_like(8.0, 8000, seed=90), 16000)))
    capsys.readouterr()
    assert main(["index", "add", "--index", index, str(wide)]) == 0
    assert capsys.readouterr().out == f"enrolled {wide} as file 4\n"

    assert main(["identify", str(corpus / "file001.wav"), "--index", index]) == 0
    assert "status=identified file_id=2 " in capsys.readouterr().out
    assert main(["identify", str(wide), "--index", index]) == 0
    assert "status=identified file_id=4 " in capsys.readouterr().out

    new = tmp_path / "new.wav"
    new.write_bytes(encode_wav(synth_speech_like(8.0, 8000, seed=91)))
    assert main(["enroll", str(new), "--index", index]) == 0
    assert capsys.readouterr().out == "enrolled file 5 label=None\n"
    assert RetrievalIndex.load(index).file_ids == [1, 2, 3, 4, 5]


def test_index_of_other_flags_is_an_error(tmp_path, capsys):
    corpus, index = tmp_path / "corpus", str(tmp_path / "calls.idx")
    main(["synth", str(corpus), "--n-files", "1", "--duration-s", "4"])
    main(["index", "build", "--corpus", str(corpus), "--out", index])
    wav = str(corpus / "file000.wav")
    for argv in (
        ["index", "add", "--index", index, "--top-t", "100", wav],
        ["identify", wav, "--index", index, "--variant", "mel-wide"],
        ["enroll", wav, "--index", index, "--fp-seed", "1"],
    ):
        capsys.readouterr()
        assert main(argv) == 2
        assert "config 0x" in capsys.readouterr().err
    assert RetrievalIndex.load(index).file_ids == [1]


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
    for label_id in keywords:
        clustered.set_keywords(label_id, [])
    clustered.save(registry)

    assert main(["train", "keywords", "--transcripts", str(transcripts),
                 "--registry", registry]) == 0
    refreshed = LabelRegistry.load(registry)
    assert {info.label_id: info.keywords for info in refreshed.clusters()} == keywords
