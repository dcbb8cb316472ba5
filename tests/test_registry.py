"""Transcript vectorization, clustering and the label registry."""

import logging

import numpy as np
import pytest

from speechprint.errors import ConfigError, DuplicateId, IoError, NotFound
from speechprint.registry import (
    NOISE_LABEL,
    LabelRegistry,
    TranscriptDoc,
    _kmeans_iterations,
    _top_terms,
    build_registry_from_transcripts,
    cluster_dbscan,
    cluster_kmeans,
    load_transcript,
    load_transcript_dir,
    tokenize,
    vectorize,
)


def doc(file_id, text, language="und"):
    return TranscriptDoc.from_text(file_id, text, language)


class TestTokenize:
    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("Hello, World! It's 9 AM.") == [
            "hello", "world", "it", "s", "9", "am",
        ]

    def test_empty(self):
        assert tokenize("...") == []


class TestTranscriptFiles:
    def test_language_line_and_id_from_stem(self, tmp_path):
        path = tmp_path / "42.txt"
        path.write_text("lang=de\nguten tag\nwelt\n", encoding="utf-8")
        d = load_transcript(path)
        assert d.file_id == 42
        assert d.language == "de"
        assert d.tokens == ("guten", "tag", "welt")

    def test_missing_language_line_defaults(self, tmp_path):
        path = tmp_path / "7.txt"
        path.write_text("plain text\n", encoding="utf-8")
        d = load_transcript(path)
        assert d.language == "und"
        assert d.tokens == ("plain", "text")

    def test_byte_order_mark_ignored(self, tmp_path):
        """A UTF-8 byte-order mark, as some editors write, is not text."""
        path = tmp_path / "5.txt"
        path.write_text("\ufefflang=de\nbitte rufen sie später an\n", encoding="utf-8")
        d = load_transcript(path)
        assert d.language == "de"
        assert d.tokens == ("bitte", "rufen", "sie", "später", "an")

    def test_unparseable_stem_rejected(self, tmp_path):
        path = tmp_path / "notanid.txt"
        path.write_text("x\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_transcript(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            load_transcript(tmp_path / "9.txt")

    def test_dir_sorted_by_file_id(self, tmp_path):
        for fid in (10, 2, 33):
            (tmp_path / f"{fid}.txt").write_text("words here", encoding="utf-8")
        docs = load_transcript_dir(tmp_path)
        assert [d.file_id for d in docs] == [2, 10, 33]


class TestVectorize:
    def test_tf_idf_oracle(self):
        docs = [doc(0, "cat cat dog"), doc(1, "cat fish"), doc(2, "bird")]
        matrix, features = vectorize(docs)
        assert features == [
            ("und", "cat"), ("und", "dog"), ("und", "fish"), ("und", "bird"),
        ]
        raw = np.array(
            [
                [2 * np.log(1.5), np.log(3.0), 0.0, 0.0],
                [np.log(1.5), 0.0, np.log(3.0), 0.0],
                [0.0, 0.0, 0.0, np.log(3.0)],
            ]
        )
        expected = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        assert np.allclose(matrix, expected, atol=1e-12)

    def test_identical_docs_identical_rows(self):
        docs = [doc(0, "same words here"), doc(1, "same words here")]
        matrix, _ = vectorize(docs)
        assert np.array_equal(matrix[0], matrix[1])

    def test_disjoint_vocab_orthogonal_rows(self):
        docs = [doc(0, "alpha beta"), doc(1, "gamma delta")]
        matrix, _ = vectorize(docs)
        assert abs(float(matrix[0] @ matrix[1])) < 1e-12

    def test_term_in_every_doc_zeroed(self):
        docs = [doc(0, "common cat"), doc(1, "common dog")]
        matrix, features = vectorize(docs)
        col = features.index(("und", "common"))
        assert np.all(matrix[:, col] == 0.0)

    def test_languages_share_no_dimensions(self):
        docs = [doc(0, "water bottle", "en"), doc(1, "water bottle", "de")]
        matrix, features = vectorize(docs)
        assert ("en", "water") in features and ("de", "water") in features
        assert abs(float(matrix[0] @ matrix[1])) < 1e-12

    def test_rows_unit_norm(self):
        docs = [doc(0, "one two three"), doc(1, "four five")]
        matrix, _ = vectorize(docs)
        assert np.allclose(np.linalg.norm(matrix, axis=1), 1.0)

    def test_empty_doc_zero_row_flagged(self, caplog):
        docs = [doc(0, "actual words"), doc(1, "")]
        with caplog.at_level(logging.WARNING, logger="speechprint.registry"):
            matrix, _ = vectorize(docs)
        assert np.all(matrix[1] == 0.0)
        assert any("zero" in r.message for r in caplog.records)

    def test_no_docs_rejected(self):
        with pytest.raises(ConfigError):
            vectorize([])


def blob_docs():
    """Two 3-doc blobs with disjoint vocabularies."""
    a = [
        doc(0, "alpha beta gamma alpha"),
        doc(1, "alpha beta gamma beta"),
        doc(2, "alpha beta gamma gamma"),
    ]
    b = [
        doc(3, "delta epsilon zeta delta"),
        doc(4, "delta epsilon zeta epsilon"),
        doc(5, "delta epsilon zeta zeta"),
    ]
    return a + b


class TestKMeans:
    def test_two_blobs_pure(self):
        matrix, _ = vectorize(blob_docs())
        labels = cluster_kmeans(matrix, 2, seed=0)
        assert len(set(labels[:3])) == 1
        assert len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_k_equals_n_each_doc_alone(self):
        docs = [doc(i, f"word{i} only{i}") for i in range(5)]
        matrix, _ = vectorize(docs)
        labels = cluster_kmeans(matrix, 5, seed=1)
        assert len(set(labels)) == 5

    def test_deterministic_per_seed(self, rng):
        vectors = rng.standard_normal((40, 8))
        a = cluster_kmeans(vectors, 4, seed=3)
        b = cluster_kmeans(vectors, 4, seed=3)
        assert np.array_equal(a, b)

    def test_k_bounds(self):
        matrix, _ = vectorize(blob_docs())
        with pytest.raises(ConfigError):
            cluster_kmeans(matrix, 7)
        with pytest.raises(ConfigError):
            cluster_kmeans(matrix, 0)

    def test_objective_non_increasing(self, rng):
        vectors = rng.standard_normal((60, 10))
        objectives = [
            obj for _assign, obj in _kmeans_iterations(vectors, 5, seed=2)
        ]
        assert len(objectives) >= 2
        for earlier, later in zip(objectives, objectives[1:]):
            assert later <= earlier + 1e-12


class TestDbscan:
    def test_identical_vectors_one_cluster(self):
        vectors = np.tile([[1.0, 0.0, 2.0]], (4, 1))
        labels = cluster_dbscan(vectors, eps=0.5, min_pts=1)
        assert set(labels) == {0}

    def test_isolated_doc_is_noise(self):
        matrix, _ = vectorize(
            [doc(0, "shared thing"), doc(1, "shared thing"), doc(2, "loner item")]
        )
        labels = cluster_dbscan(matrix, eps=0.3, min_pts=2)
        assert labels[0] == labels[1] != NOISE_LABEL
        assert labels[2] == NOISE_LABEL

    def test_two_blobs_two_clusters(self):
        matrix, _ = vectorize(blob_docs())
        labels = cluster_dbscan(matrix, eps=0.5, min_pts=3)
        assert set(labels[:3]) == {0}
        assert set(labels[3:]) == {1}

    def test_validation(self):
        vectors = np.ones((2, 2))
        with pytest.raises(ConfigError):
            cluster_dbscan(vectors, eps=0.0)
        with pytest.raises(ConfigError):
            cluster_dbscan(vectors, min_pts=0)


class TestKeywords:
    def test_shared_rare_term_dominates(self):
        docs = [
            doc(1, "voicemail voicemail voicemail unique1 filler"),
            doc(2, "voicemail voicemail voicemail unique2 filler"),
            doc(3, "voicemail voicemail voicemail unique3 filler"),
            doc(4, "completely different content here"),
            doc(5, "another unrelated transcript body"),
            doc(6, "more text without overlap words"),
        ]
        keywords = _top_terms(docs, *vectorize(docs), {1, 2, 3}, 3)
        assert keywords[0][0] == "voicemail"
        weights = [w for _t, w in keywords]
        assert weights == sorted(weights, reverse=True)

    def test_top_k_beyond_vocab_returns_all(self):
        docs = [doc(1, "apple banana"), doc(2, "cherry date")]
        keywords = _top_terms(docs, *vectorize(docs), {1}, 50)
        assert {t for t, _w in keywords} == {"apple", "banana"}

    def test_all_stop_words_empty_with_warning(self, caplog):
        docs = [doc(1, "the and of"), doc(2, "substantive content")]
        with caplog.at_level(logging.WARNING, logger="speechprint.registry"):
            keywords = _top_terms(docs, *vectorize(docs), {1}, 5)
        assert keywords == []
        assert any("no scoring terms" in r.message for r in caplog.records)

    def test_unknown_members_rejected(self):
        docs = [doc(1, "something")]
        with pytest.raises(ConfigError):
            _top_terms(docs, *vectorize(docs), {99}, 5)


class TestLabelFor:
    @pytest.fixture()
    def registry(self):
        registry = LabelRegistry()
        registry.create_cluster(
            "voicemail greetings",
            "en",
            [("voicemail", 0.8), ("message", 0.5), ("reached", 0.4)],
        )
        return registry

    def test_matching_transcript_labelled(self, registry, tmp_path):
        path = tmp_path / "0.txt"
        path.write_text(
            "lang=en\nyou have reached the voicemail message box\n",
            encoding="utf-8",
        )
        assert registry.label_for(load_transcript(path, file_id=0)) == 1

    def test_no_transcript_abstains(self, registry):
        assert registry.label_for(None) is None

    def test_other_language_abstains(self, registry, tmp_path):
        path = tmp_path / "0.txt"
        path.write_text(
            "lang=de\nsie haben die voicemail message erreicht\n",
            encoding="utf-8",
        )
        assert registry.label_for(load_transcript(path, file_id=0)) is None

    def test_transcript_without_tokens_abstains(self, registry, tmp_path):
        path = tmp_path / "0.txt"
        path.write_text("lang=en\n\n", encoding="utf-8")
        assert registry.label_for(load_transcript(path, file_id=0)) is None

    def test_dissimilar_transcript_abstains(self, registry, tmp_path):
        path = tmp_path / "0.txt"
        path.write_text(
            "lang=en\ncompletely unrelated weather forecast talk\n",
            encoding="utf-8",
        )
        assert registry.label_for(load_transcript(path, file_id=0)) is None


class TestRegistry:
    def test_read_your_write(self):
        reg = LabelRegistry()
        label = reg.create_cluster("greetings")
        reg.assign(10, label)
        assert reg.lookup(10) == label

    def test_unknown_lookup_is_none(self):
        assert LabelRegistry().lookup(5) is None

    def test_assign_missing_label_rejected(self):
        reg = LabelRegistry()
        with pytest.raises(NotFound):
            reg.assign(1, 99)

    def test_reassign_new_label_wins(self):
        reg = LabelRegistry()
        a = reg.create_cluster("a")
        b = reg.create_cluster("b")
        reg.assign(1, a)
        reg.assign(1, b)
        assert reg.lookup(1) == b
        members = list(reg.entries().values())
        assert members.count(a) == 0
        assert members.count(b) == 1

    def test_rename(self):
        reg = LabelRegistry()
        label = reg.create_cluster("draft")
        reg.name_cluster(label, "ringback tones")
        assert reg.cluster(label).name == "ringback tones"
        with pytest.raises(NotFound):
            reg.name_cluster(99, "x")

    def test_duplicate_label_id_rejected(self):
        reg = LabelRegistry()
        reg.create_cluster("a", label_id=5)
        with pytest.raises(DuplicateId):
            reg.create_cluster("b", label_id=5)

    def test_pending_cleared_by_assign(self):
        reg = LabelRegistry()
        reg.mark_pending(3)
        assert 3 in reg.pending()
        label = reg.create_cluster("found")
        reg.assign(3, label)
        assert 3 not in reg.pending()
        reg.mark_pending(3)  # already labelled: stays out of pending
        assert 3 not in reg.pending()

    def test_referential_integrity_under_fuzzed_ops(self, rng):
        reg = LabelRegistry()
        labels = []
        for _ in range(300):
            op = rng.integers(5)
            if op == 0 or not labels:
                labels.append(reg.create_cluster(f"c{len(labels)}"))
            elif op == 1:
                reg.assign(int(rng.integers(50)), labels[rng.integers(len(labels))])
            elif op == 2:
                reg.mark_pending(int(rng.integers(50)))
            elif op == 3:
                reg.name_cluster(labels[rng.integers(len(labels))], "renamed")
            else:
                try:
                    reg.assign(int(rng.integers(50)), int(rng.integers(900, 999)))
                except NotFound:
                    pass
            known = {info.label_id for info in reg.clusters()}
            assert set(reg.entries().values()) <= known
            assert not (reg.pending() & reg.entries().keys())

    def test_save_load_round_trip(self, tmp_path):
        reg = LabelRegistry()
        a = reg.create_cluster(
            "voicemail greetings", "en", [("voicemail", 0.83), ("message", 0.4)]
        )
        b = reg.create_cluster("rufton", "de", [("besetzt", 0.9)])
        reg.assign(1, a)
        reg.assign(2, a)
        reg.assign(3, b)
        reg.mark_pending(9)
        path = tmp_path / "labels.reg"
        reg.save(path)
        loaded = LabelRegistry.load(path)
        assert loaded.entries() == reg.entries()
        assert loaded.pending() == reg.pending()
        assert loaded.clusters() == reg.clusters()

    @pytest.mark.parametrize("bad", [1.5, 2.0, True], ids=["1.5", "2.0", "True"])
    def test_non_integer_ids_refused(self, bad):
        """save writes ids as text that load reads with int(): 1.5 would
        save but never load, and True would load as 1."""
        reg = LabelRegistry()
        label = reg.create_cluster("greetings")
        with pytest.raises(ConfigError, match="label id must be an integer"):
            reg.create_cluster("other", label_id=bad)
        with pytest.raises(ConfigError, match="file id must be an integer"):
            reg.assign(bad, label)
        with pytest.raises(ConfigError, match="label id must be an integer"):
            reg.assign(7, bad)
        with pytest.raises(ConfigError, match="file id must be an integer"):
            reg.mark_pending(bad)
        assert reg.entries() == {} and reg.pending() == frozenset()
        assert [info.label_id for info in reg.clusters()] == [label]

    def test_numpy_ids_round_trip(self, tmp_path):
        """numpy integer ids are held as ints, and save and load keep them."""
        reg = LabelRegistry()
        label = reg.create_cluster("greetings", label_id=np.int64(4))
        reg.assign(np.uint64(2**64 - 1), label)
        reg.assign(np.int32(5), np.int64(4))
        reg.mark_pending(np.int64(9))
        path = tmp_path / "labels.reg"
        reg.save(path)
        loaded = LabelRegistry.load(path)
        assert loaded.entries() == {5: 4, 2**64 - 1: 4}
        assert loaded.pending() == frozenset({9})
        assert [info.label_id for info in loaded.clusters()] == [4]
        assert all(type(k) is int for k in (*reg.entries(), *reg.pending(), label))

    def test_load_ignores_byte_order_mark(self, tmp_path):
        reg = LabelRegistry()
        reg.assign(1, reg.create_cluster("rufton", "de", [("besetzt", 0.9)]))
        reg.mark_pending(2)
        path = tmp_path / "labels.reg"
        reg.save(path)
        path.write_bytes("\ufeff".encode("utf-8") + path.read_bytes())
        loaded = LabelRegistry.load(path)
        assert loaded.entries() == reg.entries()
        assert loaded.pending() == reg.pending()
        assert loaded.clusters() == reg.clusters()

    def test_load_not_utf8_is_io_error(self, tmp_path):
        path = tmp_path / "labels.reg"
        path.write_bytes(b"[clusters]\n1\ten\tbusy \xff\t\n")
        with pytest.raises(IoError, match="registry"):
            LabelRegistry.load(path)

    def test_save_sanitises_names(self, tmp_path):
        reg = LabelRegistry()
        label = reg.create_cluster("tab\there")
        path = tmp_path / "labels.reg"
        reg.save(path)
        assert LabelRegistry.load(path).cluster(label).name == "tab here"

    @pytest.mark.parametrize(
        "separator",
        ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
         "\u2028", "\u2029"],
    )
    def test_name_with_line_boundary_round_trips(self, tmp_path, separator):
        """load splits the file with str.splitlines, so save must leave no
        boundary it knows inside a name."""
        reg = LabelRegistry()
        label = reg.create_cluster(f"busy{separator}tone", "en", [("busy", 0.5)])
        path = tmp_path / "labels.reg"
        reg.save(path)
        loaded = LabelRegistry.load(path).cluster(label)
        assert (loaded.name, loaded.keywords) == ("busy tone", (("busy", 0.5),))

    @pytest.mark.parametrize("name", ["", " ", "busy "])
    def test_name_without_keywords_round_trips(self, tmp_path, name):
        """A cluster's name survives beside an empty keyword list, even a
        blank one, which create_cluster gives by default."""
        reg = LabelRegistry()
        label = reg.create_cluster(name, "en")
        path = tmp_path / "labels.reg"
        reg.save(path)
        loaded = LabelRegistry.load(path).cluster(label)
        assert (loaded.name, loaded.keywords) == (name, ())

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        from speechprint import fileio

        path = tmp_path / "labels.reg"
        LabelRegistry().save(path)
        before = path.read_bytes()
        reg = LabelRegistry()
        reg.assign(1, reg.create_cluster("greetings"))

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(fileio.os, "replace", refuse)
        with pytest.raises(IoError, match="disk full"):
            reg.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["labels.reg"]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.reg"
        path.write_text("[clusters]\nnot-a-cluster-line\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            LabelRegistry.load(path)


class TestBuildRegistry:
    def test_languages_never_share_clusters(self):
        docs = [
            doc(1, "hello voicemail message", "en"),
            doc(2, "hello voicemail inbox", "en"),
            doc(3, "guten tag nachricht", "de"),
            doc(4, "guten tag mailbox", "de"),
        ]
        reg = build_registry_from_transcripts(docs, algo="kmeans", k=1)
        by_label = {}
        for fid, label in reg.entries().items():
            by_label.setdefault(label, set()).add(fid)
        lang_of = {d.file_id: d.language for d in docs}
        for label, members in by_label.items():
            langs = {lang_of[fid] for fid in members}
            assert len(langs) == 1
            assert reg.cluster(label).language == langs.pop()

    def test_active_clusters_have_members_and_sorted_keywords(self):
        docs = blob_docs()
        reg = build_registry_from_transcripts(docs, algo="kmeans", k=2)
        assert len(reg.clusters()) == 2
        for info in reg.clusters():
            assert info.label_id in reg.entries().values()
            weights = [w for _t, w in info.keywords]
            assert weights == sorted(weights, reverse=True)

    def test_dbscan_noise_left_pending(self):
        docs = [
            doc(0, "shared thing"),
            doc(1, "shared thing"),
            doc(2, "shared thing"),
            doc(3, "oddball loner"),
        ]
        reg = build_registry_from_transcripts(
            docs, algo="dbscan", eps=0.3, min_pts=2
        )
        assert reg.lookup(3) is None
        assert 3 in reg.pending()
        assert reg.lookup(0) is not None

    def test_unknown_algo_rejected(self):
        with pytest.raises(ConfigError):
            build_registry_from_transcripts([doc(0, "x")], algo="spectral")
