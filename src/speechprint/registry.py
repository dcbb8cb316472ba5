"""Transcript clustering and the file-to-label registry.

Retrieval maps audio to a file id; this module maps file ids to human
meaningful labels ("voicemail greeting", "ringback tone", ...). Labels
are discovered by clustering transcript TF-IDF vectors per language and
summarised by their highest-weight terms, after which an engineer can
rename clusters and assign stragglers by hand.

The numeric parts follow the textbook definitions exactly: idf is
log(N / df) with no smoothing (a term present in every document is
zeroed), k-means uses k-means++ seeding plus Lloyd iterations over unit
vectors, and DBSCAN runs on cosine distances with noise labelled -1.
"""

import logging
import re
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DuplicateId, NotFound, require_int
from .fileio import read_text, write_atomic

logger = logging.getLogger(__name__)

NOISE_LABEL = -1
_TOKEN_RE = re.compile(r"\w+", re.UNICODE)
_LANG_LINE_RE = re.compile(r"^lang=(\S+)\s*$")

DEFAULT_STOP_WORDS = frozenset(
    """a an and are as at be by for from has have i in is it of on or that the
    this to was we will with you your""".split()
)
#: Lloyd iterations after which k-means stops even if assignments still move
KMEANS_MAX_ITER = 100
#: Cosine similarity below which a transcript is left unlabelled
MIN_TRANSCRIPT_SIMILARITY = 0.1


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens, punctuation stripped."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class TranscriptDoc:
    """One transcribed file: id, language tag and token list."""

    file_id: int
    language: str
    tokens: tuple[str, ...]

    @classmethod
    def from_text(
        cls, file_id: int, text: str, language: str = "und"
    ) -> "TranscriptDoc":
        return cls(file_id, language, tuple(tokenize(text)))


def load_transcript(path: str | Path, file_id: int | None = None) -> TranscriptDoc:
    """Reads ``<file_id>.txt``: first line ``lang=<tag>``, then the text.

    A missing language line falls back to the tag "und". When file_id is
    None it is parsed from the file name stem.
    """
    path = Path(path)
    if file_id is None:
        try:
            file_id = int(path.stem)
        except ValueError as exc:
            raise ConfigError(
                f"cannot infer a file id from transcript name {path.name!r}"
            ) from exc
    lines = read_text(path, "transcript").splitlines()
    language = "und"
    if lines:
        match = _LANG_LINE_RE.match(lines[0])
        if match:
            language = match.group(1)
            lines = lines[1:]
    return TranscriptDoc.from_text(file_id, "\n".join(lines), language)


def load_transcript_dir(path: str | Path) -> list[TranscriptDoc]:
    """Loads every ``*.txt`` under ``path``, sorted by file id; ConfigError
    when there is none."""
    paths = sorted(Path(path).glob("*.txt"))
    if not paths:
        raise ConfigError(f"no .txt files under {path}")
    return sorted(map(load_transcript, paths), key=lambda d: d.file_id)


def vectorize(docs: list[TranscriptDoc]) -> tuple[np.ndarray, list[tuple[str, str]]]:
    """TF-IDF matrix over per-language vocabulary blocks.

    Tokens in :data:`DEFAULT_STOP_WORDS` are dropped. tf is the raw count
    in the document, idf is log(N / df) over the whole collection, and
    each non-zero row is L2 normalised. Because a term's column is keyed
    by (language, term), the same word in two languages occupies two
    columns and documents of different languages share no dimensions.

    Returns:
        (matrix [n_docs, vocab], feature list of (language, term)).
    """
    if not docs:
        raise ConfigError("vectorize needs at least one document")
    features: dict[tuple[str, str], int] = {}
    doc_terms: list[Counter] = []
    for doc in docs:
        counts = Counter(
            (doc.language, tok) for tok in doc.tokens if tok not in DEFAULT_STOP_WORDS
        )
        doc_terms.append(counts)
        for key in counts:
            features.setdefault(key, len(features))
    matrix = np.zeros((len(docs), len(features)))
    for row, counts in enumerate(doc_terms):
        for key, count in counts.items():
            matrix[row, features[key]] = count
    df = np.count_nonzero(matrix, axis=0)
    with np.errstate(divide="ignore"):
        idf = np.log(len(docs) / np.maximum(df, 1))
    matrix *= idf
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    np.divide(matrix, norms, out=matrix, where=norms > 0)
    for row in np.flatnonzero(np.squeeze(norms, axis=1) == 0):
        logger.warning(
            "transcript %d has no weighted terms, vector is zero",
            docs[row].file_id,
        )
    ordered = sorted(features, key=features.get)
    return matrix, ordered


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    return np.divide(vectors, norms, out=np.zeros_like(vectors), where=norms > 0)


def _kmeans_iterations(vectors: np.ndarray, k: int, seed: int):
    """Yields (assignments, objective) per Lloyd iteration, at most
    :data:`KMEANS_MAX_ITER` of them.

    Rows are unit normalised first, which makes squared Euclidean
    distance a monotone proxy for cosine distance. k-means++ seeding,
    ties to the lowest centre index, empty clusters keep their centre.
    """
    unit = _unit_rows(np.asarray(vectors, dtype=np.float64))
    n = unit.shape[0]
    rng = np.random.default_rng(seed)
    centres = np.empty((k, unit.shape[1]))
    chosen = np.full(n, False)
    first = int(rng.integers(n))
    centres[0] = unit[first]
    chosen[first] = True
    d2 = np.sum((unit - centres[0]) ** 2, axis=1)
    for j in range(1, k):
        weights = np.where(chosen, 0.0, d2)
        total = weights.sum()
        if total > 0:
            pick = int(rng.choice(n, p=weights / total))
        else:  # all remaining points coincide with a centre
            pick = int(np.flatnonzero(~chosen)[0])
        centres[j] = unit[pick]
        chosen[pick] = True
        d2 = np.minimum(d2, np.sum((unit - centres[j]) ** 2, axis=1))
    assignments = None
    for _ in range(KMEANS_MAX_ITER):
        dists = ((unit[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
        new_assign = dists.argmin(axis=1)
        objective = float(dists[np.arange(n), new_assign].sum())
        yield new_assign, objective
        if assignments is not None and np.array_equal(new_assign, assignments):
            return
        assignments = new_assign
        for j in range(k):
            members = unit[new_assign == j]
            if members.shape[0]:
                centres[j] = members.mean(axis=0)


def cluster_kmeans(vectors: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Cluster assignment per row via seeded k-means++ plus Lloyd.

    Deterministic for a fixed (vectors, k, seed). Raises ConfigError when
    k is not in [1, n_rows].
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ConfigError("vectors must be a non-empty 2-D array")
    if not 1 <= k <= vectors.shape[0]:
        raise ConfigError(
            f"k must be in [1, {vectors.shape[0]}], got {k}"
        )
    assignments = None
    for assignments, _objective in _kmeans_iterations(vectors, k, seed):
        pass
    return assignments


def cluster_dbscan(
    vectors: np.ndarray, eps: float = 0.5, min_pts: int = 3
) -> np.ndarray:
    """Density clustering on cosine distance; noise points get -1.

    A point is core when at least min_pts points (itself included) lie
    within cosine distance eps. Labels are assigned in input order, so
    the result is deterministic.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ConfigError("vectors must be a non-empty 2-D array")
    if eps <= 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ConfigError(f"min_pts must be >= 1, got {min_pts}")
    unit = _unit_rows(vectors)
    n = unit.shape[0]
    dist = 1.0 - unit @ unit.T
    # zero vectors have no direction; keep them apart from everything
    zero = np.flatnonzero(np.all(unit == 0.0, axis=1))
    dist[zero, :] = 1.0
    dist[:, zero] = 1.0
    np.fill_diagonal(dist, 0.0)
    neighbours = dist <= eps
    core = neighbours.sum(axis=1) >= min_pts
    labels = np.full(n, NOISE_LABEL, dtype=np.int64)
    current = 0
    for start in range(n):
        if labels[start] != NOISE_LABEL or not core[start]:
            continue
        labels[start] = current
        frontier = [start]
        while frontier:
            point = frontier.pop()
            for neighbour in np.flatnonzero(neighbours[point]):
                if labels[neighbour] == NOISE_LABEL:
                    labels[neighbour] = current
                    if core[neighbour]:
                        frontier.append(neighbour)
        current += 1
    return labels


def _top_terms(docs, matrix, features, member_ids, top_k) -> list[tuple[str, float]]:
    """Highest mean TF-IDF terms over a cluster's documents, from
    ``(matrix, features) = vectorize(docs)``, made once for all clusters.

    Weights come from the full collection's idf, so terms common to the
    whole corpus rank low even when frequent inside the cluster. Returns
    at most top_k (term, weight) pairs with weight > 0, descending.
    """
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    member_ids = set(member_ids)
    rows = [i for i, d in enumerate(docs) if d.file_id in member_ids]
    if not rows:
        raise ConfigError("member_ids match no documents")
    mean = matrix[rows].mean(axis=0)
    order = np.argsort(-mean, kind="stable")
    keywords = [
        (features[i][1], float(mean[i])) for i in order if mean[i] > 0.0
    ]
    if not keywords:
        logger.warning("cluster of %d docs has no scoring terms", len(rows))
    return keywords[:top_k]


@dataclass
class ClusterInfo:
    """One label: id, engineer-facing name, keyword summary, language."""

    label_id: int
    name: str
    language: str = "und"
    keywords: tuple[tuple[str, float], ...] = field(default_factory=tuple)


class LabelRegistry:
    """Mutable mapping file_id -> label plus the label descriptions.

    Files whose labelling failed or has not happened yet sit in a pending
    set instead of the entry table, so every entry always references an
    existing cluster. Ids are integers, as :meth:`save` writes them.
    """

    def __init__(self) -> None:
        self._clusters: dict[int, ClusterInfo] = {}
        self._entries: dict[int, int] = {}
        self._pending: set[int] = set()
        self._lock = threading.RLock()

    def create_cluster(
        self,
        name: str = "",
        language: str = "und",
        keywords: tuple[tuple[str, float], ...] | list[tuple[str, float]] = (),
        label_id: int | None = None,
    ) -> int:
        """Registers a new label and returns its id (allocated if None)."""
        with self._lock:
            if label_id is None:
                label_id = max(self._clusters, default=0) + 1
            label_id = require_int(label_id, "label id")
            if label_id < 1:
                raise ConfigError(f"label ids start at 1, got {label_id}")
            if label_id in self._clusters:
                raise DuplicateId(f"label {label_id} already exists")
            self._clusters[label_id] = ClusterInfo(
                label_id, name, language, tuple(keywords)
            )
            return label_id

    def name_cluster(self, label_id: int, name: str) -> None:
        with self._lock:
            info = self._clusters.get(label_id)
            if info is None:
                raise NotFound(f"no label {label_id}")
            info.name = name

    def refresh_keywords(self, docs: list[TranscriptDoc], top_k: int) -> None:
        """Recomputes the keywords of every cluster that has members.

        Each cluster's keywords are its members' top terms among the
        documents of its language, which are vectorised once for all of its
        clusters.
        """
        entries = self.entries()
        groups = {}
        for info in self.clusters():
            members = {f for f, label in entries.items() if label == info.label_id}
            if members:
                if info.language not in groups:
                    group = [d for d in docs if d.language == info.language]
                    groups[info.language] = group, *vectorize(group)
                keywords = _top_terms(*groups[info.language], members, top_k)
                with self._lock:
                    info.keywords = tuple(keywords)

    def label_for(self, doc: TranscriptDoc | None) -> int | None:
        """The label of the cluster whose keywords best match a transcript.

        Scores each same-language cluster by cosine similarity between the
        transcript's term counts and the cluster's keyword weights; a best
        score of at least :data:`MIN_TRANSCRIPT_SIMILARITY` yields that
        cluster's label, anything else (or no transcript) None. It reads
        no file. A real deployment would put an ASR system in front.
        """
        if doc is None or not doc.tokens:
            return None
        counts = Counter(doc.tokens)
        doc_norm = np.sqrt(sum(c * c for c in counts.values()))
        best_label, best_score = None, 0.0
        for info in self.clusters():
            if info.language not in (doc.language, "und") and doc.language != "und":
                continue
            if not info.keywords:
                continue
            dot = sum(counts.get(t, 0) * w for t, w in info.keywords)
            kw_norm = np.sqrt(sum(w * w for _t, w in info.keywords))
            if kw_norm == 0:
                continue
            score = dot / (doc_norm * kw_norm)
            if score > best_score:
                best_label, best_score = info.label_id, score
        if best_label is not None and best_score >= MIN_TRANSCRIPT_SIMILARITY:
            return best_label
        return None

    def cluster(self, label_id: int) -> ClusterInfo:
        with self._lock:
            info = self._clusters.get(label_id)
            if info is None:
                raise NotFound(f"no label {label_id}")
            return info

    def clusters(self) -> list[ClusterInfo]:
        with self._lock:
            return [self._clusters[i] for i in sorted(self._clusters)]

    def assign(self, file_id: int, label_id: int) -> None:
        """Binds a file to a label; clears any pending mark.

        Raises NotFound when the label does not exist, which keeps the
        entry table referentially intact by construction.
        """
        file_id = require_int(file_id, "file id")
        label_id = require_int(label_id, "label id")
        with self._lock:
            if label_id not in self._clusters:
                raise NotFound(f"no label {label_id}")
            self._entries[file_id] = label_id
            self._pending.discard(file_id)

    def mark_pending(self, file_id: int) -> None:
        file_id = require_int(file_id, "file id")
        with self._lock:
            if file_id not in self._entries:
                self._pending.add(file_id)

    def lookup(self, file_id: int) -> int | None:
        """Label id for a file, or None when unknown or pending."""
        with self._lock:
            return self._entries.get(file_id)

    def entries(self) -> dict[int, int]:
        with self._lock:
            return dict(self._entries)

    def pending(self) -> frozenset[int]:
        with self._lock:
            return frozenset(self._pending)

    def save(self, path: str | Path) -> None:
        """Writes a line-oriented, human-readable registry file atomically."""
        with self._lock:
            lines = ["# speechprint registry v1", "[clusters]"]
            for info in self.clusters():
                kws = ",".join(f"{t}:{w!r}" for t, w in info.keywords)
                # load splits on every line boundary str.splitlines knows
                name = " ".join(info.name.replace("\t", " ").splitlines())
                lines.append(
                    f"{info.label_id}\t{info.language}\t{name}\t{kws}"
                )
            lines.append("[pending]")
            lines.extend(str(fid) for fid in sorted(self._pending))
            lines.append("[entries]")
            lines.extend(
                f"{fid}\t{label}" for fid, label in sorted(self._entries.items())
            )
        write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"), "registry")

    @classmethod
    def load(cls, path: str | Path) -> "LabelRegistry":
        text = read_text(path, "registry")
        registry = cls()
        section = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line in ("[clusters]", "[pending]", "[entries]"):
                section = line
                continue
            try:
                if section == "[clusters]":
                    # split the unstripped line: strip() would eat the
                    # tabs around an empty name and an empty keyword list
                    parts = raw.split("\t")
                    if not 3 <= len(parts) <= 4:
                        raise ValueError(f"expected 4 fields, got {len(parts)}")
                    label_str, language, name = parts[:3]
                    kw_str = parts[3].strip() if len(parts) == 4 else ""
                    keywords = []
                    if kw_str:
                        for part in kw_str.split(","):
                            term, weight = part.rsplit(":", 1)
                            keywords.append((term, float(weight)))
                    registry.create_cluster(
                        name, language, keywords, label_id=int(label_str)
                    )
                elif section == "[pending]":
                    registry.mark_pending(int(line))
                elif section == "[entries]":
                    fid_str, label_str = line.split("\t")
                    registry.assign(int(fid_str), int(label_str))
                else:
                    raise ValueError("content before any section header")
            except (ValueError, NotFound, DuplicateId) as exc:
                raise ConfigError(
                    f"bad registry line {lineno} in {path}: {exc}"
                ) from exc
        return registry


def build_registry_from_transcripts(
    docs: list[TranscriptDoc],
    algo: str = "kmeans",
    k: int | None = None,
    eps: float = 0.5,
    min_pts: int = 3,
    seed: int = 0,
    top_k: int = 5,
) -> LabelRegistry:
    """Clusters transcripts per language and materialises a registry.

    Languages partition the corpus before any clustering: documents of
    different languages never share a cluster. DBSCAN noise documents are
    left pending rather than forced into a label. Cluster names default
    to ``<language>-<n>`` until an engineer renames them.
    """
    if algo not in ("kmeans", "dbscan"):
        raise ConfigError(f"algo must be 'kmeans' or 'dbscan', got {algo!r}")
    registry = LabelRegistry()
    by_language: dict[str, list[TranscriptDoc]] = {}
    for doc in docs:
        by_language.setdefault(doc.language, []).append(doc)
    for language in sorted(by_language):
        group = by_language[language]
        matrix, features = vectorize(group)
        if algo == "kmeans":
            n_clusters = min(k if k is not None else max(len(group) // 4, 1), len(group))
            labels = cluster_kmeans(matrix, n_clusters, seed=seed)
        else:
            labels = cluster_dbscan(matrix, eps=eps, min_pts=min_pts)
        for cluster_number in sorted(set(labels) - {NOISE_LABEL}):
            members = [
                doc.file_id
                for doc, lab in zip(group, labels)
                if lab == cluster_number
            ]
            keywords = _top_terms(group, matrix, features, members, top_k)
            label_id = registry.create_cluster(
                name=f"{language}-{cluster_number}",
                language=language,
                keywords=keywords,
            )
            for fid in members:
                registry.assign(fid, label_id)
        for doc, lab in zip(group, labels):
            if lab == NOISE_LABEL:
                registry.mark_pending(doc.file_id)
    return registry
