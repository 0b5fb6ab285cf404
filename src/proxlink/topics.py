"""proxlink.topics
~~~~~~~~~~~~~~~~~~

Topic modeling of title+abstract text and the cognitive-distance feature.

The pipeline is: tokenize (lowercase, strip punctuation, Porter-style
stemming, stopword removal), fit a collapsed-Gibbs LDA, pick the topic
count by NPMI coherence, average each author's per-publication topic
vectors into a knowledge vector over the feature window, and measure
cognitive distance between two authors as one minus the Pearson
correlation of their knowledge vectors.
"""
from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ._base import ParamsMixin, check_fitted
from ._fork import fork_map
from ._rng import stable_seed
from .corpus import PublicationRecord

_TOKEN_RE = re.compile(r"[a-z]+")

_stopwords_cache: Optional[frozenset] = None


def default_stopwords() -> frozenset:
    global _stopwords_cache
    if _stopwords_cache is None:
        text = resources.files("proxlink.data").joinpath("stopwords_en.txt").read_text()
        _stopwords_cache = frozenset(w.strip() for w in text.splitlines() if w.strip())
    return _stopwords_cache


# ---------------------------------------------------------------------------
# Porter stemmer
# ---------------------------------------------------------------------------

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return True if i == 0 else not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count of vowel-consonant sequences [C](VC)^m[V]."""
    m = 0
    prev_cons = None
    for i in range(len(stem)):
        cons = _is_cons(stem, i)
        if prev_cons is False and cons:
            m += 1
        prev_cons = cons
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2]
            and _is_cons(word, len(word) - 1))


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (_is_cons(word, len(word) - 3)
            and not _is_cons(word, len(word) - 2)
            and _is_cons(word, len(word) - 1)):
        return False
    return word[-1] not in "wxy"


_STEP2 = (("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
          ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
          ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
          ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
          ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"))

_STEP3 = (("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
          ("ical", "ic"), ("ful", ""), ("ness", ""))

_STEP4 = ("al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
          "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize")


def porter_stem(word: str) -> str:
    """Classic Porter suffix-stripping; input must be lowercase alphabetic."""
    if len(word) <= 2:
        return word
    w = word

    # step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]

    # step 1b
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        fired = False
        if w.endswith("ed") and _has_vowel(w[:-2]):
            w = w[:-2]
            fired = True
        elif w.endswith("ing") and _has_vowel(w[:-3]):
            w = w[:-3]
            fired = True
        if fired:
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _ends_double_cons(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif _measure(w) == 1 and _ends_cvc(w):
                w += "e"

    # step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # step 2
    for suffix, repl in _STEP2:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + repl
            break

    # step 3
    for suffix, repl in _STEP3:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + repl
            break

    # step 4
    for suffix in _STEP4:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 1:
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    break
                w = stem
            break

    # step 5a
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem

    # step 5b
    if _measure(w) > 1 and _ends_double_cons(w) and w.endswith("l"):
        w = w[:-1]

    return w


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TokenizedDoc:
    pub_id: str
    tokens: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return len(self.tokens) == 0


def tokenize(pub: PublicationRecord, stoplist: Optional[frozenset] = None,
             stemmer=porter_stem) -> TokenizedDoc:
    """Title+abstract to normalized terms.

    Lowercases, keeps alphabetic runs only, drops stopwords (before and
    after stemming), stems. An all-stopword text yields an empty doc,
    which downstream fitting skips and flags.
    """
    return tokenize_corpus([pub], stoplist, stemmer)[0]


def tokenize_corpus(records: Iterable[PublicationRecord],
                    stoplist: Optional[frozenset] = None,
                    stemmer=porter_stem) -> list[TokenizedDoc]:
    """``tokenize`` over many records, calling ``stemmer`` once per distinct
    raw token."""
    stoplist = default_stopwords() if stoplist is None else stoplist
    stems: dict[str, str] = {}
    docs = []
    for pub in records:
        tokens = []
        for raw in _TOKEN_RE.findall((pub.title + " " + pub.abstract).lower()):
            if raw in stoplist:
                continue
            stem = stems.get(raw)
            if stem is None:
                stem = stems[raw] = stemmer(raw) if stemmer else raw
            if stem and stem not in stoplist:
                tokens.append(stem)
        docs.append(TokenizedDoc(pub_id=pub.pub_id, tokens=tuple(tokens)))
    return docs


# ---------------------------------------------------------------------------
# Collapsed Gibbs LDA
# ---------------------------------------------------------------------------

class GibbsLda(ParamsMixin):
    """LDA fitted by collapsed Gibbs sampling, point estimate from the
    final sweep's counts with prior smoothing.

    Parameters
    ----------
    n_topics : K, at least 2.
    alpha : symmetric document-topic prior; None means 50/K.
    beta : symmetric topic-term prior.
    iterations : Gibbs sweeps over the corpus.
    seed : RNG seed; fits are bit-reproducible for a fixed seed and
        input ordering.

    Fitted state: ``vocab_`` (term -> column), ``topic_term_`` (K x V,
    rows summing to 1), ``doc_topic_`` (pub_id -> length-K simplex
    vector, non-empty docs only), ``skipped_`` (pub_ids of empty docs).
    """

    def __init__(self, n_topics: int = 9, alpha: Optional[float] = None,
                 beta: float = 0.01, iterations: int = 1000, seed: int = 0):
        self.n_topics = n_topics
        self.alpha = alpha
        self.beta = beta
        self.iterations = iterations
        self.seed = seed
        self.topic_term_ = None

    @property
    def alpha_(self) -> float:
        return self.alpha if self.alpha is not None else 50.0 / self.n_topics

    def fit(self, docs: Sequence[TokenizedDoc]) -> "GibbsLda":
        K = self.n_topics
        if K < 2:
            raise ValueError("n_topics must be >= 2")
        used = [d for d in docs if not d.is_empty]
        self.skipped_ = tuple(d.pub_id for d in docs if d.is_empty)
        if not used:
            raise ValueError("all documents are empty after tokenization")
        if len(used) < K:
            raise ValueError(f"need at least K={K} non-empty documents, got {len(used)}")

        vocab = sorted({t for d in used for t in d.tokens})
        if len(vocab) < K:
            raise ValueError(f"vocabulary size {len(vocab)} smaller than K={K}")
        self.vocab_ = {t: i for i, t in enumerate(vocab)}
        V = len(vocab)
        alpha = self.alpha_
        beta = self.beta

        # flattened token stream
        doc_of: list[int] = []
        word_of: list[int] = []
        for d_idx, doc in enumerate(used):
            for t in doc.tokens:
                doc_of.append(d_idx)
                word_of.append(self.vocab_[t])
        n_tokens = len(word_of)

        rng = random.Random(self.seed)
        z = [rng.randrange(K) for _ in range(n_tokens)]

        nwt = [[0] * K for _ in range(V)]
        ndt = [[0] * K for _ in range(len(used))]
        nt = [0] * K
        for pos in range(n_tokens):
            k = z[pos]
            nwt[word_of[pos]][k] += 1
            ndt[doc_of[pos]][k] += 1
            nt[k] += 1

        v_beta = V * beta
        rand = rng.random
        for _ in range(self.iterations):
            for pos in range(n_tokens):
                w = word_of[pos]
                d = doc_of[pos]
                k = z[pos]
                row_w = nwt[w]
                row_d = ndt[d]
                row_w[k] -= 1
                row_d[k] -= 1
                nt[k] -= 1

                total = 0.0
                weights = [0.0] * K
                for kk in range(K):
                    p = (row_w[kk] + beta) / (nt[kk] + v_beta) * (row_d[kk] + alpha)
                    total += p
                    weights[kk] = total
                u = rand() * total
                k_new = 0
                while weights[k_new] < u:
                    k_new += 1

                z[pos] = k_new
                row_w[k_new] += 1
                row_d[k_new] += 1
                nt[k_new] += 1

        nwt_arr = np.array(nwt, dtype=float).T  # K x V
        topic_term = nwt_arr + beta
        topic_term /= topic_term.sum(axis=1, keepdims=True)
        self.topic_term_ = topic_term

        k_alpha = K * alpha
        self.doc_topic_ = {}
        for d_idx, doc in enumerate(used):
            theta = (np.array(ndt[d_idx], dtype=float) + alpha) / (len(doc.tokens) + k_alpha)
            self.doc_topic_[doc.pub_id] = theta / theta.sum()
        return self

    def top_words(self, top_m: int = 10) -> list[list[str]]:
        check_fitted(self, "topic_term_")
        terms = sorted(self.vocab_, key=self.vocab_.get)
        out = []
        for k in range(self.n_topics):
            order = np.argsort(-self.topic_term_[k])[:top_m]
            out.append([terms[i] for i in order])
        return out

    def to_json(self) -> dict:
        check_fitted(self, "topic_term_")
        return {
            "K": self.n_topics,
            "alpha": self.alpha_,
            "beta": self.beta,
            "iterations": self.iterations,
            "seed": self.seed,
            "vocab": sorted(self.vocab_, key=self.vocab_.get),
            "topic_term": [[float(v) for v in row] for row in self.topic_term_],
        }


# ---------------------------------------------------------------------------
# Coherence and K selection
# ---------------------------------------------------------------------------

def _window_counts(docs: Sequence[TokenizedDoc], words: set[str], window: int
                   ) -> tuple[dict, dict, int]:
    """Occurrence and joint window counts for the given words.

    A document's sliding windows (one window over all its tokens when it
    is shorter than ``window``) form a boolean presence matrix ``P`` over
    the needed words it contains: a word's count is a column sum of ``P``
    and a pair's count an entry of ``P.T @ P``.
    """
    vocab = sorted(words)
    index = {w: i for i, w in enumerate(vocab)}
    occur_arr = np.zeros(len(vocab), dtype=np.int64)
    joint_arr = np.zeros((len(vocab), len(vocab)), dtype=np.int64)
    column = np.zeros(len(vocab), dtype=np.intp)  # word -> column of this doc's P
    n_windows = 0
    for doc in docs:
        toks = doc.tokens
        if not toks:
            continue
        n_positions = max(1, len(toks) - window + 1)
        n_windows += n_positions
        hits = [(pos, index[t]) for pos, t in enumerate(toks) if t in index]
        if not hits:
            continue
        pos, ids = np.array(hits).T
        cols = np.flatnonzero(np.bincount(ids, minlength=len(vocab)))
        column[cols] = np.arange(len(cols))
        # running count of each needed word up to each token boundary
        running = np.zeros((len(toks) + 1, len(cols)), dtype=np.int32)
        running[pos + 1, column[ids]] = 1
        np.cumsum(running, axis=0, out=running)
        starts = np.arange(n_positions)
        ends = np.minimum(starts + window, len(toks))
        present = (running[ends] - running[starts] > 0).astype(np.int64)
        occur_arr[cols] += present.sum(axis=0)
        joint_arr[np.ix_(cols, cols)] += present.T @ present
    occur = {w: int(occur_arr[i]) for i, w in enumerate(vocab)}
    joint = {(vocab[i], vocab[j]): int(joint_arr[i, j])
             for i, j in zip(*np.nonzero(np.triu(joint_arr, 1)))}
    return occur, joint, n_windows


def npmi(p_joint: float, p_i: float, p_j: float) -> float:
    """Normalized pointwise mutual information in [-1, 1].

    Zero joint probability pins the score at -1; joint probability 1
    (words co-occurring in every window) pins it at +1, the limit of
    perfect association.
    """
    if p_joint <= 0.0:
        return -1.0
    if p_joint >= 1.0:
        return 1.0
    return math.log(p_joint / (p_i * p_j)) / -math.log(p_joint)


def coherence(model: GibbsLda, docs: Sequence[TokenizedDoc],
              top_m: int = 10, window: int = 10) -> tuple[list[float], float]:
    """Mean NPMI over top-word pairs per topic; returns (per-topic, mean)."""
    check_fitted(model, "topic_term_")
    if top_m > len(model.vocab_):
        raise ValueError(f"top_m={top_m} exceeds vocabulary size {len(model.vocab_)}")
    tops = model.top_words(top_m)
    needed = {w for topic in tops for w in topic}
    occur, joint, n_windows = _window_counts(docs, needed, window)
    if n_windows == 0:
        raise ValueError("no text windows available for coherence")

    per_topic = []
    for topic_words in tops:
        scores = []
        for i, wi in enumerate(topic_words):
            for wj in topic_words[i + 1:]:
                a, b = (wi, wj) if wi < wj else (wj, wi)
                p_joint = joint.get((a, b), 0) / n_windows
                p_i = occur[wi] / n_windows
                p_j = occur[wj] / n_windows
                if p_i == 0.0 or p_j == 0.0:
                    scores.append(-1.0)
                else:
                    scores.append(npmi(p_joint, p_i, p_j))
        per_topic.append(sum(scores) / len(scores) if scores else 0.0)
    return per_topic, sum(per_topic) / len(per_topic)


def _score_k(docs: Sequence[TokenizedDoc], k: int, seed: int, alpha: Optional[float],
             beta: float, iterations: int, top_m: int, window: int) -> float:
    """Mean coherence of the grid fit at ``k``."""
    model = GibbsLda(n_topics=k, alpha=alpha, beta=beta, iterations=iterations,
                     seed=stable_seed(seed, "select_k", k)).fit(docs)
    effective_top = min(top_m, len(model.vocab_))
    _, mean_score = coherence(model, docs, top_m=effective_top, window=window)
    return mean_score


def select_k(docs: Sequence[TokenizedDoc], k_grid: Sequence[int], seed: int = 0,
             alpha: Optional[float] = None, beta: float = 0.01,
             iterations: int = 1000, top_m: int = 10, window: int = 10
             ) -> tuple[int, dict[int, float]]:
    """Fit one model per K; best mean coherence wins, ties to the smallest K.

    The fits are independent, so each K is fitted in a forked child
    (``fork_map``), one per usable CPU at a time and the largest K first;
    the scores are the same as in-process.
    """
    if not k_grid:
        raise ValueError("k_grid is empty")
    grid = list(dict.fromkeys(k_grid))
    fit_args = (seed, alpha, beta, iterations, top_m, window)
    values = fork_map(lambda k: _score_k(docs, k, *fit_args), grid,
                      label=lambda k: f"select_k child for K={k}", cost=lambda k: k)
    scores = dict(zip(grid, values))
    best = min(sorted(scores), key=lambda k: (-scores[k], k))
    return best, scores


# ---------------------------------------------------------------------------
# Knowledge vectors and cognitive distance
# ---------------------------------------------------------------------------

def knowledge_vector(author_key: str, pub_ids: Iterable[str],
                     topic_vectors: Mapping[str, np.ndarray]) -> np.ndarray:
    """Mean of the author's window topic vectors (pubs without one are skipped)."""
    vecs = [topic_vectors[p] for p in pub_ids if p in topic_vectors]
    if not vecs:
        raise ValueError(
            f"author {author_key!r} has no publications with topic vectors in the window"
        )
    return np.mean(np.stack(vecs), axis=0)


def has_zero_variance(vec: np.ndarray, tol: float = 1e-12) -> bool:
    vec = np.asarray(vec, dtype=float)
    return bool(np.ptp(vec) <= tol)


def centre(vec: np.ndarray) -> tuple[np.ndarray, float]:
    """``vec`` minus its mean, and that difference's sum of squares."""
    d = vec - vec.mean()
    return d, d @ d


def centred_distance(d_i: np.ndarray, ss_i: float, d_j: np.ndarray, ss_j: float) -> float:
    """1 - Pearson correlation of two centred vectors, clipped to [0, 2].

    Takes :func:`centre`'s outputs, so a caller scoring many pairs centres
    each vector once; both vectors must have non-zero variance.
    """
    corr = float(d_i @ d_j / math.sqrt(ss_i * ss_j))
    return min(2.0, max(0.0, 1.0 - corr))


def cognitive_distance(s_i: np.ndarray, s_j: np.ndarray) -> float:
    """1 - Pearson correlation, in [0, 2].

    A constant vector has undefined correlation; such pairs score the
    neutral 1.0 (callers flag them via :func:`has_zero_variance`).
    """
    s_i = np.asarray(s_i, dtype=float)
    s_j = np.asarray(s_j, dtype=float)
    if s_i.shape != s_j.shape:
        raise ValueError(f"dimension mismatch: {s_i.shape} vs {s_j.shape}")
    if has_zero_variance(s_i) or has_zero_variance(s_j):
        return 1.0
    if np.array_equal(s_i, s_j):
        # correlation of a non-constant vector with itself is exactly 1
        return 0.0
    return centred_distance(*centre(s_i), *centre(s_j))
