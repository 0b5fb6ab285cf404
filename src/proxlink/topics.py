"""proxlink.topics
~~~~~~~~~~~~~~~~~~

Topic modeling of title+abstract text and the cognitive-distance feature.

The pipeline is: tokenize (lowercase, strip punctuation, drop the
bundled stopwords, Porter stemming once per distinct token), fit LDA by
partially collapsed Gibbs sampling, pick the topic count by NPMI
coherence (one forked fit per K, largest first), average each author's
per-publication topic vectors into a knowledge vector over the feature
window, and measure cognitive distance between two authors as one minus
the Pearson correlation of their knowledge vectors.
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
from ._validation import sorted_distinct
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

# each step's suffixes as one tuple: a word that ends in none of them (one
# str.endswith call) skips the step's table walk
_STEP2_ANY = tuple(suffix for suffix, _ in _STEP2)
_STEP3_ANY = tuple(suffix for suffix, _ in _STEP3)


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
    if w.endswith(_STEP2_ANY):
        for suffix, repl in _STEP2:
            if w.endswith(suffix):
                stem = w[: -len(suffix)]
                if _measure(stem) > 0:
                    w = stem + repl
                break

    # step 3
    if w.endswith(_STEP3_ANY):
        for suffix, repl in _STEP3:
            if w.endswith(suffix):
                stem = w[: -len(suffix)]
                if _measure(stem) > 0:
                    w = stem + repl
                break

    # step 4
    if w.endswith(_STEP4):
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


def tokenize_corpus(records: Iterable[PublicationRecord]) -> list[TokenizedDoc]:
    """Each record's title+abstract as normalized terms.

    Lowercases, keeps alphabetic runs only, drops the bundled stopwords
    (before and after stemming) and stems with ``porter_stem``, called
    once per distinct raw token. An all-stopword text yields an empty
    doc, which downstream fitting skips and flags.
    """
    stoplist = default_stopwords()
    stems: dict[str, str] = {}
    docs = []
    for pub in records:
        tokens = []
        for raw in _TOKEN_RE.findall((pub.title + " " + pub.abstract).lower()):
            if raw in stoplist:
                continue
            stem = stems.get(raw)
            if stem is None:
                stem = stems[raw] = porter_stem(raw)
            if stem not in stoplist:
                tokens.append(stem)
        docs.append(TokenizedDoc(pub_id=pub.pub_id, tokens=tuple(tokens)))
    return docs


# ---------------------------------------------------------------------------
# Partially collapsed Gibbs LDA
# ---------------------------------------------------------------------------

# The sampler draws from the stdlib Mersenne Twister rather than
# numpy.random: a run that stops after the topic stage never imports
# numpy.random otherwise, and importing it adds 2.3 MB (6 %) to that run's
# peak RSS.

def _uniforms(rng: random.Random, n: int) -> np.ndarray:
    """``n`` doubles in [0, 1): the top 53 bits of rng's next 64-bit words.

    ``randbytes`` hands out whole 32-bit words in order, so
    ``_uniforms(rng, a)`` followed by ``_uniforms(rng, b)`` yields the
    values of ``_uniforms(rng, a + b)`` and leaves rng in the same state.
    """
    return (np.frombuffer(rng.randbytes(8 * n), dtype="<u8") >> 11) * 2.0 ** -53


DRAW_CHUNK = 1 << 16  # values per randbytes call: 0.5 MB of bytes and of big int


def _fill_uniforms(rng: random.Random, out: np.ndarray) -> None:
    """Fill the 1-d ``out`` with ``_uniforms(rng, len(out))``, drawn in
    chunks of ``DRAW_CHUNK`` values so no transient grows with ``out``."""
    for lo in range(0, len(out), DRAW_CHUNK):
        chunk = out[lo:lo + DRAW_CHUNK]
        chunk[:] = _uniforms(rng, len(chunk))


def _gamma(shape: np.ndarray, rng: random.Random) -> np.ndarray:
    """Gamma(shape, 1) variates, one per entry of the 1-d ``shape`` (all > 0).

    Marsaglia & Tsang's rejection method (ACM TOMS 26(3), 2000) on
    Box-Muller normals; a shape a < 1 draws Gamma(a + 1) and scales it by
    U ** (1 / a). Blocks of 2,048 entries keep the temporaries under
    0.3 MB.
    """
    out = np.empty(len(shape))
    for lo in range(0, len(shape), 2048):
        a = shape[lo:lo + 2048]
        draw = out[lo:lo + 2048]
        boost = a < 1
        d = np.where(boost, a + 1, a) - 1 / 3
        c = 1 / np.sqrt(9 * d)
        todo = np.arange(len(a))
        while len(todo):
            n = len(todo)
            pairs = (n + 1) // 2
            u = _uniforms(rng, 2 * pairs + n)
            radius = np.sqrt(-2 * np.log(1 - u[:pairs]))
            angle = 2 * np.pi * u[pairs:2 * pairs]
            x = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]
            v = (1 + c[todo] * x) ** 3
            positive = v > 0
            v[~positive] = 1.0
            ok = positive & (np.log(1 - u[2 * pairs:])
                             < 0.5 * x * x + d[todo] * (1 - v + np.log(v)))
            draw[todo[ok]] = d[todo[ok]] * v[ok]
            todo = todo[~ok]
        draw[boost] *= _uniforms(rng, int(boost.sum())) ** (1 / a[boost])
    return out


class GibbsLda(ParamsMixin):
    """LDA fitted by partially collapsed Gibbs sampling, point estimate
    from the final sweep's counts with prior smoothing.

    The sampler of Magnusson, Jonsson, Villani & Broman ("Sparse Partially
    Collapsed MCMC for Parallel Inference in Topic Models", JCGS 2018)
    integrates out the document-topic proportions but samples the topics:
    each sweep draws phi_k ~ Dir(beta + n_wk) for every topic, then
    resamples every token's topic from
    p(z = k) proportional to phi_k[w] * (n_dk + alpha), with the token's
    own assignment removed from n_dk. Given phi the documents are
    independent, so token position j of every document is one vectorized
    step. It is an exact MCMC for the same posterior p(z | w) as fully
    collapsed Gibbs sampling, along a different sample path.

    Layout: n_dk is doc-major (D x K) and every token keeps its flat entry
    d * K + z, so a step updates its documents' counts with one fancy
    index. phi reads n_wk only at the start of a sweep, so n_wk is
    recounted from the assignments once per sweep rather than per step.
    The initial topics and each sweep's token uniforms are one draw each,
    the same numbers in the same order as one draw per step.

    Parameters
    ----------
    n_topics : K, at least 2.
    alpha : symmetric document-topic prior; None means 50/K.
    beta : symmetric topic-term prior.
    iterations : Gibbs sweeps over the corpus.
    seed : RNG seed; fits are bit-reproducible for a fixed seed and
        input ordering, and make no BLAS call, so they do not depend on
        the BLAS thread count.

    Fitted state: ``vocab_`` (term -> column, in column order),
    ``topic_term_`` (K x V, rows summing to 1), ``doc_topic_`` (pub_id ->
    length-K simplex vector, non-empty docs only), ``skipped_`` (pub_ids
    of empty docs).
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
        if not (self.alpha_ > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")
        if self.iterations < 1:  # no sweep would return the random initial state
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
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
        D = len(used)
        alpha = self.alpha_

        # Documents longest first, so the documents that still have a token
        # at position j are a prefix. Tokens are stored position-major: step
        # j's tokens are one contiguous slice, document i at offset i. Every
        # array is O(tokens) or smaller; nothing is padded to D x L.
        order = sorted(range(D), key=lambda d: -len(used[d].tokens))
        lengths = np.array([len(used[d].tokens) for d in order])
        active = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]  # docs longer than j
        texts = [used[d].tokens for d in order]
        n_tokens = int(lengths.sum())
        words = np.fromiter((self.vocab_[t[j]] for j, n in enumerate(active.tolist())
                             for t in texts[:n]), dtype=np.intp, count=n_tokens)

        # ``entry`` holds each token's flat index d * K + z into the
        # doc-major counts n_dk; ``u`` is the buffer each phase (the initial
        # topics, then every sweep) fills with its uniforms in one draw, and
        # step j reads its own slice. Each step's views are built once.
        rng = random.Random(self.seed)
        u = np.empty(n_tokens)
        _fill_uniforms(rng, u)
        z = (u * K).astype(np.intp)
        base = np.arange(D) * K
        entry = np.concatenate([base[:n] for n in active.tolist()]) + z
        ndk_flat = np.bincount(entry, minlength=D * K)
        ndk = ndk_flat.reshape(D, K)
        nwk = np.bincount(z * V + words, minlength=K * V).reshape(K, V)
        steps = []
        for start, n in zip((np.cumsum(active) - active).tolist(), active.tolist()):
            cut = slice(start, start + n)
            steps.append((words[cut], z[cut], entry[cut], u[cut], ndk[:n].T, base[:n]))
        for _ in range(self.iterations):
            # phi_k ~ Dir(beta + n_wk): given phi the documents are
            # independent, so position j of every document is one step
            phi = _gamma((nwk + self.beta).ravel(), rng).reshape(K, V)
            phi /= phi.sum(axis=1, keepdims=True)
            _fill_uniforms(rng, u)
            for w, zj, e, uj, ndk_j, base_j in steps:
                ndk_flat[e] -= 1
                p = phi.take(w, axis=1)
                p *= ndk_j + alpha
                np.add.accumulate(p, axis=0, out=p)
                np.add.reduce(p < uj * p[-1], axis=0, out=zj)
                np.add(base_j, zj, out=e)
                ndk_flat[e] += 1
            nwk = np.bincount(z * V + words, minlength=K * V).reshape(K, V)

        topic_term = nwk + self.beta
        topic_term /= topic_term.sum(axis=1, keepdims=True)
        self.topic_term_ = topic_term

        theta = (ndk + alpha) / (lengths[:, None] + K * alpha)
        theta /= theta.sum(axis=1, keepdims=True)
        row_of = dict(zip(order, theta))
        self.doc_topic_ = {doc.pub_id: row_of[d] for d, doc in enumerate(used)}
        return self

    def top_words(self, top_m: int = 10) -> list[list[str]]:
        check_fitted(self, "topic_term_")
        terms = list(self.vocab_)  # built in column order
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
            "vocab": list(self.vocab_),
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
    """Mean NPMI over top-word pairs per topic; returns (per-topic, mean).

    ``top_m`` must be at least 2 (one word has no pair to score) and
    ``window`` at least 1: smaller values give every topic the same score,
    so ``select_k`` would silently take the smallest K.
    """
    if top_m < 2:
        raise ValueError(f"top_m must be >= 2, got {top_m}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
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


def _fit_k(docs: Sequence[TokenizedDoc], k: int, seed: int, alpha: Optional[float],
           beta: float, iterations: int, top_m: int, window: int
           ) -> tuple[GibbsLda, float]:
    """The grid fit at ``k`` and its mean coherence."""
    model = GibbsLda(n_topics=k, alpha=alpha, beta=beta, iterations=iterations,
                     seed=seed).fit(docs)
    effective_top = min(top_m, len(model.vocab_))
    _, mean_score = coherence(model, docs, top_m=effective_top, window=window)
    return model, mean_score


def select_k(docs: Sequence[TokenizedDoc], k_grid: Sequence[int], seed: int = 0,
             alpha: Optional[float] = None, beta: float = 0.01,
             iterations: int = 1000, top_m: int = 10, window: int = 10
             ) -> tuple[GibbsLda, dict[int, float]]:
    """Fit one model per K, each from ``seed``; the best mean coherence
    wins, ties to the smallest K. Returns (winning fit, {K: score}).

    The fits are independent, so each K is fitted in a forked worker
    (``fork_map``), one per usable CPU and the largest K first, which
    sends back its model; the results are the same as in-process.
    ``scores`` lists the Ks in grid order.
    """
    if not k_grid:
        raise ValueError("k_grid is empty")
    grid = list(dict.fromkeys(k_grid))
    fit_args = (seed, alpha, beta, iterations, top_m, window)
    largest_first = sorted(grid, reverse=True)
    fits = dict(zip(largest_first, fork_map(lambda k: _fit_k(docs, k, *fit_args), largest_first,
                                            label=lambda k: f"select_k child for K={k}")))
    scores = {k: fits[k][1] for k in grid}
    best = min(sorted(scores), key=lambda k: (-scores[k], k))
    return fits[best][0], scores


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


ZERO_VARIANCE_TOL = 1e-12


def has_zero_variance(vec: np.ndarray) -> bool:
    """True when ``vec``'s entries span at most ``ZERO_VARIANCE_TOL``."""
    return bool(np.ptp(np.asarray(vec, dtype=float)) <= ZERO_VARIANCE_TOL)


def cognitive_distances(vectors: Sequence[np.ndarray], I: np.ndarray, J: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """1 - Pearson correlation of ``vectors[I[p]]`` and ``vectors[J[p]]``,
    clipped to [0, 2], for each pair p; and which pairs are degenerate.

    A constant vector has undefined correlation: a pair with one on either
    side scores the neutral 1.0 and is flagged degenerate. Equal vectors
    score exactly 0.0. Each vector named in ``I`` or ``J`` is centred once,
    and each other pair takes one dot product of two centred vectors, so a
    pair's value does not depend on the pairs scored with it.
    """
    I = np.asarray(I, dtype=np.intp)
    J = np.asarray(J, dtype=np.intp)
    zero_var = np.zeros(len(vectors), dtype=bool)
    vector_id = np.zeros(len(vectors), dtype=np.intp)  # equal vectors share an id
    distinct: dict[tuple, int] = {}
    centred: dict[int, np.ndarray] = {}
    sumsq: dict[int, float] = {}
    for a in sorted_distinct(np.concatenate([I, J])).tolist():
        vec = np.asarray(vectors[a], dtype=float)
        zero_var[a] = has_zero_variance(vec)
        vector_id[a] = distinct.setdefault(tuple(vec.tolist()), len(distinct))
        d = vec - vec.mean()
        centred[a], sumsq[a] = d, d @ d
    degenerate = zero_var[I] | zero_var[J]
    distances = np.where(degenerate, 1.0, 0.0)
    scored = np.flatnonzero(~degenerate & (vector_id[I] != vector_id[J]))
    distances[scored] = [
        min(2.0, max(0.0, 1.0 - float(centred[a] @ centred[b] / math.sqrt(sumsq[a] * sumsq[b]))))
        for a, b in zip(I[scored].tolist(), J[scored].tolist())]
    return distances, degenerate
