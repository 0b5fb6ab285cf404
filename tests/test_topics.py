import collections
import errno
import hashlib
import itertools
import json
import math
import os
import random
import tracemalloc

import numpy as np
import pytest

import proxlink.topics as topics_mod
from proxlink.pipeline import make_demo_corpus
from proxlink.topics import (
    GibbsLda,
    TokenizedDoc,
    _fit_k,
    _window_counts,
    coherence,
    cognitive_distances,
    has_zero_variance,
    knowledge_vector,
    npmi,
    porter_stem,
    select_k,
    tokenize_corpus,
)

import assemble_oracle
from conftest import make_record_dict, corpus_from_dicts, pair_distance
from reference_lda import ReferenceGibbsLda, StepwiseGibbsLda

# sha256 of topic_term_ then doc_topic_ (in document order) for
# test_pinned_fit_digest's fit
PINNED_FIT_SHA256 = "5655cc0792bf94e3eac265f4429e511234f32c5ddf28791c9aba7c5f7d514874"


def unscreened_porter_stem(word):
    """``porter_stem`` walking every step's suffix table for every word."""
    if len(word) <= 2:
        return word
    w = word
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]
    if w.endswith("eed"):
        if topics_mod._measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        fired = False
        if w.endswith("ed") and topics_mod._has_vowel(w[:-2]):
            w = w[:-2]
            fired = True
        elif w.endswith("ing") and topics_mod._has_vowel(w[:-3]):
            w = w[:-3]
            fired = True
        if fired:
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif topics_mod._ends_double_cons(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif topics_mod._measure(w) == 1 and topics_mod._ends_cvc(w):
                w += "e"
    if w.endswith("y") and topics_mod._has_vowel(w[:-1]):
        w = w[:-1] + "i"
    for suffix, repl in topics_mod._STEP2:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if topics_mod._measure(stem) > 0:
                w = stem + repl
            break
    for suffix, repl in topics_mod._STEP3:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if topics_mod._measure(stem) > 0:
                w = stem + repl
            break
    for suffix in topics_mod._STEP4:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if topics_mod._measure(stem) > 1:
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    break
                w = stem
            break
    if w.endswith("e"):
        stem = w[:-1]
        m = topics_mod._measure(stem)
        if m > 1 or (m == 1 and not topics_mod._ends_cvc(stem)):
            w = stem
    if topics_mod._measure(w) > 1 and topics_mod._ends_double_cons(w) and w.endswith("l"):
        w = w[:-1]
    return w


def text_like_raw_tokens(tmp_path):
    """Every distinct raw token of the demo corpus, plus stopwords and
    pseudo-words built to end in each suffix the stemmer knows, alone and
    after an inflection."""
    path = tmp_path / "demo.jsonl"
    make_demo_corpus(path)
    tokens = set()
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        tokens.update(topics_mod._TOKEN_RE.findall((rec["title"] + " " + rec["abstract"]).lower()))
    tokens |= topics_mod.default_stopwords()
    suffixes = ({s for s, _ in topics_mod._STEP2} | {s for s, _ in topics_mod._STEP3}
                | set(topics_mod._STEP4) | {"e", "l", "y", "at", "bl", "iz"})
    rng = random.Random(0)
    roots = ["".join(rng.choice("bcdfglmnprstvz") + rng.choice("aeiouy")
                     for _ in range(rng.randint(1, 3))) for _ in range(60)]
    roots += ["tr", "a", "sy", "feed", "hop", "conflat", "relat", "formal"]
    for root in roots:
        for suffix in suffixes:
            for ending in ("", "s", "es", "ed", "ing", "ly", "y", "ies", "ness"):
                tokens.add(root + suffix + ending)
    return sorted(tokens)


def tokenize_text(title, abstract):
    """The ``TokenizedDoc`` of one record with this title and abstract."""
    corpus = corpus_from_dicts([make_record_dict("P1", title=title, abstract=abstract)])
    return tokenize_corpus(corpus.records)[0]


class TestPorterStemmer:
    # classic suffix families, expected forms checked against the published
    # algorithm by hand
    CASES = {
        "models": "model", "model": "model",
        "caresses": "caress", "ponies": "poni", "ties": "ti", "cats": "cat",
        "feed": "feed", "agreed": "agre", "plastered": "plaster",
        "motoring": "motor", "sing": "sing",
        "conflated": "conflat", "troubled": "troubl", "sized": "size",
        "hopping": "hop", "tanned": "tan", "falling": "fall",
        "hissing": "hiss", "failing": "fail", "filing": "file",
        "happy": "happi", "sky": "sky",
        "relational": "relat", "conditional": "condit",
        "adjustment": "adjust", "dependent": "depend",
        "formalize": "formal", "electrical": "electr",
        "hopefulness": "hope",
    }

    def test_word_family_collapses(self):
        for w in ("Models", "MODELS", "model"):
            assert porter_stem(w.lower()) == "model"

    def test_known_forms(self):
        for word, expected in self.CASES.items():
            assert porter_stem(word) == expected, word

    def test_short_words_untouched(self):
        assert porter_stem("ai") == "ai"
        assert porter_stem("is") == "is"

    def test_screened_steps_match_the_table_walks(self, tmp_path):
        words = list(self.CASES) + text_like_raw_tokens(tmp_path)
        assert len(words) > 20000
        assert [porter_stem(w) for w in words] == [unscreened_porter_stem(w) for w in words]


class TestTokenize:
    def test_title_and_abstract_with_stoplist(self):
        doc = tokenize_text("A deep", "model")
        assert doc.tokens == ("deep", "model")

    def test_stemming_collapses_family(self):
        doc = tokenize_text("Models, MODELS;", "model")
        assert doc.tokens == ("model", "model", "model")

    def test_all_stopword_text_is_empty_and_flagged(self):
        doc = tokenize_text("the of and", "a an the")
        assert doc.tokens == ()
        assert doc.is_empty

    def test_punctuation_and_digits_stripped(self):
        doc = tokenize_text("Graph-based 2020!", "nodes & edges, 42 times")
        assert "2020" not in doc.tokens
        assert "graph" in doc.tokens and "base" in doc.tokens

    def test_corpus_stems_each_distinct_token_once(self, monkeypatch):
        recs = corpus_from_dicts([
            make_record_dict("P1", title="Models of networks", abstract="the models"),
            make_record_dict("P2", title="Network models", abstract="of networks"),
        ]).records
        calls = []

        def stemmer(word):
            calls.append(word)
            return porter_stem(word)

        # the module global is what tokenize_corpus calls, and what a
        # tracer patches to count stems
        monkeypatch.setattr(topics_mod, "porter_stem", stemmer)
        docs = tokenize_corpus(recs)
        assert sorted(calls) == ["models", "network", "networks"]
        assert [d.tokens for d in docs] == [
            ("model", "network", "model"), ("network", "model", "network")]


def synthetic_topic_docs(n_docs=90, tokens_per_doc=12, seed=5):
    """Three disjoint-vocabulary topics, uniform within a topic."""
    vocabs = [[f"t{k}w{i}" for i in range(10)] for k in range(3)]
    rng = random.Random(seed)
    docs, truth = [], []
    for d in range(n_docs):
        k = d % 3
        docs.append(TokenizedDoc(
            pub_id=f"D{d}",
            tokens=tuple(rng.choice(vocabs[k]) for _ in range(tokens_per_doc))))
        truth.append(k)
    return docs, truth, vocabs


def noisy_topic_docs(n_docs=120, core_tokens=16, noise_tokens=5,
                     vocab_per_topic=10, n_noise_words=120, seed=5):
    """Three topic blocks plus a pool of rare words.

    The rare pool is what gives coherence an interior argmax: at the true
    K the junk words never reach a topic's top list, while an extra topic
    collects them and its never-co-occurring top pairs drag the mean down.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    docs = []
    for d in range(n_docs):
        k = d % 3
        toks = [f"t{k}w{rng.integers(0, vocab_per_topic)}" for _ in range(core_tokens)]
        toks += [f"noise{rng.integers(0, n_noise_words)}" for _ in range(noise_tokens)]
        rng.shuffle(toks)
        docs.append(TokenizedDoc(f"D{d}", tuple(toks)))
    return docs


class TestGibbsLda:
    def test_same_seed_identical_model(self):
        docs, _, _ = synthetic_topic_docs(n_docs=30)
        m1 = GibbsLda(n_topics=3, iterations=60, seed=11).fit(docs)
        m2 = GibbsLda(n_topics=3, iterations=60, seed=11).fit(docs)
        assert np.array_equal(m1.topic_term_, m2.topic_term_)
        for pid in m1.doc_topic_:
            assert np.array_equal(m1.doc_topic_[pid], m2.doc_topic_[pid])

    def test_rows_and_doc_vectors_are_simplex(self):
        docs, _, _ = synthetic_topic_docs(n_docs=30)
        model = GibbsLda(n_topics=3, iterations=60, seed=0).fit(docs)
        assert np.allclose(model.topic_term_.sum(axis=1), 1.0, atol=1e-9)
        for vec in model.doc_topic_.values():
            assert vec.min() >= 0
            assert abs(vec.sum() - 1.0) < 1e-9

    def test_recovers_disjoint_topics(self):
        # alpha = 50/K is a strong prior on 12-token documents, so purity
        # after 150 sweeps varies by seed for either sampler; compare the
        # mean over seeds 0-9 with the per-token reference's
        docs, _, vocabs = synthetic_topic_docs()

        def mean_purity(cls):
            purities = []
            for seed in range(10):
                model = cls(n_topics=3, iterations=150, seed=seed).fit(docs)
                purities += [max(len(set(top) & set(v)) / len(top) for v in vocabs)
                             for top in model.top_words(top_m=10)]
            return np.mean(purities)

        assert mean_purity(GibbsLda) >= mean_purity(ReferenceGibbsLda) - 0.05

    # two documents of distinct words: every word occurs once, so a fit's
    # final state z is readable from its counts, and the 2**5 states of
    # the collapsed posterior p(z | w) can be listed exactly; the shorter
    # document comes first, so the fit reorders them
    EXACT_DOCS = [TokenizedDoc("A", ("a", "b")), TokenizedDoc("B", ("c", "d", "e"))]

    @staticmethod
    def _final_state(model, alpha, beta):
        """z read back from topic_term_, checked against doc_topic_."""
        n_dk = np.array([model.doc_topic_[d.pub_id] * (len(d.tokens) + 2 * alpha) - alpha
                         for d in TestGibbsLda.EXACT_DOCS])
        n_wk = model.topic_term_ * (n_dk.sum(axis=0) + 5 * beta)[:, None] - beta
        z = np.argmax(n_wk, axis=0)  # n_wk is 1 in the word's topic, 0 in the other
        assert np.allclose(n_dk, [np.bincount(z[:2], minlength=2),
                                  np.bincount(z[2:], minlength=2)])
        return tuple(z.tolist())

    @staticmethod
    def _collapsed_posterior(alpha, beta):
        """p(z | w) for EXACT_DOCS at K = 2 (Griffiths & Steyvers, PNAS 2004)."""
        log_p = {}
        for z in itertools.product(range(2), repeat=5):
            lp = sum(math.lgamma(doc.count(k) + alpha)
                     for doc in (z[:2], z[2:]) for k in range(2))
            for k in range(2):
                n = z.count(k)
                lp += (n * math.lgamma(1 + beta) + (5 - n) * math.lgamma(beta)
                       - math.lgamma(n + 5 * beta))
            log_p[z] = lp
        top = max(log_p.values())
        total = sum(math.exp(v - top) for v in log_p.values())
        return {z: math.exp(v - top) / total for z, v in log_p.items()}

    @pytest.mark.parametrize("cls", [GibbsLda, ReferenceGibbsLda])
    def test_final_states_follow_collapsed_posterior(self, cls):
        # Over 2,000 seeded fits sampling noise alone leaves a total
        # variation of about 0.04: this sampler reads 0.049 and the
        # reference 0.045. Leaving the token's own count in n_dk reads
        # 0.13, leaving each topic's gamma draws unnormalized 0.31, and
        # using phi's posterior mean instead of a draw 0.23.
        alpha = beta = 0.2
        posterior = self._collapsed_posterior(alpha, beta)
        n_fits = 2000
        seen = collections.Counter(
            self._final_state(cls(n_topics=2, alpha=alpha, beta=beta, iterations=10,
                                  seed=seed).fit(self.EXACT_DOCS), alpha, beta)
            for seed in range(n_fits))
        tv = 0.5 * sum(abs(seen[z] / n_fits - p) for z, p in posterior.items())
        assert tv < 0.07

    @pytest.mark.parametrize("shape, cdf", [
        (0.5, lambda x: math.erf(math.sqrt(x))),  # half a chi-square(1)
        (1.0, lambda x: 1 - math.exp(-x)),
        (2.0, lambda x: 1 - math.exp(-x) * (1 + x)),
    ])
    def test_gamma_draws_follow_their_cdf(self, shape, cdf):
        n = 20000
        draws = np.sort(topics_mod._gamma(np.full(n, shape), random.Random(3)))
        expected = np.array([cdf(x) for x in draws])
        ks = max(np.max(np.arange(1, n + 1) / n - expected),
                 np.max(expected - np.arange(n) / n))
        assert ks < 1.63 / math.sqrt(n)  # the 1 % Kolmogorov-Smirnov bound

    @pytest.mark.golden
    def test_pinned_fit_digest(self):
        # pins the sampler's draws: any change to the kernel, the layout or
        # the rng stream moves these bytes
        docs = [TokenizedDoc(d.pub_id, d.tokens[:5 + i % 17])
                for i, d in enumerate(noisy_topic_docs(n_docs=30))]
        model = GibbsLda(n_topics=3, iterations=20, seed=4).fit(docs)
        h = hashlib.sha256(model.topic_term_.tobytes())
        for doc in docs:
            h.update(model.doc_topic_[doc.pub_id].tobytes())
        assert h.hexdigest() == PINNED_FIT_SHA256

    @staticmethod
    def _reference_cases():
        """(docs, GibbsLda params) over K 2-15, documents of 0-60 tokens
        (some empty, some of one shared length), both priors and 1-25 sweeps."""
        rng = random.Random(2018)
        cases = []
        for K in range(2, 16):
            for variant in range(3):
                n_docs = K + rng.randint(0, 25)
                pool = [f"w{i}" for i in range(K + rng.randint(0, 60))]
                if variant == 0:  # every document one length
                    lengths = [rng.randint(K, 60)] * n_docs
                else:
                    lengths = [rng.choice([0, 0, 1, rng.randint(1, 60), rng.randint(1, 60)])
                               for _ in range(n_docs)]
                lengths[:K] = [max(n, K if i == 0 else 1) for i, n in enumerate(lengths[:K])]
                docs = []
                for d, n in enumerate(lengths):
                    tokens = pool[:K] if d == 0 else []  # the vocabulary reaches K
                    tokens = tokens + [rng.choice(pool) for _ in range(n - len(tokens))]
                    docs.append(TokenizedDoc(f"D{d}", tuple(tokens)))
                rng.shuffle(docs)
                params = {"n_topics": K, "alpha": rng.choice([None, 0.1]),
                          "beta": rng.choice([0.01, 0.5]), "iterations": rng.randint(1, 25),
                          "seed": rng.randint(0, 2 ** 32)}
                cases.append((docs, params))
        return cases

    @pytest.mark.golden
    def test_matches_the_stepwise_sampler_bit_for_bit(self):
        # one draw per phase, doc-major counts and n_wk recounted per sweep
        # must leave every draw and every count of the per-step sweep as is
        cases = self._reference_cases()
        assert any(len({len(d.tokens) for d in docs}) == 1 for docs, _ in cases)
        assert any(any(d.is_empty for d in docs) for docs, _ in cases)
        for docs, params in cases:
            model = GibbsLda(**params).fit(docs)
            reference = StepwiseGibbsLda(**params).fit(docs)
            assert list(model.vocab_.items()) == list(reference.vocab_.items()), params
            assert model.skipped_ == reference.skipped_, params
            assert model.topic_term_.tobytes() == reference.topic_term_.tobytes(), params
            assert list(model.doc_topic_) == list(reference.doc_topic_), params
            for pub_id, row in reference.doc_topic_.items():
                assert model.doc_topic_[pub_id].tobytes() == row.tobytes(), (params, pub_id)

    @pytest.mark.golden
    def test_uniform_draws_concatenate(self):
        sizes = random.Random(9)
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 7), (5, 0)]
        pairs += [(sizes.randint(0, 3000), sizes.randint(0, 3000)) for _ in range(40)]
        for a, b in pairs:
            split, whole = random.Random(a * 7919 + b), random.Random(a * 7919 + b)
            parts = np.concatenate([topics_mod._uniforms(split, a), topics_mod._uniforms(split, b)])
            assert parts.tobytes() == topics_mod._uniforms(whole, a + b).tobytes(), (a, b)
            assert split.getstate() == whole.getstate(), (a, b)

    @pytest.mark.golden
    def test_chunked_fill_is_one_draw(self):
        chunk = topics_mod.DRAW_CHUNK
        for n in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 5):
            filled, whole = random.Random(n), random.Random(n)
            out = np.empty(n)
            topics_mod._fill_uniforms(filled, out)
            assert out.tobytes() == topics_mod._uniforms(whole, n).tobytes(), n
            assert filled.getstate() == whole.getstate(), n

    # words, z, entry and the uniform buffer (8 B each), the 8 B key of each
    # sweep's n_wk recount, and per-document state on 50-token documents
    FIT_BYTES_PER_TOKEN = 44
    # four draw-chunk transients: randbytes' big int and bytes, the shifted
    # words and their doubles
    FIT_FIXED_BYTES = 4 * 8 * topics_mod.DRAW_CHUNK

    def test_fit_memory_grows_with_tokens_only(self):
        # a sweep's uniforms are drawn in chunks: one draw of every token's
        # uniforms at once would add about 10 B per token at 200k tokens
        rng = random.Random(0)
        pool = [f"w{i}" for i in range(500)]
        peaks = {}
        for n_tokens in (50_000, 200_000):
            docs = [TokenizedDoc(f"D{d}", tuple(rng.choice(pool) for _ in range(50)))
                    for d in range(n_tokens // 50)]
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                GibbsLda(n_topics=5, iterations=2, seed=1).fit(docs)
                peaks[n_tokens] = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peaks[n_tokens] <= self.FIT_BYTES_PER_TOKEN * n_tokens + self.FIT_FIXED_BYTES
        assert (peaks[200_000] - peaks[50_000]) / 150_000 <= self.FIT_BYTES_PER_TOKEN

    @pytest.mark.parametrize("iterations", [0, -5])
    def test_iterations_below_one_rejected(self, iterations):
        docs, _, _ = synthetic_topic_docs(n_docs=30)
        with pytest.raises(ValueError, match=f"iterations must be >= 1, got {iterations}"):
            GibbsLda(n_topics=3, iterations=iterations).fit(docs)

    def test_preconditions(self):
        docs, _, _ = synthetic_topic_docs(n_docs=30)
        with pytest.raises(ValueError, match="at least K"):
            GibbsLda(n_topics=40, iterations=5).fit(docs)
        empty = [TokenizedDoc("E", ())]
        with pytest.raises(ValueError, match="empty"):
            GibbsLda(n_topics=2, iterations=5).fit(empty)
        tiny_vocab = [TokenizedDoc(f"D{i}", ("same",)) for i in range(5)]
        with pytest.raises(ValueError, match="vocabulary"):
            GibbsLda(n_topics=3, iterations=5).fit(tiny_vocab)
        for prior in ({"alpha": 0.0}, {"beta": 0.0}, {"beta": -0.1}):
            with pytest.raises(ValueError, match="positive"):
                GibbsLda(n_topics=3, iterations=5, **prior).fit(docs)

    def test_empty_docs_skipped_and_reported(self):
        docs, _, _ = synthetic_topic_docs(n_docs=30)
        docs = docs + [TokenizedDoc("EMPTY", ())]
        model = GibbsLda(n_topics=3, iterations=30, seed=0).fit(docs)
        assert model.skipped_ == ("EMPTY",)
        assert "EMPTY" not in model.doc_topic_


class TestCoherence:
    def test_npmi_perfect_association_is_one(self):
        # 6 of 10 windows contain both words: p_joint = p_i = p_j = 0.6,
        # so ln(p/(p*p)) / -ln(p) = 1 by hand
        docs = ([TokenizedDoc(f"B{i}", ("x", "y")) for i in range(6)]
                + [TokenizedDoc(f"N{i}", ("z", "w")) for i in range(4)])
        model = GibbsLda(n_topics=2, iterations=40, seed=1, alpha=0.5).fit(docs)
        assert npmi(0.6, 0.6, 0.6) == pytest.approx(1.0, abs=1e-12)
        per_topic, _ = coherence(model, docs, top_m=2, window=10)
        # whichever topic owns {x, y} (or {z, w}) scores exactly 1
        assert max(per_topic) == pytest.approx(1.0, abs=1e-9)

    def test_npmi_never_cooccur_is_minus_one(self):
        assert npmi(0.0, 0.5, 0.5) == -1.0

    def test_npmi_independent_words_zero(self):
        # p_joint = p_i * p_j = 0.25 exactly: hand value 0
        assert npmi(0.25, 0.5, 0.5) == 0.0

    def test_disjoint_topic_words_score_negative(self):
        docs = ([TokenizedDoc(f"B{i}", ("x", "y")) for i in range(5)]
                + [TokenizedDoc(f"N{i}", ("z", "w")) for i in range(5)])
        model = GibbsLda(n_topics=2, iterations=40, seed=1).fit(docs)
        per_topic, mean = coherence(model, docs, top_m=4, window=10)
        # top-4 words of each topic include a never-co-occurring pair
        assert mean < 1.0

    @pytest.mark.parametrize("kwargs, message", [
        ({"window": 0}, "window must be >= 1, got 0"),
        ({"window": -3}, "window must be >= 1, got -3"),
        ({"top_m": 0}, "top_m must be >= 2, got 0"),
        ({"top_m": 1}, "top_m must be >= 2, got 1"),
    ])
    def test_parameters_that_score_every_topic_alike_rejected(self, kwargs, message):
        # window 0 scored every topic -1.0 and top_m 0 or 1 every topic 0.0,
        # so select_k took the smallest K; window -3 died with IndexError
        docs, _, _ = synthetic_topic_docs(n_docs=30)
        model = GibbsLda(n_topics=3, iterations=5, seed=0).fit(docs)
        with pytest.raises(ValueError, match=message):
            coherence(model, docs, **kwargs)
        with pytest.raises(ValueError, match=message):
            select_k(docs, [2, 3], iterations=5, **kwargs)

    def test_top_m_exceeding_vocab_errors(self):
        docs = [TokenizedDoc(f"D{i}", ("x", "y")) for i in range(5)]
        model = GibbsLda(n_topics=2, iterations=10, seed=0).fit(docs)
        with pytest.raises(ValueError, match="top_m"):
            coherence(model, docs, top_m=99)


def reference_window_counts(docs, words, window):
    """The per-window sorted-set counting that ``_window_counts`` replaced."""
    occur = {w: 0 for w in words}
    joint = {}
    n_windows = 0
    for doc in docs:
        toks = doc.tokens
        if not toks:
            continue
        n_positions = max(1, len(toks) - window + 1)
        for start in range(n_positions):
            present = sorted({t for t in toks[start:start + window] if t in words})
            n_windows += 1
            for i, wi in enumerate(present):
                occur[wi] += 1
                for wj in present[i + 1:]:
                    joint[(wi, wj)] = joint.get((wi, wj), 0) + 1
    return occur, joint, n_windows


class TestWindowCounts:
    DOCS = [
        TokenizedDoc("rep", ("a", "a", "b", "a", "c", "b", "b", "d", "a", "e", "c", "c")),
        TokenizedDoc("short", ("c", "a", "c")),
        TokenizedDoc("empty", ()),
        TokenizedDoc("other", ("x", "y", "x", "z")),
        TokenizedDoc("one", ("b",)),
    ]

    @pytest.mark.parametrize("window", [1, 2, 3, 5, 12, 50])
    @pytest.mark.parametrize("words", [
        {"a", "b", "c"},               # repeated inside windows
        {"a", "c", "never", "absent"},  # needed words that never occur
        {"x", "y", "z", "e"},
        {"nothing"},
        set(),
    ])
    def test_matches_reference(self, words, window):
        assert _window_counts(self.DOCS, words, window) == \
            reference_window_counts(self.DOCS, words, window)

    def test_short_and_empty_documents(self):
        docs = [TokenizedDoc("E", ()), TokenizedDoc("S", ("a", "b", "a"))]
        occur, joint, n_windows = _window_counts(docs, {"a", "b"}, 10)
        assert (occur, joint, n_windows) == ({"a": 1, "b": 1}, {("a", "b"): 1}, 1)
        assert _window_counts([TokenizedDoc("E", ())], {"a"}, 3) == ({"a": 0}, {}, 0)

    def test_random_documents(self):
        rng = random.Random(11)
        for _ in range(50):
            pool = [f"w{i}" for i in range(rng.randint(1, 8))]
            docs = [TokenizedDoc(f"D{d}", tuple(rng.choice(pool)
                                                for _ in range(rng.randint(0, 25))))
                    for d in range(rng.randint(0, 6))]
            words = set(rng.sample(pool + ["u", "v"], rng.randint(0, len(pool) + 2)))
            window = rng.randint(1, 12)
            assert _window_counts(docs, words, window) == \
                reference_window_counts(docs, words, window)


class TestSelectK:
    def test_singleton_grid(self):
        docs, _, _ = synthetic_topic_docs(n_docs=30)
        model, scores = select_k(docs, [3], seed=0, iterations=30)
        assert model.n_topics == 3 and set(scores) == {3}

    def test_recovers_three_topics(self):
        docs = noisy_topic_docs(seed=5)
        model, scores = select_k(docs, [2, 3, 4, 5, 6], seed=1, iterations=200,
                                 alpha=0.05, top_m=8)
        assert model.n_topics == 3, scores

    def test_tie_breaks_to_smallest_k(self, monkeypatch):
        monkeypatch.setattr(topics_mod, "coherence",
                            lambda model, docs, top_m, window: ([], 0.5))
        docs, _, _ = synthetic_topic_docs(n_docs=30)
        model, scores = select_k(docs, [5, 4], seed=0, iterations=5)
        assert model.n_topics == 4
        assert scores[4] == scores[5] == 0.5

    def test_empty_grid_errors(self):
        with pytest.raises(ValueError):
            select_k([], [], seed=0)


def in_process_select(docs, grid, seed, iterations):
    fits = {k: _fit_k(docs, k, seed, None, 0.01, iterations, 10, 10) for k in grid}
    scores = {k: score for k, (_, score) in fits.items()}
    return fits[min(sorted(scores), key=lambda k: (-scores[k], k))][0], scores


def as_json(selected):
    """A ``select_k`` result with its model as ``to_json()``, for ``==``."""
    model, scores = selected
    return model.to_json(), scores


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, counting ``os.fork`` calls; no child may outlive the test."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counting_fork)
    yield forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedSelectK:
    @pytest.mark.golden
    @pytest.mark.parametrize("grid", [[6, 4, 3, 2], [3, 5, 3, 2]])
    def test_matches_in_process_bit_for_bit(self, two_cpus, grid):
        docs, _, _ = synthetic_topic_docs(n_docs=30)
        model, scores = select_k(docs, grid, seed=2, iterations=15)
        expected_model, expected = in_process_select(docs, grid, seed=2, iterations=15)
        assert model.to_json() == expected_model.to_json()
        assert model.doc_topic_.keys() == expected_model.doc_topic_.keys()
        assert all(v.tobytes() == expected_model.doc_topic_[d].tobytes()
                   for d, v in model.doc_topic_.items())
        assert list(scores) == list(dict.fromkeys(grid))
        assert all(scores[k] == expected[k] for k in expected)
        assert len(two_cpus) == min(len(expected), 2)

    @pytest.mark.golden
    def test_one_cpu_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork called with one usable CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(os, "fork", no_fork)
        docs, _, _ = synthetic_topic_docs(n_docs=30)
        assert as_json(select_k(docs, [4, 2, 3], seed=2, iterations=10)) == \
            as_json(in_process_select(docs, [4, 2, 3], seed=2, iterations=10))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_error_reraised_in_parent(self, two_cpus):
        docs, _, _ = synthetic_topic_docs(n_docs=30)
        with pytest.raises(ValueError, match="at least K=40"):
            select_k(docs, [2, 40, 3], seed=0, iterations=5)
        assert len(two_cpus) == 2

    def test_child_error_carries_child_traceback(self, two_cpus):
        docs, _, _ = synthetic_topic_docs(n_docs=30)
        with pytest.raises(ValueError) as info:
            select_k(docs, [2, 40], seed=0, iterations=5)
        cause = info.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert "select_k child for K=40" in str(cause)
        assert "Traceback" in str(cause) and "in _fit_k" in str(cause)

    def test_failed_fork_leaves_the_grid_to_the_other_worker(self, two_cpus, monkeypatch,
                                                             tmp_path):
        counting_fork = os.fork
        fit_k = topics_mod._fit_k
        pids = tmp_path / "pids"

        def fork_fails_every_other():
            if len(two_cpus) % 2:
                two_cpus.append(0)
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return counting_fork()

        def fit_noting_pid(docs, k, *args):
            with open(pids, "a") as out:
                out.write(f"{os.getpid()} {k}\n")
            return fit_k(docs, k, *args)

        monkeypatch.setattr(os, "fork", fork_fails_every_other)
        monkeypatch.setattr(topics_mod, "_fit_k", fit_noting_pid)
        docs, _, _ = synthetic_topic_docs(n_docs=30)
        grid = [4, 6, 2, 3]
        assert as_json(select_k(docs, grid, seed=2, iterations=15)) == \
            as_json(in_process_select(docs, grid, seed=2, iterations=15))
        # the second fork fails, so one worker fits every K, largest first
        assert two_cpus == [1, 0]
        fitted = [line.split() for line in pids.read_text().splitlines()]
        assert [int(k) for _, k in fitted] == [6, 4, 3, 2]
        assert len({pid for pid, _ in fitted}) == 1
        assert fitted[0][0] != str(os.getpid())

    def test_no_fork_possible_scores_in_process(self, two_cpus, monkeypatch):
        def fork_fails():
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(os, "fork", fork_fails)
        docs, _, _ = synthetic_topic_docs(n_docs=30)
        assert as_json(select_k(docs, [3, 2], seed=2, iterations=10)) == \
            as_json(in_process_select(docs, [3, 2], seed=2, iterations=10))

    def test_child_dying_without_reply_names_k(self, two_cpus, monkeypatch):
        monkeypatch.setattr(topics_mod, "_fit_k", lambda docs, k, *args: os._exit(3))
        docs, _, _ = synthetic_topic_docs(n_docs=30)
        # both fits die; K=3 is the first in hand-out order, largest K first
        with pytest.raises(RuntimeError, match=r"K=3 exited without a reply "
                                               r"\(exit status 3\)"):
            select_k(docs, [2, 3], seed=0, iterations=5)


class TestKnowledgeVector:
    def test_single_pub_verbatim(self):
        tv = {"P1": np.array([0.2, 0.3, 0.5])}
        kv = knowledge_vector("a", ["P1"], tv)
        assert np.array_equal(kv, tv["P1"])

    def test_mean_of_two(self):
        tv = {"P1": np.array([1.0, 0.0, 0.0]), "P2": np.array([0.0, 1.0, 0.0])}
        kv = knowledge_vector("a", ["P1", "P2"], tv)
        assert np.allclose(kv, [0.5, 0.5, 0.0])

    def test_no_pubs_errors(self):
        with pytest.raises(ValueError, match="no publications"):
            knowledge_vector("a", [], {})

    def test_stays_on_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vecs = rng.dirichlet(np.ones(4), size=3)
            tv = {f"P{i}": vecs[i] for i in range(3)}
            kv = knowledge_vector("a", list(tv), tv)
            assert kv.min() >= 0
            assert abs(kv.sum() - 1.0) < 1e-9


class TestCognitiveDistance:
    def test_identical_vectors_zero(self):
        v = np.array([0.2, 0.3, 0.5])
        assert pair_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated_vectors_two(self):
        a = np.array([0.6, 0.4])
        b = np.array([0.4, 0.6])
        assert pair_distance(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_hand_computed_pearson_case(self):
        # corr((0.6,0.2,0.2), (0.2,0.6,0.2)) = -0.5 by the textbook formula
        a = np.array([0.6, 0.2, 0.2])
        b = np.array([0.2, 0.6, 0.2])
        assert pair_distance(a, b) == pytest.approx(1.5, abs=1e-12)

    def test_symmetric_range_and_permutation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = rng.dirichlet(np.ones(5))
            b = rng.dirichlet(np.ones(5))
            d = pair_distance(a, b)
            assert d == pair_distance(b, a)
            assert 0.0 <= d <= 2.0
            perm = rng.permutation(5)
            assert pair_distance(a[perm], b[perm]) == pytest.approx(d, abs=1e-9)

    def test_zero_variance_neutral(self):
        flat = np.array([0.25, 0.25, 0.25, 0.25])
        spread = np.array([0.7, 0.1, 0.1, 0.1])
        assert has_zero_variance(flat)
        assert pair_distance(flat, spread) == 1.0

    def test_batch_matches_one_pair_bit_for_bit(self):
        rng = np.random.default_rng(11)
        spread = rng.dirichlet(np.ones(6), size=4)
        flat = np.full(6, 1 / 6)
        # zero-variance, repeated and all-distinct vectors, every ordered pair
        vectors = [flat, spread[0], spread[1], spread[0].copy(), flat.copy(),
                   spread[2], spread[3], spread[1][::-1].copy()]
        n = len(vectors)
        I, J = np.divmod(np.arange(n * n), n)
        distances, degenerate = cognitive_distances(vectors, I, J)
        oracle = np.array([assemble_oracle.cognitive_distance(vectors[a], vectors[b])
                           for a, b in zip(I, J)])
        assert distances.tobytes() == oracle.tobytes()
        assert degenerate.tolist() == [has_zero_variance(vectors[a]) or
                                       has_zero_variance(vectors[b]) for a, b in zip(I, J)]
        assert set(distances[degenerate].tolist()) == {1.0}
        assert distances[~degenerate & (I == 3) & (J == 1)].tolist() == [0.0]
        assert len(set(distances[~degenerate].tolist())) > 10
        # a pair's value does not depend on the pairs batched with it
        for p in range(len(I)):
            alone, flag = cognitive_distances(vectors, I[p:p + 1], J[p:p + 1])
            assert alone.tobytes() == distances[p:p + 1].tobytes()
            assert flag[0] == degenerate[p]
        rows = np.array([0, 5, 6, 7])
        sub, _ = cognitive_distances([vectors[r] for r in rows], [1, 2, 3], [3, 1, 0])
        assert sub.tobytes() == cognitive_distances(
            vectors, rows[[1, 2, 3]], rows[[3, 1, 0]])[0].tobytes()
