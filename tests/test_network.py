import random

import numpy as np
import pytest

from proxlink._rng import stable_seed
from proxlink.features import GeoContext, assemble
from proxlink.network import (
    CoPubGraph,
    SamplingPolicy,
    WindowPair,
    build_graph,
    candidate_pairs,
    eligible_authors,
    make_windows,
    outcome_positives,
    tenb,
)

from conftest import author_dict, corpus_from_dicts, make_record_dict


def oracle_tenb_from_pubs(pub_author_lists, i, j):
    """Enumerate bridging contributions directly from publication rosters."""
    authors = {a for pub in pub_author_lists for a in pub}
    total = 0.0
    for k in sorted(authors - {i, j}):
        g_ik = sum(1 for pub in pub_author_lists if i in pub and k in pub)
        g_jk = sum(1 for pub in pub_author_lists if j in pub and k in pub)
        n_k = sum(1 for pub in pub_author_lists if k in pub)
        if g_ik and g_jk:
            total += g_ik * g_jk / n_k
    return total


def corpus_from_rosters(rosters_by_year):
    """{year: [roster, ...]} -> corpus; roster is a list of author keys."""
    records = []
    n = 0
    for year, rosters in sorted(rosters_by_year.items()):
        for roster in rosters:
            records.append(make_record_dict(
                f"P{n:04d}", year, authors=[author_dict(a) for a in roster]))
            n += 1
    return corpus_from_dicts(records)


class TestMakeWindows:
    def test_2000_2019_gives_16_pairs(self):
        windows = make_windows(2000, 2019)
        assert len(windows) == 16
        first, last = windows[0], windows[-1]
        assert first.feature_span == (2000, 2002)
        assert first.outcome_span == (2003, 2004)
        assert last.feature_span == (2015, 2017)
        assert last.outcome_span == (2018, 2019)

    def test_minimal_range_one_pair(self):
        assert len(make_windows(2000, 2004)) == 1

    def test_too_short_errors(self):
        with pytest.raises(ValueError, match="too short"):
            make_windows(2000, 2003)

    def test_stride(self):
        windows = make_windows(2000, 2010, stride=2)
        assert [w.feature_start for w in windows] == [2000, 2002, 2004, 2006]

    def test_feature_and_outcome_never_overlap(self):
        for w in make_windows(2000, 2019):
            feature_years = set(range(w.feature_start, w.feature_end + 1))
            outcome_years = set(range(w.outcome_start, w.outcome_end + 1))
            assert not feature_years & outcome_years

    def test_window_shape_validated(self):
        with pytest.raises(ValueError):
            WindowPair(2000, 2003, 2004, 2005)  # 4-year feature span
        with pytest.raises(ValueError):
            WindowPair(2000, 2002, 2004, 2005)  # gap before outcome


class TestBuildGraph:
    def test_single_pub_three_authors(self):
        corpus = corpus_from_rosters({2005: [["a", "b", "c"]]})
        g = build_graph(corpus, 2005, 2005)
        assert g.n == {"a": 1, "b": 1, "c": 1}
        assert g.g[("a", "b")] == 1
        assert g.g[("b", "c")] == 1
        assert g.g[("a", "c")] == 1

    def test_repeat_collaboration_counts(self):
        corpus = corpus_from_rosters({2005: [["a", "b"], ["a", "b"]]})
        g = build_graph(corpus, 2005, 2005)
        assert g.g[("a", "b")] == 2

    def test_empty_window(self):
        corpus = corpus_from_rosters({2005: [["a", "b"]]})
        g = build_graph(corpus, 2010, 2012)
        assert g.n == {} and g.g == {}

    def test_no_self_edges_and_bounds(self):
        corpus = corpus_from_rosters({2005: [["a", "b"], ["a", "c"], ["a", "b", "c"]]})
        g = build_graph(corpus, 2005, 2005)
        for (i, j), w in g.g.items():
            assert i != j
            assert 1 <= w <= min(g.n[i], g.n[j])

    def test_counts_and_adjacency(self):
        corpus = corpus_from_rosters({2005: [["a", "b"], ["b", "c"]]})
        g = build_graph(corpus, 2005, 2005)
        assert g.n == {"a": 1, "b": 2, "c": 1}
        assert g.g == {("a", "b"): 1, ("b", "c"): 1}
        assert g.adj == {"a": {"b": 1}, "b": {"a": 1, "c": 1}, "c": {"b": 1}}
        # a graph constructed directly derives the same adjacency
        direct = CoPubGraph(span=(2005, 2005), n=dict(g.n), g=dict(g.g))
        assert direct.adj == g.adj
        assert tenb(direct, "a", "c") == tenb(g, "a", "c") == 0.5


class TestTenb:
    def test_single_bridge_half(self):
        # i and j each co-published once with k; k has 2 publications
        corpus = corpus_from_rosters({2005: [["i", "k"], ["j", "k"]]})
        g = build_graph(corpus, 2005, 2005)
        assert tenb(g, "i", "j") == pytest.approx(0.5)

    def test_no_common_neighbor_zero(self):
        corpus = corpus_from_rosters({2005: [["i", "x"], ["j", "y"]]})
        g = build_graph(corpus, 2005, 2005)
        assert tenb(g, "i", "j") == 0.0

    def test_symmetry(self):
        corpus = corpus_from_rosters(
            {2005: [["i", "k"], ["j", "k"], ["i", "m"], ["j", "m"], ["k", "m"]]})
        g = build_graph(corpus, 2005, 2005)
        assert tenb(g, "i", "j") == tenb(g, "j", "i")

    def test_direct_edge_does_not_contribute(self):
        # only bridging paths count: a direct i-j pub adds no summand itself
        corpus = corpus_from_rosters({2005: [["i", "j"]]})
        g = build_graph(corpus, 2005, 2005)
        assert tenb(g, "i", "j") == 0.0

    def test_matches_publication_oracle_on_random_graphs(self):
        rng = random.Random(2024)
        for trial in range(100):
            n_authors = rng.randint(4, 30)
            authors = [f"a{x}" for x in range(n_authors)]
            n_pubs = rng.randint(3, 40)
            rosters = [rng.sample(authors, rng.randint(1, min(4, n_authors)))
                       for _ in range(n_pubs)]
            corpus = corpus_from_rosters({2005: rosters})
            g = build_graph(corpus, 2005, 2005)
            present = sorted(g.n)
            for _ in range(10):
                i, j = rng.sample(present, 2) if len(present) >= 2 else (None, None)
                if i is None:
                    break
                assert tenb(g, i, j) == oracle_tenb_from_pubs(rosters, i, j)

    def test_bridge_monotonicity(self):
        # new bridging pub through fresh author k2 never decreases the score
        base = [["i", "k"], ["j", "k"]]
        more = base + [["i", "j", "k2"]]
        g1 = build_graph(corpus_from_rosters({2005: base}), 2005, 2005)
        g2 = build_graph(corpus_from_rosters({2005: more}), 2005, 2005)
        assert tenb(g2, "i", "j") >= tenb(g1, "i", "j")

    def test_solo_pub_dilution(self):
        # k's extra solo publications raise n_k and shrink k's summand
        base = [["i", "k"], ["j", "k"]]
        diluted = base + [["k"], ["k"]]
        g1 = build_graph(corpus_from_rosters({2005: base}), 2005, 2005)
        g2 = build_graph(corpus_from_rosters({2005: diluted}), 2005, 2005)
        assert tenb(g2, "i", "j") < tenb(g1, "i", "j")

    def test_self_pair_rejected(self):
        corpus = corpus_from_rosters({2005: [["i", "k"]]})
        g = build_graph(corpus, 2005, 2005)
        with pytest.raises(ValueError):
            tenb(g, "i", "i")


def listed_ratio_pairs(corpus, window, sampling, seed):
    """The "ratio" sampler that lists every negative pair and samples the
    list: the oracle for ``candidate_pairs``' index arithmetic."""
    eligible = sorted(eligible_authors(corpus, window))
    m = len(eligible)
    positives = outcome_positives(corpus, window, {a: n for n, a in enumerate(eligible)})
    negatives = [(a, b) for a in range(m) for b in range(a + 1, m)
                 if (a, b) not in positives]
    n_keep = min(len(negatives), int(round(sampling.ratio * max(1, len(positives)))))
    rng = random.Random(stable_seed(seed, window.window_id))
    sampled = rng.sample(negatives, n_keep) if n_keep else []
    return np.array(sorted(positives) + sorted(sampled), dtype=np.intp).reshape(-1, 2)


def random_rosters(seed, n_authors, n_pubs, max_size):
    """Feature-span (2001) and outcome-span (2003) rosters drawn from
    ``n_authors`` authors, each of 1 to ``max_size`` of them."""
    rnd = random.Random(seed)
    authors = [f"x{k:02d}" for k in range(n_authors)]
    return corpus_from_rosters({
        year: [rnd.sample(authors, rnd.randint(1, max_size)) for _ in range(n_pubs)]
        for year in (2001, 2003)})


class TestCandidatePairs:
    def _window(self):
        return WindowPair(2000, 2002, 2003, 2004)

    def _corpus(self):
        return corpus_from_rosters({
            2001: [["a", "b"], ["c"], ["d"]],
            2003: [["a", "c"], ["b"], ["d"]],
        })

    def test_all_policy_gives_all_pairs(self):
        pairs = candidate_pairs(self._corpus(), self._window(),
                                SamplingPolicy(kind="all"), seed=0)
        assert len(pairs) == 6  # C(4, 2)

    def test_eligibility_requires_both_windows(self):
        corpus = corpus_from_rosters({
            2001: [["a", "b"], ["e"]],   # e publishes only in the feature span
            2003: [["a", "b"]],
        })
        window = self._window()
        pairs = candidate_pairs(corpus, window, SamplingPolicy(kind="all"), 0)
        authors = sorted(eligible_authors(corpus, window))
        assert {authors[a] for a in pairs.ravel()} == {"a", "b"}

    def test_ratio_policy_counts(self):
        corpus = corpus_from_rosters({
            2001: [["a", "b", "c", "d", "e"]],
            2003: [["a", "b"], ["c"], ["d"], ["e"]],
        })
        window = self._window()
        pairs = candidate_pairs(corpus, window,
                                SamplingPolicy(kind="ratio", ratio=3.0), seed=5)
        authors = sorted(eligible_authors(corpus, window))
        positives = outcome_positives(corpus, window,
                                      {a: n for n, a in enumerate(authors)})
        labels = [tuple(p) in positives for p in pairs.tolist()]
        assert labels == [True, False, False, False]  # positives lead
        assert positives == {(0, 1)}  # a-b
        assert len(pairs) == 1 + 3

    def test_same_seed_identical(self):
        corpus = self._corpus()
        policy = SamplingPolicy(kind="ratio", ratio=2.0)
        p1 = candidate_pairs(corpus, self._window(), policy, seed=11)
        p2 = candidate_pairs(corpus, self._window(), policy, seed=11)
        assert np.array_equal(p1, p2)

    def test_no_eligible_authors_errors(self):
        corpus = corpus_from_rosters({2001: [["a"]]})
        with pytest.raises(ValueError, match="no eligible"):
            candidate_pairs(corpus, self._window(), SamplingPolicy(kind="all"), 0)

    def test_pair_ordering_invariant(self):
        # every pair indexes two distinct authors, lower index first, once
        corpus = corpus_from_rosters({
            2001: [["a", "b", "c"], ["d", "e"], ["f"]],
            2003: [["a", "c"], ["b", "e"], ["d"], ["f"]],
        })
        for policy in (SamplingPolicy(kind="all"), SamplingPolicy(kind="ratio", ratio=2.0)):
            pairs = candidate_pairs(corpus, self._window(), policy, seed=1)
            assert pairs.shape == (len(pairs), 2)
            assert np.all(pairs[:, 0] < pairs[:, 1])
            assert np.all((pairs >= 0) & (pairs < 6))
            assert len({tuple(p) for p in pairs.tolist()}) == len(pairs)
        assert len(candidate_pairs(corpus, self._window(), SamplingPolicy(kind="all"))) == 15

    @pytest.mark.golden
    def test_ratio_sampler_matches_list_oracle(self):
        corpora = [random_rosters(seed, n_authors, n_pubs, max_size)
                   for seed, (n_authors, n_pubs, max_size) in enumerate(
                       [(6, 8, 3), (12, 20, 4), (30, 40, 5), (30, 60, 1), (45, 30, 8)])]
        corpora += [
            corpus_from_rosters({2001: [["a", "b"]], 2003: [["a"], ["b"]]}),
            corpus_from_rosters({2001: [["a", "b"]], 2003: [["a", "b"]]}),
            self._corpus(),
        ]
        seen = set()
        for corpus in corpora:
            window = self._window()
            eligible = sorted(eligible_authors(corpus, window))
            m = len(eligible)
            positives = outcome_positives(corpus, window, {a: n for n, a in enumerate(eligible)})
            for ratio in (0.5, 1.0, 3.0, 1e6):
                policy = SamplingPolicy(kind="ratio", ratio=ratio)
                for seed in (0, 1, 7):
                    got = candidate_pairs(corpus, window, policy, seed)
                    want = listed_ratio_pairs(corpus, window, policy, seed)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (m, ratio, seed)
                    seen.add(("m=2", m == 2))
                    seen.add(("no positives", not positives))
                    seen.add(("every negative", len(got) == m * (m - 1) // 2))
        assert seen == {(case, flag) for case in ("m=2", "no positives", "every negative")
                        for flag in (True, False)}


def outcome_label(corpus, a, b):
    """co_publication of the (a, b) row that assemble builds for 2000-2002/2003-2004."""
    window = WindowPair(2000, 2002, 2003, 2004)
    graphs = {window.window_id: build_graph(corpus, *window.feature_span)}
    vectors = {rec.pub_id: np.array([0.5, 0.3, 0.2]) for rec in corpus.records}
    ds = assemble(corpus, 1, [window], GeoContext(), graphs, vectors,
                  sampling=SamplingPolicy(kind="all"))
    rows = [n for n, (i, j) in enumerate(zip(ds.columns["i"], ds.columns["j"]))
            if (i, j) == (a, b)]
    assert len(rows) == 1
    return int(ds.columns["co_publication"][rows[0]])


class TestOutcomeLabel:
    def test_shared_outcome_pub(self):
        corpus = corpus_from_rosters({2001: [["a"], ["b"]], 2003: [["a", "b"]]})
        assert outcome_label(corpus, "a", "b") == 1

    def test_feature_window_pub_does_not_count(self):
        corpus = corpus_from_rosters({2001: [["a", "b"]], 2003: [["a"], ["b"]]})
        assert outcome_label(corpus, "a", "b") == 0

    def test_no_shared_pubs(self):
        corpus = corpus_from_rosters({2001: [["a"], ["b"]], 2003: [["a"], ["b"]]})
        assert outcome_label(corpus, "a", "b") == 0
