"""Reference samplers for proxlink.topics.GibbsLda.

``ReferenceGibbsLda`` is the per-token collapsed Gibbs sampler the
document-lockstep one replaced: one Python step per token, resampling its
topic from p(z = k) proportional to
(n_wk + beta) / (n_k + V beta) * (n_dk + alpha), with the token's own
assignment removed from every count (Griffiths & Steyvers, PNAS 2004).
Both samplers target the same collapsed posterior p(z | w); tests compare
their draws in distribution, not bit for bit.

``StepwiseGibbsLda`` is the partially collapsed sampler as first written:
topic-major counts, one uniform draw and one ``np.add.at`` into n_wk per
step. ``GibbsLda`` must match it bit for bit.
"""
from __future__ import annotations

import random

import numpy as np

from proxlink.topics import GibbsLda, _gamma, _uniforms


class ReferenceGibbsLda(GibbsLda):
    def fit(self, docs):
        K = self.n_topics
        used = [d for d in docs if not d.is_empty]
        self.skipped_ = tuple(d.pub_id for d in docs if d.is_empty)
        vocab = sorted({t for d in used for t in d.tokens})
        self.vocab_ = {t: i for i, t in enumerate(vocab)}
        V = len(vocab)
        alpha = self.alpha_
        beta = self.beta

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

        topic_term = np.array(nwt, dtype=float).T + beta
        topic_term /= topic_term.sum(axis=1, keepdims=True)
        self.topic_term_ = topic_term

        k_alpha = K * alpha
        self.doc_topic_ = {}
        for d_idx, doc in enumerate(used):
            theta = (np.array(ndt[d_idx], dtype=float) + alpha) / (len(doc.tokens) + k_alpha)
            self.doc_topic_[doc.pub_id] = theta / theta.sum()
        return self


class StepwiseGibbsLda(GibbsLda):
    def fit(self, docs):
        K = self.n_topics
        used = [d for d in docs if not d.is_empty]
        self.skipped_ = tuple(d.pub_id for d in docs if d.is_empty)
        vocab = sorted({t for d in used for t in d.tokens})
        self.vocab_ = {t: i for i, t in enumerate(vocab)}
        V = len(vocab)
        D = len(used)
        alpha = self.alpha_

        order = sorted(range(D), key=lambda d: -len(used[d].tokens))
        lengths = np.array([len(used[d].tokens) for d in order])
        active = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]
        steps = list(zip((np.cumsum(active) - active).tolist(), active.tolist()))
        texts = [used[d].tokens for d in order]
        words = np.fromiter((self.vocab_[t[j]] for j, n in enumerate(active.tolist())
                             for t in texts[:n]), dtype=np.intp, count=int(lengths.sum()))
        doc_ids = np.arange(D)

        rng = random.Random(self.seed)
        z = np.empty_like(words)
        ndk_flat = np.zeros(K * D, dtype=np.intp)
        ndk = ndk_flat.reshape(K, D)
        nwk = np.zeros((K, V), dtype=np.intp)
        for start, n in steps:
            zj = z[start:start + n]
            zj[:] = _uniforms(rng, n) * K
            ndk_flat[zj * D + doc_ids[:n]] += 1
            np.add.at(nwk, (zj, words[start:start + n]), 1)
        for _ in range(self.iterations):
            phi = _gamma((nwk + self.beta).ravel(), rng).reshape(K, V)
            phi /= phi.sum(axis=1, keepdims=True)
            nwk[:] = 0
            for start, n in steps:
                w = words[start:start + n]
                zj = z[start:start + n]
                ndk_flat[zj * D + doc_ids[:n]] -= 1
                p = phi.take(w, axis=1)
                p *= ndk[:, :n] + alpha
                np.cumsum(p, axis=0, out=p)
                u = _uniforms(rng, n) * p[-1]
                zj[:] = (p < u).sum(axis=0)
                ndk_flat[zj * D + doc_ids[:n]] += 1
                np.add.at(nwk, (zj, w), 1)

        topic_term = nwk + self.beta
        topic_term /= topic_term.sum(axis=1, keepdims=True)
        self.topic_term_ = topic_term

        theta = (np.ascontiguousarray(ndk.T) + alpha) / (lengths[:, None] + K * alpha)
        theta /= theta.sum(axis=1, keepdims=True)
        row_of = dict(zip(order, theta))
        self.doc_topic_ = {doc.pub_id: row_of[d] for d, doc in enumerate(used)}
        return self
