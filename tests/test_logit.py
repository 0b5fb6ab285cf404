import math

import numpy as np
import pytest

from proxlink.logit import (
    LogisticIRLS,
    RankDeficiencyError,
    SeparationError,
    bic,
    effect_pct,
    elasticity_from_fit,
    format_table,
    hessian_matrix,
    log_likelihood,
    pseudo_r2,
    score_vector,
    sigmoid,
    tenb_elasticity_curve,
)

from synth_data import LOGIT_FEATURES, TRUE_LOGIT_BETA, synth_logit_data


def masked_sigmoid(z):
    """The two-exp form ``sigmoid`` replaced: each branch over its own mask."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bits_match_masked_form():
    rng = np.random.default_rng(5)
    z = np.concatenate([rng.normal(0, 1, 5000), rng.normal(0, 40, 5000),
                        [0.0, -0.0, 5e-324, -5e-324, 709.8, -745.2, 1e308, -1e308,
                         np.inf, -np.inf, np.nan]])
    assert sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
    assert float(sigmoid(-3.5)) == float(masked_sigmoid(-3.5))


class TestIRLSRecovery:
    def test_recovers_known_coefficients(self):
        X, y = synth_logit_data(n=10_000, seed=0)
        fit = LogisticIRLS().fit(X, y, feature_names=LOGIT_FEATURES).result_
        assert fit.converged
        deviations = np.abs(fit.beta - TRUE_LOGIT_BETA) / fit.se
        assert deviations.max() < 3.0
        assert np.all(np.sign(fit.beta) == np.sign(TRUE_LOGIT_BETA))
        assert fit.p.max() < 0.01

    def test_sign_reproduction_negative_geo_positive_tenb(self):
        # qualitative pattern: distance hurts, network proximity helps
        X, y = synth_logit_data(n=10_000, seed=1)
        fit = LogisticIRLS().fit(X, y, feature_names=LOGIT_FEATURES).result_
        assert fit.coefficient("ln_geo") < 0
        assert fit.coefficient("ln_tenb") > 0
        assert fit.p[fit.names.index("ln_geo")] < 0.01
        assert fit.p[fit.names.index("ln_tenb")] < 0.01

    def test_all_zero_outcome_rejected(self):
        X = np.random.default_rng(0).normal(size=(50, 2))
        with pytest.raises(ValueError, match="both classes"):
            LogisticIRLS().fit(X, np.zeros(50))

    def test_duplicated_column_named_in_error(self):
        X, y = synth_logit_data(n=500, seed=2)
        X_dup = np.column_stack([X, X[:, 0]])
        with pytest.raises(RankDeficiencyError) as err:
            LogisticIRLS().fit(X_dup, y, feature_names=LOGIT_FEATURES + ["dup_geo"])
        assert "dup_geo" in err.value.columns

    def test_separation_detected(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.uniform(-2, -0.5, 100), rng.uniform(0.5, 2, 100)])
        y = (x > 0).astype(float)
        with pytest.raises(SeparationError):
            LogisticIRLS().fit(x[:, None], y)

    def test_bic_identity(self):
        X, y = synth_logit_data(n=2000, seed=4)
        fit = LogisticIRLS().fit(X, y, feature_names=LOGIT_FEATURES).result_
        k = len(fit.beta)
        assert fit.bic == pytest.approx(k * math.log(fit.n) - 2 * fit.loglik, rel=1e-12)


class TestFitProperties:
    def test_score_tiny_at_convergence(self):
        for seed in range(5):
            X, y = synth_logit_data(n=1500, seed=seed)
            model = LogisticIRLS().fit(X, y, feature_names=LOGIT_FEATURES)
            Xd = np.column_stack([np.ones(len(y)), X])
            score = score_vector(Xd, y, model.coef_)
            assert model.result_.converged
            assert np.abs(score).max() < 1e-6

    def test_mean_predicted_probability_equals_base_rate(self):
        X, y = synth_logit_data(n=3000, seed=6)
        model = LogisticIRLS().fit(X, y, feature_names=LOGIT_FEATURES)
        p = model.predict(X)
        assert np.all((p > 0) & (p < 1))
        assert abs(p.mean() - y.mean()) < 1e-8

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, k = 40, 3
            X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
            y = (rng.uniform(size=n) < 0.5).astype(float)
            beta = rng.normal(scale=0.5, size=k)
            analytic = score_vector(X, y, beta)
            h = 1e-5
            fd = np.empty(k)
            for i in range(k):
                e = np.zeros(k)
                e[i] = h
                fd[i] = (log_likelihood(X, y, beta + e)
                         - log_likelihood(X, y, beta - e)) / (2 * h)
            denom = max(np.abs(analytic).max(), 1e-12)
            assert np.abs(analytic - fd).max() / denom < 1e-4

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n, k = 40, 3
            X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
            y = (rng.uniform(size=n) < 0.5).astype(float)
            beta = rng.normal(scale=0.5, size=k)
            analytic = hessian_matrix(X, beta)
            h = 1e-5
            fd = np.empty((k, k))
            for i in range(k):
                e = np.zeros(k)
                e[i] = h
                fd[:, i] = (score_vector(X, y, beta + e)
                            - score_vector(X, y, beta - e)) / (2 * h)
            denom = max(np.abs(analytic).max(), 1e-12)
            assert np.abs(analytic - fd).max() / denom < 1e-4


class TestPseudoR2:
    def test_null_model_zero(self):
        assert pseudo_r2(-100.0, -100.0) == 0.0

    def test_half(self):
        assert pseudo_r2(-50.0, -100.0) == 0.5

    def test_zero_null_rejected(self):
        with pytest.raises(ValueError):
            pseudo_r2(-1.0, 0.0)

    def test_near_separable_approaches_one(self):
        rng = np.random.default_rng(9)
        n = 400
        x = rng.normal(size=n)
        # steep link: nearly separable but with a little class overlap
        y = (rng.uniform(size=n) < sigmoid(8.0 * x)).astype(float)
        fit = LogisticIRLS().fit(x[:, None], y).result_
        assert 0.8 < fit.pseudo_r2 < 1.0


class TestEffectSizes:
    def test_minus_149_gives_77_pct(self):
        assert effect_pct(-1.49) == pytest.approx(0.7746, abs=0.005)

    def test_minus_034_gives_29_pct(self):
        assert effect_pct(-0.34) == pytest.approx(0.2882, abs=0.005)

    def test_zero_coefficient_no_effect(self):
        assert effect_pct(0.0) == 0.0


class TestElasticity:
    def test_at_zero_distance_equals_tenb_coefficient(self):
        curve = tenb_elasticity_curve(4.24, 0.43, [0.0])
        assert curve[0] == (0.0, pytest.approx(4.24, abs=1e-12))

    def test_strictly_increasing_with_positive_interaction(self):
        grid = [0.0, 1.0, 5.0, 10.0, 100.0, 1000.0, 10_000.0]
        curve = tenb_elasticity_curve(4.24, 0.43, grid)
        values = [e for _, e in curve]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_zero_interaction_constant(self):
        curve = tenb_elasticity_curve(2.0, 0.0, [0.0, 10.0, 100.0])
        assert {e for _, e in curve} == {2.0}

    def test_probability_variant_scales(self):
        odds = tenb_elasticity_curve(4.0, 0.4, [3.0])
        prob = tenb_elasticity_curve(4.0, 0.4, [3.0], at_p=0.25)
        assert prob[0][1] == pytest.approx(0.75 * odds[0][1], rel=1e-12)

    def test_from_fit_requires_coefficients(self):
        X, y = synth_logit_data(n=800, seed=10)
        fit = LogisticIRLS().fit(X, y, feature_names=LOGIT_FEATURES).result_
        curve = elasticity_from_fit(fit, [0.0, 10.0])
        assert curve[0][1] == pytest.approx(fit.coefficient("ln_tenb"), abs=1e-12)
        fit_no_inter = LogisticIRLS().fit(X[:, :2], y,
                                          feature_names=["ln_geo", "ln_tenb"]).result_
        with pytest.raises(ValueError, match="interaction"):
            elasticity_from_fit(fit_no_inter, [0.0])

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            tenb_elasticity_curve(1.0, 1.0, [-5.0])


class TestTableFormat:
    def test_table_contains_stats_and_stars(self):
        X, y = synth_logit_data(n=3000, seed=11)
        fit = LogisticIRLS().fit(X, y, feature_names=LOGIT_FEATURES).result_
        table = format_table([fit], labels=["Scenario 1"])
        assert "Scenario 1" in table
        assert "ln_tenb" in table
        assert "***" in table
        assert "Pseudo R2" in table
        assert "BIC" in table
        assert f"{fit.n:,}" in table
