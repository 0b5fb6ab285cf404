"""proxlink.logit
~~~~~~~~~~~~~~~~

Inferential logistic regression fitted by iteratively reweighted least
squares, with Wald standard errors from the inverse observed information,
McFadden pseudo-R-squared, BIC, binary-regressor effect sizes, and the
network-proximity elasticity curve over distance.

No regularization: separation is detected and reported, never silently
penalized away.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._base import ParamsMixin, check_fitted
from ._validation import check_array, check_both_classes


class SeparationError(RuntimeError):
    """Coefficients diverged: the classes are (quasi-)separable."""


class RankDeficiencyError(ValueError):
    def __init__(self, columns: list[str]):
        self.columns = columns
        super().__init__(
            "design matrix is rank deficient; offending columns: " + ", ".join(columns)
        )


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so no exp overflows."""
    z = np.asarray(z, dtype=float)
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1.0, e) / (1.0 + e)


def log_likelihood(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    """Binomial log-likelihood in the numerically stable log1p form."""
    eta = X @ beta
    # log(p) = -log1p(exp(-eta)), log(1-p) = -eta - log1p(exp(-eta))
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def score_vector(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Gradient of the log-likelihood: X'(y - p)."""
    return X.T @ (y - sigmoid(X @ beta))


def hessian_matrix(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Hessian of the log-likelihood: -X'WX with W = diag(p(1-p))."""
    p = sigmoid(X @ beta)
    w = p * (1.0 - p)
    return -(X * w[:, None]).T @ X


def _normal_sf2(z_abs: np.ndarray) -> np.ndarray:
    """Two-sided normal p-value, 2 * (1 - Phi(|z|)) via erfc."""
    return np.array([math.erfc(v / math.sqrt(2.0)) for v in np.atleast_1d(z_abs)])


@dataclass
class LogitFit:
    """Fit summary: per-coefficient inference plus fit statistics."""

    names: tuple[str, ...]
    beta: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p: np.ndarray
    loglik: float
    null_loglik: float
    pseudo_r2: float
    bic: float
    n: int
    converged: bool
    iterations: int

    def coefficient(self, name: str) -> float:
        return float(self.beta[self.names.index(name)])


MAX_ITER = 100
TOL_SCORE = 1e-8
TOL_LOGLIK = 1e-10
SEPARATION_BOUND = 1e3  # largest |coefficient| before separation is reported


class LogisticIRLS(ParamsMixin):
    """Maximum-likelihood logit via IRLS.

    Convergence within ``MAX_ITER`` iterations: max |score| < TOL_SCORE,
    or a relative log-likelihood change below TOL_LOGLIK once the score
    is already small. An intercept is always prepended (the score
    equation then forces the mean fitted probability to equal the sample
    positive rate).
    """

    def __init__(self):
        self.result_ = None

    def _check_rank(self, X: np.ndarray, names: Sequence[str]) -> None:
        # diag of R flags columns linearly dependent on earlier ones
        _, R = np.linalg.qr(X)
        diag = np.abs(np.diag(R))
        scale = max(diag.max(), 1.0)
        bad = [names[i] for i in range(len(names))
               if diag[i] < scale * len(names) * np.finfo(float).eps * 1e3]
        if bad:
            raise RankDeficiencyError(bad)

    def fit(self, X, y, feature_names: Optional[Sequence[str]] = None) -> "LogisticIRLS":
        X = check_array(X, "X", ndim=2)
        y = np.asarray(y, dtype=float)
        check_both_classes(y)
        n, k = X.shape
        feature_names = list(feature_names) if feature_names else [f"x{i}" for i in range(k)]
        if len(feature_names) != k:
            raise ValueError("feature_names length does not match X columns")
        names = ["intercept"] + feature_names
        Xd = np.column_stack([np.ones(n), X])
        self._check_rank(Xd, names)

        beta = np.zeros(k + 1)
        ll_prev = log_likelihood(Xd, y, beta)
        converged = False
        iterations = 0
        for iterations in range(1, MAX_ITER + 1):
            p = sigmoid(Xd @ beta)
            w = np.maximum(p * (1.0 - p), 1e-12)
            z_work = Xd @ beta + (y - p) / w
            XtW = (Xd * w[:, None]).T
            try:
                beta = np.linalg.solve(XtW @ Xd, XtW @ z_work)
            except np.linalg.LinAlgError as exc:
                raise SeparationError(
                    "weighted normal equations became singular; this indicates "
                    "(quasi-)separation in the data"
                ) from exc
            if np.max(np.abs(beta)) > SEPARATION_BOUND:
                raise SeparationError(
                    f"coefficients diverged beyond {SEPARATION_BOUND:g}; "
                    "separation detected"
                )
            p_new = sigmoid(Xd @ beta)
            if np.max(np.abs(y - p_new)) < 1e-4:
                # a numerically perfect fit means the MLE diverges
                raise SeparationError(
                    "fitted probabilities match every label; the classes are "
                    "separable and no finite maximum-likelihood estimate exists"
                )
            ll = log_likelihood(Xd, y, beta)
            score_inf = float(np.max(np.abs(score_vector(Xd, y, beta))))
            rel_dll = abs(ll - ll_prev) / (abs(ll) + 1e-300)
            ll_prev = ll
            if score_inf < TOL_SCORE or (rel_dll < TOL_LOGLIK and score_inf < 1e-6):
                converged = True
                break

        p = sigmoid(Xd @ beta)
        w = np.maximum(p * (1.0 - p), 1e-12)
        info = (Xd * w[:, None]).T @ Xd
        cov = np.linalg.inv(info)
        se = np.sqrt(np.diag(cov))
        z = beta / se
        pvals = _normal_sf2(np.abs(z))

        loglik = log_likelihood(Xd, y, beta)
        pbar = y.mean()
        null_ll = float(y.sum() * math.log(pbar) + (n - y.sum()) * math.log(1.0 - pbar))

        self.coef_ = beta
        self.cov_ = cov
        self.feature_names_ = tuple(names)
        self.result_ = LogitFit(
            names=tuple(names),
            beta=beta,
            se=se,
            z=z,
            p=pvals,
            loglik=loglik,
            null_loglik=null_ll,
            pseudo_r2=pseudo_r2(loglik, null_ll),
            bic=bic(loglik, n_params=k + 1, n_obs=n),
            n=n,
            converged=converged,
            iterations=iterations,
        )
        return self

    def predict(self, X) -> np.ndarray:
        """Fitted probabilities P(y=1 | x)."""
        check_fitted(self, "result_")
        X = check_array(X, "X", ndim=2)
        Xd = np.column_stack([np.ones(X.shape[0]), X])
        return sigmoid(Xd @ self.coef_)


def pseudo_r2(loglik: float, null_loglik: float) -> float:
    """McFadden: 1 - loglik / null_loglik."""
    if null_loglik == 0:
        raise ValueError("null log-likelihood is zero")
    return 1.0 - loglik / null_loglik


def bic(loglik: float, n_params: int, n_obs: int) -> float:
    return n_params * math.log(n_obs) - 2.0 * loglik


def effect_pct(beta_k: float) -> float:
    """1 - exp(beta): the odds change of flipping a binary regressor on."""
    return 1.0 - math.exp(beta_k)


def tenb_elasticity_curve(beta_tenb: float, beta_interaction: float,
                          distance_grid: Sequence[float]) -> list[tuple[float, float]]:
    """Network-proximity odds elasticity as a function of distance:
    e(d) = beta_tenb + beta_interaction * ln(1 + d)."""
    out = []
    for d in distance_grid:
        if d < 0:
            raise ValueError("distances must be non-negative")
        out.append((float(d), beta_tenb + beta_interaction * math.log1p(d)))
    return out


def elasticity_from_fit(fit: LogitFit, distance_grid: Sequence[float]
                        ) -> list[tuple[float, float]]:
    """Odds elasticity curve from a fit's ``ln_tenb`` and ``interaction``
    coefficients."""
    for required in ("ln_tenb", "interaction"):
        if required not in fit.names:
            raise ValueError(f"fit has no coefficient named {required!r}")
    return tenb_elasticity_curve(fit.coefficient("ln_tenb"), fit.coefficient("interaction"),
                                 distance_grid)


STAR_LEVEL = 0.01


def format_table(fits: Sequence[LogitFit], labels: Optional[Sequence[str]] = None) -> str:
    """Regression table: coefficient with stars, SE in parentheses, then N,
    pseudo R-squared, and BIC per column."""
    labels = list(labels) if labels else [f"fit {i + 1}" for i in range(len(fits))]
    all_names: list[str] = []
    for fit in fits:
        for name in fit.names:
            if name not in all_names:
                all_names.append(name)

    def cell(fit: LogitFit, name: str) -> str:
        if name not in fit.names:
            return "-"
        i = fit.names.index(name)
        stars = "***" if fit.p[i] < STAR_LEVEL else ""
        return f"{fit.beta[i]:.4f}{stars} ({fit.se[i]:.4f})"

    width = max(24, max(len(n) for n in all_names) + 2)
    col = 26
    lines = []
    lines.append("".ljust(width) + "".join(lab.ljust(col) for lab in labels))
    lines.append("Dependent variable".ljust(width)
                 + "".join("co_publication".ljust(col) for _ in fits))
    for name in all_names:
        lines.append(name.ljust(width) + "".join(cell(f, name).ljust(col) for f in fits))
    lines.append("Number of observations".ljust(width)
                 + "".join(f"{f.n:,}".ljust(col) for f in fits))
    lines.append("Pseudo R2".ljust(width)
                 + "".join(f"{f.pseudo_r2:.4f}".ljust(col) for f in fits))
    lines.append("BIC".ljust(width)
                 + "".join(f"{f.bic:.2f}".ljust(col) for f in fits))
    lines.append("")
    lines.append(f"Standard errors in parentheses. "
                 f"*** significant at the {STAR_LEVEL:.0%} level.")
    return "\n".join(lines)
