"""Minimal plumbing shared by every estimator class.

The mixin mirrors the scikit-learn parameter conventions (constructor
arguments are hyperparameters, fitted state gets a trailing underscore,
``get_params``/``set_params`` round-trip) without pulling scikit-learn in
as a dependency. Anything exposing this surface composes with sklearn
pipelines and search utilities, which duck-type on ``get_params``.
"""
from __future__ import annotations

import inspect


class ParamsMixin:
    """get_params/set_params over the constructor signature."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_fitted(estimator, attribute):
    """Raise if ``attribute`` (a fitted, underscore-suffixed name) is absent."""
    if getattr(estimator, attribute, None) is None:
        raise RuntimeError(
            f"{type(estimator).__name__} is not fitted; call fit() first"
        )
