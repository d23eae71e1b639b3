"""The named metric kinds of the command line and the verify suites.

:func:`build_metric` turns config data (a kind, ``eps`` and optional
constant tensors) into a metric; an unknown kind or malformed data is a
:class:`~finlap.errors.ConfigError`.
"""

from __future__ import annotations

import numpy as np

from .charts import TORUS
from .errors import ConfigError
from .fields import ConstantField
from .metrics import (FinslerMetric2D, kz_sphere, kz_torus, randers, riemannian,
                      scale_conformal)

METRIC_KINDS = ("kz-torus", "kz-sphere", "flat-torus", "randers")


def build_metric(kind: str, eps: float, g=None, theta=None,
                 conformal=None) -> FinslerMetric2D:
    """Metric from config data: named kind, optional constant g/theta
    tensors (randers/flat-torus) and a constant conformal log-factor."""
    def as_g():
        if g is None:
            return np.eye(2)
        arr = _array(g, "metric.g")
        if arr.shape != (2, 2):
            raise ConfigError("metric.g must be a 2x2 matrix")
        return arr

    if kind == "kz-torus":
        metric = kz_torus(eps)
    elif kind == "kz-sphere":
        metric = kz_sphere(eps)
    elif kind == "flat-torus":
        metric = riemannian(as_g(), chart=TORUS)
    elif kind == "randers":
        th = np.array([eps, 0.0]) if theta is None else _array(theta, "metric.theta")
        if th.shape != (2,):
            raise ConfigError("metric.theta must have 2 components")
        metric = randers(as_g(), th, chart=TORUS)
    else:
        raise ConfigError(f"unknown metric kind {kind!r}")
    if conformal is not None:
        try:
            metric = scale_conformal(metric, ConstantField(float(conformal)))
        except (TypeError, ValueError) as exc:
            raise ConfigError("metric.conformal must be a number "
                              "(constant log-factor)") from exc
    return metric


def _array(value, name: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must hold numbers, got {value!r}") from exc
