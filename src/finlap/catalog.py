"""The named metric kinds of the command line and the verify suites.

:func:`read_metric` builds the metric of a kind from a reader
``get(name, default)`` and reads only the parameters that kind names:

* ``kz-torus``, ``kz-sphere``: ``eps``;
* ``flat-torus``: ``g`` (a constant 2x2 tensor, the identity by default);
* ``randers``: ``g`` and ``theta`` (a constant 1-form), ``eps`` only as
  the default ``(eps, 0)`` of ``theta``;

and every kind ``conformal``, a constant log-factor (0: unscaled).
:func:`build_metric` is a kind at ``eps`` with the other defaults.  An
unknown kind or malformed data is a :class:`~finlap.errors.ConfigError`.
"""

from __future__ import annotations

import numpy as np

from .charts import TORUS
from .errors import ConfigError
from .fields import ConstantField
from .metrics import (FinslerMetric2D, kz_sphere, kz_torus, randers, riemannian,
                      scale_conformal)

METRIC_KINDS = ("kz-torus", "kz-sphere", "flat-torus", "randers")
#: the kind and the eps of a run that names none
DEFAULT_KIND, DEFAULT_EPS = "kz-torus", 0.0


def build_metric(kind: str, eps: float) -> FinslerMetric2D:
    """The metric of a named kind at ``eps``, other parameters at their defaults."""
    return read_metric(lambda name, default: {"metric": kind, "eps": eps}.get(name, default))


def read_metric(get) -> FinslerMetric2D:
    """The metric of kind ``get("metric", DEFAULT_KIND)``, its parameters
    read through ``get(name, default)``."""
    kind = get("metric", DEFAULT_KIND)
    if kind in ("kz-torus", "kz-sphere"):
        metric = (kz_torus if kind == "kz-torus" else kz_sphere)(get("eps", DEFAULT_EPS))
    elif kind in ("flat-torus", "randers"):
        g = _array(get("g", [[1.0, 0.0], [0.0, 1.0]]), "metric.g", (2, 2))
        if kind == "flat-torus":
            metric = riemannian(g, chart=TORUS)
        else:
            theta = get("theta", None)
            theta = [get("eps", DEFAULT_EPS), 0.0] if theta is None else theta
            metric = randers(g, _array(theta, "metric.theta", (2,)), chart=TORUS)
    else:
        raise ConfigError(f"unknown metric kind {kind!r}")
    conformal = get("conformal", 0.0)
    return scale_conformal(metric, ConstantField(conformal)) if conformal else metric


def _array(value, name: str, shape) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must hold numbers, got {value!r}") from exc
    if arr.shape != shape:
        raise ConfigError(f"{name} must have shape {shape}, got {value!r}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return arr
