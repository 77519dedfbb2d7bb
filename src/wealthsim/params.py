"""Exogenous scalar parameters and the per-worker production technology.

The economy is described by a handful of behavioral and fiscal rates plus
a constant-returns production function.  Output per worker is a concave
function of the capital-to-labor ratio; its derivative sets the return on
capital and the residual sets the wage once markets clear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError

__all__ = [
    "EconomyParams",
    "ProductionFunction",
    "CES",
    "CobbDouglas",
    "validate_params",
]


def validate_params(params: EconomyParams) -> list[str]:
    """Check an ``EconomyParams``' fields against their admissible ranges.

    Returns a list of human-readable violations; an empty list means the
    parameters are valid.
    """
    values = {f.name: getattr(params, f.name) for f in fields(params)}
    problems = []

    def bad(name, reason):
        problems.append(f"{name}={values[name]!r} {reason}")

    for name in ("s", "tau_k", "tau_l", "chi", "nu", "a", "delta"):
        v = values[name]
        if v is None or not math.isfinite(v):
            problems.append(f"{name} missing or not finite")
    if problems:
        return problems
    if not 0.0 < values["s"] <= 1.0:
        bad("s", "must lie in (0, 1]")
    if not 0.0 <= values["tau_k"] < 1.0:
        bad("tau_k", "must lie in [0, 1)")
    if not 0.0 <= values["tau_l"] < 1.0:
        bad("tau_l", "must lie in [0, 1)")
    if values["chi"] < 0.0:
        bad("chi", "must be >= 0")
    if values["nu"] <= 0.0:
        bad("nu", "must be > 0")
    if values["a"] <= 0.0:
        bad("a", "must be > 0")
    if values["delta"] < 0.0:
        bad("delta", "must be >= 0")
    return problems


@dataclass(frozen=True)
class EconomyParams:
    """Behavioral, fiscal and shock parameters of the economy.

    s       saving rate out of disposable income, in (0, 1]
    tau_k   flat tax rate on capital income, in [0, 1)
    tau_l   flat tax rate on labor income, in [0, 1)
    chi     subsistence consumption per unit time, >= 0
    nu      consumption rate out of wealth, > 0
    a       mean productivity of firms, > 0
    delta   variance-to-mean time scale of firm shocks, >= 0
    """

    s: float
    tau_k: float = 0.0
    tau_l: float = 0.0
    chi: float = 0.0
    nu: float = 0.05
    a: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        problems = validate_params(self)
        if problems:
            raise DomainError("invalid economy parameters: " + "; ".join(problems))


def _check_ratio(ratio) -> float:
    x = float(ratio)
    if not 0.0 < x < math.inf:
        raise DomainError(f"capital-labor ratio must be positive and finite, got {ratio!r}")
    return x


class ProductionFunction:
    """Output per worker as a function of the capital-labor ratio.

    Subclasses implement ``value`` (output per worker), ``derivative``
    (marginal product of capital) and ``derivative_limit`` (the slope as
    the ratio grows without bound, which decides whether the economy can
    sustain growth) and ``value_at_zero`` (the continuous extension of
    ``value`` at ratio -> 0+).  ``value`` and ``derivative`` take one
    ratio and return one float.
    """


@dataclass(frozen=True)
class CES(ProductionFunction):
    """Constant-elasticity technology ``(eps * x**gam + 1 - eps)**(1/gam)``.

    eps is the capital weight in (0, 1); gam in (0, 1) controls
    substitutability.  The slope at infinity is ``eps**(1/gam) > 0``, so a
    CES economy can outgrow any consumption rate below ``s*a*eps**(1/gam)``.
    """

    eps: float
    gam: float

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise DomainError(f"CES eps must lie in (0, 1), got {self.eps}")
        if not 0.0 < self.gam < 1.0:
            raise DomainError(f"CES gam must lie in (0, 1), got {self.gam}")

    def _log_inner(self, x):
        # log(eps * x**gam + 1 - eps) as a log-add-exp, stable for very large x
        a = math.log(self.eps) + self.gam * math.log(x)
        b = math.log1p(-self.eps)
        return max(a, b) + math.log1p(math.exp(-abs(a - b)))

    def value(self, ratio):
        x = _check_ratio(ratio)
        return math.exp(self._log_inner(x) / self.gam)

    def derivative(self, ratio):
        x = _check_ratio(ratio)
        return math.exp(math.log(self.eps) + (self.gam - 1.0) * math.log(x)
                        + (1.0 / self.gam - 1.0) * self._log_inner(x))

    def derivative_limit(self) -> float:
        return self.eps ** (1.0 / self.gam)

    def value_at_zero(self) -> float:
        return (1.0 - self.eps) ** (1.0 / self.gam)


@dataclass(frozen=True)
class CobbDouglas(ProductionFunction):
    """Power technology ``x**eps`` with capital share eps in (0, 1).

    Its slope vanishes at infinity, so the economy always admits a
    stationary state for any positive consumption rate.
    """

    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise DomainError(f"Cobb-Douglas eps must lie in (0, 1), got {self.eps}")

    def value(self, ratio):
        return _check_ratio(ratio) ** self.eps

    def derivative(self, ratio):
        return self.eps * _check_ratio(ratio) ** (self.eps - 1.0)

    def derivative_limit(self) -> float:
        return 0.0

    def value_at_zero(self) -> float:
        return 0.0
