"""Production technologies and parameter validation."""

import dataclasses
import math

import numpy as np
import pytest

import wealthsim
from wealthsim import CES, CobbDouglas, EconomyParams, validate_params
from wealthsim.errors import DomainError


def _finite_diff(pf, lam, h=1e-5):
    return (pf.value(lam * (1 + h)) - pf.value(lam * (1 - h))) / (2 * h * lam)


def test_cobb_douglas_value_and_derivative():
    pf = CobbDouglas(0.3)
    assert pf.value(1.0) == 1.0
    assert pf.value(4.0) == 4.0 ** 0.3
    for lam in np.geomspace(1e-3, 1e3, 13):
        assert pf.derivative(lam) == pytest.approx(_finite_diff(pf, lam), rel=2e-7)


def test_ces_value_and_derivative():
    pf = CES(0.2, 0.7)
    # normalization: both inputs at 1 give exactly one unit of output
    assert pf.value(1.0) == pytest.approx(1.0, rel=1e-15)
    # the difference quotient carries cancellation noise amplified by the
    # inverse elasticity, largest at small ratios
    for lam in np.geomspace(1e-3, 1e3, 13):
        assert pf.derivative(lam) == pytest.approx(_finite_diff(pf, lam), rel=2e-7)


def test_derivative_is_decreasing():
    for pf in (CobbDouglas(0.3), CES(0.2, 0.7), CES(0.6, 0.3)):
        lam = np.geomspace(1e-2, 1e4, 40)
        slopes = np.array([pf.derivative(x) for x in lam])
        assert np.all(np.diff(slopes) < 0.0)


def test_derivative_limits():
    assert CobbDouglas(0.3).derivative_limit() == 0.0
    pf = CES(0.2, 0.7)
    # slope at infinite ratio: eps**(1/gam)
    assert pf.derivative_limit() == 0.2 ** (1.0 / 0.7)
    assert pf.derivative(1e10) == pytest.approx(pf.derivative_limit(), rel=1e-6)


def test_value_at_zero():
    assert CobbDouglas(0.3).value_at_zero() == 0.0
    # labor alone still produces under CES: (1 - eps)**(1/gam)
    assert CES(0.2, 0.7).value_at_zero() == pytest.approx(0.8 ** (1.0 / 0.7), rel=1e-15)


def test_euler_identity_random_technologies():
    gen = np.random.default_rng(7)
    for _ in range(200):
        if gen.uniform() < 0.5:
            pf = CobbDouglas(gen.uniform(0.05, 0.95))
        else:
            pf = CES(gen.uniform(0.05, 0.95), gen.uniform(0.1, 0.9))
        a = gen.uniform(0.5, 2.0)
        lam = 10.0 ** gen.uniform(-2, 3)
        rho = a * pf.derivative(lam)
        omega = a * (pf.value(lam) - lam * pf.derivative(lam))
        assert rho * lam + omega == pytest.approx(a * pf.value(lam), rel=1e-13)


def test_invalid_technology_parameters():
    for bad in (-0.1, 0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(DomainError):
            CobbDouglas(bad)
    with pytest.raises(DomainError):
        CES(0.5, 0.0)
    with pytest.raises(DomainError):
        CES(0.5, 1.5)
    with pytest.raises(DomainError):
        CES(1.2, 0.5)


def test_value_rejects_nonpositive_ratio():
    for pf in (CobbDouglas(0.3), CES(0.2, 0.7)):
        for method in (pf.value, pf.derivative):
            for good in (0.5, np.float64(2.0)):
                assert type(method(good)) is float
            for bad in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(DomainError):
                    method(bad)


def test_economy_params_validation():
    good = EconomyParams(s=0.2, tau_k=0.2, tau_l=0.1, chi=0.0, nu=0.05)
    assert validate_params(good) == []
    for field, value in [("s", 0.0), ("s", 1.5), ("tau_k", 1.0), ("tau_k", -0.1),
                         ("tau_l", 1.0), ("chi", -1.0), ("nu", 0.0),
                         ("a", 0.0), ("delta", -1.0)]:
        with pytest.raises(DomainError):
            dataclasses.replace(good, **{field: value})


def test_delta_zero_is_valid():
    # zero shock variance is the deterministic limit, not an error
    p = EconomyParams(s=0.2, delta=0.0)
    assert p.delta == 0.0


def test_params_are_frozen():
    p = EconomyParams(s=0.2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.s = 0.3


def test_public_api_exports_resolve():
    for name in wealthsim.__all__:
        assert getattr(wealthsim, name) is not None
    assert isinstance(wealthsim.__version__, str)
    assert math.isfinite(float(wealthsim.__version__.split(".")[0]))
