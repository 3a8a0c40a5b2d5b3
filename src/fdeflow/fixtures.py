"""Shipped test problems with analytically known behavior.

Each fixture bundles a coefficient set (or market model), grid defaults, and
the basis the solver should use. The verification suite and the CLI resolve
problems by fixture name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidArgumentError
from .fde import CoefficientSet
from .portfolio import MarketModel
from .regression import RegressionBasis, polynomial_basis


@dataclass
class Fixture:
    """A named, reproducible test problem."""

    name: str
    kind: str                      # "fbsde" or "portfolio"
    T: float
    K: int
    num_paths: int
    basis: RegressionBasis
    c4: float
    builder: callable              # params -> CoefficientSet or MarketModel
    params: dict = field(default_factory=dict)   # every key build() reads, with its default

    def build(self, **overrides):
        return self.builder({**self.params, **overrides})


def _zeros_like_y(t, y, z):
    return np.zeros_like(y)


def _zero_drift(t, y, z):
    return np.zeros((y.shape[0], 1))


def _build_trivial(params):
    return CoefficientSet(
        n=1, d=1, h=_zeros_like_y, f=_zero_drift,
        phi=lambda x: np.ones((x.shape[0], 1)),
        c1=0.0, c2=0.0, m_bound=1.0)


def _build_const_driver(params):
    c = float(params["c"])
    return CoefficientSet(
        n=1, d=1, h=lambda t, y, z: np.full_like(y, c), f=_zero_drift,
        phi=lambda x: np.zeros((x.shape[0], 1)),
        c1=0.0, c2=0.0, m_bound=0.0)


def _build_tanh_terminal(params):
    return CoefficientSet(
        n=1, d=1, h=_zeros_like_y, f=_zero_drift,
        phi=lambda x: np.tanh(x[:, :1]),
        c1=0.0, c2=1.0, m_bound=1.0)


def _build_linear_driver(params):
    a = float(params["a"])
    return CoefficientSet(
        n=1, d=1, h=lambda t, y, z: a * y, f=_zero_drift,
        phi=lambda x: np.sin(x[:, :1]),
        c1=abs(a), c2=1.0, m_bound=1.0)


def _build_const_forward(params):
    c = float(params["c"])
    return CoefficientSet(
        n=1, d=1, h=_zeros_like_y,
        f=lambda t, y, z: np.full((y.shape[0], 1), c),
        phi=lambda x: np.tanh(x[:, :1]),
        c1=0.0, c2=1.0, m_bound=1.0)


def _merton_market(params):
    return MarketModel(**{k: float(params[k]) for k in _MARKET_DEFAULTS})


def _build_endowment(params):
    scale = float(params["endowment_scale"])
    if not 0 < scale < np.inf:
        raise InvalidArgumentError(f"endowment_scale must be finite and positive, got {scale}")
    v0 = float(params["v0"])

    def g(v, s):
        return scale * np.tanh(np.log(v / v0))

    return replace(_merton_market(params), g=g, g_bound=scale, g_lip_log=scale)


_MARKET_DEFAULTS = {"mu_s": 0.1, "sigma_bar_s": 0.2, "mu_v": 0.05, "sigma_v": 0.3,
                    "sigma_bar_v": 0.1, "gamma": 1.0, "x0": 0.0, "v0": 1.0, "s0": 1.0}

_FBSDE = dict(kind="fbsde", T=1.0, K=64, num_paths=100_000)
_MARKET = dict(kind="portfolio", T=1.0, K=50, num_paths=100_000, basis=polynomial_basis(3, 2))

FIXTURES = {f.name: f for f in (
    Fixture("trivial", **_FBSDE, basis=polynomial_basis(3, 1), c4=0.0,
            builder=_build_trivial),
    Fixture("const_driver", **_FBSDE, basis=polynomial_basis(3, 1), c4=0.0,
            builder=_build_const_driver, params={"c": 0.3}),
    Fixture("tanh_terminal", **_FBSDE, basis=polynomial_basis(7, 1), c4=1.0,
            builder=_build_tanh_terminal),
    # c4 sizes the interior windows; the contraction-factor check validates
    # it after the solve
    Fixture("linear_driver", **_FBSDE, basis=polynomial_basis(7, 1), c4=0.0,
            builder=_build_linear_driver, params={"a": 0.5}),
    Fixture("const_forward", **_FBSDE, basis=polynomial_basis(7, 1), c4=1.0,
            builder=_build_const_forward, params={"c": 0.5}),
    Fixture("merton", **_MARKET, c4=0.0, builder=_merton_market,
            params=dict(_MARKET_DEFAULTS)),
    Fixture("endowment", **_MARKET, c4=0.5, builder=_build_endowment,
            params={**_MARKET_DEFAULTS, "endowment_scale": 0.3}),
)}


def get_fixture(name: str) -> Fixture:
    try:
        return FIXTURES[name]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(FIXTURES))}")
