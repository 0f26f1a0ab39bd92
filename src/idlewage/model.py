"""Primitive market functions: demand, pickup time, labour supply, surplus, social cost.

All money is in dollars, all times in hours, all rates per hour. Every
function is pure and accepts scalars or numpy arrays; extended values are
explicit (``T = inf`` means no service, ``I = 0`` means no idle drivers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit


def _is_finite(x) -> bool:
    """math.isfinite, False for an int too large for a float."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _require_finite(obj, *names) -> None:
    """Raise ValueError naming the first field of obj that fails _is_finite."""
    for name in names:
        value = getattr(obj, name)
        if not all(map(_is_finite, value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{name} must be finite")


def _require_int(obj, *names) -> None:
    """Raise ValueError naming the first field of obj that is not an integer
    (a bool is not)."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class DemandParams:
    """Logistic ride demand: ``lambda_max * sigma(kappa + beta_p*p + beta_T*T)``.

    lambda_max : riders/hour connecting to the app (>= 0)
    kappa      : base utility (dimensionless)
    beta_p     : utility slope in price, 1/$ (< 0)
    beta_T     : utility slope in pickup time, 1/hour (< 0)
    """

    lambda_max: float
    kappa: float
    beta_p: float
    beta_T: float

    def __post_init__(self):
        _require_finite(self, "lambda_max", "kappa", "beta_p", "beta_T")
        if self.lambda_max < 0:
            raise ValueError("lambda_max must be >= 0")
        if self.beta_p >= 0:
            raise ValueError("beta_p must be < 0 (demand decreasing in price)")
        if self.beta_T >= 0:
            raise ValueError("beta_T must be < 0 (demand decreasing in pickup time)")


@dataclass(frozen=True)
class PickupParams:
    """Pickup time ``T(I) = k_T * I**alpha_T`` as a function of idle drivers.

    k_T     : hours at I = 1 (> 0)
    alpha_T : elasticity of pickup time in idle drivers (< 0)
    """

    k_T: float
    alpha_T: float

    def __post_init__(self):
        _require_finite(self, "k_T", "alpha_T")
        if self.k_T <= 0:
            raise ValueError("k_T must be > 0")
        if self.alpha_T >= 0:
            raise ValueError("alpha_T must be < 0 (pickup time decreasing in idle drivers)")


@dataclass(frozen=True)
class SupplyParams:
    """Labour supply ``A * ((beta*e + J) / (1 + 1/eps))**eps``.

    pool_size  : maximum drivers available, A (> 0)
    risk_beta  : weight on uncertain trip earnings, in (0, 1]; 1 = risk-neutral
    elasticity : supply elasticity eps (> 0)
    """

    pool_size: float
    risk_beta: float
    elasticity: float

    def __post_init__(self):
        _require_finite(self, "pool_size", "risk_beta", "elasticity")
        if self.pool_size <= 0:
            raise ValueError("pool_size must be > 0")
        if not 0 < self.risk_beta <= 1:
            raise ValueError("risk_beta must be in (0, 1]")
        if self.elasticity <= 0:
            raise ValueError("elasticity must be > 0")


@dataclass(frozen=True)
class PeriodScenario:
    """All market primitives of one period."""

    demand: DemandParams
    pickup: PickupParams
    supply: SupplyParams
    trip_time: float

    def __post_init__(self):
        _require_finite(self, "trip_time")
        if self.trip_time <= 0:
            raise ValueError("trip_time must be > 0")


@dataclass(frozen=True)
class DayScenario:
    """Ordered periods of a day, cyclic (index 24+k identifies with k).

    The built-in day and config loader always produce 24 periods; shorter
    days are accepted by the per-period optimizers (e.g. a stylized
    two-period day), but the cyclic block machinery requires 24.
    """

    periods: tuple[PeriodScenario, ...]

    def __post_init__(self):
        if len(self.periods) == 0:
            raise ValueError("a day needs at least one period")


def utility(d: DemandParams, p, T):
    """Rider utility ``kappa + beta_p*p + beta_T*T``; -inf when T = inf."""
    return d.kappa + d.beta_p * np.asarray(p, dtype=float) + d.beta_T * np.asarray(T, dtype=float)


def demand(d: DemandParams, p, T):
    """Riders/hour requesting trips at price p and pickup time T.

    Returns a value in [0, lambda_max]; exactly 0 when T = inf or when
    the rider population is empty.
    """
    q = d.lambda_max * expit(utility(d, p, T))
    return float(q) if np.ndim(q) == 0 else q


def pickup_time(pk: PickupParams, I):
    """Hours to reach a rider given I idle drivers; inf at I = 0."""
    I = np.asarray(I, dtype=float)
    with np.errstate(divide="ignore"):
        T = np.where(I > 0, pk.k_T * np.power(I, pk.alpha_T), np.inf)
    return float(T) if T.ndim == 0 else T


def idle_from_time(pk: PickupParams, T):
    """Idle drivers needed for pickup time T; inverse of :func:`pickup_time`.

    T must be > 0 (T = inf maps to 0 idle drivers).
    """
    T = np.asarray(T, dtype=float)
    if np.any(T <= 0):
        raise ValueError("pickup time must be > 0")
    I = np.power(T / pk.k_T, 1.0 / pk.alpha_T)
    return float(I) if I.ndim == 0 else I


def supply(s: SupplyParams, e, J):
    """Drivers connecting for trip earnings e ($/h) and idle wage J ($/h)."""
    scale = 1.0 + 1.0 / s.elasticity
    L = s.pool_size * np.power((s.risk_beta * np.asarray(e, dtype=float) + J) / scale,
                               s.elasticity)
    return float(L) if np.ndim(L) == 0 else L


def surplus(d: DemandParams, p, T):
    """Rider surplus in $/hour: willingness to pay above p at pickup time T.

    Closed form of the demand integral above the posted price,
    ``-(lambda_max/beta_p) * log(1 + exp(u(p,T)))``; agreement with
    adaptive quadrature is covered by the test suite.
    """
    u = utility(d, p, T)
    S = -(d.lambda_max / d.beta_p) * np.logaddexp(0.0, u)
    return float(S) if np.ndim(S) == 0 else S


def social_cost(s: SupplyParams, L):
    """Minimum aggregate income ($/hour) required to field L drivers.

    Closed form ``A**(-1/eps) * L**(1 + 1/eps)`` of the integrated inverse
    of the idle-only supply curve; convex, 0 at L = 0.
    """
    L = np.asarray(L, dtype=float)
    if np.any(L < 0):
        raise ValueError("labour force must be >= 0")
    eps = s.elasticity
    C = s.pool_size ** (-1.0 / eps) * np.power(L, 1.0 + 1.0 / eps)
    return float(C) if C.ndim == 0 else C
