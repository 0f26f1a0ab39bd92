"""Closed-form two-period toy market used as an exact optimizer oracle.

A stylized day with one high- and one low-demand period, linear supply
``e + (1 + epsilon) * J`` (epsilon > 0 is the drivers' premium on certain
idle-wage income), and demand tied directly to the labour force.  Prices
are already at their caps (1 and 1/2), so the platform only chooses the
shared commission tau and idle wage J; total profit is the quadratic

    Pi(tau, J) = 17/16 (tau - tau^2) - 2(1+eps) J^2 - 5/4 J
                 + (10 + 5 eps)/4 J tau

whose restricted and joint optima all have closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import _require_finite

__all__ = [
    "TwoPeriodExample",
    "flexible_optimum",
    "case_a_idle_only",
    "case_b_no_idle",
    "case_c_joint",
    "example_profit_surface",
]

TAU_ONE_THRESHOLD = 0.72   # above this risk premium the joint optimum pins tau = 1


@dataclass(frozen=True)
class TwoPeriodExample:
    epsilon: float

    def __post_init__(self):
        _require_finite(self, "epsilon")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")


def _profit_high(eps: float, tau, J):
    """High-demand period profit (price capped at 1, demand = labour)."""
    return (2.0 + eps) * tau * J + tau - tau**2 - J - (1.0 + eps) * J**2


def _profit_low(eps: float, tau, J):
    """Low-demand period profit (price capped at 1/2, demand = labour/2)."""
    return (
        (2.0 + eps) / 4.0 * tau * J
        + (tau - tau**2) / 16.0
        - (1.0 + eps) * J**2
        - J / 4.0
    )


def example_profit_surface(ex: TwoPeriodExample, tau, J):
    """Total profit of the two periods under a shared (tau, J)."""
    return _profit_high(ex.epsilon, tau, J) + _profit_low(ex.epsilon, tau, J)


def flexible_optimum(ex: TwoPeriodExample) -> dict[str, float]:
    """Per-period optimal idle wages when J may differ across periods.

    With a flexible J the platform sets tau = 1 and the per-period
    quadratics peak at 1/2 (high demand) and 1/8 (low demand), for any
    risk premium; profit_high and profit_low are the periods' profits there.
    """
    J_high, J_low = 0.5, 0.125
    return {"J_high": J_high, "J_low": J_low,
            "profit_high": _profit_high(ex.epsilon, 1.0, J_high),
            "profit_low": _profit_low(ex.epsilon, 1.0, J_low)}


def case_a_idle_only(ex: TwoPeriodExample) -> dict[str, float]:
    """Optimal shared policy when drivers are paid only the idle wage (tau = 1)."""
    return {"J": 5.0 / 16.0, "profit": 25.0 * (1.0 + ex.epsilon) / 128.0}


def case_b_no_idle(ex: TwoPeriodExample) -> dict[str, float]:
    """Optimal shared policy without an idle wage (J = 0)."""
    return {"tau": 0.5, "profit": 34.0 / 128.0}


def case_c_joint(ex: TwoPeriodExample) -> dict[str, float]:
    """Jointly optimal shared (tau, J).

    Interior stationary point of the profit quadratic while its tau stays
    feasible; beyond the threshold premium the commission caps at 1 and
    the solution collapses to the idle-only case.
    """
    eps = ex.epsilon
    if eps <= TAU_ONE_THRESHOLD:
        den = 36.0 + 36.0 * eps - 25.0 * eps**2
        return {
            "J": 85.0 * eps / (4.0 * den),
            "tau": (18.0 + 43.0 * eps) / den,
            "profit": 153.0 * (1.0 + eps) / (16.0 * den),
        }
    return {"J": 0.3125, "tau": 1.0, "profit": 25.0 * (1.0 + eps) / 128.0}
