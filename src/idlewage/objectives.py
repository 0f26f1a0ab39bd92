"""Profit and welfare of an equilibrium, behind a single Objective tag."""

from __future__ import annotations

import enum

import numpy as np

from .equilibrium import Equilibrium
from .model import PeriodScenario, social_cost, surplus

__all__ = ["Objective", "profit", "welfare", "evaluate", "select_equilibrium"]


class Objective(enum.Enum):
    """What the platform maximizes."""

    PROFIT = "profit"
    WELFARE = "welfare"


def profit(s: PeriodScenario, eq: Equilibrium) -> float:
    """Platform profit tau*p*Q - J*L in $/hour: commission minus idle-wage bill."""
    pol = eq.policy
    return float(profit_values(pol.commission, pol.price, eq.throughput, pol.idle_wage, eq.labour))


def welfare(s: PeriodScenario, eq: Equilibrium) -> float:
    """System welfare S(p, T) + p*Q - C(L) in $/hour.

    The idle-wage bill J*L is a transfer between platform and drivers and
    does not enter; it affects welfare only through the induced equilibrium.
    """
    pol = eq.policy
    return float(welfare_values(s, pol.price, eq.pickup, eq.throughput, eq.labour))


def evaluate(obj: Objective, s: PeriodScenario, eq: Equilibrium) -> float:
    return profit(s, eq) if obj is Objective.PROFIT else welfare(s, eq)


def select_equilibrium(eqs: list[Equilibrium], obj: Objective, s: PeriodScenario) -> Equilibrium:
    """The equilibrium with maximal objective value.

    Ties go to the smallest throughput, then the smallest labour force, so
    selection is deterministic.
    """
    if not eqs:
        raise ValueError("select_equilibrium: empty equilibrium list")
    return min(eqs, key=lambda eq: (-evaluate(obj, s, eq), eq.throughput, eq.labour))


def profit_values(tau: float, p, Q, J, L):
    """Vectorized profit over parallel arrays of equilibrium components."""
    return tau * np.asarray(p) * Q - np.asarray(J) * L


def welfare_values(s: PeriodScenario, p, T, Q, L):
    """Vectorized welfare over parallel arrays of equilibrium components."""
    return surplus(s.demand, p, T) + np.asarray(p) * Q - social_cost(s.supply, L)
