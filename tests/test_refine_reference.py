"""The batched refinement's root bits against a plain reference bisection."""

import numpy as np
import pytest

from idlewage import GridSpec, SolverConfig, equilibrium, period_for_hour
from idlewage.equilibrium import PeriodTables, solve_slices
from oracles import reference_bisection

TAUS = (0.0, 0.5, 1.0)


def assert_bits_equal_reference(s, p_vals, j_vals, cfg):
    tables = PeriodTables.build(s, p_vals, cfg)
    coefs = s.supply.risk_beta * (1.0 - np.array(TAUS))
    roots = [r for _, r in solve_slices(tables, j_vals, coefs)]
    t_idx, p_idx, j_idx, z = (
        np.concatenate(col) for col in zip(*[(r.t_idx, r.p_idx, r.j_idx, r.z) for r in roots])
    )
    for t, coef in enumerate(coefs):
        want_p, want_j, want_z = reference_bisection(tables, j_vals, coef)
        mine = t_idx == t
        assert np.array_equal(p_idx[mine], want_p)
        assert np.array_equal(j_idx[mine], want_j)
        assert np.array_equal(z[mine].view(np.int64), want_z.view(np.int64))
    return z.size


class TestRootBitsAgainstReferenceBisection:
    @pytest.mark.parametrize("hour", [4, 19])
    def test_default_grid(self, hour):
        g = GridSpec()
        n = assert_bits_equal_reference(period_for_hour(hour), g.p_values(), g.j_values(),
                                        SolverConfig())
        assert n > 0

    def test_float_spacing_stall(self):
        # no bracket can reach these tolerances: each ends by stalling
        cfg = SolverConfig(bisect_tol=1e-300, tol_eq=1e-300)
        p_vals = np.round(np.arange(0, 51) * 0.1, 10)
        j_vals = np.round(np.arange(0, 8) * 0.4, 10)
        assert assert_bits_equal_reference(period_for_hour(19), p_vals, j_vals, cfg) > 0

    def test_pass_budget_ends_every_bracket(self, monkeypatch):
        # six passes leave every bracket wide, so no bracket is narrow or
        # stalled before the last pass, which accepts all and must still
        # filter by the residual: at this tol_eq it keeps about half
        monkeypatch.setattr(equilibrium, "_MAX_BISECT_ITER", 6)
        g = GridSpec(p_step=0.1, j_step=0.2)
        cfg = SolverConfig(tol_eq=1e-3)
        n = assert_bits_equal_reference(period_for_hour(19), g.p_values(), g.j_values(), cfg)
        assert n > 0
