"""Supply-demand equilibria and policy optimization for a ride-hailing market with an idle wage."""

from .analytic import (
    TwoPeriodExample,
    case_a_idle_only,
    case_b_no_idle,
    case_c_joint,
    example_profit_surface,
    flexible_optimum,
)
from .equilibrium import (
    DEFAULT_SOLVER,
    BracketingError,
    Equilibrium,
    PolicyPoint,
    SolverConfig,
    equilibrium_at,
    find_equilibria,
    residual,
    zero_equilibrium,
)
from .model import (
    DayScenario,
    DemandParams,
    PeriodScenario,
    PickupParams,
    SupplyParams,
    demand,
    idle_from_time,
    pickup_time,
    social_cost,
    supply,
    surplus,
)
from .objectives import Objective, evaluate, profit, select_equilibrium, welfare
from .optimize import (
    BlockConstraint,
    DaySchedule,
    DaySweepPoint,
    GridSpec,
    InfeasibleError,
    OptimResult,
    Regime,
    SweepPoint,
    TableRequest,
    ValueTable,
    admissible_blocks,
    block_wage_max,
    day_requests,
    optimize_day_fixed,
    optimize_day_flexible,
    optimize_min_wage,
    optimize_single_period,
    sweep_day_idle_wage,
    sweep_idle_wage,
    value_tables,
    value_vs_tau,
)
from .scenario import (
    ParseError,
    ResultTable,
    ScenarioConfig,
    ValidationError,
    builtin_day,
    default_config,
    dump_config,
    emit_table,
    load_config,
    period_for_hour,
    scenario_hash,
    two_period_day,
)

__version__ = "0.1.0"
