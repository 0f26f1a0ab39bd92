"""Built-in parameter tables, config files, and tabular result output."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
from dataclasses import dataclass, field

from .equilibrium import SolverConfig
from .model import (
    DayScenario,
    DemandParams,
    PeriodScenario,
    PickupParams,
    SupplyParams,
    _is_finite,
)
from .optimize import BlockConstraint, GridSpec

__all__ = [
    "KAPPA", "BETA_P", "BETA_T", "K_T", "ALPHA_T", "ELASTICITY", "TRIP_TIME",
    "DEFAULT_RISK_BETA", "LAMBDA_BY_HOUR", "POOL_BY_HOUR",
    "ScenarioConfig", "ResultTable", "ParseError", "ValidationError",
    "builtin_day", "period_for_hour", "two_period_day",
    "default_config", "load_config", "dump_config", "scenario_hash", "emit_table",
]

# Calibrated global constants (demand utility, pickup curve, supply
# elasticity, mean trip length).
KAPPA = 1.768
BETA_P = -0.669
BETA_T = -1.134
K_T = 0.127
ALPHA_T = -0.515
ELASTICITY = 1.2
TRIP_TIME = 0.25
DEFAULT_RISK_BETA = 0.25

# Hourly rider population and driver pool, hours 1..24.
LAMBDA_BY_HOUR = (
    30.0, 15.0, 10.0, 5.0, 15.0, 18.0, 39.0, 70.0, 120.0, 100.0, 80.0, 77.0,
    73.0, 77.0, 79.0, 85.0, 100.0, 145.0, 163.0, 150.0, 130.0, 120.0, 110.0, 70.0,
)
POOL_BY_HOUR = (
    13.0, 11.0, 12.0, 4.5, 4.0, 6.0, 11.0, 17.5, 22.0, 32.5, 28.5, 28.0,
    25.0, 23.0, 23.3, 24.0, 25.0, 29.0, 45.0, 50.0, 43.0, 32.0, 29.0, 28.5,
)


class ParseError(Exception):
    """A config file is not valid JSON."""


class ValidationError(Exception):
    """A config violates an invariant; the message names it."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs: globals, hourly tables, and tool overrides."""

    kappa: float = KAPPA
    beta_p: float = BETA_P
    beta_T: float = BETA_T
    k_T: float = K_T
    alpha_T: float = ALPHA_T
    elasticity: float = ELASTICITY
    trip_time: float = TRIP_TIME
    risk_beta: float = DEFAULT_RISK_BETA
    lambda_by_hour: tuple[float, ...] = LAMBDA_BY_HOUR
    pool_by_hour: tuple[float, ...] = POOL_BY_HOUR
    grid: GridSpec = field(default_factory=GridSpec)
    solver: SolverConfig = field(default_factory=SolverConfig)
    blocks: BlockConstraint = field(default_factory=BlockConstraint)

    def __post_init__(self):
        if len(self.lambda_by_hour) != 24:
            raise ValidationError("expected 24 periods in lambda_by_hour")
        if len(self.pool_by_hour) != 24:
            raise ValidationError("expected 24 periods in pool_by_hour")
        try:
            for h in range(1, 25):
                self.period(h)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc

    def period(self, hour: int, *, lambda_max=None, pool_size=None) -> PeriodScenario:
        """Scenario of one hour (1-based), with optional table overrides."""
        if not 1 <= hour <= 24:
            raise ValidationError("hour must be in 1..24")
        lam = self.lambda_by_hour[hour - 1] if lambda_max is None else lambda_max
        pool = self.pool_by_hour[hour - 1] if pool_size is None else pool_size
        return PeriodScenario(
            demand=DemandParams(lam, self.kappa, self.beta_p, self.beta_T),
            pickup=PickupParams(self.k_T, self.alpha_T),
            supply=SupplyParams(pool, self.risk_beta, self.elasticity),
            trip_time=self.trip_time,
        )

    def day(self) -> DayScenario:
        return DayScenario(tuple(self.period(h) for h in range(1, 25)))

    def two_period_day(self, pool_4: float, pool_19: float) -> DayScenario:
        """The stylized low/high day: hours 4 and 19 with overridden pools."""
        return DayScenario((self.period(4, pool_size=pool_4), self.period(19, pool_size=pool_19)))


def default_config() -> ScenarioConfig:
    return ScenarioConfig()


def builtin_day(risk_beta: float = DEFAULT_RISK_BETA) -> DayScenario:
    """The built-in 24-hour day with the calibrated tables."""
    return ScenarioConfig(risk_beta=risk_beta).day()


def period_for_hour(
    hour: int,
    risk_beta: float = DEFAULT_RISK_BETA,
    *,
    lambda_max=None,
    pool_size=None,
) -> PeriodScenario:
    return ScenarioConfig(risk_beta=risk_beta).period(
        hour, lambda_max=lambda_max, pool_size=pool_size
    )


def two_period_day(risk_beta: float, pool_4: float, pool_19: float) -> DayScenario:
    """:meth:`ScenarioConfig.two_period_day` with the calibrated tables."""
    return ScenarioConfig(risk_beta=risk_beta).two_period_day(pool_4, pool_19)


# ---------------------------------------------------------------------------
# Config files (JSON)
# ---------------------------------------------------------------------------

_SUB_SECTIONS = {"grid": GridSpec, "solver": SolverConfig, "blocks": BlockConstraint}
_HOURLY_KEYS = ("lambda_by_hour", "pool_by_hour")


def _build_section(cls, data: dict, section: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(
            f"unknown key(s) in {section}: {', '.join(sorted(unknown))}"
        )
    try:
        return cls(**data)
    except (ValueError, ValidationError, TypeError) as exc:
        raise ValidationError(f"{section}: {exc}") from exc


def _numeric_object(pairs: list) -> dict:
    """JSON object hook: every value is a finite number, or a list of them
    under an hourly key.  A section, or an hourly key not holding a list, is
    left to load_config.  Anything else (a boolean, null, a string, a list
    or object in place of a number, a NaN or Infinity literal, an
    overflowing number) is rejected by key."""
    for key, value in pairs:
        if key in _SUB_SECTIONS or (key in _HOURLY_KEYS and not isinstance(value, list)):
            continue
        for v in value if key in _HOURLY_KEYS else (value,):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValidationError(f"{key} must be a number, got {json.dumps(v)}")
            if not _is_finite(v):
                got = v if isinstance(v, float) else "an integer too large for a float"
                raise ValidationError(f"{key} must be finite, got {got}")
    return dict(pairs)


def load_config(path) -> ScenarioConfig:
    """Read a JSON config; absent keys fall back to the built-in defaults.

    An empty file means all defaults.  Unknown keys are rejected; invalid
    values raise :class:`ValidationError` naming the broken invariant, and
    malformed JSON raises :class:`ParseError` with line and column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip():
        return default_config()
    try:
        data = json.loads(text, object_pairs_hook=_numeric_object)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ValidationError("config root must be a JSON object")

    kwargs = {}
    for section, cls in _SUB_SECTIONS.items():
        if section in data:
            sub = data.pop(section)
            if not isinstance(sub, dict):
                raise ValidationError(f"{section} must be a JSON object")
            kwargs[section] = _build_section(cls, sub, section)
    for key in _HOURLY_KEYS:
        if key in data:
            rows = data.pop(key)
            if not isinstance(rows, list):
                raise ValidationError(f"{key} must be a JSON array")
            kwargs[key] = tuple(float(x) for x in rows)
    kwargs.update(data)
    return _build_section(ScenarioConfig, kwargs, "config")


def dump_config(cfg: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def scenario_hash(cfg: ScenarioConfig) -> str:
    """Short stable digest identifying a config in result metadata."""
    canon = json.dumps(dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Result tables (CSV with a commented metadata header)
# ---------------------------------------------------------------------------


@dataclass
class ResultTable:
    """Named columns (numeric or label strings) plus run metadata."""

    columns: dict[str, list]
    metadata: dict[str, str]

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValidationError("all result columns must have equal length")


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(x)
    return format(float(x), ".17g")


def emit_table(t: ResultTable, path) -> None:
    """Write a deterministic CSV: '#' metadata lines, header, then rows.

    Floats carry 17 significant digits so files are byte-stable and
    lossless.
    """
    lines = [f"# {k}: {v}" for k, v in t.metadata.items()]
    names = list(t.columns)
    lines.append(",".join(names))
    if names:
        n = len(t.columns[names[0]])
        for i in range(n):
            lines.append(",".join(_fmt(t.columns[name][i]) for name in names))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"emit_table: cannot write {path}: {exc}") from exc
