"""Non-finite numbers are rejected where they enter: dataclasses and config files."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idlewage as iw

H19 = iw.period_for_hour(19)

VALID = (
    iw.PolicyPoint(1.0, 0.5, 0.5),
    H19.demand,
    H19.pickup,
    H19.supply,
    H19,
    iw.GridSpec(),
    iw.SolverConfig(),
    iw.DaySchedule((1.0, 2.0), (0.5, 0.0), 0.5),
    iw.BlockConstraint(),
    iw.TwoPeriodExample(0.5),
)

# (instance, numeric field) for every numeric field of every validated dataclass
NUMERIC_FIELDS = [
    (obj, f.name)
    for obj in VALID
    for f in dataclasses.fields(obj)
    if isinstance(getattr(obj, f.name), (int, float, tuple))
]

# an int beyond float range cannot be compared as a float either
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400])


def test_every_validated_dataclass_has_numeric_fields():
    assert {type(obj) for obj, _ in NUMERIC_FIELDS} == {type(obj) for obj in VALID}


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(NUMERIC_FIELDS), bad=NON_FINITE, at=st.integers(0, 1))
def test_non_finite_field_is_rejected_by_name(case, bad, at):
    obj, name = case
    value = getattr(obj, name)
    if isinstance(value, tuple):
        value = value[:at] + (bad,) + value[at + 1:]
    else:
        value = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        dataclasses.replace(obj, **{name: value})


@settings(max_examples=200, deadline=None)
@given(
    price=st.floats(0, 1e6),
    idle_wage=st.floats(0, 1e6),
    commission=st.floats(0, 1),
)
def test_finite_policy_in_range_is_accepted(price, idle_wage, commission):
    pol = iw.PolicyPoint(price, idle_wage, commission)
    assert (pol.price, pol.idle_wage, pol.commission) == (price, idle_wage, commission)


@settings(max_examples=100, deadline=None)
@given(
    p_step=st.floats(1e-3, 5.0),
    j_step=st.floats(1e-3, 2.8),
    tau_step=st.sampled_from([0.05, 0.1, 0.125, 0.25, 0.5, 1.0]),
)
def test_finite_grid_steps_are_accepted(p_step, j_step, tau_step):
    g = iw.GridSpec(p_step=p_step, j_step=j_step, tau_step=tau_step)
    assert g.tau_values()[-1] == 1.0


# (config text with a %s where the value goes, the key it sits under)
CONFIG_TEMPLATES = [
    ('{"kappa": %s}', "kappa"),
    ('{"grid": {"p_step": %s}}', "p_step"),
    ('{"solver": {"z_max": %s}}', "z_max"),
    ('{"pool_by_hour": [%s]}', "pool_by_hour"),
]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999",
                                     pytest.param("1" + "0" * 400, id="10**400")])
@pytest.mark.parametrize("template, key", CONFIG_TEMPLATES)
def test_config_non_finite_number_names_the_key(tmp_path, template, key, literal):
    f = tmp_path / "config.json"
    f.write_text(template % literal)
    with pytest.raises(iw.ValidationError, match=f"^{key} must be finite"):
        iw.load_config(f)


@pytest.mark.parametrize("literal", ["true", "false", "null", '"1"', "[1]"])
@pytest.mark.parametrize("template, key", CONFIG_TEMPLATES)
def test_config_non_number_names_the_key(tmp_path, template, key, literal):
    f = tmp_path / "config.json"
    f.write_text(template % literal)
    with pytest.raises(iw.ValidationError, match=f"^{key} must be a number"):
        iw.load_config(f)


@pytest.mark.parametrize(
    "obj, name, bad",
    [
        (iw.SolverConfig(), "scan_points", 100.5),
        (iw.SolverConfig(), "scan_points", 100.0),
        (iw.SolverConfig(), "scan_points", True),
        (iw.BlockConstraint(), "b1", 2.5),
        (iw.BlockConstraint(), "b1", True),
        (iw.BlockConstraint(), "b2", 3.0),
    ],
)
def test_non_integer_count_is_rejected_by_name(obj, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        dataclasses.replace(obj, **{name: bad})
