"""What callers rely on in the immutable value types: the domain tag, the
profile, the bridge and group data, the equation set, the reports and the
parsing context."""

import subprocess
import sys
from pathlib import Path

import pytest

import scrolleq

from scrolleq import (
    GF,
    ZZ,
    BridgeMeta,
    Domain,
    EquationSet,
    ParseContext,
    ScrollProfile,
    VarietyReport,
    WeightGroup,
    bridge_meta,
    build_profile,
    check_parametrization,
    compare_varieties,
    equation_set,
    weight_groups,
)
from scrolleq.verify import GeneratorCheck, ParamReport


def instances():
    """One instance of each value type, with the name of one of its fields."""
    report = check_parametrization(equation_set(build_profile([1, 2])))
    return [
        (GF(7), "p"),
        (ZZ, "p"),
        (build_profile([1, 2]), "n"),
        (bridge_meta(2, 3), "m"),
        (weight_groups(build_profile([2, 3, 5, 7]))[2], "powers"),
        (GeneratorCheck("weight[3]", "u[1]^2*s^4*t^4*u[2]"), "residual"),
        (report, "failures"),
        (compare_varieties(equation_set(build_profile([1, 2])), 3), "count_j"),
        (ParseContext(GF(5), (1, 2)), "block_sizes"),
        (equation_set(build_profile([1, 2])), "bridges"),
    ]


def test_each_value_type_is_covered():
    assert {type(value) for value, _ in instances()} == {
        Domain, ScrollProfile, BridgeMeta, WeightGroup, GeneratorCheck, ParamReport,
        VarietyReport, ParseContext, EquationSet}


@pytest.mark.parametrize("value, name", instances(),
                         ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_fields_cannot_be_assigned(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_domain_checks_what_the_tuple_helpers_build():
    # The constructor's refusals, Domain(4), Domain(7.0) and Domain(True)
    # among them, are in test_polyring.test_domain_refuses_a_modulus_that_is_not_prime.
    with pytest.raises(ValueError, match="^4 is not prime$"):
        GF(7)._replace(p=4)
    with pytest.raises(ValueError, match="^4 is not prime$"):
        Domain._make([4])
    assert GF(7)._replace(p=5) == GF(5) and Domain._make([None]) == ZZ


def test_reprs_and_equality():
    assert repr(GF(7)) == "Domain(p=7)" and repr(ZZ) == "Domain(p=None)"
    assert repr(build_profile([1, 2])) == "ScrollProfile(n=(1, 2))"
    assert ZZ != GF(2)
    assert build_profile([1, 2]) == build_profile((1, 2)) != build_profile([2, 1])


def test_hashable_instances_are_dict_keys():
    # A ParamReport holds its bridge verdicts in a dict, and an EquationSet
    # its bridges, so neither has a hash.
    hashable = [value for value, _ in instances()
                if not isinstance(value, (ParamReport, EquationSet))]
    table = {value: i for i, value in enumerate(hashable)}
    assert all(table[value] == i for i, value in enumerate(hashable))
    assert {GF(7): "a"}[Domain(7)] == "a"


def test_importing_the_cli_imports_no_dataclasses():
    # The value types are named tuples, so a cold start never loads the
    # dataclasses module; -S keeps site hooks from loading it first.
    src = str(Path(scrolleq.__file__).resolve().parent.parent)
    code = ("import sys; before = 'dataclasses' in sys.modules; import scrolleq.cli; "
            "print(before, 'dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "False False\n"


def test_instances_are_tuples_of_their_fields():
    # The one behaviour the tuple form adds: instances unpack, and equal a
    # plain tuple with the same fields.
    a, b, m, p, q = bridge_meta(2, 4)
    assert (a, b, m, p, q) == (2, 4, 4, 2, 1) == bridge_meta(2, 4)
    assert GF(7) == (7,) and build_profile([1, 2]) == ((1, 2),)
