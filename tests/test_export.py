"""Script generation tests: determinism and structural content."""

import pytest

from scrolleq import build_profile, equation_set
from scrolleq.export import cas_script


def test_scripts_are_deterministic():
    first, second = (equation_set(build_profile([2, 3])) for _ in range(2))
    for dialect in ("m2", "singular"):
        assert cas_script(first, dialect) == cas_script(second, dialect)


def test_m2_script_structure():
    eqset = equation_set(build_profile([2, 3]))
    script = cas_script(eqset, "m2")
    assert "R = QQ[x_(1,0), x_(1,1), x_(1,2), x_(2,0), x_(2,1), x_(2,2), x_(2,3)];" in script
    assert script.count("J = ideal(") == 1
    assert script.count("P = ideal(") == 1
    assert "radical J" in script
    # 4 system generators and C(5, 2) = 10 minors, one per line
    j_block = script.split("J = ideal(")[1].split(");")[0]
    p_block = script.split("P = ideal(")[1].split(");")[0]
    assert len([l for l in j_block.splitlines() if l.strip()]) == 4
    assert len([l for l in p_block.splitlines() if l.strip()]) == 10


def test_singular_script_structure():
    eqset = equation_set(build_profile([2, 3]))
    script = cas_script(eqset, "singular")
    assert 'LIB "primdec.lib";' in script
    assert "ring R = 0, (x(1)(0), x(1)(1), x(1)(2), x(2)(0), x(2)(1), x(2)(2), x(2)(3)), dp;" in script
    assert "radical(J)" in script
    assert "reduce(P, std(RJ))" in script and "reduce(RJ, std(P))" in script


def test_minimal_profile_script_counts():
    eqset = equation_set(build_profile([1, 1]))
    script = cas_script(eqset, "m2")
    j_block = script.split("J = ideal(")[1].split(");")[0]
    p_block = script.split("P = ideal(")[1].split(");")[0]
    assert len([l for l in j_block.splitlines() if l.strip()]) == 1
    assert len([l for l in p_block.splitlines() if l.strip()]) == 1


def test_dialect_dispatch():
    eqset = equation_set(build_profile([1, 1]))
    assert cas_script(eqset, "m2").startswith("-- defining system")
    assert cas_script(eqset, "singular").startswith("// defining system")
    with pytest.raises(ValueError, match="unknown dialect 'maple' \\(supported: m2, singular\\)"):
        cas_script(eqset, "maple")


def test_rendering_has_no_canonical_text_syntax():
    # Exported polynomials must use dialect variable names, not x[i][j].
    for dialect in ("m2", "singular"):
        assert "x[" not in cas_script(equation_set(build_profile([2, 2])), dialect)
