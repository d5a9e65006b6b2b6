"""Script generation tests: determinism and structural content."""

import pytest

from scrolleq import ZZ, Polynomial, VarId, build_profile, equation_set, format_poly, u_var, x_var
from scrolleq.export import cas_script

# A grid of profiles with n_i = 1 blocks, repeated and swapped degrees, and
# one weight generator of several bridges.
GRID = [(1,), (4,), (1, 1), (2, 3), (3, 2), (1, 2, 3), (2, 2, 3, 4), (1, 1, 1, 1, 1)]
# Each printer's spelling and padding: plain text, Macaulay2 and Singular.
SPELLINGS = {
    "plain": (VarId.render, " "),
    "m2": (lambda v: f"x_({v.block},{v.slot})", ""),
    "singular": (lambda v: f"x({v.block})({v.slot})", ""),
}


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


@pytest.mark.parametrize("spelling", SPELLINGS)
@pytest.mark.parametrize("n", GRID, ids=str)
def test_a_shared_spelling_table_gives_the_bytes_of_one_table_per_call(n, spelling):
    var_name, space = SPELLINGS[spelling]
    eqset = equation_set(build_profile(n))
    polys = [p for _, p in eqset.system()] + list(eqset.minor_gens)
    spelled = {}
    shared = [format_poly(p, var_name, space, spelled) for p in polys]
    assert shared == [format_poly(p, var_name, space) for p in polys]
    assert len(spelled) == len({f for p in polys for mono in p.terms for f in mono})
    if spelling != "plain":
        # The script's ideals are those texts, one per line.
        lines = {line.removesuffix(",") for line in cas_script(eqset, spelling).splitlines()}
        assert all("    " + text in lines for text in shared)


def test_rendering_has_no_canonical_text_syntax():
    # Exported polynomials must use dialect variable names, not x[i][j].
    for dialect in ("m2", "singular"):
        assert "x[" not in cas_script(equation_set(build_profile([2, 2])), dialect)


@pytest.mark.parametrize("dialect", ["m2", "singular"])
def test_auxiliary_variable_is_refused_after_spelled_scroll_variables(dialect):
    eqset = equation_set(build_profile([2, 3]))
    (i, j, p), *rest = eqset.curve_gens
    # x[1][0] and x[1][1] are spelled in the ring line, and again in this
    # term just before u[1].
    term = Polynomial(ZZ, [([(x_var(1, 0), 1), (x_var(1, 1), 1), (u_var(1), 1)], 1)])
    mutant = eqset._replace(curve_gens=((i, j, p + term), *rest))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^cannot export auxiliary variable u\[1\]$"):
            cas_script(mutant, dialect)
