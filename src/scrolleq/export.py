"""Deterministic script generation for external computer-algebra systems.

Each script declares the polynomial ring, the ideal ``J`` generated by the
defining system, the ideal ``P`` generated by the matrix minors, and a
radical-equality check, so an independent system can confirm that the two
ideals cut out the same locus.  Output depends only on the equation set, so
repeated invocations are byte-identical.
"""

from __future__ import annotations

from .polyring import NS_SCROLL, VarId, format_poly
from .scroll import EquationSet

DIALECTS = ("m2", "singular")


def _var_m2(v: VarId) -> str:
    if v.ns != NS_SCROLL:
        raise ValueError(f"cannot export auxiliary variable {v.render()}")
    return f"x_({v.block},{v.slot})"


def _var_singular(v: VarId) -> str:
    if v.ns != NS_SCROLL:
        raise ValueError(f"cannot export auxiliary variable {v.render()}")
    return f"x({v.block})({v.slot})"


def _gen_lines(polys, var_name, indent: str, sep: str) -> str:
    rendered = [format_poly(p, var_name, space="") for p in polys]
    return (sep + "\n").join(indent + r for r in rendered)


def m2_script(eqset: EquationSet) -> str:
    profile = eqset.profile
    vars_ = ", ".join(_var_m2(v) for v in profile.variables())
    system = [p for _, p in eqset.system()]
    lines = [
        f"-- defining system for the rational normal scroll with block degrees {profile}",
        f"-- ambient projective dimension {profile.N}; system size {eqset.system_size}",
        f"R = QQ[{vars_}];",
        "J = ideal(",
        _gen_lines(system, _var_m2, "    ", ","),
        ");",
        "P = ideal(",
        _gen_lines(list(eqset.minor_gens), _var_m2, "    ", ","),
        ");",
        "-- every system generator lies in the minor ideal, and the radical of J is P",
        "assert(isSubset(J, P));",
        "assert(P == radical J);",
        'print "radical equality verified";',
    ]
    return "\n".join(lines) + "\n"


def singular_script(eqset: EquationSet) -> str:
    profile = eqset.profile
    vars_ = ", ".join(_var_singular(v) for v in profile.variables())
    system = [p for _, p in eqset.system()]
    lines = [
        f"// defining system for the rational normal scroll with block degrees {profile}",
        f"// ambient projective dimension {profile.N}; system size {eqset.system_size}",
        'LIB "primdec.lib";',
        f"ring R = 0, ({vars_}), dp;",
        "ideal J =",
        _gen_lines(system, _var_singular, "    ", ","),
        ";",
        "ideal P =",
        _gen_lines(list(eqset.minor_gens), _var_singular, "    ", ","),
        ";",
        "ideal RJ = radical(J);",
        "// equality holds iff both reductions vanish",
        "int bad = size(reduce(P, std(RJ))) + size(reduce(RJ, std(P)));",
        'if (bad == 0) { "radical equality verified"; } else { "RADICAL EQUALITY FAILED"; }',
        "exit;",
    ]
    return "\n".join(lines) + "\n"


def cas_script(eqset: EquationSet, dialect: str) -> str:
    """Render the equation set as a script in the requested dialect."""
    if dialect == "m2":
        return m2_script(eqset)
    if dialect == "singular":
        return singular_script(eqset)
    raise ValueError(f"unknown dialect {dialect!r} (supported: {', '.join(DIALECTS)})")
