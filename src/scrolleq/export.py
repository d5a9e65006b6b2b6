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

# Per dialect: the comment marker, the spelling of x[i][j], the lines that
# declare the ring (``{}`` takes the variable list), how an ideal opens
# (``{}`` takes its name) and closes, and the closing check lines.
_DIALECTS = {
    "m2": (
        "--",
        "x_({},{})",
        ("R = QQ[{}];",),
        ("{} = ideal(", ");"),
        (
            "-- every system generator lies in the minor ideal, and the radical of J is P",
            "assert(isSubset(J, P));",
            "assert(P == radical J);",
            'print "radical equality verified";',
        ),
    ),
    "singular": (
        "//",
        "x({})({})",
        ('LIB "primdec.lib";', "ring R = 0, ({}), dp;"),
        ("ideal {} =", ";"),
        (
            "ideal RJ = radical(J);",
            "// equality holds iff both reductions vanish",
            "int bad = size(reduce(P, std(RJ))) + size(reduce(RJ, std(P)));",
            'if (bad == 0) { "radical equality verified"; } else { "RADICAL EQUALITY FAILED"; }',
            "exit;",
        ),
    ),
}


def cas_script(eqset: EquationSet, dialect: str) -> str:
    """Render the equation set as a script in the requested dialect."""
    if dialect not in _DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r} (supported: {', '.join(_DIALECTS)})")
    comment, spelling, ring, (opening, closing), check = _DIALECTS[dialect]

    def var_name(v: VarId) -> str:
        if v.ns != NS_SCROLL:
            raise ValueError(f"cannot export auxiliary variable {v.render()}")
        return spelling.format(v.block, v.slot)

    def ideal(name: str, polys) -> list[str]:
        body = ",\n".join("    " + format_poly(p, var_name, space="") for p in polys)
        return [opening.format(name), body, closing]

    profile = eqset.profile
    variables = ", ".join(map(var_name, profile.variables()))
    lines = [
        f"{comment} defining system for the rational normal scroll with block degrees {profile}",
        f"{comment} ambient projective dimension {profile.N}; system size {eqset.system_size}",
        *(line.format(variables) for line in ring),
        *ideal("J", [p for _, p in eqset.system()]),
        *ideal("P", eqset.minor_gens),
        *check,
    ]
    return "\n".join(lines) + "\n"
