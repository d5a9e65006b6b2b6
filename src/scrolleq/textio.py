"""Canonical text grammar and JSON serialization for polynomials.

Text grammar (whitespace insignificant):

    poly   := [sign] term { sign term }
    term   := coeff [ '*' powers ] | powers
    coeff  := integer
    powers := power { '*' power }
    power  := variable [ '^' exponent ]

Variables are spelled ``x[i][j]`` (block i, slot j), ``u[i]``, ``t[i]``, and
the scalars ``s``, ``t``, ``z``, ``w``, ``v``.  Printing (see
``polyring.format_poly``) emits terms in descending canonical order, so
``parse_poly(format_poly(p)) == p`` for every canonical polynomial.

JSON form:

    {"domain": "Z" | {"Fp": p},
     "terms": [{"coeff": "<string>", "exps": [[i, j, e], ...]}, ...]}

``exps`` entries use the block/slot pair for scroll variables; auxiliary
parameters are encoded with block 0 and a fixed slot code (s=1, t=2, z=3,
w=4, v=5, u[i]=1000+i, t[i]=2000+i).  Entries are sorted by (i, j) and terms
appear in descending canonical order, so the serialization is byte-stable.
Each call below keeps its own tables, shared with no other call: ``parse_poly``
builds each distinct variable once, ``poly_from_json`` decodes each distinct
``(i, j)`` once and ``polys_json_text`` renders each distinct factor once
across all the polynomials it is given.  The text printers do the same with
one spelling table per output: ``equations`` passes one to every
``format_poly`` call of its listing, and ``export.cas_script`` one per script.
"""

from __future__ import annotations

import itertools
import json
import re
from typing import NamedTuple

from .polyring import (
    AUX_S,
    AUX_T,
    AUX_TI,
    AUX_U,
    AUX_V,
    AUX_W,
    AUX_Z,
    GF,
    NS_AUX,
    NS_SCROLL,
    ZZ,
    Domain,
    Polynomial,
    VarId,
    _AUX_SCALAR_NAMES,
    int_text,
    t_var,
    u_var,
    x_var,
)

MAX_EXPONENT = 10**6

_SCALARS = {name: VarId(NS_AUX, kind, 0) for kind, name in _AUX_SCALAR_NAMES.items()}


class ParseError(ValueError):
    """Syntax or naming error in the canonical text grammar."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ParseContext(NamedTuple):
    """Parsing context: coefficient domain plus optional block-size validation.

    When ``block_sizes`` is given (the per-block degrees), scroll variables
    are range-checked: block ``i`` must exist and slot ``j`` must be at most
    the block size.
    """

    domain: Domain = ZZ
    block_sizes: tuple[int, ...] | None = None


# -- parser ------------------------------------------------------------------

# A token is a run of ASCII digits, a run of ASCII letters or one punctuation
# character, after optional whitespace.  Once _BAD finds nothing, the tokens
# tile the text up to its trailing whitespace.  Regex \s and str.isspace agree
# on every code point; str.isdigit and str.isalpha would also take non-ASCII
# digits and letters, such as "\u0663" and "\u00b2".
_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z]+|[-+*^\[\]])")
_BAD = re.compile(r"[^\s0-9A-Za-z+\-*^\[\]]")
_SIGNS = ("+", "-")


def _kind(tok: str) -> str:
    """A token's kind as error messages name it; "" is the end of the text."""
    return "int" if tok.isdigit() else "name" if tok.isalpha() else tok or "end"


def _error(text: str, offset: int, message: str) -> ParseError:
    """``message`` at the line and column of ``offset``; only a newline ends a line."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _fail(text: str, k: int, message: str) -> ParseError:
    """``message`` at token ``k`` of ``text``, or at its end past the last token."""
    tok = next(itertools.islice(_TOKEN.finditer(text), k, None), None)
    return _error(text, tok.start(1) if tok else len(text), message)


def _unexpected(text: str, toks: list[str], k: int, kind: str) -> ParseError:
    """The error for token ``k`` where a token of ``kind`` was expected."""
    return _fail(text, k, f"expected {kind!r}, found {_kind(toks[k])!r}")


def _int(text: str, toks: list[str], k: int) -> int:
    """Token ``k`` as an integer: int() reads just the digit runs within its limit."""
    try:
        return int(toks[k])
    except ValueError:
        pass
    if not toks[k].isdigit():
        raise _unexpected(text, toks, k, "int")
    raise _fail(text, k, f"integer too long ({len(toks[k])} digits)")


def parse_poly(text: str, ctx: ParseContext | None = None) -> Polynomial:
    """Parse canonical text into a polynomial; raises ParseError on bad input."""
    bad = _BAD.search(text)
    if bad:
        raise _error(text, bad.start(), f"unexpected character {bad.group()!r}")
    ctx = ctx or ParseContext()
    dom, sizes = ctx.domain, ctx.block_sizes
    toks = _TOKEN.findall(text)
    toks.append("")
    variables: dict[tuple, VarId] = {}
    terms = []
    i = 1 if toks[0] in _SIGNS else 0
    sign = -1 if toks[0] == "-" else 1
    while True:
        # term := coeff [ '*' powers ] | powers
        factors = []
        if toks[i].isdigit():
            coeff = _int(text, toks, i)
            i += 1
            more = toks[i] == "*"
            if more:
                i += 1
        elif toks[i].isalpha():
            coeff = 1
            more = True
        else:
            raise _fail(text, i, "expected a coefficient or a variable")
        while more:
            # power := variable [ '^' exponent ]
            at = i
            name = toks[i]
            if not name.isalpha():
                raise _unexpected(text, toks, i, "name")
            i += 1
            if name in ("x", "u") or (name == "t" and toks[i] == "["):
                index = []
                for minimum in (1, 0) if name == "x" else (1,):
                    if toks[i] != "[":
                        raise _fail(text, i, f"variable {name!r} requires an index")
                    value = _int(text, toks, i + 1)
                    if toks[i + 2] != "]":
                        raise _unexpected(text, toks, i + 2, "]")
                    if value < minimum:
                        raise _fail(text, i, f"index {value} out of range")
                    index.append(value)
                    i += 3
                key = (name, *index)
                v = variables.get(key)
                if v is None and name == "x":
                    block, slot = index
                    if sizes is not None and not (
                        1 <= block <= len(sizes) and slot <= sizes[block - 1]
                    ):
                        raise _fail(text, at, f"unknown variable x[{block}][{slot}]")
                    v = variables[key] = x_var(block, slot)
                elif v is None:
                    v = variables[key] = (u_var if name == "u" else t_var)(index[0])
            elif name in _SCALARS:
                if toks[i] == "[":
                    raise _fail(text, i, f"variable {name!r} takes no index")
                v = _SCALARS[name]
            else:
                raise _fail(text, at, f"unknown variable name {name!r}")
            e = 1
            if toks[i] == "^":
                e = _int(text, toks, i + 1)
                if e > MAX_EXPONENT:
                    raise _fail(text, i + 1, f"exponent overflow ({e} > {MAX_EXPONENT})")
                i += 2
            factors.append((v, e))
            more = toks[i] == "*"
            if more:
                i += 1
        terms.append((factors, sign * coeff))
        if toks[i] not in _SIGNS:
            break
        sign = -1 if toks[i] == "-" else 1
        i += 1
    if toks[i]:
        raise _fail(text, i, f"trailing input {_kind(toks[i])!r}")
    # The constructor merges repeated variables and monomials and drops zero sums.
    return Polynomial(dom, terms)


# -- JSON --------------------------------------------------------------------

_AUX_CODES = {AUX_S: 1, AUX_T: 2, AUX_Z: 3, AUX_W: 4, AUX_V: 5}
_CODES_AUX = {code: kind for kind, code in _AUX_CODES.items()}
_U_BASE = 1000
_TI_BASE = 2000


def _encode_var(v: VarId) -> tuple[int, int]:
    if v.ns == NS_SCROLL:
        return (v.block, v.slot)
    if v.block == AUX_U:
        return (0, _U_BASE + v.slot)
    if v.block == AUX_TI:
        return (0, _TI_BASE + v.slot)
    return (0, _AUX_CODES[v.block])


def _decode_var(i: int, j: int) -> VarId:
    if type(i) is not int or type(j) is not int:
        raise ValueError(f"invalid variable encoding [{i!r}, {j!r}]")
    if i >= 1:
        return x_var(i, j)
    if i != 0:
        raise ValueError(f"invalid variable encoding [{i}, {j}]")
    if j >= _TI_BASE:
        return t_var(j - _TI_BASE)
    if j >= _U_BASE:
        return u_var(j - _U_BASE)
    kind = _CODES_AUX.get(j)
    if kind is None:
        raise ValueError(f"invalid auxiliary variable code {j}")
    return VarId(NS_AUX, kind, 0)


def _coeff_from_string(s: str, dom: Domain):
    # Exactly the text format_poly writes, -?[0-9]+: int() would also take
    # signs, spaces, underscores and non-ASCII digits, and isdigit() "\u00b2".
    digits = s.removeprefix("-") if isinstance(s, str) else ""
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid coefficient {s!r}")
    try:
        value = int(s)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ValueError(f"coefficient {s[:20]}... is too long ({len(s)} characters)") from None
    return dom.coerce(value)


def domain_to_json(dom: Domain):
    return "Z" if dom.p is None else {"Fp": dom.p}


def domain_from_json(obj) -> Domain:
    if obj == "Z":
        return ZZ
    # A bool is an int to isinstance, and a float or a string would pass
    # is_prime, so the type is compared exactly.
    if isinstance(obj, dict) and set(obj) == {"Fp"} and type(obj["Fp"]) is int:
        return GF(obj["Fp"])
    raise ValueError(f"invalid domain descriptor {obj!r}")


def poly_to_json(p: Polynomial) -> dict:
    terms = []
    for mono, coeff in p.terms.items():
        exps = sorted([*_encode_var(v), e] for v, e in mono)
        # Same coefficient text as format_poly.
        try:
            terms.append({"coeff": str(coeff), "exps": exps})
        except ValueError:  # past the int-to-str digit limit
            terms.append({"coeff": int_text(coeff), "exps": exps})
    return {"domain": domain_to_json(p.domain), "terms": terms}


def json_array_text(items: list[str], level: int) -> str:
    """An ``indent=2`` JSON array at depth ``level`` of items already
    rendered at depth ``level + 1``."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    return f"[{inner}{f',{inner}'.join(items)}\n{'  ' * level}]"


def polys_json_text(polys, level: int = 0) -> list[str]:
    """``json.dumps(poly_to_json(p), indent=2)`` for each ``p`` at depth ``level``,
    written directly (any ``indent`` puts json on its pure-Python encoder), with
    the indentation and each distinct factor's ``[i, j, e]`` entry built once."""
    n0, n1, n2, n3, n4, n5 = ("\n" + "  " * (level + k) for k in range(6))
    entries: dict[tuple[VarId, int], tuple[int, int, str]] = {}
    out = []
    for p in polys:
        domain = '"Z"' if p.domain.p is None else f'{{{n2}"Fp": {p.domain.p}{n1}}}'
        terms = []
        for mono, coeff in p.terms.items():
            exps = []
            for factor in mono:
                entry = entries.get(factor)
                if entry is None:
                    i, j = _encode_var(factor[0])
                    entry = entries[factor] = (i, j, f"[{n5}{i},{n5}{j},{n5}{factor[1]}{n4}]")
                exps.append(entry)
            exps.sort()  # by (i, j), distinct within a monomial
            exps_text = f"[{n4}{f',{n4}'.join([e[2] for e in exps])}{n3}]" if exps else "[]"
            # The coefficient is an integer: nothing to escape.
            try:
                terms.append(f'{{{n3}"coeff": "{coeff}",{n3}"exps": {exps_text}{n2}}}')
            except ValueError:  # past the int-to-str digit limit
                terms.append(f'{{{n3}"coeff": "{int_text(coeff)}",{n3}"exps": {exps_text}{n2}}}')
        terms_text = f"[{n2}{f',{n2}'.join(terms)}{n1}]" if terms else "[]"
        out.append(f'{{{n1}"domain": {domain},{n1}"terms": {terms_text}{n0}}}')
    return out


def poly_from_json(obj) -> Polynomial:
    """The polynomial of a JSON form, parsed or as text; bad input raises ValueError."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if type(obj) is not dict or "domain" not in obj or type(obj.get("terms")) is not list:
        raise ValueError('a polynomial is an object with "domain" and a "terms" list')
    dom = domain_from_json(obj["domain"])
    variables: dict[tuple[int, int], VarId] = {}
    terms = []
    for entry in obj["terms"]:
        if type(entry) is not dict or type(entry.get("exps")) is not list:
            raise ValueError(f'a term is an object with "coeff" and an "exps" list, got {entry!r}')
        factors = []
        for exp in entry["exps"]:
            try:
                i, j, e = exp
            except (TypeError, ValueError):
                raise ValueError(f"exps entry {exp!r} is not [block, slot, exponent]") from None
            # A bool is an int to isinstance, so types are compared exactly, and
            # (i, j) is looked up only once they pass: True == 1 and [1] is
            # unhashable.  The Polynomial constructor refuses a negative exponent.
            if type(e) is not int:
                raise ValueError(f"exponent {e!r} is not an integer")
            if e > MAX_EXPONENT:
                raise ValueError(f"exponent overflow ({e} > {MAX_EXPONENT})")
            v = variables.get((i, j)) if type(i) is type(j) is int else None
            if v is None:
                v = variables[i, j] = _decode_var(i, j)
            factors.append((v, e))
        terms.append((factors, _coeff_from_string(entry.get("coeff"), dom)))
    # As in the text parser, the constructor merges repeated monomials.
    return Polynomial(dom, terms)
