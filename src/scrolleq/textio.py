"""Canonical text grammar and JSON serialization for polynomials.

Text grammar (whitespace insignificant):

    poly   := [sign] term { sign term }
    term   := coeff [ '*' powers ] | powers
    coeff  := integer [ '/' integer ]      # the '/' form only over Q
    powers := power { '*' power }
    power  := variable [ '^' exponent ]

Variables are spelled ``x[i][j]`` (block i, slot j), ``u[i]``, ``t[i]``, and
the scalars ``s``, ``t``, ``z``, ``w``, ``v``.  Printing (see
``polyring.format_poly``) emits terms in descending canonical order, so
``parse_poly(format_poly(p)) == p`` for every canonical polynomial.

JSON form:

    {"domain": "Z" | "Q" | {"Fp": p},
     "terms": [{"coeff": "<string>", "exps": [[i, j, e], ...]}, ...]}

``exps`` entries use the block/slot pair for scroll variables; auxiliary
parameters are encoded with block 0 and a fixed slot code (s=1, t=2, z=3,
w=4, v=5, u[i]=1000+i, t[i]=2000+i).  Entries are sorted by (i, j) and terms
appear in descending canonical order, so the serialization is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

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
    QQ,
    VAR_S,
    VAR_T,
    VAR_V,
    VAR_W,
    VAR_Z,
    ZZ,
    Domain,
    Monomial,
    Polynomial,
    VarId,
    t_var,
    u_var,
    x_var,
)

MAX_EXPONENT = 10**6

_SCALARS = {"s": VAR_S, "t": VAR_T, "z": VAR_Z, "w": VAR_W, "v": VAR_V}


class ParseError(ValueError):
    """Syntax or naming error in the canonical text grammar."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class ParseContext:
    """Parsing context: coefficient domain plus optional block-size validation.

    When ``block_sizes`` is given (the per-block degrees), scroll variables
    are range-checked: block ``i`` must exist and slot ``j`` must be at most
    the block size.
    """

    domain: Domain = ZZ
    block_sizes: tuple[int, ...] | None = None


# -- tokenizer ---------------------------------------------------------------

_PUNCT = set("+-*/^[]")


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind  # "int" | "name" | punctuation | "end"
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: ParseContext):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ctx = ctx

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.kind!r}", tok.line, tok.col)
        return self.advance()

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    # grammar productions ----------------------------------------------------

    def parse(self) -> Polynomial:
        sign = 1
        tok = self.peek()
        if tok.kind in ("+", "-"):
            sign = -1 if tok.kind == "-" else 1
            self.advance()
        terms = [self.term(sign)]
        while self.peek().kind in ("+", "-"):
            sign = -1 if self.advance().kind == "-" else 1
            terms.append(self.term(sign))
        end = self.peek()
        if end.kind != "end":
            raise ParseError(f"trailing input {end.kind!r}", end.line, end.col)
        # The constructor merges repeated monomials and drops zero sums.
        return Polynomial(self.ctx.domain, terms)

    def term(self, sign: int) -> tuple[Monomial, object]:
        dom = self.ctx.domain
        tok = self.peek()
        if tok.kind == "int":
            coeff = self.coefficient()
            if self.peek().kind == "*":
                self.advance()
                mono = self.powers()
            else:
                mono = Monomial()
        elif tok.kind == "name":
            coeff = dom.one
            mono = self.powers()
        else:
            raise self.fail("expected a coefficient or a variable")
        return mono, dom.mul(dom.coerce(coeff), dom.coerce(sign))

    def coefficient(self):
        value = self.expect("int").value
        if self.peek().kind == "/":
            slash = self.peek()
            if self.ctx.domain.kind != "Q":
                raise ParseError(
                    "rational coefficient in a non-rational domain", slash.line, slash.col
                )
            self.advance()
            denom = self.expect("int").value
            if denom == 0:
                raise ParseError("zero denominator", slash.line, slash.col)
            return Fraction(value, denom)
        return value

    def powers(self) -> Monomial:
        exps: dict[VarId, int] = {}
        while True:
            v, e = self.power()
            exps[v] = exps.get(v, 0) + e
            if self.peek().kind == "*":
                self.advance()
                continue
            break
        return Monomial(exps)

    def power(self) -> tuple[VarId, int]:
        v = self.variable()
        e = 1
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("int")
            e = tok.value
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent overflow ({e} > {MAX_EXPONENT})", tok.line, tok.col)
        return v, e

    def variable(self) -> VarId:
        tok = self.expect("name")
        name = tok.value
        if name == "x":
            block = self.index(tok, minimum=1)
            slot = self.index(tok)
            sizes = self.ctx.block_sizes
            if sizes is not None:
                if not 1 <= block <= len(sizes):
                    raise ParseError(f"unknown variable x[{block}][{slot}]", tok.line, tok.col)
                if slot > sizes[block - 1]:
                    raise ParseError(f"unknown variable x[{block}][{slot}]", tok.line, tok.col)
            return x_var(block, slot)
        if name == "u":
            return u_var(self.index(tok, minimum=1))
        if name == "t" and self.peek().kind == "[":
            return t_var(self.index(tok, minimum=1))
        if name in _SCALARS:
            if self.peek().kind == "[":
                raise self.fail(f"variable {name!r} takes no index")
            return _SCALARS[name]
        raise ParseError(f"unknown variable name {name!r}", tok.line, tok.col)

    def index(self, name_tok: _Token, minimum: int = 0) -> int:
        tok = self.peek()
        if tok.kind != "[":
            raise ParseError(
                f"variable {name_tok.value!r} requires an index", tok.line, tok.col
            )
        self.advance()
        value = self.expect("int").value
        self.expect("]")
        if value < minimum:
            raise ParseError(f"index {value} out of range", tok.line, tok.col)
        return value


def parse_poly(text: str, ctx: ParseContext | None = None) -> Polynomial:
    """Parse canonical text into a polynomial; raises ParseError on bad input."""
    return _Parser(text, ctx or ParseContext()).parse()


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
    if "/" in s:
        num, den = s.split("/", 1)
        return dom.coerce(Fraction(int(num), int(den)))
    return dom.coerce(int(s))


def domain_to_json(dom: Domain):
    return {"Fp": dom.p} if dom.kind == "Fp" else dom.kind


def domain_from_json(obj) -> Domain:
    if obj == "Z":
        return ZZ
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"Fp"}:
        return GF(obj["Fp"])
    raise ValueError(f"invalid domain descriptor {obj!r}")


def poly_to_json(p: Polynomial) -> dict:
    terms = []
    for mono, coeff in p.sorted_terms():
        exps = sorted([*_encode_var(v), e] for v, e in mono.exps)
        # Same coefficient text as format_poly: an integer or a reduced a/b.
        terms.append({"coeff": str(coeff), "exps": exps})
    return {"domain": domain_to_json(p.domain), "terms": terms}


def json_array_text(items: list[str], level: int) -> str:
    """An ``indent=2`` JSON array at depth ``level`` of items already
    rendered at depth ``level + 1``."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    return f"[{inner}{f',{inner}'.join(items)}\n{'  ' * level}]"


def poly_json_text(p: Polynomial, level: int = 0) -> str:
    """``json.dumps(poly_to_json(p), indent=2)`` for ``p`` at depth ``level``
    of an indented document, written directly: any ``indent`` puts json on
    its pure-Python encoder."""
    n1, n2, n3, n4, n5 = ("\n" + "  " * (level + k) for k in range(1, 6))
    dom = p.domain
    domain = f'{{{n2}"Fp": {dom.p}{n1}}}' if dom.kind == "Fp" else f'"{dom.kind}"'
    terms = []
    for mono, coeff in p.sorted_terms():
        exps = [
            f"[{n5}{i},{n5}{j},{n5}{e}{n4}]"
            for i, j, e in sorted((*_encode_var(v), e) for v, e in mono.exps)
        ]
        # The coefficient is an integer or a reduced a/b: nothing to escape.
        terms.append(
            f'{{{n3}"coeff": "{coeff}",{n3}"exps": {json_array_text(exps, level + 3)}{n2}}}'
        )
    return (
        f'{{{n1}"domain": {domain},{n1}"terms": {json_array_text(terms, level + 1)}'
        f'\n{"  " * level}}}'
    )


def poly_from_json(obj) -> Polynomial:
    if isinstance(obj, str):
        obj = json.loads(obj)
    dom = domain_from_json(obj["domain"])
    terms = {}
    for entry in obj["terms"]:
        mono = Monomial({_decode_var(i, j): e for i, j, e in entry["exps"]})
        terms[mono] = _coeff_from_string(entry["coeff"], dom)
    return Polynomial(dom, terms)


def poly_to_json_text(p: Polynomial) -> str:
    """Compact, byte-stable JSON rendering suitable for golden files."""
    return json.dumps(poly_to_json(p), separators=(",", ":"))
