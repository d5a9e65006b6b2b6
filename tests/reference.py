"""Slow reference implementations that the tests compare the library against.

* ``bridge_via_lists`` builds a bridge from its two explicit monomial lists,
  independently of ``scroll.bridge``.
* ``schoolbook_mul``, ``schoolbook_pow`` and ``schoolbook_substitute`` compute
  on dicts of monomial tuples directly, with no packed exponents: the
  multiply is the one ``Polynomial.__mul__`` used before packing, the power
  is repeated multiplication and the substitution expands term by term.
* ``grevlex_cmp`` compares two monomials by walking their exponents, the
  comparator that ``grevlex_key`` replaced.
* ``evaluate`` computes a polynomial's value at a point term by term; the
  finite-field scan runs generated code instead, and the tests check that
  code against it.
* ``enumerate_variety`` scans all of projective space for the common zeros
  of expanded generators, the oracle for the block-factored comparison.
* ``poly_to_json_text`` is the compact ``json.dumps`` of ``poly_to_json``.
* ``reference_parse`` reads the text grammar one character at a time into
  token objects and parses them by recursive descent; ``parse_poly`` reads
  the same grammar with one regular expression and must agree with it on
  every result and every error.
"""

import json
from fractions import Fraction

from scrolleq import (
    GF,
    VAR_S,
    VAR_T,
    VAR_V,
    VAR_W,
    VAR_Z,
    ZZ,
    ParseContext,
    ParseError,
    Polynomial,
    VarId,
    binomial,
    bridge_meta,
    monomial,
    poly_to_json,
    projective_size,
    t_var,
    u_var,
    x_var,
)
from scrolleq.textio import MAX_EXPONENT
from scrolleq.verify import DEFAULT_BUDGET, BudgetExceededError, _projective_scan


def bridge_via_lists(a: int, b: int, x_block: int = 1, y_block: int = 2) -> Polynomial:
    """Alternative bridge construction through the two explicit monomial lists.

    The first-block list runs through all degree-p monomials in consecutive
    variable pairs in descending slot order; the second-block list runs
    through the degree-q monomials in ascending order.  Both have m + 1
    entries; entry alpha of each are multiplied and weighted by
    (-1)^alpha * C(m, alpha).  Must agree with ``bridge`` term for term.
    """
    meta = bridge_meta(a, b)
    if x_block == y_block:
        raise ValueError("a bridge couples two distinct blocks")
    p, q, m = meta.p, meta.q, meta.m

    xs = []
    for v in range(a, 0, -1):
        for r in range(p):
            xs.append([(x_var(x_block, v), p - r), (x_var(x_block, v - 1), r)])
    xs.append([(x_var(x_block, 0), p)])

    ys = []
    for h in range(b):
        for f in range(q):
            ys.append([(x_var(y_block, h), q - f), (x_var(y_block, h + 1), f)])
    ys.append([(x_var(y_block, b), q)])

    assert len(xs) == m + 1 and len(ys) == m + 1
    terms = {}
    for alpha, (mx, my) in enumerate(zip(xs, ys)):
        terms[monomial(mx + my)] = (-1) ** alpha * binomial(m, alpha)
    return Polynomial(ZZ, terms)


def schoolbook_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Every term of ``a`` times every term of ``b``, keyed by monomial tuples."""
    assert a.domain == b.domain
    dom = a.domain
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mono = monomial(ma + mb)
            c = dom.coerce(ca * cb)
            prev = out.get(mono)
            if prev is None:
                out[mono] = c
            else:
                s = dom.coerce(prev + c)
                if s == 0:
                    del out[mono]
                else:
                    out[mono] = s
    return Polynomial(dom, out)


def schoolbook_pow(a: Polynomial, e: int) -> Polynomial:
    """``a`` multiplied into 1, ``e`` times."""
    out = Polynomial.const(1, a.domain)
    for _ in range(e):
        out = schoolbook_mul(out, a)
    return out


def schoolbook_substitute(a: Polynomial, images) -> Polynomial:
    """The image of ``a`` under ``v -> images[v]``; unmapped variables stay."""
    dom = a.domain
    acc = Polynomial.zero(dom)
    for mono, coeff in a.terms.items():
        prod = Polynomial.const(coeff, dom)
        for v, e in mono:
            img = images.get(v, Polynomial.variable(v, dom))
            prod = schoolbook_mul(prod, schoolbook_pow(img, e))
        acc = acc + prod
    return acc


def grevlex_cmp(a: tuple, b: tuple) -> int:
    """Graded reverse-lexicographic comparison; negative means a < b."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return -1 if da < db else 1
    ia, ib = 0, 0
    la, lb = len(a), len(b)
    # Walk from the smallest variable upwards; at the first variable where
    # the exponents differ, the monomial with the smaller exponent is larger.
    while ia < la and ib < lb:
        va, xa = a[ia]
        vb, xb = b[ib]
        if va == vb:
            if xa != xb:
                return 1 if xa < xb else -1
            ia += 1
            ib += 1
        elif va < vb:
            return -1  # a alone carries weight on the smaller variable
        else:
            return 1
    if ia < la:
        return -1  # unreachable for equal degrees; kept for consistency
    if ib < lb:
        return 1
    return 0


def evaluate(p: Polynomial, point):
    """The value of ``p`` at ``point``, a map that must give every variable
    of ``p`` a value in (or coercible into) its domain."""
    dom = p.domain
    power_cache = {}
    acc = dom.coerce(0)
    for mono, coeff in p.terms.items():
        val = coeff
        for v, e in mono:
            pw = power_cache.get((v, e))
            if pw is None:
                try:
                    base = dom.coerce(point[v])
                except KeyError:
                    raise ValueError(f"no value for variable {v.render()}") from None
                pw = pow(base, e, dom.p) if dom.p is not None else base**e
                power_cache[v, e] = pw
            val = dom.coerce(val * pw)
        acc = dom.coerce(acc + val)
    return acc


def enumerate_variety(gens, variables, q=None, budget=DEFAULT_BUDGET):
    """The sorted canonical points (first nonzero coordinate 1) of projective
    space over GF(q) where every generator vanishes.  ``q`` defaults to the
    generators' modulus; the budget bounds points times generators."""
    for g in gens:
        if g.domain.kind != "Fp":
            raise ValueError("enumeration generators must live over a prime field")
        if q is None:
            q = g.domain.p
        elif q != g.domain.p:
            raise ValueError("generators live over different prime fields")
    if q is None:
        raise ValueError("q is required when no generators are given")
    GF(q)  # refuses a q that is not prime
    estimate = projective_size(len(variables), q) * max(1, len(gens))
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    (hits,) = _projective_scan([[[(g, 1)] for g in gens]], variables, q)
    return hits


def poly_to_json_text(p: Polynomial) -> str:
    """Compact, byte-stable JSON rendering of ``poly_to_json(p)``."""
    return json.dumps(poly_to_json(p), separators=(",", ":"))


_SCALARS = {"s": VAR_S, "t": VAR_T, "z": VAR_Z, "w": VAR_W, "v": VAR_V}

_PUNCT = set("+-*/^[]")
# str.isdigit and str.isalpha accept non-ASCII digits and letters, such as
# "\u0663" and "\u00b2", which int() then reads or refuses without a position.
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


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
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            # Read as an integer by ``_Parser.integer``, where it is used.
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _LETTERS:
            j = i
            while j < n and text[j] in _LETTERS:
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

    def integer(self) -> int:
        tok = self.expect("int")
        try:
            return int(tok.value)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError(
                f"integer too long ({len(tok.value)} digits)", tok.line, tok.col
            ) from None

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

    def term(self, sign: int) -> tuple[tuple, object]:
        dom = self.ctx.domain
        tok = self.peek()
        if tok.kind == "int":
            coeff = self.coefficient()
            if self.peek().kind == "*":
                self.advance()
                mono = self.powers()
            else:
                mono = ()
        elif tok.kind == "name":
            coeff = 1
            mono = self.powers()
        else:
            raise self.fail("expected a coefficient or a variable")
        return mono, dom.coerce(coeff * sign)

    def coefficient(self):
        value = self.integer()
        if self.peek().kind == "/":
            slash = self.peek()
            if self.ctx.domain.kind != "Q":
                raise ParseError(
                    "rational coefficient in a non-rational domain", slash.line, slash.col
                )
            self.advance()
            denom = self.integer()
            if denom == 0:
                raise ParseError("zero denominator", slash.line, slash.col)
            return Fraction(value, denom)
        return value

    def powers(self) -> tuple:
        exps: dict[VarId, int] = {}
        while True:
            v, e = self.power()
            exps[v] = exps.get(v, 0) + e
            if self.peek().kind == "*":
                self.advance()
                continue
            break
        return monomial(exps)

    def power(self) -> tuple[VarId, int]:
        v = self.variable()
        e = 1
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            e = self.integer()
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
        value = self.integer()
        self.expect("]")
        if value < minimum:
            raise ParseError(f"index {value} out of range", tok.line, tok.col)
        return value


def reference_parse(text: str, ctx: ParseContext) -> Polynomial:
    """``parse_poly`` as a character scanner and a recursive-descent parser."""
    return _Parser(text, ctx).parse()
