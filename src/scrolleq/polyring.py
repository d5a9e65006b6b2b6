"""Exact sparse multivariate polynomial arithmetic over Z, Q and prime fields.

A polynomial is a finite map from monomials to nonzero coefficients; a
monomial is a finite map from variables to positive exponents.  Both maps are
kept canonical at all times: no zero exponent and no zero coefficient is ever
stored, so structural equality is mathematical equality.

Coefficients are exact: Python ints over Z, ``fractions.Fraction`` over Q
(always reduced), and residues ``0 <= c < p`` over GF(p).

Variables come in two namespaces:

* scroll variables ``x[i][j]`` — block ``i >= 1``, slot ``0 <= j <= n_i``;
* auxiliary parameters used by the verification layer — indexed ``u[i]`` and
  ``t[i]``, and the scalars ``s``, ``t``, ``z``, ``w``, ``v``.

The variable order is total and fixed: scroll variables first (block-major,
then slot), auxiliary parameters after them (all ``u[i]``, then all ``t[i]``,
then ``s < t < z < w < v``).  Monomials are compared by total degree first and
reverse-lexicographically on this variable order to break ties, which gives
the canonical term order used for printing and serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Mapping, NamedTuple


class DomainMismatchError(ValueError):
    """Raised when an operation mixes polynomials over different domains."""


# ---------------------------------------------------------------------------
# Coefficient domains
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    The fixed witness set is exact for every n below 3.3e24, far beyond any
    modulus this package enumerates over.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Domain:
    """Coefficient domain tag: the integers, the rationals, or GF(p)."""

    kind: str  # "Z" | "Q" | "Fp"
    p: int | None = None

    def coerce(self, value):
        """Normalize ``value`` into this domain's canonical coefficient form.

        Conversion is exact: a value with a fractional part raises ValueError
        over Z and GF(p), except that over GF(p) a ``Fraction`` a/b maps to
        a * b^-1 mod p, which raises when p divides b.
        """
        if self.kind == "Q":
            return Fraction(value)
        if isinstance(value, int):
            return value % self.p if self.kind == "Fp" else value
        frac = Fraction(value)
        if frac.denominator == 1:
            return self.coerce(frac.numerator)
        if self.kind == "Fp" and isinstance(value, Fraction):
            if frac.denominator % self.p == 0:
                raise ValueError(
                    f"{value} is undefined in {self}: {self.p} divides the denominator"
                )
            return frac.numerator * pow(frac.denominator, -1, self.p) % self.p
        raise ValueError(f"non-integral value {value} in {self}")

    def add(self, a, b):
        c = a + b
        return c % self.p if self.kind == "Fp" else c

    def mul(self, a, b):
        c = a * b
        return c % self.p if self.kind == "Fp" else c

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    @property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def __str__(self) -> str:
        return f"GF({self.p})" if self.kind == "Fp" else self.kind


ZZ = Domain("Z")
QQ = Domain("Q")


def GF(p: int) -> Domain:
    """The prime field with ``p`` elements."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return Domain("Fp", p)


def binomial(m: int, alpha: int) -> int:
    """Exact binomial coefficient C(m, alpha); requires 0 <= alpha <= m."""
    if alpha < 0 or m < 0:
        raise ValueError(f"binomial({m}, {alpha}): arguments must be non-negative")
    if alpha > m:
        raise ValueError(f"binomial({m}, {alpha}): alpha exceeds m")
    return math.comb(m, alpha)


# ---------------------------------------------------------------------------
# Variables
# ---------------------------------------------------------------------------

NS_SCROLL = 0
NS_AUX = 1

# Auxiliary kinds, in sort order within the namespace.
AUX_U = 0  # u[i], block-scale parameters
AUX_TI = 1  # t[i], columns of the generic 2 x d matrix
AUX_S = 2
AUX_T = 3
AUX_Z = 4
AUX_W = 5
AUX_V = 6

_AUX_SCALAR_NAMES = {AUX_S: "s", AUX_T: "t", AUX_Z: "z", AUX_W: "w", AUX_V: "v"}


class VarId(NamedTuple):
    """A variable identifier: (namespace, block-or-kind, slot-or-index).

    Tuple comparison realizes the documented total order: all scroll
    variables (block-major, then slot) precede all auxiliary parameters.
    """

    ns: int
    block: int
    slot: int

    def render(self) -> str:
        if self.ns == NS_SCROLL:
            return f"x[{self.block}][{self.slot}]"
        if self.block == AUX_U:
            return f"u[{self.slot}]"
        if self.block == AUX_TI:
            return f"t[{self.slot}]"
        return _AUX_SCALAR_NAMES[self.block]


def x_var(block: int, slot: int) -> VarId:
    """Scroll variable ``x[block][slot]``; blocks are 1-based, slots 0-based."""
    if block < 1 or slot < 0:
        raise ValueError(f"invalid scroll variable indices ({block}, {slot})")
    return VarId(NS_SCROLL, block, slot)


def u_var(i: int) -> VarId:
    """Auxiliary scale parameter ``u[i]`` of block i."""
    if i < 1:
        raise ValueError("u[i] needs i >= 1")
    return VarId(NS_AUX, AUX_U, i)


def t_var(i: int) -> VarId:
    """Auxiliary column parameter ``t[i]`` of the generic 2 x d matrix."""
    if i < 1:
        raise ValueError("t[i] needs i >= 1")
    return VarId(NS_AUX, AUX_TI, i)


VAR_S = VarId(NS_AUX, AUX_S, 0)
VAR_T = VarId(NS_AUX, AUX_T, 0)
VAR_Z = VarId(NS_AUX, AUX_Z, 0)
VAR_W = VarId(NS_AUX, AUX_W, 0)
VAR_V = VarId(NS_AUX, AUX_V, 0)


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------


@total_ordering
class Monomial:
    """An exponent vector, stored sparsely as ((VarId, exp), ...) sorted by VarId.

    Instances are immutable and hashable.  The comparison order is graded
    (total degree first), ties broken reverse-lexicographically on the fixed
    variable order.
    """

    __slots__ = ("exps", "degree", "_hash")

    def __init__(self, exps: Iterable[tuple[VarId, int]] | Mapping[VarId, int] = ()):
        if isinstance(exps, Mapping):
            items = exps.items()
        else:
            items = exps
        cleaned = []
        for v, e in items:
            if e < 0:
                raise ValueError(f"negative exponent {e} for {v.render()}")
            if e > 0:
                cleaned.append((v, e))
        cleaned.sort()
        object.__setattr__(self, "exps", tuple(cleaned))
        object.__setattr__(self, "degree", sum(e for _, e in cleaned))
        object.__setattr__(self, "_hash", hash(self.exps))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Monomial is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __lt__(self, other: "Monomial") -> bool:
        return _grevlex_cmp(self, other) < 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        return _raw_monomial(_merge_exps(self.exps, other.exps))

    def __pow__(self, e: int) -> "Monomial":
        if e < 0:
            raise ValueError("negative monomial power")
        if e == 0:
            return _ONE_MONOMIAL
        return _raw_monomial(tuple((v, k * e) for v, k in self.exps))

    def exponent(self, v: VarId) -> int:
        for w, e in self.exps:
            if w == v:
                return e
        return 0

    def variables(self) -> tuple[VarId, ...]:
        return tuple(v for v, _ in self.exps)

    def render(self) -> str:
        return _factors_text(self.exps, VarId.render) if self.exps else "1"

    def __repr__(self) -> str:
        return f"Monomial({self.render()})"


def _raw_monomial(sorted_exps: tuple[tuple[VarId, int], ...]) -> Monomial:
    # Internal fast path: exponents already sorted, positive.
    m = Monomial.__new__(Monomial)
    object.__setattr__(m, "exps", sorted_exps)
    object.__setattr__(m, "degree", sum(e for _, e in sorted_exps))
    object.__setattr__(m, "_hash", hash(sorted_exps))
    return m


_ONE_MONOMIAL = Monomial()


def _merge_exps(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    out = []
    ia = ib = 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        va, ea = a[ia]
        vb, eb = b[ib]
        if va == vb:
            out.append((va, ea + eb))
            ia += 1
            ib += 1
        elif va < vb:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def _grevlex_cmp(a: Monomial, b: Monomial) -> int:
    """Graded reverse-lexicographic comparison; negative means a < b."""
    if a.degree != b.degree:
        return -1 if a.degree < b.degree else 1
    ea, eb = a.exps, b.exps
    ia, ib = 0, 0
    la, lb = len(ea), len(eb)
    # Walk from the smallest variable upwards; at the first variable where
    # the exponents differ, the monomial with the smaller exponent is larger.
    while ia < la and ib < lb:
        va, xa = ea[ia]
        vb, xb = eb[ib]
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


def monomial(pairs: Iterable[tuple[VarId, int]] | Mapping[VarId, int]) -> Monomial:
    """Public monomial constructor; merges duplicates and drops zero exponents."""
    if isinstance(pairs, Mapping):
        return Monomial(pairs)
    acc: dict[VarId, int] = {}
    for v, e in pairs:
        acc[v] = acc.get(v, 0) + e
    return Monomial(acc)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Sparse exact polynomial: a coefficient domain plus a monomial->coeff map.

    Instances are immutable values; every constructor and operation returns a
    canonical form (no zero coefficients).  Arithmetic requires both operands
    to share the same domain.
    """

    __slots__ = ("domain", "terms", "_hash")

    def __init__(self, domain: Domain, terms: Mapping[Monomial, object] = ()):
        canon: dict[Monomial, object] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            c = domain.coerce(coeff)
            if c == 0:
                continue
            prev = canon.get(mono)
            if prev is None:
                canon[mono] = c
            else:
                s = domain.add(prev, c)
                if s == 0:
                    del canon[mono]
                else:
                    canon[mono] = s
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(domain: Domain = ZZ) -> "Polynomial":
        return _raw_poly(domain, {})

    @staticmethod
    def const(value, domain: Domain = ZZ) -> "Polynomial":
        c = domain.coerce(value)
        if c == 0:
            return _raw_poly(domain, {})
        return _raw_poly(domain, {_ONE_MONOMIAL: c})

    @staticmethod
    def variable(v: VarId, domain: Domain = ZZ) -> "Polynomial":
        return _raw_poly(domain, {_raw_monomial(((v, 1),)): domain.one})

    @staticmethod
    def term(coeff, pairs, domain: Domain = ZZ) -> "Polynomial":
        """Single-term polynomial coeff * prod(v^e for v, e in pairs)."""
        c = domain.coerce(coeff)
        if c == 0:
            return _raw_poly(domain, {})
        return _raw_poly(domain, {monomial(pairs): c})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Largest term degree; -1 for the zero polynomial."""
        return max((m.degree for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {m.degree for m in self.terms}
        return len(degs) <= 1

    def num_terms(self) -> int:
        return len(self.terms)

    def variables(self) -> tuple[VarId, ...]:
        seen = set()
        for m in self.terms:
            seen.update(m.variables())
        return tuple(sorted(seen))

    def coefficient(self, mono: Monomial):
        return self.terms.get(mono, self.domain.zero)

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        """Terms in descending canonical order (leading term first)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    # -- ring operations -----------------------------------------------------

    def _check_domain(self, other: "Polynomial") -> None:
        if self.domain != other.domain:
            raise DomainMismatchError(
                f"domain mismatch: {self.domain} vs {other.domain}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_domain(other)
        dom = self.domain
        out = dict(self.terms)
        for mono, c in other.terms.items():
            prev = out.get(mono)
            if prev is None:
                out[mono] = c
            else:
                s = dom.add(prev, c)
                if s == 0:
                    del out[mono]
                else:
                    out[mono] = s
        return _raw_poly(dom, out)

    def __neg__(self) -> "Polynomial":
        dom = self.domain
        return _raw_poly(dom, {m: dom.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_domain(other)
        dom = self.domain
        if not self.terms or not other.terms:
            return _raw_poly(dom, {})
        # Iterate the shorter operand on the outside to keep merges cheap.
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Monomial, object] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                mono = ma * mb
                c = dom.mul(ca, cb)
                prev = out.get(mono)
                if prev is None:
                    out[mono] = c
                else:
                    s = dom.add(prev, c)
                    if s == 0:
                        del out[mono]
                    else:
                        out[mono] = s
        return _raw_poly(dom, out)

    def scale(self, value) -> "Polynomial":
        dom = self.domain
        c0 = dom.coerce(value)
        if c0 == 0:
            return _raw_poly(dom, {})
        return _raw_poly(dom, {m: dom.mul(c, c0) for m, c in self.terms.items()})

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.const(1, self.domain)
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e > 1
            e >>= 1
            if base_needed:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.domain, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- substitution and evaluation ------------------------------------------

    def substitute(
        self, images: Mapping[VarId, "Polynomial"], strict: bool = False
    ) -> "Polynomial":
        """Ring-homomorphism image under ``v -> images[v]``.

        Unmapped variables map to themselves unless ``strict`` is set, in
        which case they raise.  All images must share this polynomial's
        domain.
        """
        dom = self.domain
        for v, img in images.items():
            if img.domain != dom:
                raise DomainMismatchError(
                    f"image of {v.render()} lives in {img.domain}, not {dom}"
                )
        power_cache: dict[tuple[VarId, int], Polynomial] = {}

        def image_power(v: VarId, e: int) -> Polynomial:
            key = (v, e)
            hit = power_cache.get(key)
            if hit is not None:
                return hit
            img = images.get(v)
            if img is None:
                if strict:
                    raise ValueError(f"no image for variable {v.render()}")
                val = Polynomial.term(1, [(v, e)], dom)
            else:
                val = img**e
            power_cache[key] = val
            return val

        acc = Polynomial.zero(dom)
        for mono, coeff in self.terms.items():
            prod = Polynomial.const(coeff, dom)
            for v, e in mono.exps:
                prod = prod * image_power(v, e)
            acc = acc + prod
        return acc

    def eval(self, point: Mapping[VarId, object]):
        """Evaluate at a point; every variable of the polynomial must be mapped.

        Over GF(p) this is the fast path used by the variety enumerator: it
        caches per-variable powers and works directly on residues.
        """
        dom = self.domain
        p = dom.p
        power_cache: dict[tuple[VarId, int], object] = {}
        acc = dom.zero
        for mono, coeff in self.terms.items():
            val = coeff
            for v, e in mono.exps:
                key = (v, e)
                pw = power_cache.get(key)
                if pw is None:
                    try:
                        base = point[v]
                    except KeyError:
                        raise ValueError(f"no value for variable {v.render()}")
                    base = dom.coerce(base)
                    pw = pow(base, e, p) if p is not None else base**e
                    power_cache[key] = pw
                val = dom.mul(val, pw)
            acc = dom.add(acc, val)
        return acc

    def reduce_mod(self, q: int) -> "Polynomial":
        """Coefficientwise reduction of an integer polynomial into GF(q)."""
        if self.domain.kind != "Z":
            raise ValueError("reduce_mod applies to polynomials over Z")
        dom = GF(q)
        out = {}
        for mono, coeff in self.terms.items():
            c = coeff % q
            if c:
                out[mono] = c
        return _raw_poly(dom, out)

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.domain}, {format_poly(self)})"


def _raw_poly(domain: Domain, terms: dict) -> Polynomial:
    # Internal fast path: terms already canonical for this domain.
    p = Polynomial.__new__(Polynomial)
    object.__setattr__(p, "domain", domain)
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "_hash", None)
    return p


# ---------------------------------------------------------------------------
# Text form (printing; the parser lives in textio)
# ---------------------------------------------------------------------------


def _factors_text(exps, var_name) -> str:
    return "*".join([var_name(v) if e == 1 else f"{var_name(v)}^{e}" for v, e in exps])


def format_poly(p: Polynomial, var_name=VarId.render, space: str = " ") -> str:
    """Text of ``p``: terms in descending order, ``-`` folded into the joiner.

    ``var_name`` spells each variable and ``space`` pads the ``+``/``-``
    joiners.  The defaults give the canonical text that ``textio.parse_poly``
    reads; the script exporters pass their dialect's names and no padding.
    Coefficients print as ``str`` does, which for a reduced ``Fraction`` is
    ``a/b`` or, with denominator 1, the bare integer.
    """
    if not p.terms:
        return "0"
    plus, minus = f"{space}+{space}", f"{space}-{space}"
    parts: list[str] = []
    for mono, coeff in p.sorted_terms():
        mag = str(coeff)
        if mag[0] == "-":
            parts.append(minus)
            mag = mag[1:]
        else:
            parts.append(plus)
        if not mono.exps:
            parts.append(mag)
        else:
            factors = _factors_text(mono.exps, var_name)
            parts.append(factors if mag == "1" else f"{mag}*{factors}")
    parts[0] = "-" if parts[0] == minus else ""
    return "".join(parts)
