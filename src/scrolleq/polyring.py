"""Exact sparse multivariate polynomial arithmetic over Z and prime fields.

A polynomial is a finite map from monomials to nonzero coefficients; a
monomial is a finite map from variables to positive exponents.  Both maps are
kept canonical at all times: no zero exponent and no zero coefficient is ever
stored, so structural equality is mathematical equality.

Coefficients are exact: Python ints over Z, residues ``0 <= c < p`` over GF(p).

Variables come in two namespaces:

* scroll variables ``x[i][j]`` — block ``i >= 1``, slot ``0 <= j <= n_i``;
* auxiliary parameters used by the verification layer — indexed ``u[i]`` and
  ``t[i]``, and the scalars ``s``, ``t``, ``z``, ``w``, ``v``.

The variable order is total and fixed: scroll variables first (block-major,
then slot), auxiliary parameters after them (all ``u[i]``, then all ``t[i]``,
then ``s < t < z < w < v``).

A monomial is a plain tuple ``((VarId, exponent), ...)`` sorted by variable
with every exponent positive, so ``()`` is the monomial 1; ``monomial``
builds one from any pairs.  ``Polynomial.terms`` always maps such tuples to
coefficients.  Monomials are ordered by total degree first and
reverse-lexicographically on the variable order to break ties:
``grevlex_key`` gives that order as a sort key, and its descending order is
the print order.  Every ``Polynomial`` stores its terms in print order from
the moment it is made.  The constructor takes any (pairs, coefficient) items
and is the one place they are made canonical; it and ``+`` sort once, as
they build.  The internal ``_raw_poly`` wraps terms that are canonical and
in print order by construction: an unpacked result, a variable, and the
built families of ``scroll`` and ``verify``.  It sets the two slots through
their descriptors' own setters, past the refusing ``__setattr__``, as the
constructor does.  Negation, scaling and reduction keep their operand's
order.

Multiplication, powers and substitution compute on a packed form instead
(Monagan and Pearce, CASC 2007): each operation gives every variable it
involves a fixed bit field of one Python int, the smallest variable the most
significant, under a total-degree field, so a monomial product is an integer
addition and within one degree ascending keys are print order.  Each field
is as wide as an exact bound on the degrees the operation can produce, so no
field carries into the next.  The operation packs its inputs once and
unpacks its result once; ``pack`` sums each monomial's key in a plain loop,
since on Python 3.11 a comprehension per monomial is one more function call
(``grevlex_key`` and ``Substitution`` loop the same way).  A power
multiplies the packed base in e - 1 times (Gentleman, Math. Comp. 26, 1972;
Fateman, Stud. Appl. Math. 53, 1974).  A ``Substitution`` is a monomial
map, every image one term or zero, as the scroll's parametrization is: it
packs its images once, and then maps each term of many polynomials by
adding keys.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from typing import NamedTuple


class DomainMismatchError(ValueError):
    """Raised when an operation mixes polynomials over different domains."""


# ---------------------------------------------------------------------------
# Coefficient domains
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The smallest strong pseudoprime to every base in _MR_BASES.
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    The fixed witness set is exact for every n below ``_MR_LIMIT`` (about
    3.3e24), far beyond any modulus this package enumerates over; from there
    on it raises ValueError instead of guessing.
    """
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large for the primality test (limit {_MR_LIMIT})")
    for p in _MR_BASES:
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


class Domain(namedtuple("Domain", "p")):
    """Coefficient domain tag: the integers (``p`` is None) or GF(p), p prime."""

    __slots__ = ()
    # _replace builds through _make, so both check what the constructor checks.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, p: int | None = None):
        # A float or a bool would pass is_prime, so the type is compared exactly.
        if p is not None and (type(p) is not int or not is_prime(p)):
            raise ValueError(f"{p!r} is not prime")
        return super().__new__(cls, p)

    def coerce(self, value):
        """``value``, an ``int``, in this domain's canonical form; anything
        else raises ValueError."""
        if not isinstance(value, int):
            raise ValueError(f"non-integral value {value!r} in {self}")
        return value if self.p is None else value % self.p

    def __str__(self) -> str:
        return "Z" if self.p is None else f"GF({self.p})"


ZZ = Domain()


def GF(p: int) -> Domain:
    """The prime field with ``p`` elements."""
    return Domain(p)


def binomial_row(m: int) -> list[int]:
    """The signed binomial row (-1)^k * C(m, k) for k = 0..m, by running
    product: entry k + 1 is entry k times -(m - k) / (k + 1), a division
    that is always exact."""
    if m < 0:
        raise ValueError(f"binomial_row({m}): m must be non-negative")
    row = [1]
    for k in range(m):
        row.append(-row[k] * (m - k) // (k + 1))
    return row


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


def monomial(pairs: Iterable[tuple[VarId, int]] | Mapping[VarId, int]) -> tuple:
    """The monomial of ``pairs``: repeated variables merge, zero exponents
    drop out, and an exponent that is negative or not an ``int`` raises
    ValueError.  A list or tuple of ``(v, e)`` tuples already in that form,
    with strictly increasing variables and ``int`` exponents e >= 1, is
    returned as a tuple without the merge."""
    if type(pairs) is tuple or type(pairs) is list:
        last = None
        for pair in pairs:
            if (type(pair) is not tuple or len(pair) != 2 or type(pair[1]) is not int
                    or pair[1] < 1 or (last is not None and not last < pair[0])):
                break
            last = pair[0]
        else:
            return tuple(pairs)
    acc: dict[VarId, int] = {}
    for v, e in pairs.items() if isinstance(pairs, Mapping) else pairs:
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"non-integer or negative exponent {e!r} for {v.render()}")
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in acc.items() if e))


def grevlex_key(mono: tuple) -> tuple:
    """Sort key of the canonical order: total degree, then reverse
    lexicographic.  Walking up from the smallest variable, the first
    difference decides: weight on the smaller variable, or a smaller
    exponent on the same one, makes the larger monomial.  The tail is a
    list, which compares like a tuple and is cheaper to build."""
    degree, tail = 0, []
    for v, e in mono:
        degree += e
        tail.append((v, -e))
    return degree, tail


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Sparse exact polynomial: a coefficient domain plus a monomial->coeff map.

    Instances are immutable values, equal when their domains and terms are,
    and unhashable.  The constructor is the one public way to make one: it
    takes ``(pairs, coefficient)`` items in any form, passes each ``pairs``
    through ``monomial`` and each coefficient through ``Domain.coerce``, sums
    repeated monomials, drops zero sums and sorts the rest.  Every operation
    returns the same canonical form, in print order; only terms already in
    that form skip the constructor, through the internal ``_raw_poly``.
    Arithmetic requires both operands to share the same domain.
    """

    __slots__ = ("domain", "terms")

    def __init__(self, domain: Domain, terms: Mapping | Iterable = ()):
        acc: dict[tuple, object] = {}
        for pairs, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            mono = monomial(pairs)
            acc[mono] = acc.get(mono, 0) + domain.coerce(coeff)
        _set_domain(self, domain)
        _set_terms(self, _print_order(_canonical(acc, domain.p)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(value, domain: Domain = ZZ) -> "Polynomial":
        return Polynomial(domain, [((), value)])

    @staticmethod
    def variable(v: VarId, domain: Domain = ZZ) -> "Polynomial":
        return _raw_poly(domain, {((v, 1),): 1})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Largest term degree; -1 for the zero polynomial."""
        return max((sum(e for _, e in m) for m in self.terms), default=-1)

    def num_terms(self) -> int:
        return len(self.terms)

    def variables(self) -> tuple[VarId, ...]:
        return tuple(sorted({v for m in self.terms for v, _ in m}))

    # -- ring operations -----------------------------------------------------

    def _check_domain(self, other: "Polynomial") -> None:
        if self.domain != other.domain:
            raise DomainMismatchError(
                f"domain mismatch: {self.domain} vs {other.domain}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_domain(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return _raw_poly(self.domain, _print_order(_canonical(out, self.domain.p)))

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_domain(other)
        dom = self.domain
        if not self.terms or not other.terms:
            return _raw_poly(dom, {})
        packing = _Packing(
            {*self.variables(), *other.variables()}, self.total_degree() + other.total_degree()
        )
        product = _packed_mul(packing.pack(self.terms), packing.pack(other.terms), dom.p)
        return packing.unpack(dom, product)

    def scale(self, value) -> "Polynomial":
        dom = self.domain
        c0 = dom.coerce(value)
        terms = _canonical({m: c * c0 for m, c in self.terms.items()}, dom.p)
        return _raw_poly(dom, terms)

    def __pow__(self, e: int) -> "Polynomial":
        """``self ** e``: the packed base multiplied in e - 1 times, which for
        sparse polynomials beats repeated squaring (Gentleman; Fateman):
        bridge(3, 4)^8 takes about half as long.  Squaring wins only on tiny
        bases, by under 0.1 ms for 2 or 3 terms, and on a single term
        (x^100000: 0.03 ms against 0.1-0.2 s), which no command powers."""
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"non-integer or negative polynomial power {e!r}")
        if e == 0:
            return Polynomial.const(1, self.domain)
        if e == 1 or not self.terms:
            return self
        packing = _Packing(self.variables(), self.total_degree() * e)
        base = power = packing.pack(self.terms)
        for _ in range(e - 1):
            power = _packed_mul(power, base, self.domain.p)
        return packing.unpack(self.domain, power)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.domain == other.domain
            and self.terms == other.terms
        )

    # -- substitution ---------------------------------------------------------

    def substitute(self, images: Mapping[VarId, "Polynomial"]) -> "Polynomial":
        """Ring-homomorphism image under ``v -> images[v]``.

        Every variable of this polynomial needs an image, and all images must
        share its domain and be single terms or zero; a multi-term image
        raises ValueError.  This is a ``Substitution`` prepared for this one
        polynomial.
        """
        return Substitution(images, self.domain, max(0, self.total_degree()))(self)

    def reduce_mod(self, q: int) -> "Polynomial":
        """Coefficientwise reduction of an integer polynomial into GF(q)."""
        if self.domain.p is not None:
            raise ValueError("reduce_mod applies to polynomials over Z")
        return _raw_poly(GF(q), _canonical(self.terms, q))

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.domain}, {format_poly(self)})"


# The slot descriptors' own setters, which skip the refusing __setattr__.
_set_domain = Polynomial.domain.__set__
_set_terms = Polynomial.terms.__set__


def _raw_poly(domain: Domain, terms: dict) -> Polynomial:
    # Internal: wraps ``terms`` as they are, so they must already be in
    # canonical form for ``domain`` and in print order, the invariant of
    # every Polynomial; everything else goes through the constructor.
    p = Polynomial.__new__(Polynomial)
    _set_domain(p, domain)
    _set_terms(p, terms)
    return p


def _print_order(terms: dict) -> dict:
    """``terms``, a canonical monomial map, in print order."""
    if len(terms) < 2:
        return terms
    return {m: terms[m] for m in sorted(terms, key=grevlex_key, reverse=True)}


# ---------------------------------------------------------------------------
# Packed exponent vectors
# ---------------------------------------------------------------------------


class _Packing:
    """Graded bit fields for one operation: of k variables, the i-th in the
    fixed order (from 1) owns bits [(k - i) * width, (k - i + 1) * width) of
    a packed key and the total degree the bits from k * width up, so
    ``mult[v]`` adds one to both.  ``bound`` must bound the degree of every
    monomial the operation produces, so adding keys never carries.  Within
    one degree, ascending keys are descending ``grevlex_key`` order.
    """

    __slots__ = ("width", "mult")

    def __init__(self, variables: Iterable[VarId], bound: int):
        width = self.width = bound.bit_length()
        ordered = sorted(variables)
        degree = 1 << len(ordered) * width
        self.mult = {v: degree | degree >> i * width for i, v in enumerate(ordered, 1)}

    def pack(self, terms: Mapping[tuple, object]) -> dict[int, object]:
        mult, packed = self.mult, {}
        for m, c in terms.items():
            key = 0
            for v, e in m:
                key += e * mult[v]
            packed[key] = c
        return packed

    def unpack(self, domain: Domain, packed: Mapping[int, object]) -> Polynomial:
        """The polynomial of canonical packed terms, in print order: keys
        ascending, then grouped by descending degree if of several degrees."""
        width = self.width
        mask, top = (1 << width) - 1, len(self.mult) * width
        fields = [(v, top - i * width) for i, v in enumerate(self.mult, 1)]
        keys = sorted(packed)
        if keys and keys[0] >> top != keys[-1] >> top:
            keys.sort(key=lambda key: -(key >> top))  # stable: keeps each degree's order
        return _raw_poly(domain, {
            tuple([(v, e) for v, s in fields if (e := key >> s & mask)]): packed[key]
            for key in keys
        })


def _canonical(packed: dict, p: int | None) -> dict:
    """Drop zero coefficients; over GF(p) (``p`` set) reduce the rest first.
    Keys pass through as they are, packed ints or monomial tuples."""
    if p is None:
        return {k: c for k, c in packed.items() if c}
    return {k: r for k, c in packed.items() if (r := c % p)}


def _packed_mul(a: dict, b: dict, p: int | None) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out: dict[int, object] = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return _canonical(out, p)


class Substitution:
    """The monomial map ``v -> images[v]``, prepared once to map any number of
    polynomials over ``domain`` of total degree at most ``degree``.

    Every image must be a single term or zero, and share ``domain``; both are
    checked here, and a multi-term image raises ValueError.  Each image is
    kept as its packed key and coefficient, so ``v^e`` maps to ``e`` times
    the key and the ``e``-th power of the coefficient.  A zero image is key 0
    with coefficient 0, which empties every term it is in.  A field is as
    wide as ``degree`` times the largest image degree, which bounds the
    degree of every image.  Every variable of a mapped polynomial
    needs an image.
    """

    __slots__ = ("domain", "degree", "_packing", "_monomials")

    def __init__(self, images: Mapping[VarId, Polynomial], domain: Domain, degree: int):
        # One pass reads each image's domain, single term, degree and variables.
        terms, top, variables = {}, 0, set()
        for v, img in images.items():
            if img.domain != domain:
                raise DomainMismatchError(
                    f"image of {v.render()} lives in {img.domain}, not {domain}"
                )
            if len(img.terms) > 1:
                raise ValueError(f"image of {v.render()} is not a single term: {img}")
            mono, _ = terms[v] = next(iter(img.terms.items()), ((), 0))
            degree_v = 0
            for w, e in mono:
                degree_v += e
                variables.add(w)
            top = max(top, degree_v)
        self.domain, self.degree = domain, degree
        self._packing = _Packing(variables, degree * top)
        mult, monomials = self._packing.mult, {}
        for v, (mono, c) in terms.items():
            key = 0
            for w, e in mono:
                key += e * mult[w]
            monomials[v] = (key, c)
        self._monomials = monomials

    def _images(self, polys: Iterable[Polynomial]):
        """The packed image of each of ``polys``, in turn: each term's image
        is a key and a coefficient, summed by key, with zero sums kept and,
        over GF(p), sums not reduced.  The running degree is checked before
        each power of an image coefficient is taken."""
        domain, monomials, bound = self.domain, self._monomials, self.degree
        for poly in polys:
            if poly.domain != domain:
                raise DomainMismatchError(f"domain mismatch: {poly.domain} vs {domain}")
            out = {}
            for mono, c in poly.terms.items():
                key = degree = 0
                for v, e in mono:
                    degree += e
                    if degree > bound:
                        raise ValueError(
                            f"degree {poly.total_degree()} exceeds the prepared bound {bound}"
                        )
                    try:
                        k, fc = monomials[v]
                    except KeyError:
                        raise ValueError(f"no image for variable {v.render()}") from None
                    key, c = key + e * k, c * fc**e
                out[key] = out.get(key, 0) + c
            yield out

    def __call__(self, poly: Polynomial) -> Polynomial:
        (image,) = self._images([poly])
        return self._packing.unpack(self.domain, _canonical(image, self.domain.p))

    def vanishing(self, polys: Iterable[Polynomial]) -> list[bool]:
        """Whether each of ``polys`` maps to zero: every sum of its image is
        0, mod p over GF(p).  No image is made canonical or unpacked."""
        p = self.domain.p
        return [not any([c % p for c in image.values()] if p else image.values())
                for image in self._images(polys)]


# ---------------------------------------------------------------------------
# Text form (printing; the parser lives in textio)
# ---------------------------------------------------------------------------


def int_text(n: int) -> str:
    """Decimal text of ``n`` at any length, 500 digits at a time: what the
    printers write once ``str`` refuses ``n``, past the int-to-str digit limit."""
    high, low = divmod(abs(n), 10**500)
    return "-" * (n < 0) + (f"{int_text(high)}{low:0500d}" if high else str(low))


def format_poly(p: Polynomial, var_name=VarId.render, space: str = " ",
                spelled: dict[tuple[VarId, int], str] | None = None) -> str:
    """Text of ``p``: terms in descending order, ``-`` folded into the joiner.

    ``var_name`` spells each variable and ``space`` pads the ``+``/``-``
    joiners.  The defaults give the canonical text that ``textio.parse_poly``
    reads; the script exporters pass their dialect's names and no padding.
    Each distinct (variable, exponent) factor is spelled once into
    ``spelled``: a new table, or one that a printer passes to every call of
    one output with the same ``var_name``.
    """
    if not p.terms:
        return "0"
    plus, minus = f"{space}+{space}", f"{space}-{space}"
    spelled = {} if spelled is None else spelled
    parts: list[str] = []
    for mono, coeff in p.terms.items():
        try:
            mag = str(coeff)
        except ValueError:  # past the int-to-str digit limit
            mag = int_text(coeff)
        if mag[0] == "-":
            parts.append(minus)
            mag = mag[1:]
        else:
            parts.append(plus)
        if not mono:
            parts.append(mag)
        else:
            names = []
            for factor in mono:
                name = spelled.get(factor)
                if name is None:
                    v, e = factor
                    name = spelled[factor] = var_name(v) if e == 1 else f"{var_name(v)}^{e}"
                names.append(name)
            factors = "*".join(names)
            parts.append(factors if mag == "1" else f"{mag}*{factors}")
    parts[0] = "-" if parts[0] == minus else ""
    return "".join(parts)
