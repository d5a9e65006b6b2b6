"""Slow reference implementations that the tests compare the library against.

* ``bridge_via_lists`` builds a bridge from its two explicit monomial lists,
  independently of ``scroll.bridge``.
* ``schoolbook_mul``, ``schoolbook_pow`` and ``schoolbook_substitute`` compute
  on dicts of ``Monomial`` directly, with no packed exponents: the multiply
  is the one ``Polynomial.__mul__`` used before packing, the power is
  repeated multiplication and the substitution expands term by term.
* ``evaluate`` computes a polynomial's value at a point term by term; the
  finite-field scan runs generated code instead, and the tests check that
  code against it.
"""

from scrolleq import ZZ, Polynomial, binomial, bridge_meta, monomial, x_var


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
    """Every term of ``a`` times every term of ``b``, keyed by ``Monomial``."""
    assert a.domain == b.domain
    dom = a.domain
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mono = monomial(ma.exps + mb.exps)
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
        for v, e in mono.exps:
            img = images.get(v, Polynomial.variable(v, dom))
            prod = schoolbook_mul(prod, schoolbook_pow(img, e))
        acc = acc + prod
    return acc


def evaluate(p: Polynomial, point):
    """The value of ``p`` at ``point``, a map that must give every variable
    of ``p`` a value in (or coercible into) its domain."""
    dom = p.domain
    power_cache = {}
    acc = dom.zero
    for mono, coeff in p.terms.items():
        val = coeff
        for v, e in mono.exps:
            pw = power_cache.get((v, e))
            if pw is None:
                try:
                    base = dom.coerce(point[v])
                except KeyError:
                    raise ValueError(f"no value for variable {v.render()}") from None
                pw = pow(base, e, dom.p) if dom.p is not None else base**e
                power_cache[v, e] = pw
            val = dom.mul(val, pw)
        acc = dom.add(acc, val)
    return acc
