"""Frozen expected values used by the scroll and acceptance tests.

Each bridge table lists (coefficient, first-block exponents, second-block
exponents) per term, with exponents keyed by slot.  The tables were expanded
by hand from the signed-binomial definitions and are deliberately independent
of the construction code: tests build polynomials from them with nothing but
the raw term constructor.
"""

from __future__ import annotations

from scrolleq import ZZ, Polynomial, x_var

# Bridge of blocks with degrees (2, 4): m=4, degree-2 list against degree-1 list.
BRIDGE_2_4 = [
    (1, {2: 2}, {0: 1}),
    (-4, {1: 1, 2: 1}, {1: 1}),
    (6, {1: 2}, {2: 1}),
    (-4, {0: 1, 1: 1}, {3: 1}),
    (1, {0: 2}, {4: 1}),
]

# Bridge of blocks with degrees (2, 3): m=6, degree-3 list against degree-2 list.
BRIDGE_2_3 = [
    (1, {2: 3}, {0: 2}),
    (-6, {1: 1, 2: 2}, {0: 1, 1: 1}),
    (15, {1: 2, 2: 1}, {1: 2}),
    (-20, {1: 3}, {1: 1, 2: 1}),
    (15, {0: 1, 1: 2}, {2: 2}),
    (-6, {0: 2, 1: 1}, {2: 1, 3: 1}),
    (1, {0: 3}, {3: 2}),
]

# Bridge of equal blocks (2, 2): m=2, the three-term signed pairing.
BRIDGE_2_2 = [
    (1, {2: 1}, {0: 1}),
    (-2, {1: 1}, {1: 1}),
    (1, {0: 1}, {2: 1}),
]

# Bridge of blocks (3, 4): m=12, coefficients C(12, .) with alternating signs.
BRIDGE_3_4 = [
    (1, {3: 4}, {0: 3}),
    (-12, {2: 1, 3: 3}, {0: 2, 1: 1}),
    (66, {2: 2, 3: 2}, {0: 1, 1: 2}),
    (-220, {2: 3, 3: 1}, {1: 3}),
    (495, {2: 4}, {1: 2, 2: 1}),
    (-792, {1: 1, 2: 3}, {1: 1, 2: 2}),
    (924, {1: 2, 2: 2}, {2: 3}),
    (-792, {1: 3, 2: 1}, {2: 2, 3: 1}),
    (495, {1: 4}, {2: 1, 3: 2}),
    (-220, {0: 1, 1: 3}, {3: 3}),
    (66, {0: 2, 1: 2}, {3: 2, 4: 1}),
    (-12, {0: 3, 1: 1}, {3: 1, 4: 2}),
    (1, {0: 4}, {4: 3}),
]

# Curve equations per block degree: (coefficient, slot -> exponent) terms.
CURVE_2_1 = [(1, {0: 1, 2: 1}), (-1, {1: 2})]
CURVE_3_2 = [(1, {0: 1, 3: 2}), (-2, {1: 1, 2: 1, 3: 1}), (1, {2: 3})]
CURVE_4_3 = [
    (1, {0: 1, 4: 3}),
    (-3, {1: 1, 3: 1, 4: 2}),
    (3, {2: 1, 3: 2, 4: 1}),
    (-1, {3: 4}),
]


def bridge_from_table(table, x_block: int, y_block: int) -> Polynomial:
    """Instantiate a frozen bridge table on a given pair of blocks."""
    terms = []
    for coeff, xe, ye in table:
        pairs = [(x_var(x_block, j), e) for j, e in xe.items()]
        pairs += [(x_var(y_block, h), e) for h, e in ye.items()]
        terms.append((pairs, coeff))
    return Polynomial(ZZ, terms)


def curve_from_table(table, block: int) -> Polynomial:
    return Polynomial(
        ZZ, [([(x_var(block, j), e) for j, e in exps.items()], coeff) for coeff, exps in table]
    )
