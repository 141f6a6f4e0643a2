"""Seeded random generation of cocycles, cocycle candidates and logarithms.

Everything takes a `random.Random` instance (or a seed) so test corpora are
reproducible. Cocycles are drawn from the span known to consist of
cocycles over a coassociative H: coboundaries of augmented elements plus
symmetric tensors of primitive generators. Candidates for biconditional
testing are arbitrary symmetric counit-zero tensors, which may or may not
be cocycles.
"""

import random
from fractions import Fraction

from .hopf import HopfElement, TensorElement
from .series import INF, Series

__all__ = [
    "random_cocycle",
    "random_logarithm",
    "random_rational",
    "random_symmetric_candidate",
]


def _rng(seed_or_rng):
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_rational(rng, num_bound=5, den_bound=4, nonzero=False):
    """Small random Fraction with |numerator| <= num_bound and
    1 <= denominator <= den_bound."""
    rng = _rng(rng)
    while True:
        q = Fraction(rng.randint(-num_bound, num_bound),
                     rng.randint(1, den_bound))
        if q != 0 or not nonzero:
            return q


def _positive_monomials(algebra):
    return [m for m in algebra.monomials() if algebra.degree(m) > 0]


def _augmented_element(algebra, rng, max_terms):
    """Random element of the augmentation ideal (counit zero)."""
    pool = _positive_monomials(algebra)
    if not pool:
        return HopfElement.zero(algebra)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(pool)
        terms[m] = terms.get(m, Fraction(0)) + random_rational(rng)
    terms = {m: q for m, q in terms.items() if q != 0}
    return HopfElement(algebra, terms)


def random_cocycle(algebra, seed_or_rng, max_terms=3):
    """Random symmetric 2-cocycle: a coboundary of a random augmented
    element plus a random symmetric combination of primitive generators.

    Over a coassociative H both families are cocycles (the cobar
    differential squares to zero on constants; primitives p, q satisfy
    the cocycle equation for p (x) q + q (x) p), so the output passes
    check_cocycle; over any other H (`HopfAlgebra.coassociative`) a
    coboundary need not be a cocycle. Over Q (no positive degree) zero is
    the only cocycle."""
    rng = _rng(seed_or_rng)
    from .fgl import coboundary

    c = coboundary(_augmented_element(algebra, rng, max_terms))
    names = algebra.names
    bound = algebra.degree_bound
    for i, a in enumerate(names):
        for b in names[i:]:
            if algebra.degrees[i] + algebra.degree(
                    algebra.generator_mono(b)) > bound:
                continue
            if not (algebra.is_primitive(a) and algebra.is_primitive(b)):
                continue
            if rng.random() < 0.5:
                continue
            q = random_rational(rng)
            if q == 0:
                continue
            p1 = HopfElement.generator(algebra, a)
            p2 = HopfElement.generator(algebra, b)
            pair = TensorElement.from_slots(p1, p2)
            if a != b:
                pair = pair + TensorElement.from_slots(p2, p1)
            c = c + pair * q
    return c


def random_symmetric_candidate(algebra, seed_or_rng, max_terms=3):
    """Random symmetric counit-zero tensor: sum of q * (m1 (x) m2 +
    m2 (x) m1) over random positive-degree monomial pairs, zero when
    there are none. Unlike random_cocycle the result need not satisfy the
    cocycle equation."""
    rng = _rng(seed_or_rng)
    pool = _positive_monomials(algebra)
    bound = algebra.degree_bound
    c = TensorElement.zero(algebra, 2)
    if not pool:
        return c
    for _ in range(rng.randint(1, max_terms)):
        m1 = rng.choice(pool)
        m2 = rng.choice(pool)
        if algebra.degree(m1) + algebra.degree(m2) > bound:
            continue
        q = random_rational(rng, nonzero=True)
        pair = TensorElement(algebra, 2, {(m1, m2): q})
        if m1 != m2:
            pair = pair + TensorElement(algebra, 2, {(m2, m1): q})
        c = c + pair
    return c


def random_logarithm(algebra, seed_or_rng, order, coeff_pool=None):
    """Random logarithm x + sum_{n=2..order} a_n x^n with a_n a random
    rational multiple of a monomial from coeff_pool (default: all basis
    monomials of the algebra, including 1). Returned as a complete
    polynomial (order = inf) so it can feed reconstruction at any
    working order."""
    rng = _rng(seed_or_rng)
    if coeff_pool is None:
        coeff_pool = list(algebra.monomials())
    terms = {(1,): TensorElement.unit(algebra, 1)}
    for n in range(2, order + 1):
        if rng.random() < 0.25:
            continue
        m = rng.choice(coeff_pool)
        q = random_rational(rng, nonzero=True)
        terms[(n,)] = TensorElement(algebra, 1, {(m,): q})
    return Series(algebra, 1, 1, terms, INF, ("x",))
