"""Classical power series oracle over plain rationals.

A deliberately independent implementation of the logarithm of a classical
(rational-coefficient, one-dimensional) formal group law: polynomials are
bare dicts mapping exponent tuples to Fraction, and the logarithm is found
by brute-force coefficient solving of g(F(x, y)) = g(x) + g(y) rather than
by inverting the invariant differential. The tensor series engine and this
module cross-check each other in the test suite; nothing here imports from
fglog.
"""

from fractions import Fraction

__all__ = [
    "additivity_defect",
    "classical_logarithm",
    "poly_add",
    "poly_mul",
    "poly_scale",
    "poly_truncate",
]


def poly_truncate(terms, order):
    """Drop monomials of total degree above the order."""
    return {e: q for e, q in terms.items() if sum(e) <= order and q != 0}


def poly_add(a, b):
    out = dict(a)
    for e, q in b.items():
        s = out.get(e, 0) + q
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_scale(a, q):
    q = Fraction(q)
    if q == 0:
        return {}
    return {e: c * q for e, c in a.items()}


def poly_mul(a, b, order):
    """Product truncated at total degree `order`."""
    out = {}
    for ea, qa in a.items():
        da = sum(ea)
        if da > order:
            continue
        for eb, qb in b.items():
            if da + sum(eb) > order:
                continue
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + qa * qb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _check_classical_law(F):
    if F.get((0, 0), 0) != 0:
        raise ValueError("classical law must have zero constant term")
    if F.get((1, 0), 0) != 1 or F.get((0, 1), 0) != 1:
        raise ValueError("classical law must start x + y + (higher)")


def classical_logarithm(F, order):
    """Coefficients a_1..a_order of the additivity-normalizing series
    g(x) = sum a_n x^n with g(F(x, y)) = g(x) + g(y), for a classical law
    F given as {(i, j): Fraction}.

    Solved degree by degree from the x^(n-1) y coefficient of the
    functional equation, then the whole equation is re-verified through
    the requested order (ValueError when F is not a formal group law).
    Returns the list [a_1, ..., a_order].
    """
    order = int(order)
    if order < 1:
        raise ValueError("order must be at least 1")
    _check_classical_law(F)
    F = poly_truncate({e: Fraction(q) for e, q in F.items()}, order)

    powers = [None, F]
    for k in range(2, order + 1):
        powers.append(poly_mul(powers[-1], F, order))

    coeffs = [Fraction(1)]
    for n in range(2, order + 1):
        probe = (n - 1, 1)
        acc = Fraction(0)
        for k in range(1, n):
            acc += coeffs[k - 1] * powers[k].get(probe, 0)
        lead = powers[n].get(probe, 0)
        if lead == 0:
            raise ValueError(
                f"degenerate law: x^{n-1} y coefficient of F^{n} vanishes")
        coeffs.append(-acc / lead)

    defect = additivity_defect(coeffs, F, order)
    if defect:
        worst = sorted(defect)[0]
        raise ValueError(
            "no additive logarithm: defect at "
            f"x^{worst[0]} y^{worst[1]} is {defect[worst]}")
    return coeffs


def additivity_defect(coeffs, F, order):
    """g(F(x, y)) - g(x) - g(y) truncated at total degree `order`, for
    g given by its coefficient list [a_1, a_2, ...]."""
    F = poly_truncate({e: Fraction(q) for e, q in F.items()}, order)
    # Horner: g(u) = u * (a_1 + u * (a_2 + ...))
    acc = {}
    for a in reversed([Fraction(q) for q in coeffs]):
        acc = poly_mul(acc, F, order)
        if a:
            acc = poly_add(acc, {(0, 0): a})
    out = poly_mul(acc, F, order)
    for n, a in enumerate((Fraction(q) for q in coeffs), start=1):
        if n > order or a == 0:
            continue
        for e in ((n, 0), (0, n)):
            s = out.get(e, 0) - a
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return poly_truncate(out, order)
