"""The correspondence between cobar 2-cocycles and group laws of the form
F = c + X + Y, walked through over Q[t] with t primitive of degree 2.

A symmetric constant c with zero counit projections makes c + X + Y a
commutative one-dimensional group law exactly when c is a 2-cocycle, and
every failure on one side shows up as a matching defect on the other.

Run:  python3 demos/cocycle_lemma.py
"""

from fglog import (
    INF,
    Series,
    TensorElement,
    associativity_defect,
    builtin_algebra,
    check_axioms,
    check_cocycle,
    coboundary,
    cocycle_defect,
    extract_cocycle,
    lemma_law,
    logarithm,
    reconstruct,
)
from fglog.exprparse import parse_element, parse_tensor


def banner(text):
    print()
    print(text)
    print("-" * len(text))


alg = builtin_algebra("qt2")
tt = parse_tensor("t (x) t", alg, arity=2)
t2 = parse_element("t^2", alg)

# -- cocycles and their laws --------------------------------------------------

banner("coboundaries are cocycles")
h = t2 + parse_element("t^3", alg) * 2
dh = coboundary(h)
print("d(t^2 + 2 t^3) =", dh)
print("check_cocycle:", check_cocycle(dh))

banner("c = 2(t x t) and its group law")
c = tt * 2
F = lemma_law(alg, c)
print("F =", F)
print("axioms:", check_axioms(F, order=6))
print("logarithm is plain x:", logarithm(F, order=6))

banner("extraction inverts construction")
print("extract_cocycle(F) == c:", extract_cocycle(F, order=6) == c)

# -- a non-cocycle and its matching defects -----------------------------------

banner("c = t (x) t^2 fails on both sides, with the same defect")
bad = parse_tensor("t (x) t^2", alg, arity=2)
rep_c = check_cocycle(bad)
print("check_cocycle:", rep_c)
G = lemma_law(alg, bad)
rep_g = check_axioms(G, order=6)
print("check_axioms:", rep_g)
print("associativity defect constant equals the cobar defect:",
      associativity_defect(G).coeff((0, 0, 0)) == cocycle_defect(bad))

# -- reconstruction from (cocycle, logarithm) ---------------------------------

banner("reconstruct from c = 2(t x t) and g = x + t x^2")
g = parse_element("t", alg)  # coefficient for the x^2 term
glog = Series(alg, 1, 1,
              {(1,): TensorElement.unit(alg, 1), (2,): g}, INF, ("x",))
F2 = reconstruct(alg, c, glog, order=6)
print("F through order 3:", F2.truncate(3))
print("recovered logarithm:", logarithm(F2, order=4))
print("recovered cocycle:", extract_cocycle(F2))
