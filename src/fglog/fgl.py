"""Formal group laws over graded connected Hopf algebras.

A group law is a Series F in two variables (X, Y) whose coefficients live
in H (x) H. The operations here verify the group axioms, compute the
invariant differential and logarithm, extract the constant 2-cocycle from
the twisted logarithm equation

    (Delta g)(F(X, Y)) = c + (g (x) 1)(X) + (1 (x) g)(Y),

check the cobar cocycle conditions, and reconstruct F from (c, g) by
inverting that equation. Sign conventions: the associativity defect is the
right-associated composite minus the left-associated one, so for a
Lemma-form law c + X + Y it coincides term by term with the cobar defect

    (id (x) Delta)c + 1 (x) c - (Delta (x) id)c - c (x) 1.

Symmetry by reversal: the symmetry defect F - tau F(Y, X) is F minus its
copy with the variables and the tensor slots in reverse order, moved on
its codes by `Series.permute_vars` and the slot placement of the slot
maps, in one subtraction (`symmetry_defect`).

Associativity from one composite: when H is cocommutative and F equals its
flip in all its stored terms, the left composite F(F(X, Y), Z) is the right
one F(X, F(Y, Z)) with X and Z swapped and the tensor slots reversed, the
classical step by which commutativity and one associativity composite
suffice (Hazewinkel, Formal Groups and Applications, 1978). The defect is
then one composite minus its reversal. The axiom gate of
check_axioms decides on the left composite through the checked order,
summed from the powers of F(X, Y) into one accumulator (`_gate_composite`),
with no `truncated` flag. Both composites give the same terms and certified
order, so a passing report carries no defect. A reported defect is that of
associativity_defect: F(X, F(Y, Z)), computed by Horner, minus its
reversal, formed once the gate is nonzero with no second symmetry check.
Its Horner rows in (Y, Z) are truncated at the full substitution cap, so
after the swap it forms every pair of terms that the left composite's
Horner products form, and more, and its `truncated` flag is that of both
composites. Any other F, including one whose constant term is outside the
augmentation ideal, takes the two-composite path.

Truncation bookkeeping: substituting a series whose constant term is a
nonzero nilpotent (the Lemma-form constant c, or the inverse series'
constant theta_0) costs its nilpotency slack in certified order, so the
verification and reconstruction routines work at an elevated internal order
and certify the caller's order honestly, raising TruncationInsufficient
when the stored data cannot support the request.

Substitutions and the `truncated` flag, one per series (a coefficient
carries none): Horner (Series.substitute, `series._horner`) forms the
flag of every step, keeping only the terms that reach the order its
caller reads once the flag is settled, and serves only where a flag is
output: reconstruct, check_log's invariance route and the associativity
composites; they move to the evaluator once the flag is dropped.
check_axioms forms its composites through the checked order, where its
report cuts every defect. reconstruct reverts g over H, whose checks
are the reversion's, lifts the coefficients of g^-1 straight into the
substitution's constants (`series._mapped_parts`), places
c + g (x) 1 + 1 (x) g in the substitution's layout in one pass over the
codes of c and g (`_Codec.placed`), and runs Horner under the order
rule with the slack of c, computed once; over a coassociative H, where
nothing reads F past `order`, it substitutes through `order`. The
twisted residual (Delta g)(F) - g (x) 1 - 1 (x) g prints no flag, so
extract_cocycle and check_log's functional route sum it by the packed
evaluator, expanded about F(0, 0) (`_packed_residual`), its constants
lifted off g's codes in the same way, under the same order rule
(`series._substitution_order`), read off g, with the logarithm kept on
F.

Reconstruction by the theorem: over a coassociative H, reconstruct reads
the axioms of F solved from (Delta g)(F) = c + (g (x) 1)(X) + (1 (x) g)(Y)
off c, forming no composite. Delta (x) id, id (x) Delta and id (x) eps
give, with D = (Delta (x) id)Delta g = (id (x) Delta)Delta g and G the sum
of g(X), g(Y) and g(Z) in tensor slots 0, 1 and 2,
    D(F(F(X, Y), Z)) = (Delta (x) id)c + c (x) 1 + G,
    D(F(X, F(Y, Z))) = (id (x) Delta)c + 1 (x) c + G,
    g((id (x) eps)F(X, 0)) = g(X) + (id (x) eps)c,
and D is invertible under composition: F is associative exactly when c is
a cobar 2-cocycle, unital exactly when its counit projections vanish, and
over a cocommutative H symmetric exactly when c = tau c (else one reversal
of F decides). This needs H commutative and Delta a coassociative,
degree-keeping ring homomorphism; for g = x it is the Lemma-form fact
(Hazewinkel, 1978). build_hopf_algebra accepts a Delta that is not
coassociative (`HopfAlgebra.coassociative`), where the two sides of D
can differ, so over such an H the axiom gate of check_axioms decides.
"""

import math

from .errors import (
    AxiomViolation,
    CocycleViolation,
    NoInverse,
    NonInvertibleConstantTerm,
    NonZeroConstantTerm,
    NotAugmented,
    ResidualNonConstant,
    ShapeMismatch,
    TruncationInsufficient,
)
from .hopf import TensorElement
from .packed import _MINUS_UNIT, _UNIT, _Packed
from .report import Report, Violation
from .series import (
    Series,
    _constant,
    _doubling_orders,
    _evaluate,
    _in,
    _mapped_parts,
    _requested_order,
    _series_mul,
    _slack,
    _substituted,
    _substitution_order,
)

INF = math.inf

XY = ("X", "Y")
XYZ = ("X", "Y", "Z")


# -- constructors ------------------------------------------------------------

def additive_law(algebra, order=INF):
    """F(X, Y) = X + Y."""
    return (Series.variable(algebra, 2, 2, 0, order, XY)
            + Series.variable(algebra, 2, 2, 1, order, XY))


def lemma_law(algebra, cocycle, order=INF):
    """Lemma-form law F(X, Y) = c + X + Y for a constant c in H (x) H."""
    return Series.constant(cocycle, 2, order, XY) + additive_law(
        algebra, order)


# -- axiom verification ------------------------------------------------------

def _lift_inner(F, slots):
    """F with coefficients embedded into three tensor slots and variables
    placed at the matching positions of (X, Y, Z), in one pass over its
    codes (`_Codec.placed`)."""
    codec = F._codec.like(3, XYZ, F.max_degree())
    return Series._of(codec, codec.placed([(F, slots[0])]))


def associativity_defect(F):
    """F(X, F(Y, Z)) - F(F(X, Y), Z) as a three-variable series over
    H (x) H (x) H.

    For a law equal to its flip over a cocommutative H the left composite
    is the right one with X and Z swapped and the tensor slots reversed,
    so only the right one is computed (see the module docstring)."""
    return _composites_defect(F, symmetry_defect(F))


def _composites_defect(F, sym, cert=None):
    """The associativity defect of F through `cert`, given its symmetry
    defect `sym`. One composite serves when H is cocommutative, F(0, 0)
    lies in the augmentation ideal and F equals its flip; with a cert
    (check_axioms) the gate decides first and a passing gate is the
    defect. Any other F takes both composites, the left one first."""
    if not (F.algebra.cocommutative and sym.is_zero()
            and F.constant_term().full_counit() == 0):
        outer, assigns = _left(F)
        left = outer.substitute(assigns, cert)
        return _right_composite(F, cert) - left
    if cert is not None:
        gate = symmetry_defect(_gate_composite(F, cert))
        if gate.is_zero():
            return gate
    return symmetry_defect(_right_composite(F, cert))


def _left(F):
    """The substitution (outer series, assignments) of the left composite
    F(F(X, Y), Z): Horner over F(X, Y) outside, the bare Z inside."""
    z_var = Series.variable(F.algebra, 3, 3, 2, INF, XYZ)
    return F.apply_slot(0, "comul"), [_lift_inner(F, (0, 1)), z_var]


def _right_composite(F, order=None):
    """The right composite F(X, F(Y, Z)) through `order`: Horner over the
    bare X outside, F(Y, Z) inside."""
    x_var = Series.variable(F.algebra, 3, 3, 0, INF, XYZ)
    return F.apply_slot(1, "comul").substitute(
        [x_var, _lift_inner(F, (1, 2))], order)


def _composite_order(F):
    """Certified order of the associativity composites by their
    substitutions' order rule (`series._slack`), read off F:
    (Delta (x) id)F and (id (x) Delta)F have F's exponents, because
    (eps (x) id)Delta = id, and the one assigned constant is F(0, 0),
    named X when X occurs (left composite), else Y (right). A finite F's
    unknown tail holds X, so its slack is charged even when no variable
    occurs."""
    exponents = F._exponents()
    charged = [v for v in range(2) if any(e[v] for e in exponents)][:1]
    if F.order != INF:
        charged = charged or [0]
    return F.order - sum(_slack(F.names[v], F.constant_term())
                         for v in charged)


def _gate_composite(F, cert):
    """F(F(X, Y), Z) through order cert: the sum over k of U^k G_k(Z)
    with G_k(Z) = sum_j (Delta (x) id)F_kj Z^j, split off the lifted F's
    codes and accumulated in one kernel call (`_Packed.sum_of_products`).
    U = F(X, Y) is re-laid once in the three-slot layout (third slot and
    Z zero) and each power formed once, up to the first that is zero
    through cert: the rows past it add nothing. Terms of U above cert
    cannot reach cert; those of F can, through the powers of a nilpotent
    F(0, 0). It carries no `truncated` flag of the Horner composite. Once
    the flag is gone, this is the evaluator that replaces multivariate
    Horner (Brent and Kung, JACM 1978; Paterson and Stockmeyer, 1973)."""
    codec = F.algebra._codec(3, XYZ,
                             cert if cert != INF else F.max_degree() ** 2)
    powers = [Series._of(codec, _UNIT), _in(codec, F.truncate(cert))]
    lifted = F.apply_slot(0, "comul")
    groups = lifted._codec.split(
        lifted._packed, codec,
        lambda e: (e[0], (0, 0, e[1])) if e[1] <= cert else None)
    while (len(powers) <= max(groups, default=0)
           and powers[-1]._packed.buckets):
        powers.append(_series_mul(powers[-1], powers[1], keep=cert))
    rows = [(powers[k]._packed, G) for k, G in groups.items()
            if k < len(powers)]
    return Series._of(codec, _Packed.sum_of_products(
        rows, cert, F.algebra.degree_bound))


def symmetry_defect(F):
    """F(X, Y) - tau F(Y, X), for a series of any arity and variable
    count: F minus its copy with the variables and the tensor slots in
    reverse order, in one subtraction, which keeps F's order and flag."""
    flipped = F.permute_vars(range(F.nvars)[::-1])
    return F - flipped._placed(range(F.arity)[::-1], F.arity)


def unit_defects(F):
    """(id (x) eps)F(X, 0) - X and (eps (x) id)F(0, Y) - Y."""
    algebra = F.algebra
    left = (F.set_variable_zero(1).apply_slot(1, "counit")
            - Series.variable(algebra, 1, 2, 0, F.order, F.names))
    right = (F.set_variable_zero(0).apply_slot(0, "counit")
             - Series.variable(algebra, 1, 2, 1, F.order, F.names))
    return left, right


def strict_grading_defect(series, weight):
    """Terms violating constancy of Hopf-degree + weight * variable-degree.

    The reference value is taken from the earliest term (lowest variable
    degree, then exponent order, then monomial order); returns (value,
    offending sub-series).
    """
    algebra = series.algebra
    base, bad = None, {}
    for e, coeff in series.sorted_terms():
        for key, q in coeff.sorted_terms():
            value = algebra.key_degree(key) + weight * sum(e)
            if base is None:
                base = value
            elif value != base:
                bad.setdefault(e, {})[key] = q
    terms = {e: TensorElement(algebra, series.arity, part)
             for e, part in bad.items()}
    return base, Series(algebra, series.arity, series.nvars, terms,
                        series.order, series.names)


def check_axioms(F, order=None, strict_grading_weight=None):
    """Verify twisted symmetry, both unit laws and associativity of F
    through the requested order (default: as far as the stored data
    certifies). Raises TruncationInsufficient when the request exceeds
    what is certifiable. Returns a Report whose violations carry the
    defect series.

    For a law that takes the one-composite route (`_composites_defect`)
    the gate decides on the left composite minus its reversal, which is
    minus the defect in every term, formed from the powers of F(X, Y)
    with no `truncated` flag; only a nonzero gate computes, by Horner,
    the defect it reports (see the module docstring). The request is
    compared with the certified orders, which follow from F's exponents
    and order and the slack of F(0, 0), before any composite is formed."""
    sym = symmetry_defect(F)
    unit_left, unit_right = unit_defects(F)
    # the symmetry and unit defects keep F's order
    achievable = _composite_order(F)
    if order is not None and order > achievable:
        raise TruncationInsufficient(
            f"axioms requested through order {order} but the data "
            f"certifies only order {achievable}",
            certified=achievable, requested=order)
    cert = achievable if order is None else min(order, achievable)
    if cert < 0:
        raise TruncationInsufficient(
            "stored data certifies no order at all", certified=cert,
            requested=order)

    assoc = _composites_defect(F, sym, cert)
    grading = []
    if strict_grading_weight is not None:
        _, offending = strict_grading_defect(F, strict_grading_weight)
        if not offending.is_zero():
            grading.append(Violation(
                "strict-grading", defect=offending,
                detail=f"weight {strict_grading_weight}"))
    return _defect_report([("symmetry", sym), ("unit", unit_left),
                           ("unit", unit_right), ("associativity", assoc)],
                          cert, grading)


def _defect_report(named, cert, extra=()):
    """Report certified through `cert`: a violation for every (axiom,
    defect) whose defect is nonzero through cert, then those of `extra`."""
    violations = []
    for axiom, defect in named:
        cut = defect.truncate(cert)
        if not cut.is_zero():
            violations.append(Violation(axiom, defect=cut))
    violations += extra
    return Report(not violations, tuple(violations),
                  None if cert == INF else cert)


# -- invariant differential and logarithm -------------------------------------

def invariant_differential(F):
    """omega(x) = (id (x) eps) dF/dY (x, 0), a one-variable series over H
    with constant term 1 for any group law: the slot-1 counits of F's
    coefficients of X^i Y, through F's order minus one, on F's codes."""
    if F.nvars != 2:
        raise ShapeMismatch("invariant differential needs a law in two "
                            f"variables, not {F.nvars}")
    linear = F._moved(lambda e: (e[0],) if e[1] == 1 else None, ("x",))
    return linear.with_order(F.order - 1).apply_slot(1, "counit")


def logarithm(F, order=None):
    """g(x) = integral of dx / omega(x), normalized to x + O(x^2).

    When F is a complete polynomial whose differential has nilpotent
    positive part the logarithm is computed exactly; otherwise pass the
    target order. A law stored only through order 0 certifies no
    coefficient of omega, so it gives the zero logarithm through order 0
    and refuses a higher order with TruncationInsufficient. A result is
    kept on F for the next call with `order` exactly the same, since one at
    another order can carry other flags; what a call raises is not."""
    key = (type(order), order)
    if F._log is not None and F._log[0] == key:
        return F._log[1]
    omega = invariant_differential(F)
    if omega.order < 0:
        if order is not None and order > F.order:
            raise TruncationInsufficient(
                f"logarithm through order {order} needs the group law "
                f"through that order (certified {F.order})",
                certified=F.order, requested=order)
        g = Series.zero(F.algebra, 1, 1, F.order, omega.names)
    elif omega.constant_term().full_counit() != 1:
        raise NonInvertibleConstantTerm(
            "invariant differential does not start at 1; "
            "is F a group law in standard form?")
    else:
        g = omega.mul_inverse(None if order is None else order - 1)
        g = g.integrate()
    F._log = (key, g)
    return g


def check_log(F, g, order=None):
    """Verify that g plays the logarithm role for F through the given
    order, by two independent routes: the twisted functional equation
    (Delta g)(F) - (g (x) 1)(X) - (1 (x) g)(Y) must be constant, and the
    differential invariance (Delta g')(F) * dF/dX = (g' (x) 1)(X) must
    hold on the nose."""
    residual = _packed_residual(F, g)
    nonconstant = residual._moved(lambda e: e if any(e) else None)

    g_prime = g.derivative()
    codec = g_prime._codec.like(2, F.names, g_prime.max_degree())
    invariance = (g_prime.apply_slot(0, "comul").substitute([F])
                  * F.derivative(0)
                  - Series._of(codec, codec.placed([(g_prime, 0)])))

    achievable = min(nonconstant.order, invariance.order)
    if order is not None and order > achievable:
        raise TruncationInsufficient(
            f"logarithm checks requested through order {order} but only "
            f"order {achievable} is certified",
            certified=achievable, requested=order)
    cert = achievable if order is None else min(order, achievable)
    return _defect_report([("log-functional", nonconstant),
                           ("log-invariance", invariance)], cert)


# -- cocycles -----------------------------------------------------------------

def cocycle_defect(c):
    """(id (x) Delta)c + 1 (x) c - (Delta (x) id)c - c (x) 1, summed in
    one packed accumulation."""
    signed = ((_UNIT, c.apply_slot(1, "comul")), (_UNIT, c.embed(3, (1, 2))),
              (_MINUS_UNIT, c.apply_slot(0, "comul")),
              (_MINUS_UNIT, c.embed(3, (0, 1))))
    return TensorElement._of(c.algebra, 3, _Packed.sum_of_products(
        [(sign, t._packed) for sign, t in signed], INF, INF))


def check_cocycle(c):
    """Cobar 2-cocycle conditions: vanishing defect and both counit
    projections zero. The report is kept on c for the next call."""
    if c._cocycle is not None:
        return c._cocycle
    violations = []
    defect = cocycle_defect(c)
    if not defect.is_zero():
        violations.append(Violation("cocycle", defect=defect))
    left = c.apply_slot(0, "counit")
    right = c.apply_slot(1, "counit")
    if not (left.is_zero() and right.is_zero()):
        bad = left if not left.is_zero() else right
        violations.append(Violation("counit", defect=bad,
                                    detail="a counit projection is nonzero"))
    c._cocycle = Report(not violations, tuple(violations))
    return c._cocycle


def coboundary(h):
    """Cobar differential d h = Delta h - h (x) 1 - 1 (x) h for h in the
    augmentation ideal."""
    if h.counit() != 0:
        raise NotAugmented(
            "coboundary input must have counit zero")
    return h.comul() - h.embed(2, (0,)) - h.embed(2, (1,))


def extract_cocycle(F, g=None, order=None):
    """Constant 2-cocycle of F: evaluate the twisted logarithm equation and
    take its constant term after asserting that every nonconstant
    coefficient vanishes, through `order` when one is given
    (ResidualNonConstant otherwise). The extracted
    constant must pass the cocycle conditions (CocycleViolation otherwise).
    Returns the TensorElement c."""
    if g is None:
        if order is not None:
            # Substituting F into Delta g spends the nilpotency slack of
            # F(0, 0), so the logarithm must run that much further ahead.
            slack = F.constant_term().nilpotency_slack()
            g = logarithm(F, min(order + slack, F.order))
        else:
            g = logarithm(F, order=None if F.order == INF else F.order)
    residual = _packed_residual(F, g)
    if order is not None and order > residual.order:
        raise TruncationInsufficient(
            f"cocycle extraction requested through order {order} but only "
            f"order {residual.order} is certified",
            certified=residual.order, requested=order)
    if residual.order < 0:
        raise TruncationInsufficient(
            "not enough certified order to determine the constant term",
            certified=residual.order, requested=order)
    c = residual.constant_term()
    if order is not None:
        residual = residual.truncate(order)
    if residual.max_degree():  # the first such term, unpacked to print
        e, coeff = next(t for t in residual.sorted_terms() if sum(t[0]))
        raise ResidualNonConstant(
            f"logarithm residual has a nonconstant term at {e}: {coeff}")
    report = check_cocycle(c)
    if not report.passed:
        raise CocycleViolation(
            "extracted constant fails the cocycle conditions: "
            + "; ".join(str(v) for v in report.violations))
    return c


def _packed_residual(F, g):
    """(Delta g)(F(X, Y)) - (g (x) 1)(X) - (1 (x) g)(Y), its terms and
    order, not a flag: (Delta g)(F) by the packed evaluator on F's packed
    form, its constants lifted straight off g's codes
    (`series._mapped_parts`) under the order rule read off g, minus
    g (x) 1 + 1 (x) g, placed in its layout in one pass
    (`_Codec.placed`), in one kernel call."""
    cap, codec, _ = _substitution_order(g, [F], g.max_degree(), g.arity + 1)
    bound = F.algebra.degree_bound
    composed = _evaluate(
        _mapped_parts(g, "comul", codec, lambda e: (e[0], (0, 0)))[0],
        _in(codec, F.truncate(cap))._packed, cap, bound)
    return Series._of(codec, _Packed.sum_of_products(
        [(_UNIT, composed),
         (_MINUS_UNIT, codec.placed([(g, 0), (g, 1)], cap))],
        cap, bound))


# -- reconstruction -----------------------------------------------------------

def reconstruct(algebra, c, g, order):
    """Group law F with logarithm g and cocycle c, through the given order:

        F(X, Y) = (Delta g)^{-1}( c + (g (x) 1)(X) + (1 (x) g)(Y) ).

    Substituting the constant c costs its nilpotency slack once composing
    and once verifying, so the work runs at order + 2*slack and the result
    is certified exactly through `order`. Over a coassociative H the axioms
    are read off c with no composite (rule, derivation and conditions in
    the module docstring): symmetry from c = tau c, or from one reversal of
    F when H is not cocommutative; unit and associativity from
    check_cocycle(c). Over any other H check_axioms decides. The first
    axiom to fail, in check_axioms' order, raises AxiomViolation."""
    slack = c.nilpotency_slack()
    work = order + 2 * slack
    if g.order != INF and g.order < work:
        raise TruncationInsufficient(
            f"reconstruction at order {order} needs the logarithm through "
            f"order {work} (certified {g.order})",
            certified=g.order, requested=work)
    # (Delta g)^-1 as Delta(g^-1), lifted straight into the constants of
    # the substitution's layout; a table that lowers a degree is no ring
    # homomorphism of the truncated algebras, and Delta g reverts in
    # H (x) H
    codec = algebra._codec(2, XY, work)
    try:  # the reversion checks g
        if algebra.lowers_degree():
            inverse = g.apply_slot(0, "comul").comp_inverse(order=work)
            consts = inverse._codec.split(inverse._packed, codec,
                                          lambda e: (e, (0, 0)))
            flag = inverse.truncated
        else:
            consts, flag = _mapped_parts(g.comp_inverse(order=work), "comul",
                                         codec, lambda e: (e, (0, 0)))
    except (ShapeMismatch, NonZeroConstantTerm,
            NonInvertibleConstantTerm) as exc:
        raise NoInverse("logarithm must be of the form x + O(x^2)") from exc

    # c + (g (x) 1)(X) + (1 (x) g)(Y) through work, whose substitution's
    # order rule charges the slack of c, its constant
    rhs = Series._of(codec, codec.placed([(c, 0), (g, 0), (g, 1)], work))
    cap = work - slack
    F_elevated = _substituted(consts, flag, [rhs], codec, cap, [slack],
                              order if algebra.coassociative else cap)

    if order < 0:
        raise TruncationInsufficient(
            "stored data certifies no order at all", certified=order,
            requested=order)
    if algebra.coassociative:
        symmetric = (c == c.permute((1, 0)) if algebra.cocommutative else
                     symmetry_defect(F_elevated).truncate(order).is_zero())
        failed = {v.axiom for v in check_cocycle(c).violations}
        axioms = [axiom for axiom, holds in (
            ("symmetry", symmetric), ("unit", "counit" not in failed),
            ("associativity", "cocycle" not in failed)) if not holds]
    else:
        report = check_axioms(F_elevated, order)
        axioms = [v.axiom for v in report.violations]
    if axioms:
        raise AxiomViolation(
            f"reconstructed series fails the {axioms[0]} axiom; the "
            "cocycle or logarithm is inconsistent")
    return F_elevated.truncate(order)


# -- group inverse ------------------------------------------------------------

def inverse_series(F, order=None):
    """Series iota with (mu . (id (x) S))F (x, iota(x)) = 0, the inverse of
    the group law. folded(x, y) = (mu . (id (x) S))F is read off F's codes
    in one pass, split by the exponent of y (`_y_coefficients`). The
    constant part is solved by Newton iteration in the nilpotent ideal,
    the rest by Newton iteration in x, which doubles the certified order
    at each step and runs on packed operands: folded(x, y) and its
    y-derivative are evaluated at y = iota by the packed
    Paterson-Stockmeyer evaluator (`series._evaluate`), as is the final
    residual check, exact for a complete law, where its zero makes iota
    complete. The loop stops once it has converged (Brent and Kung, JACM
    1978): a step that finds no error leaves the root where it is, whose
    residual through the certified order, evaluated once, either vanishes
    and ends the loop or gives the later steps their errors; the final
    check reuses the last such residual while the root has not moved
    since. NoInverse when the data is inconsistent or the linearization
    is not invertible."""
    algebra = F.algebra
    target = order = _requested_order(order, F.order)
    if target is None:
        if F.order == INF:
            raise ValueError(
                "group law is a complete polynomial; its inverse series "
                "is generally infinite, pass an explicit order")
        target = F.order
    elif target > F.order:
        raise TruncationInsufficient(
            f"inverse series requested through order {target} but the "
            f"group law is certified only through {F.order}",
            certified=F.order, requested=target)

    # folded(x, y) = sum_k C_k(x) y^k, each C_k packed once, and
    # d_Y folded = sum_k (k + 1) C_(k+1)(x) y^k on the same numerators,
    # scaled from the C_k that a step keeps
    codec = algebra._codec(1, ("x",), max(target, F.max_degree()))
    groups = _y_coefficients(codec, F)

    # constant part: solve folded(0, theta) = 0 by Newton iteration, on
    # the C_k(0) and (k + 1) C_(k+1)(0) as tensors of H: the codes of
    # degree 0 are tensor codes
    at_zero = {k: c.truncate(0) for k, c in groups.items() if c.val == 0}
    d_at_zero = {k - 1: c.scaled(k) for k, c in at_zero.items() if k}
    at_zero, d_at_zero = [
        {k: TensorElement._of(algebra, 1, _Packed.divided(
            c.buckets, c.den, False, c.shift)) for k, c in part.items()}
        for part in (at_zero, d_at_zero)]

    def linearized(theta):
        """The inverse of d_Y folded(0, theta)."""
        try:
            return _eval_univariate(d_at_zero, theta).mul_inverse()
        except NonInvertibleConstantTerm as exc:
            raise NoInverse(
                "linearized inverse equation is not invertible") from exc

    theta = TensorElement.zero(algebra, 1)
    residue = _eval_univariate(at_zero, theta)
    guard = 2 * algebra.degree_bound + 4
    for _ in range(guard):
        if residue.is_zero():
            break
        theta = theta - linearized(theta) * residue
        residue = _eval_univariate(at_zero, theta)
    if not residue.is_zero():
        raise NoInverse("no nilpotent constant term solves the "
                        "inverse equation")
    if not theta.is_zero() and theta.full_counit() != 0:
        raise NoInverse("inverse constant term escapes the "
                        "augmentation ideal")

    slope_inv = linearized(theta)

    # substituting iota costs the nilpotency slack of its constant term
    slack = theta.nilpotency_slack()
    cert = target if F.order == INF else min(target, F.order - slack)
    if order is not None and order > cert:
        raise TruncationInsufficient(
            f"inverse series requested through order {order}; the constant "
            f"term's nilpotency slack {slack} leaves only order {cert} "
            "certified", certified=cert, requested=order)
    if cert < 0:
        raise TruncationInsufficient(
            "stored data certifies no order of the inverse at all",
            certified=cert, requested=order)

    # the rest by Newton iteration iota <- iota - folded(x, iota) u with
    # u = 1 / d_Y folded(x, iota): through precision q it takes iota to
    # 2q + 1, and u only has to be right through q. folded(x, y) and its
    # y-derivative are summed as sum_k C_k(x) y^k by the packed evaluator
    # at y = iota, read as the polynomial it stores; terms x^i y^k with
    # i + k above p + slack cannot reach order p, because
    # theta^(slack + 1) = 0. A step whose error vanishes through p leaves
    # the root exact through p (q = p); the first such step evaluates the
    # residual through cert at once, not step by step. at_cert is the
    # residual through cert of the root as it stands, once evaluated
    steps = _doubling_orders(0, cert, extra=1)
    bound = algebra.degree_bound
    s = Series.constant(slope_inv, 1, INF, ("x",))
    root = _constant(codec, theta)
    q, at_cert, jumped = 0, None, False
    for p in steps:
        if at_cert is not None:
            err = at_cert.truncate(p)
        else:
            err = _evaluate(_cut(groups, p + slack), root, p, bound)
            if p == cert:
                at_cert = err
            elif not err.buckets and not jumped:
                # converged through p: the residual through cert ends
                # the loop, or, cut at each later step, is its error
                jumped = True
                at_cert = _evaluate(_cut(groups, cert + slack), root, cert,
                                    bound)
                if not at_cert.buckets:
                    break
        if err.buckets:
            d = _evaluate({k - 1: c.scaled(k) for k, c in _cut(
                groups, q + slack + 1).items() if k}, root, q, bound)
            u = (Series._of(codec, d) * s).mul_inverse(q) * s
            root = _series_mul(Series._of(codec, err), _in(codec, -u),
                               keep=p, plus=Series._of(codec, root))._packed
            root, at_cert = root.stamped(INF, False), None
        q = p
    # iota is formed from all of F: it carries F's flag, and theta's;
    # the Newton steps keep its constant theta
    iota = Series._of(codec, root.stamped(cert,
                                          F.truncated or theta.truncated))

    complete = F.order == INF
    residual = at_cert
    if complete:
        residual = _evaluate(groups, root, INF, bound)
    elif residual is None:  # the root moved since its last residual
        residual = _evaluate(_cut(groups, cert + slack), root, cert, bound)
    if residual.truncate(cert).buckets:
        raise NoInverse("inverse equation has no series solution; "
                        "is F a group law?")
    if complete and not residual.buckets:
        return iota.with_order(INF)
    return iota


def _y_coefficients(codec, F):
    """{k: C_k} for folded(x, y) = (mu . (id (x) S))F(x, y) = sum_k C_k(x)
    y^k, each nonzero C_k packed in the one-variable layout of codec as a
    complete polynomial, read off F's codes in one pass: the antipode
    image of slot 1 multiplied into slot 0, split by the exponent of y
    (`series._mapped_parts`)."""
    return _mapped_parts(F, "antipode", codec, lambda e: (e[1], e[:1]))[0]


def _cut(groups, cap):
    """The C_k of `_y_coefficients` without their terms x^i of i + k above
    cap, still complete polynomials, and only those that keep a term."""
    cut = {k: c.truncate(cap - k) for k, c in groups.items() if k <= cap}
    return {k: c.stamped(INF, False) for k, c in cut.items() if c.buckets}


def _eval_univariate(coeffs, point):
    """Evaluate the polynomial sum_k coeffs[k] y^k, coefficients
    TensorElements, at a nilpotent TensorElement of their arity by
    Horner's rule on tensor arithmetic, flags included; no coefficients
    give zero. The accumulator R crosses a run of absent coefficients,
    g steps, times the one power point**g, which stops at zero. In the
    graded polynomial ring H a top Hopf degree adds under products, so
    both forms overflow the bound, and set the flag, exactly when
    top(R) + g top(point) exceeds it; a zero R, whose flag the steps
    leave as it is, takes one step, and so does a gap of one."""
    ks = sorted(coeffs, reverse=True)
    if not ks:
        return TensorElement.zero(point.algebra, point.arity)
    result = coeffs[ks[0]]
    for above, k in zip(ks, ks[1:] + [0]):
        if k < above:
            gap = above - k
            result = result * (point if gap == 1 or result.is_zero()
                               else point ** gap)
            if k in coeffs:
                result = result + coeffs[k]
    return result


# -- classical specialization ---------------------------------------------------

def specialize(series):
    """Apply the counit to every Hopf slot of every coefficient, giving
    the classical rational object (coefficients become multiples of the
    unit tensor)."""
    algebra = series.algebra
    arity = series.arity

    def collapse(coeff):
        return TensorElement.unit(algebra, arity) * coeff.full_counit()

    return series.map_coefficients(collapse)
