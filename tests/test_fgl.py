"""Group-law layer: axiom verification, invariant differential and
logarithm, cocycle extraction, reconstruction, group inverse and the
classical specialization."""

import json
import math
import random
import time
from pathlib import Path

import pytest
from fractions import Fraction

from fglog import (
    HopfElement,
    Series,
    TensorElement,
    additive_law,
    build_hopf_algebra,
    builtin_algebra,
    associativity_defect,
    check_axioms,
    check_cocycle,
    check_log,
    coboundary,
    cocycle_defect,
    extract_cocycle,
    invariant_differential,
    inverse_series,
    lemma_law,
    logarithm,
    reconstruct,
    specialize,
    strict_grading_defect,
    symmetry_defect,
    unit_defects,
)
from fglog import fgl as fgl_module
from fglog import jsonio
from fglog import series as series_module
from fglog.packed import _MINUS_UNIT, _UNIT, _Codec, _Packed
from fglog.fgl import (
    XYZ,
    _eval_univariate,
    _gate_composite,
    _left,
    _lift_inner,
    _packed_residual,
)
from fglog.scalars import Q
from fglog.series import _minus_reversed
from fglog.generate import (
    random_cocycle,
    random_logarithm,
    random_rational,
    random_symmetric_candidate,
)
from fglog.errors import (
    ArityMismatch,
    AxiomViolation,
    CocycleViolation,
    NoInverse,
    NonInvertibleConstantTerm,
    NonNilpotentConstantTerm,
    NotAugmented,
    ResidualNonConstant,
    ShapeMismatch,
    TruncationInsufficient,
)

from hypothesis import given, settings
from hypothesis import strategies as st
from test_series import (
    _ENGINE_ALGEBRAS,
    NEWTON_ALGEBRAS,
    SELDOM,
    _assert_same,
    assert_one_packed_form,
    assert_same_outcome,
    engine_series,
    lift_inputs,
    mul_inverse_inputs,
    outcome,
    requested_orders,
    reversion_inputs,
    tensor_coefficients,
)

INF = math.inf
XY = ("X", "Y")
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _flip(F):
    """tau F(Y, X), swapping variables and tensor slots, as Series
    operations: the reference for the packed symmetry defect."""
    return F.permute_vars((1, 0)).map_coefficients(
        lambda A: A.permute((1, 0)))


def t_elem(algebra):
    return HopfElement.generator(algebra, "t")


def two_t_t(algebra):
    t = t_elem(algebra)
    return TensorElement.from_slots(t, t) * 2


def log_x_plus_tx2(algebra):
    """g(x) = x + t x^2."""
    t = t_elem(algebra)
    return Series(algebra, 1, 1, {
        (1,): TensorElement.unit(algebra, 1),
        (2,): TensorElement.from_slots(t),
    })


# -- constructors --------------------------------------------------------------


class TestConstructors:
    def test_additive_law(self, qt1):
        F = additive_law(qt1)
        assert F.order == INF
        assert F.coeff((1, 0)) == TensorElement.unit(qt1, 2)
        assert F.coeff((0, 1)) == TensorElement.unit(qt1, 2)
        assert F.constant_term().is_zero()

    def test_lemma_law_constant(self, qt1):
        c = two_t_t(qt1)
        F = lemma_law(qt1, c)
        assert F.constant_term() == c
        assert F.coeff((1, 0)) == TensorElement.unit(qt1, 2)
        assert F.order == INF

    def test_lemma_law_truncated(self, qt1):
        F = lemma_law(qt1, two_t_t(qt1), order=3)
        assert F.order == 3


# -- axiom verification --------------------------------------------------------


class TestCheckAxioms:
    def test_additive_passes_exactly(self, qt1):
        rep = check_axioms(additive_law(qt1))
        assert rep.passed
        assert rep.certified_order is None

    def test_lemma_law_valid_cocycle_passes(self, qt1):
        rep = check_axioms(lemma_law(qt1, two_t_t(qt1)))
        assert rep.passed

    def test_lemma_law_coboundary_cocycle_passes(self, qtu):
        t = HopfElement.generator(qtu, "t")
        u = HopfElement.generator(qtu, "u")
        c = coboundary(t * t + u * t)
        # symmetrize so the twisted symmetry axiom holds as well
        c = (c + c.permute((1, 0))) * Fraction(1, 2)
        rep = check_axioms(lemma_law(qtu, c))
        assert rep.passed

    def test_truncated_law_certifies_to_its_order(self, qt1):
        F = additive_law(qt1).truncate(5)
        rep = check_axioms(F)
        assert rep.passed
        assert rep.certified_order == 5

    def test_order_beyond_certification_raises(self, qt1):
        F = additive_law(qt1).truncate(5)
        with pytest.raises(TruncationInsufficient) as exc:
            check_axioms(F, order=9)
        assert exc.value.certified == 5
        assert exc.value.requested == 9

    def test_symmetry_violation_detected(self, qt1):
        t = t_elem(qt1)
        skew = TensorElement.from_slots(t).embed(2, (0,))
        F = additive_law(qt1) + Series(qt1, 2, 2, {(1, 1): skew}, INF, XY)
        rep = check_axioms(F)
        assert not rep.passed
        assert "symmetry" in {v.axiom for v in rep.violations}

    def test_unit_violation_detected(self, qt1):
        t = t_elem(qt1)
        left = TensorElement.from_slots(t).embed(2, (0,))
        right = TensorElement.from_slots(t).embed(2, (1,))
        F = additive_law(qt1) + Series(
            qt1, 2, 2, {(2, 0): left, (0, 2): right}, INF, XY)
        rep = check_axioms(F)
        assert not rep.passed
        hit = {v.axiom for v in rep.violations}
        assert "unit" in hit
        assert "symmetry" not in hit

    def test_bad_cocycle_lemma_law_fails_associativity(self, qt1):
        t = t_elem(qt1)
        c_bad = TensorElement.from_slots(t, t * t)
        rep = check_axioms(lemma_law(qt1, c_bad))
        assert not rep.passed
        assert "associativity" in {v.axiom for v in rep.violations}

    def test_defect_reports_carry_series(self, qt1):
        t = t_elem(qt1)
        c_bad = TensorElement.from_slots(t, t * t)
        rep = check_axioms(lemma_law(qt1, c_bad))
        assoc = [v for v in rep.violations if v.axiom == "associativity"]
        assert assoc and not assoc[0].defect.is_zero()

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_over_request_forms_no_composite(self, monkeypatch, symmetric):
        """The composites' certified order follows from the substitution's
        order rule, so a request beyond what the data certifies raises
        before any composite is formed, by substitution or by the gate,
        with the order that the composites would have had. A law
        reconstructed at order 9 over qt1 with D = 6 has constant
        2(t x t) of slack 3."""
        alg = builtin_algebra("qt1", degree_bound=6)
        F = reconstruct(alg, two_t_t(alg), log_x_plus_tx2(alg), order=9)
        if not symmetric:  # the two-composite path
            F = F + Series(alg, 2, 2, {(2, 1): two_t_t(alg)}, 9, XY)
        calls = []
        substitute = Series.substitute
        gate = fgl_module._gate_composite

        def counted(series, assignments, order=None):
            calls.append(series)
            return substitute(series, assignments, order)

        def counted_gate(law, cert):
            calls.append(law)
            return gate(law, cert)

        monkeypatch.setattr(Series, "substitute", counted)
        monkeypatch.setattr(fgl_module, "_gate_composite", counted_gate)
        with pytest.raises(TruncationInsufficient) as exc:
            check_axioms(F, order=9)
        assert str(exc.value) == ("axioms requested through order 9 but "
                                  "the data certifies only order 6")
        assert (exc.value.certified, exc.value.requested) == (6, 9)
        assert calls == []
        assert check_axioms(F, order=6).passed == symmetric
        assert calls

    def test_asymmetric_check_forms_each_lift_once(self, monkeypatch):
        """A failing check on the two-composite path maps the law's codes
        once per lift: the two counit lifts, and the coproduct and inner
        lifts of each composite (a slot map of the series, or its
        placement among X, Y, Z by `_Codec.placed`, each). The symmetry
        defect is a key reversal of the packed law and maps no
        coefficient. The slack of F(0, 0) is computed once for the order
        rule, and each substitution computes that of its own assigned
        constant once."""
        alg = builtin_algebra("qt1", degree_bound=6)
        F = lemma_law(alg, two_t_t(alg), order=8) + Series(
            alg, 2, 2, {(2, 1): two_t_t(alg)}, 8, XY)
        lifts, slacks = [], []
        map_slot, placed = Series._map_slot, _Codec.placed
        nilpotency_slack = TensorElement.nilpotency_slack

        def counted(lift):
            def run(series, *args):
                out = lift(series, *args)
                lifts.append(out)
                return out
            return run

        def counted_slack(element):
            slacks.append(element)
            return nilpotency_slack(element)

        monkeypatch.setattr(Series, "_map_slot", counted(map_slot))
        monkeypatch.setattr(_Codec, "placed", counted(placed))
        monkeypatch.setattr(TensorElement, "nilpotency_slack", counted_slack)
        report = check_axioms(F)
        assert not report.passed
        assert "associativity" in {v.axiom for v in report.violations}
        assert len(lifts) == 6 and len(set(lifts)) == 6
        assert slacks[0] == F.constant_term()
        assert len(slacks) == 3 and len(set(slacks)) == 3

    def test_non_nilpotent_constant_wins_over_the_order(self, qt1):
        F = additive_law(qt1, order=3) + Series.constant(
            TensorElement.unit(qt1, 2), 2, 3, XY)
        with pytest.raises(NonNilpotentConstantTerm) as exc:
            check_axioms(F, order=9)
        assert str(exc.value) == ("assignment for variable X has constant "
                                  "term with nonzero full counit")


class TestDefects:
    def test_additive_defects_all_zero(self, qt1):
        F = additive_law(qt1)
        assert symmetry_defect(F).is_zero()
        assert associativity_defect(F).is_zero()
        left, right = unit_defects(F)
        assert left.is_zero() and right.is_zero()

    def test_lemma_assoc_defect_is_the_cobar_defect(self, qt1):
        """For F = c + X + Y the associativity defect is a constant equal
        to the cobar defect of c."""
        t = t_elem(qt1)
        c_bad = TensorElement.from_slots(t, t * t)
        d = associativity_defect(lemma_law(qt1, c_bad))
        const = d.constant_term()
        assert const == cocycle_defect(c_bad)
        expected = TensorElement.from_slots(t, t, t) * 2
        assert const == expected
        rest = d - Series.constant(const, 3, d.order, d.names)
        assert rest.is_zero()

    def test_unit_defect_picks_counit_projection(self, qt1):
        t = t_elem(qt1)
        left_coeff = TensorElement.from_slots(t).embed(2, (0,))
        F = additive_law(qt1) + Series(
            qt1, 2, 2, {(2, 0): left_coeff}, INF, XY)
        left, right = unit_defects(F)
        assert not left.is_zero()
        assert right.is_zero()
        assert left.coeff((2, 0)) == TensorElement.from_slots(t)


class TestStrictGrading:
    def test_lemma_law_weight(self, qt1):
        F = lemma_law(qt1, two_t_t(qt1))
        base, offending = strict_grading_defect(F, 2)
        assert offending.is_zero()
        assert base == 2

    def test_wrong_weight_flags_terms(self, qt1):
        F = lemma_law(qt1, two_t_t(qt1))
        _, offending = strict_grading_defect(F, 1)
        assert not offending.is_zero()

    def test_reconstructed_law_weight(self, qt1):
        F = reconstruct(qt1, TensorElement.zero(qt1, 2),
                        log_x_plus_tx2(qt1), 6)
        _, offending = strict_grading_defect(F, -1)
        assert offending.is_zero()

    def test_check_axioms_strict_grading_violation(self, qt1):
        F = lemma_law(qt1, two_t_t(qt1))
        rep = check_axioms(F, strict_grading_weight=1)
        assert not rep.passed
        assert "strict-grading" in {v.axiom for v in rep.violations}

    def test_check_axioms_strict_grading_pass(self, qt1):
        F = lemma_law(qt1, two_t_t(qt1))
        rep = check_axioms(F, strict_grading_weight=2)
        assert rep.passed


# -- invariant differential and logarithm ---------------------------------------


def definition_differential(F):
    """(id (x) eps) dF/dY (x, 0) by the Series operations that define it."""
    partial = F.derivative(1).set_variable_zero(1)
    collapsed = partial.map_coefficients(
        lambda A: A.apply_slot(1, "counit"))
    return collapsed.drop_variable(1).with_names(("x",))


class TestInvariantDifferential:
    """invariant_differential, read off F's coefficients of X^i Y, gives
    what the definition's Series operations give: terms, certified order,
    `truncated` and names."""

    @settings(max_examples=150)
    @given(st.data())
    def test_matches_definition_route(self, data):
        name, bound = data.draw(_ENGINE_ALGEBRAS)
        alg = builtin_algebra(name, degree_bound=bound)
        F = data.draw(engine_series(alg, 2, 2))
        _assert_same(invariant_differential(F), definition_differential(F))

    def test_flagged_coefficients(self, qt1):
        """Flagged X Y and X^2 Y tensors fold their flags into the law's
        as they become its coefficients: the differential is flagged by
        both routes, and none of its coefficients is."""
        t, one = t_elem(qt1), HopfElement.one(qt1)
        flagged = TensorElement.from_slots(one, t)
        terms = dict(additive_law(qt1, order=4).terms)
        terms[(1, 1)] = TensorElement(qt1, 2, flagged.terms, True)
        terms[(2, 1)] = TensorElement(
            qt1, 2, TensorElement.from_slots(t * t, one).terms, True)
        terms[(3, 1)] = TensorElement.from_slots(t, one)
        F = Series(qt1, 2, 2, terms, 4, XY)
        assert F.truncated
        got = invariant_differential(F)
        _assert_same(got, definition_differential(F))
        assert got.truncated and got.order == 3
        assert not any(c.truncated for c in got.terms.values())
        assert set(got.terms) == {(0,), (2,), (3,)}

    @pytest.mark.parametrize("nvars", [1, 3])
    def test_needs_two_variables(self, qt1, nvars):
        with pytest.raises(ShapeMismatch):
            invariant_differential(Series.variable(qt1, 2, nvars, 0))


class TestLogarithm:
    def test_additive_differential_is_one(self, qt1):
        omega = invariant_differential(additive_law(qt1))
        assert omega.constant_term() == TensorElement.unit(qt1, 1)
        assert (omega - Series.constant(
            TensorElement.unit(qt1, 1), 1, omega.order, ("x",))).is_zero()

    def test_lemma_law_logarithm_is_x(self, qt1):
        F = lemma_law(qt1, two_t_t(qt1))
        g = logarithm(F)
        x = Series.variable(qt1, 1, 1, 0, g.order, ("x",))
        assert (g - x).is_zero()

    def test_additive_logarithm_exact(self, qt1):
        g = logarithm(additive_law(qt1))
        assert g.order == INF
        x = Series.variable(qt1, 1, 1, 0, INF, ("x",))
        assert (g - x).is_zero()

    def test_reconstructed_law_logarithm_round_trip(self, qt1):
        g = log_x_plus_tx2(qt1)
        F = reconstruct(qt1, TensorElement.zero(qt1, 2), g, 6)
        back = logarithm(F, order=6)
        assert (back - g.truncate(6)).is_zero()

    def test_nonunit_linear_coefficient_rejected(self, qt1):
        F = additive_law(qt1) + Series.variable(qt1, 2, 2, 1, INF, XY)
        with pytest.raises(NonInvertibleConstantTerm):
            logarithm(F)

    def test_check_log_lemma_law(self, qt1):
        F = lemma_law(qt1, two_t_t(qt1))
        x = Series.variable(qt1, 1, 1, 0, INF, ("x",))
        rep = check_log(F, x)
        assert rep.passed

    def test_check_log_reconstructed(self, qt1):
        # The invariance route differentiates, costing one order, so a law
        # certified through 7 supports the check through 6.
        g = log_x_plus_tx2(qt1)
        F = reconstruct(qt1, TensorElement.zero(qt1, 2), g, 7)
        rep = check_log(F, g.truncate(7), order=6)
        assert rep.passed
        assert rep.certified_order == 6

    def test_check_log_wrong_candidate_fails(self, qt1):
        g = log_x_plus_tx2(qt1)
        F = reconstruct(qt1, TensorElement.zero(qt1, 2), g, 6)
        x = Series.variable(qt1, 1, 1, 0, 6, ("x",))
        rep = check_log(F, x)
        assert not rep.passed
        hit = {v.axiom for v in rep.violations}
        assert hit <= {"log-functional", "log-invariance"}
        assert hit

    def test_check_log_order_too_high_raises(self, qt1):
        F = lemma_law(qt1, two_t_t(qt1)).truncate(4)
        x = Series.variable(qt1, 1, 1, 0, 4, ("x",))
        with pytest.raises(TruncationInsufficient):
            check_log(F, x, order=10)

    def test_check_log_substitutes_once(self, qt1, monkeypatch):
        """The functional route sums its residual on the packed evaluator
        (`fgl._packed_residual`): only the invariance route substitutes."""
        g = log_x_plus_tx2(qt1)
        F = reconstruct(qt1, two_t_t(qt1), g, 7)
        calls = recorded_calls(monkeypatch, Series, "substitute")
        assert check_log(F, g.truncate(7)).passed
        assert len(calls) == 1

    def test_constant_differential_over_request_raises(self, qt2):
        """A Lemma law stored through order 5 has the differential 1
        through order 4; a logarithm beyond order 5 is not certified."""
        F = lemma_law(qt2, two_t_t(qt2), order=5)
        assert logarithm(F, order=5) == Series.variable(
            qt2, 1, 1, 0, 5, ("x",))
        with pytest.raises(TruncationInsufficient) as exc:
            logarithm(F, order=8)
        assert (exc.value.certified, exc.value.requested) == (4, 7)

    def test_order_zero_law(self, qt2):
        """A law stored through order 0 certifies no coefficient of its
        differential: the logarithm is 0 through order 0, and any higher
        request is refused, not read as a differential without unit."""
        F = additive_law(qt2, order=0)
        assert logarithm(F, order=0) == Series.zero(qt2, 1, 1, 0, ("x",))
        with pytest.raises(TruncationInsufficient) as exc:
            logarithm(F, order=1)
        assert (exc.value.certified, exc.value.requested) == (0, 1)
        with pytest.raises(TruncationInsufficient):
            extract_cocycle(F, order=1)

    def test_zero_logarithm_keeps_the_arity(self, qt1):
        """An empty logarithm has no term that shows the arity of its
        lifts to H (x) H; the lift of the zero coefficient shows it."""
        F = additive_law(qt1, order=3)
        zero = Series.zero(qt1, 1, 1, 3, ("x",))
        rep = check_log(F, zero)
        assert rep.passed and rep.certified_order == 2
        c = extract_cocycle(F, g=zero)
        assert c.arity == 2 and c.is_zero()


# -- cocycles -------------------------------------------------------------------


class TestCocycles:
    def test_valid_cocycle(self, qt1):
        assert cocycle_defect(two_t_t(qt1)).is_zero()
        assert check_cocycle(two_t_t(qt1)).passed

    def test_defect_oracle_t_tsq(self, qt1):
        t = t_elem(qt1)
        c = TensorElement.from_slots(t, t * t)
        assert cocycle_defect(c) == TensorElement.from_slots(t, t, t) * 2

    def test_defect_oracle_antisymmetric(self, qt1):
        t = t_elem(qt1)
        c = (TensorElement.from_slots(t * t, t)
             - TensorElement.from_slots(t, t * t))
        assert cocycle_defect(c) == TensorElement.from_slots(t, t, t) * (-4)

    def test_counit_condition(self, qt1):
        t = t_elem(qt1)
        c = TensorElement.from_slots(t, HopfElement.one(qt1))
        rep = check_cocycle(c)
        assert not rep.passed
        assert "counit" in {v.axiom for v in rep.violations}

    def test_coboundary_oracles(self, qt1):
        t = t_elem(qt1)
        assert coboundary(t * t) == two_t_t(qt1)
        expected = (TensorElement.from_slots(t * t, t) * 3
                    + TensorElement.from_slots(t, t * t) * 3)
        assert coboundary(t * t * t) == expected
        assert coboundary(t).is_zero()

    def test_coboundary_is_cocycle(self, qtu):
        t = HopfElement.generator(qtu, "t")
        u = HopfElement.generator(qtu, "u")
        h = t * t + u * 2 + t * u
        assert check_cocycle(coboundary(h)).passed

    def test_coboundary_needs_augmentation(self, qt1):
        t = t_elem(qt1)
        with pytest.raises(NotAugmented):
            coboundary(t + HopfElement.one(qt1))

    def test_extract_from_lemma_law(self, qt1):
        c = two_t_t(qt1)
        assert extract_cocycle(lemma_law(qt1, c)) == c

    def test_extract_with_explicit_logarithm(self, qt1):
        c = two_t_t(qt1)
        F = lemma_law(qt1, c)
        x = Series.variable(qt1, 1, 1, 0, INF, ("x",))
        assert extract_cocycle(F, g=x) == c

    def test_extract_from_reconstructed_law(self, qt1):
        c = two_t_t(qt1)
        g = log_x_plus_tx2(qt1)
        F = reconstruct(qt1, c, g, 4 + c.nilpotency_slack())
        assert extract_cocycle(F, order=4) == c

    def test_extract_zero_cocycle(self, qt1):
        g = log_x_plus_tx2(qt1)
        F = reconstruct(qt1, TensorElement.zero(qt1, 2), g, 6)
        assert extract_cocycle(F, order=6).is_zero()

    def test_extract_wrong_logarithm_nonconstant_residual(self, qt1):
        F = lemma_law(qt1, two_t_t(qt1))
        with pytest.raises(ResidualNonConstant):
            extract_cocycle(F, g=log_x_plus_tx2(qt1))

    def test_extract_non_cocycle_constant_rejected(self, qt1):
        t = t_elem(qt1)
        F = lemma_law(qt1, TensorElement.from_slots(t, t * t))
        with pytest.raises(CocycleViolation):
            extract_cocycle(F)

    def test_extract_order_beyond_data(self, qt1):
        F = lemma_law(qt1, two_t_t(qt1)).truncate(3)
        with pytest.raises(TruncationInsufficient):
            extract_cocycle(F, order=7)

    @pytest.mark.parametrize("with_xy", [False, True])
    def test_extract_checks_the_residual_through_order(self, qt1, with_xy):
        """X + Y + (t (x) t)X^2 Y^2 is a group law through order 3 with a
        constant differential, whose logarithm x is certified at every
        order; with XY added the differential is 1 + x. Either way the
        residual is nonconstant first at (2, 2), so order 3 extracts 0 and
        order 4 does not."""
        t = t_elem(qt1)
        F = additive_law(qt1) + Series(
            qt1, 2, 2, {(2, 2): TensorElement.from_slots(t, t)}, INF, XY)
        if with_xy:
            F = F + (Series.variable(qt1, 2, 2, 0, INF, XY)
                     * Series.variable(qt1, 2, 2, 1, INF, XY))
        assert check_axioms(F, order=3).passed
        assert extract_cocycle(F, order=3).is_zero()
        with pytest.raises(ResidualNonConstant, match=r"\(2, 2\)"):
            extract_cocycle(F, order=4)


def reference_log_residual(F, g):
    """(Delta g)(F(X, Y)) - (g (x) 1)(X) - (1 (x) g)(Y) by Horner
    (Series.substitute)."""
    lifted = g.map_coefficients(lambda A: A.apply_slot(0, "comul"))
    g_x = g.map_coefficients(lambda A: A.embed(2, (0,)))
    g_y = g.map_coefficients(lambda A: A.embed(2, (1,)))
    return (lifted.substitute([F]) - g_x.embed_vars(2, (0,), F.names)
            - g_y.embed_vars(2, (1,), F.names))


def reference_extract(F, g=None, order=None):
    """extract_cocycle with its residual formed by Horner
    (`reference_log_residual`), the route it took before the packed
    evaluator."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fgl_module, "_packed_residual", reference_log_residual)
        return extract_cocycle(F, g, order)


EXTRACTION_KINDS = ("law", "law", "complete", "non-cocycle", "symmetric",
                    "asymmetric", "unit-constant")


def extraction_case(alg, rng, kind, stored, explicit_g):
    """(F, g) for extract_cocycle: a law reconstructed through `stored`
    from a random cocycle (mostly nonzero) and logarithm, or the complete
    Lemma law c + X + Y of the cocycle ("complete") or of a symmetric
    candidate, mostly no cocycle ("non-cocycle"); the law plus a term
    a X^2 Y and its flip (a symmetric non-law), plus a X Y^2 alone
    (asymmetric), or plus a unit constant, whose full counit is nonzero.
    g is the reconstructing logarithm when `explicit_g`, else None."""
    c = random_cocycle(alg, rng) if rng.random() < 0.8 else (
        TensorElement.zero(alg, 2))
    g = random_logarithm(alg, rng, order=5)
    if kind in ("complete", "non-cocycle"):
        if kind == "non-cocycle":
            c = random_symmetric_candidate(alg, rng)
        F, g = lemma_law(alg, c), Series.variable(alg, 1, 1, 0, INF, ("x",))
    else:
        F = reconstruct(alg, c, g, stored)
    t, one = t_elem(alg), HopfElement.one(alg)
    a = TensorElement.from_slots(t, one) * random_rational(rng, nonzero=True)
    if kind in ("symmetric", "asymmetric"):
        extra = {(1, 2): a}
        if kind == "symmetric":
            extra = {(2, 1): a, (1, 2): a.permute((1, 0))}
        F = F + Series(alg, 2, 2, extra, INF, F.names)
    elif kind == "unit-constant":
        F = F + Series.constant(TensorElement.unit(alg, 2) * 2, 2, INF,
                                F.names)
    return F, g if explicit_g else None


@st.composite
def extraction_inputs(draw):
    """(F, g, order) over qt1, qt2 or qtu at degree bounds 3-6: a case of
    `extraction_case` stored through order 1-5, and a request of none
    (mostly) or up to two above the stored order (over-requests)."""
    name = draw(st.sampled_from(["qt1", "qt2", "qtu"]))
    alg = builtin_algebra(name, degree_bound=draw(st.integers(3, 6)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    stored = draw(st.integers(1, 5))
    F, g = extraction_case(alg, rng, draw(st.sampled_from(EXTRACTION_KINDS)),
                           stored, draw(SELDOM))
    return F, g, draw(st.one_of(st.none(), st.none(),
                                st.integers(0, stored + 2)))


class TestPackedExtraction:
    """extract_cocycle forms its residual (Delta g)(F) on F's packed form
    with the evaluator, and reuses the logarithm that logarithm(F, order)
    kept on F."""

    @settings(max_examples=120)
    @given(extraction_inputs())
    def test_matches_horner_residual(self, case):
        """The same c, or the same exception type and message."""
        got = outcome(extract_cocycle, *case)
        want = outcome(reference_extract, *case)
        assert got[1] == want[1]
        if want[1] is None:
            assert got[0] == want[0]
            assert got[0].truncated == want[0].truncated

    @pytest.mark.parametrize("kind, wanted, error", [
        ("law", None, None),
        ("law", 7, TruncationInsufficient),
        ("complete", 4, None),
        ("symmetric", None, ResidualNonConstant),
        ("asymmetric", None, ResidualNonConstant),
        ("non-cocycle", None, CocycleViolation),
        ("unit-constant", None, NonNilpotentConstantTerm),
        ("unit-constant", 3, NonNilpotentConstantTerm),
    ])
    def test_each_outcome(self, kind, wanted, error):
        """One case of each outcome that the property test compares."""
        alg = builtin_algebra("qt1", degree_bound=6)
        F, g = extraction_case(alg, random.Random(3), kind, 5, False)
        got = outcome(extract_cocycle, F, g, wanted)
        assert got[1] == outcome(reference_extract, F, g, wanted)[1]
        assert (got[1] and got[1][0]) == error

    def test_trial_never_unpacks_the_law(self, monkeypatch):
        """reconstruct -> logarithm -> extract_cocycle, as in a criterion-6
        trial: neither call unpacks the reconstructed law."""
        alg = builtin_algebra("qt1", degree_bound=6)
        F = reconstruct(alg, two_t_t(alg),
                        random_logarithm(alg, random.Random(5), 6), 6)
        assert F._terms is None
        unpacks = recorded_calls(monkeypatch, _Codec, "unpack")
        logarithm(F, order=6)
        assert extract_cocycle(F) == two_t_t(alg)
        assert F._terms is None
        assert all(call[1] is not F._packed for call in unpacks)

    def test_extraction_reuses_the_logarithm(self, qt1, monkeypatch):
        F = reconstruct(qt1, two_t_t(qt1), log_x_plus_tx2(qt1), 6)
        differentials = recorded_calls(monkeypatch, fgl_module,
                                       "invariant_differential")
        residuals = recorded_calls(monkeypatch, fgl_module,
                                   "_packed_residual")
        g = logarithm(F, 6)
        assert extract_cocycle(F) == two_t_t(qt1)
        assert len(differentials) == 1
        assert residuals[0][1] is g
        assert logarithm(F, 6) is g and len(differentials) == 1

    def test_another_order_recomputes(self, qt1, monkeypatch):
        F = reconstruct(qt1, two_t_t(qt1), log_x_plus_tx2(qt1), 6)
        differentials = recorded_calls(monkeypatch, fgl_module,
                                       "invariant_differential")
        g = logarithm(F, 6)
        lower = logarithm(F, 5)
        assert len(differentials) == 2
        assert lower is not g and lower == g.truncate(5)

    def test_a_raising_call_is_not_kept(self, qt2, monkeypatch):
        F = additive_law(qt2, order=0)
        differentials = recorded_calls(monkeypatch, fgl_module,
                                       "invariant_differential")
        for _ in range(2):
            with pytest.raises(TruncationInsufficient):
                logarithm(F, order=1)
        assert len(differentials) == 2 and F._log is None


# -- reconstruction -------------------------------------------------------------


class TestReconstruct:
    def test_order_two_coefficients(self, qt1):
        """Frozen low-order values for g = x + t x^2, c = 0."""
        t = t_elem(qt1)
        F = reconstruct(qt1, TensorElement.zero(qt1, 2),
                        log_x_plus_tx2(qt1), 2)
        one_t = TensorElement.from_slots(HopfElement.one(qt1), t)
        t_one = TensorElement.from_slots(t, HopfElement.one(qt1))
        assert F.coeff((1, 0)) == TensorElement.unit(qt1, 2)
        assert F.coeff((0, 1)) == TensorElement.unit(qt1, 2)
        assert F.coeff((2, 0)) == -one_t
        assert F.coeff((1, 1)) == (t_one + one_t) * (-2)
        assert F.coeff((0, 2)) == -t_one

    def test_zero_cocycle_identity_logarithm(self, qt1):
        """g = x, c = 0 gives back the additive law."""
        x = Series.variable(qt1, 1, 1, 0, INF, ("x",))
        F = reconstruct(qt1, TensorElement.zero(qt1, 2), x, 5)
        assert (F - additive_law(qt1, 5)).is_zero()

    def test_identity_logarithm_gives_lemma_law(self, qt1):
        c = two_t_t(qt1)
        x = Series.variable(qt1, 1, 1, 0, INF, ("x",))
        F = reconstruct(qt1, c, x, 6)
        assert (F - lemma_law(qt1, c, 6).truncate(6)).is_zero()

    def test_internal_gate_certifies_requested_order(self, qt1):
        """Success of reconstruct at order N is the order-N certification;
        the returned truncation cannot be re-verified externally past
        N - slack."""
        c = two_t_t(qt1)
        F = reconstruct(qt1, c, log_x_plus_tx2(qt1), 4)
        assert F.order == 4
        with pytest.raises(TruncationInsufficient):
            check_axioms(F, order=4)

    def test_elevated_reconstruction_verifies_externally(self, qt1):
        c = two_t_t(qt1)
        F = reconstruct(qt1, c, log_x_plus_tx2(qt1),
                        4 + c.nilpotency_slack())
        rep = check_axioms(F, order=4)
        assert rep.passed
        assert rep.certified_order == 4

    def test_mixed_law_logarithm_round_trip(self, qt1):
        c = two_t_t(qt1)
        g = log_x_plus_tx2(qt1)
        F = reconstruct(qt1, c, g, 4 + c.nilpotency_slack())
        back = logarithm(F, order=4)
        assert (back - g.truncate(4)).is_zero()

    def test_non_cocycle_rejected(self, qt1):
        # t^2 x t^2 is symmetric but not a cocycle, so the internal gate
        # trips on associativity.
        t = t_elem(qt1)
        bad = TensorElement.from_slots(t * t, t * t)
        assert not check_cocycle(bad).passed
        with pytest.raises(AxiomViolation) as exc:
            reconstruct(qt1, bad, log_x_plus_tx2(qt1), 4)
        assert "associativity" in str(exc.value)

    def test_asymmetric_constant_rejected(self, qt1):
        t = t_elem(qt1)
        bad = TensorElement.from_slots(t, t * t)
        with pytest.raises(AxiomViolation) as exc:
            reconstruct(qt1, bad, log_x_plus_tx2(qt1), 4)
        assert "symmetry" in str(exc.value)

    def test_logarithm_not_normalized_rejected(self, qt1):
        x2 = Series.variable(qt1, 1, 1, 0, INF, ("x",)) * 2
        with pytest.raises(NoInverse):
            reconstruct(qt1, TensorElement.zero(qt1, 2), x2, 4)

    def test_logarithm_with_constant_rejected(self, qt1):
        t = t_elem(qt1)
        g = log_x_plus_tx2(qt1) + Series.constant(
            TensorElement.from_slots(t), 1, INF, ("x",))
        with pytest.raises(NoInverse):
            reconstruct(qt1, TensorElement.zero(qt1, 2), g, 4)

    def test_short_logarithm_rejected(self, qt1):
        c = two_t_t(qt1)
        g = log_x_plus_tx2(qt1).truncate(3)
        with pytest.raises(TruncationInsufficient):
            reconstruct(qt1, c, g, 4)

    def test_two_generator_algebra(self, qtu):
        t = HopfElement.generator(qtu, "t")
        u = HopfElement.generator(qtu, "u")
        c = TensorElement.from_slots(t, u) + TensorElement.from_slots(u, t)
        assert check_cocycle(c).passed
        x = Series.variable(qtu, 1, 1, 0, INF, ("x",))
        F = reconstruct(qtu, c, x, 4)
        assert (F - lemma_law(qtu, c, 4).truncate(4)).is_zero()

    def test_reverts_g_over_h_and_lifts_once(self, qt1, monkeypatch):
        """g is reverted over H, one comp_inverse call on an arity-1
        series, so no lift is tested (`_coproduct_base`); the law is the
        one that reverting Delta g gives."""
        c, g = two_t_t(qt1), log_x_plus_tx2(qt1)
        want = elevated_law(c, g, 4).truncate(4)
        bases = recorded_calls(monkeypatch, series_module, "_coproduct_base")
        inversions = recorded_calls(monkeypatch, Series, "comp_inverse")
        _assert_same(reconstruct(qt1, c, g, 4), want)
        assert bases == []
        assert [f.arity for f, in inversions] == [1]

    def test_lowering_table_reverts_the_lift(self, qtu, monkeypatch):
        """A coproduct table that lowers a degree makes Delta no ring
        homomorphism, so Delta g is reverted in H (x) H, as the reference
        does; Delta(g^-1) would differ at x^4, where u^3 leaves the
        degree bound 8 but (Delta u)^3 keeps t^3 (x) 1."""
        ut, uu, u1 = (qtu.generator_mono("t"), qtu.generator_mono("u"),
                      qtu.unit_mono)
        alg = qtu.mutated(comul={"u": {
            (uu, u1): Q(1), (u1, uu): Q(1), (ut, u1): Q(1)}})
        g = Series.variable(alg, 1, 1, 0, INF, ("x",)) + Series(
            alg, 1, 1, {(2,): TensorElement.from_slots(
                HopfElement.generator(alg, "u"))}, INF, ("x",))
        c = TensorElement.zero(alg, 2)
        inversions = recorded_calls(monkeypatch, Series, "comp_inverse")
        got = outcome(reconstruct, alg, c, g, 4)
        assert [f.arity for f, in inversions] == [2]
        monkeypatch.undo()
        assert_same_outcome(got, outcome(reference_reconstruct, alg, c, g, 4))
        lift = g.map_coefficients(lambda A: A.apply_slot(0, "comul"))
        assert not lift.comp_inverse(order=4).same_through(
            g.comp_inverse(order=4).map_coefficients(
                lambda A: A.apply_slot(0, "comul")))

    def test_a_trial_checks_each_cocycle_once(self, monkeypatch):
        """A criterion-6 trial forms the cobar defect of c in the first
        reconstruct and of the extracted c in extract_cocycle; the second
        reconstruct reads the report kept on that tensor."""
        alg = builtin_algebra("qt1", degree_bound=6)
        tm = alg.generator_mono("t")
        rng = random.Random(20260817)
        pool = [alg.unit_mono, tm, alg.mul_mono(tm, tm)]
        g = random_logarithm(alg, rng, order=6, coeff_pool=pool)
        c = random_cocycle(alg, rng)
        defects = recorded_calls(monkeypatch, fgl_module, "cocycle_defect")
        F = reconstruct(alg, c, g, order=6)
        c_rec = extract_cocycle(F)
        F2 = reconstruct(alg, c_rec, logarithm(F, order=6).with_order(INF),
                         order=6)
        assert F2 == F and c_rec == c
        assert [d for d, in defects] == [c, c_rec]
        assert check_cocycle(c_rec) is check_cocycle(c_rec)


# -- group inverse ---------------------------------------------------------------


class TestInverseSeries:
    def test_additive_needs_explicit_order(self, qt1):
        with pytest.raises(ValueError):
            inverse_series(additive_law(qt1))

    def test_infinite_order_on_a_complete_law(self, qt1):
        """math.inf on a complete law asks what None asks (ValueError); a
        finite order that is no int, or -math.inf, raises TypeError."""
        with pytest.raises(ValueError, match="pass an explicit order"):
            inverse_series(lemma_law(qt1, two_t_t(qt1)), order=math.inf)
        with pytest.raises(TruncationInsufficient):
            inverse_series(additive_law(qt1, order=4), order=math.inf)
        for order in (2.0, -math.inf):
            with pytest.raises(TypeError, match="order must be an int"):
                inverse_series(additive_law(qt1), order=order)

    def test_additive_inverse_is_negation(self, qt1):
        iota = inverse_series(additive_law(qt1), order=6)
        x = Series.variable(qt1, 1, 1, 0, iota.order, ("x",))
        assert (iota + x).is_zero()
        assert iota.order == INF

    def test_lemma_law_inverse_oracle(self, qt1):
        """iota = 2 t^2 - x for F = 2(t x t) + X + Y."""
        t = t_elem(qt1)
        iota = inverse_series(lemma_law(qt1, two_t_t(qt1)), order=5)
        assert iota.order == INF
        assert iota.constant_term() == TensorElement.from_slots(t * t) * 2
        assert iota.coeff((1,)) == -TensorElement.unit(qt1, 1)
        assert not any(sum(e) > 1 for e, _ in iota.sorted_terms())

    def test_reconstructed_law_inverse(self, qt1):
        g = log_x_plus_tx2(qt1)
        F = reconstruct(qt1, TensorElement.zero(qt1, 2), g, 6)
        iota = inverse_series(F)
        x = Series.variable(qt1, 1, 1, 0, iota.order, ("x",))
        assert (iota + x).is_zero()
        assert iota.order == 6

    def test_inverse_satisfies_fold_identity(self, qt1):
        """mu(id x S) F(x, iota(x)) = 0 through the certified order."""
        g = log_x_plus_tx2(qt1)
        F = reconstruct(qt1, TensorElement.zero(qt1, 2), g, 6)
        iota = inverse_series(F)
        folded = F.map_coefficients(
            lambda A: A.apply_slot(1, "antipode").contract_mul((0, 1)))
        xv = Series.variable(qt1, 1, 1, 0, 6, ("x",))
        residual = folded.substitute([xv, iota])
        assert residual.truncate(iota.order).is_zero()

    def test_flagged_law_flags_its_inverse(self):
        """iota is formed from all of F, so it carries F's flag: X + Y
        stored flagged, and 2(t (x) t) + t^2 (x) t^2 + X + Y at degree
        bound 3, whose constant coefficient loses t^2 (x) t^2."""
        alg = builtin_algebra("qt1", degree_bound=3)
        flagged = Series(alg, 2, 2, additive_law(alg).terms, 6, XY,
                         truncated=True)
        assert inverse_series(flagged, order=6).truncated
        t = t_elem(alg)
        cut = two_t_t(alg) + TensorElement.from_slots(t * t, t * t)
        assert cut == two_t_t(alg) and cut.truncated
        iota = inverse_series(lemma_law(alg, cut), order=3)
        assert iota.truncated
        assert iota.constant_term() == TensorElement.from_slots(t * t) * 2

    def test_order_beyond_law_raises(self, qt1):
        F = lemma_law(qt1, two_t_t(qt1)).truncate(3)
        with pytest.raises(TruncationInsufficient):
            inverse_series(F, order=5)


# -- Newton group inverse against the order-by-order loop -----------------------


def reference_eval_univariate(series, point):
    """Horner's rule from the top coefficient down with one product per
    exponent, zero accumulators included: the reference for
    `fgl._eval_univariate`."""
    top = max((e[0] for e in series.terms), default=None)
    if top is None:
        return TensorElement.zero(series.algebra, series.arity)
    acc = series.terms[(top,)]
    for k in range(top - 1, -1, -1):
        acc = acc * point
        if (k,) in series.terms:
            acc = acc + series.terms[(k,)]
    return acc


def reference_inverse_series(F, order=None):
    """Group inverse order by order, the reference for the Newton
    iteration in x: the constant part by Newton iteration in the nilpotent
    ideal, then one substitution per order k fixes coefficient k."""
    algebra = F.algebra
    folded = F.map_coefficients(
        lambda A: A.apply_slot(1, "antipode").contract_mul((0, 1)))
    target = order
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
    at_zero = folded.set_variable_zero(0).drop_variable(0)
    d_at_zero = at_zero.derivative()
    theta = TensorElement.zero(algebra, 1)
    residue = reference_eval_univariate(at_zero, theta)
    for _ in range(2 * algebra.degree_bound + 4):
        if residue.is_zero():
            break
        slope = reference_eval_univariate(d_at_zero, theta)
        try:
            slope_inv = slope.mul_inverse()
        except NonInvertibleConstantTerm as exc:
            raise NoInverse(
                "linearized inverse equation is not invertible") from exc
        theta = theta - slope_inv * residue
        residue = reference_eval_univariate(at_zero, theta)
    if not residue.is_zero():
        raise NoInverse("no nilpotent constant term solves the "
                        "inverse equation")
    if not theta.is_zero() and theta.full_counit() != 0:
        raise NoInverse("inverse constant term escapes the "
                        "augmentation ideal")
    slope = reference_eval_univariate(d_at_zero, theta)
    try:
        slope_inv = slope.mul_inverse()
    except NonInvertibleConstantTerm as exc:
        raise NoInverse(
            "linearized inverse equation is not invertible") from exc
    slack = 0 if theta.is_zero() else theta.nilpotency_slack()
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

    x_var = Series.variable(algebra, 1, 1, 0, cert, ("x",))
    # iota is formed from all of F, so it carries F's flag
    iota = Series(algebra, 1, 1, {(0,): theta}, cert, ("x",), F.truncated)
    for k in range(1, cert + 1):
        r_k = folded.substitute([x_var, iota]).coeff((k,))
        if r_k.is_zero():
            continue
        step = -(slope_inv * r_k)
        iota = iota + Series(algebra, 1, 1, {(k,): step._flagged(False)},
                             cert, ("x",))

    residual = folded.substitute([x_var, iota])
    if not residual.truncate(cert).is_zero():
        raise NoInverse("inverse equation has no series solution; "
                        "is F a group law?")
    if F.order == INF:
        exact = iota.with_order(INF)
        if folded.substitute(
                [Series.variable(algebra, 1, 1, 0, INF, ("x",)),
                 exact]).is_zero():
            return exact
    return iota


@st.composite
def inverse_inputs(draw):
    """(F, requested order): F = c + (1 + n1) X + (1 + n2) Y + sparse terms
    of degree 2-20 over one of four algebras at degree bounds 3-8, with c,
    n1 and n2 nilpotent (so the constant term costs slack) and orders 0-20;
    most such F are not group laws, so the no-inverse paths run too.
    Seldom F is complete with a term X^n or Y^n, n in 50-400, and an
    explicit request."""
    name, bound = draw(NEWTON_ALGEBRAS)
    alg = builtin_algebra(name, degree_bound=bound)
    c = draw(tensor_coefficients(alg, 2, unit=0))
    terms = {(1, 0): draw(tensor_coefficients(alg, 2, unit=1)),
             (0, 1): draw(tensor_coefficients(alg, 2, unit=1))}
    if not c.is_zero():
        terms[(0, 0)] = c
    if draw(SELDOM):
        terms = {(1, 0): terms[(1, 0)], (0, 1): TensorElement.unit(alg, 2)}
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, 20))
        j = draw(st.integers(0 if i >= 2 else 2 - i, 20 - i))
        terms[(i, j)] = draw(tensor_coefficients(alg, 2))
    if draw(SELDOM):
        n = draw(st.integers(50, 400))
        terms[draw(st.sampled_from([(n, 0), (0, n)]))] = draw(
            tensor_coefficients(alg, 2))
        F_order, order = INF, draw(st.sampled_from(range(21)))
    else:
        F_order, order = draw(requested_orders(
            draw(st.sampled_from(range(21)))))
    F = Series(alg, 2, 2, terms, F_order, XY, truncated=draw(SELDOM))
    return F, order


class TestNewtonInverse:
    """fgl.inverse_series by Newton doubling gives what the order-by-order
    loop gives: terms, certified order, `truncated` and every
    exception."""

    @settings(max_examples=300)
    @given(st.data())
    def test_horner_matches_one_product_per_exponent(self, data):
        """`_eval_univariate` crosses each run of absent coefficients with
        one power of the point and gives the terms and flag of one product
        per exponent, also where the accumulator cancels to zero above a
        run."""
        name, bound = data.draw(NEWTON_ALGEBRAS)
        alg = builtin_algebra(name, degree_bound=bound)
        arity = data.draw(st.integers(1, 2))
        point = data.draw(tensor_coefficients(alg, arity, unit=0))
        terms = {(k,): data.draw(tensor_coefficients(alg, arity))
                 for k in data.draw(st.sets(st.integers(0, 12),
                                            max_size=4))}
        top = max((e[0] for e in terms), default=0)
        if top and data.draw(SELDOM):
            terms[(top - 1,)] = -(terms[(top,)] * point)
        series = Series(alg, arity, 1, terms, INF, ("y",))
        got = _eval_univariate(series, point)
        want = reference_eval_univariate(series, point)
        assert got == want and got.truncated == want.truncated

    def test_zero_accumulator_crosses_a_run_unflagged(self):
        """y^5 - t y^4 + 1 at y = t over qt1 with degree bound 3: the
        accumulator cancels to zero at y^4, and the four steps down to y^0
        multiply zero by t, which sets no flag, though t^4 overflows."""
        alg = builtin_algebra("qt1", degree_bound=3)
        t = TensorElement.from_slots(t_elem(alg))
        one = TensorElement.unit(alg, 1)
        series = Series(alg, 1, 1, {(5,): one, (4,): -t, (0,): one}, INF,
                        ("y",))
        got = _eval_univariate(series, t)
        assert got == one and not got.truncated
        assert not reference_eval_univariate(series, t).truncated

    @settings(max_examples=200)
    @given(inverse_inputs())
    def test_matches_order_by_order_loop(self, case):
        F, order = case
        assert_same_outcome(outcome(inverse_series, F, order=order),
                            outcome(reference_inverse_series, F, order=order))

    @pytest.mark.parametrize("name", ["trivial", "qt1"])
    def test_complete_law_with_zero_inverse(self, name):
        """Y + Y^3 has no X term, so iota = 0 and the exact residual is
        evaluated at zero."""
        alg = builtin_algebra(name)
        one = TensorElement.unit(alg, 2)
        F = Series(alg, 2, 2, {(0, 1): one, (0, 3): one}, INF, XY)
        assert_same_outcome(outcome(inverse_series, F, order=5),
                            outcome(reference_inverse_series, F, order=5))
        assert inverse_series(F, order=5).order == INF

    @pytest.mark.parametrize("name", ["qt1", "qt2", "qtu"])
    def test_lemma_laws_with_slack(self, name):
        """c + X + Y with a nilpotent c of slack > 0, at a low bound."""
        alg = builtin_algebra(name, degree_bound=6)
        c = two_t_t(alg)
        F = lemma_law(alg, c, order=12)
        assert c.nilpotency_slack() > 0
        assert_same_outcome(outcome(inverse_series, F),
                            outcome(reference_inverse_series, F))


# -- the group inverse through the logarithm ----------------------------------

def folded_constant(c):
    """phi(c) = (mu . (id (x) S))c in H."""
    return c.apply_slot(1, "antipode").contract_mul((0, 1))


def inverse_by_logarithm(c, g, order):
    """iota = (Sg)^-1(-g - phi(c)) through `order`, Sg the series of the
    S(g_k): the reversion runs past `order` by the slack of phi(c), which
    the substitution of its constant spends."""
    Sg = g.map_coefficients(lambda A: A.apply_slot(0, "antipode"))
    kappa = folded_constant(c)
    rhs = -g - Series.constant(kappa, 1, INF, ("x",))
    return Sg.comp_inverse(order=order + kappa.nilpotency_slack()
                           ).substitute([rhs])


@st.composite
def logarithm_laws(draw):
    """(F, c, g): F = reconstruct(c, g) over trivial, qt1, qt2, qtu or
    QTU_HALF at degree bounds 3-8, c a random cocycle and g a random
    logarithm, through an order of 2-9 plus the slack of phi(c), which
    iota(0) shares (iota(0) is phi(c) times a unit), so that iota is
    certified through that order."""
    name = draw(st.sampled_from(["trivial", "qt1", "qt2", "qtu",
                                 "qtu_half"]))
    alg = algebra_named(name, draw(st.integers(3, 8)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    order = draw(st.integers(2, 9))
    c = random_cocycle(alg, rng)
    g = random_logarithm(alg, rng, order)
    slack = folded_constant(c).nilpotency_slack()
    return reconstruct(alg, c, g, order + slack), c, g


class TestInverseByLogarithm:
    """The group inverse against the logarithm. Apply phi = mu . (id (x)
    S) to the coefficients of (Delta g)(F(x, y)) = c + g(x) (x) 1 +
    1 (x) g(y) and set y = iota(x): phi is a ring homomorphism of H (x) H
    onto H because H is commutative, so the left side becomes
    sum_k eps(g_k) phi(F)(x, iota(x))^k, which is 0, because phi Delta =
    eta eps and phi(F)(x, iota(x)) = 0 defines iota. The right side is
    phi(c) + g(x) + (Sg)(iota(x)), so iota = (Sg)^-1(-g - phi(c))."""

    @settings(max_examples=200, deadline=None)
    @given(logarithm_laws())
    def test_matches_the_logarithm(self, case):
        F, c, g = case
        iota = inverse_series(F)
        want = inverse_by_logarithm(c, g, iota.order)
        assert want.order >= iota.order
        assert iota.same_through(want, iota.order)

    def test_lemma_law(self, qt1):
        """For c + X + Y (g = x) the inverse is -x - phi(c): here
        phi(2(t (x) t)) = -2 t^2."""
        c = two_t_t(qt1)
        iota = inverse_series(lemma_law(qt1, c), order=5)
        x = Series.variable(qt1, 1, 1, 0, INF, ("x",))
        want = -x - Series.constant(folded_constant(c), 1, INF, ("x",))
        assert folded_constant(c) == t_elem(qt1) * t_elem(qt1) * -2
        assert iota.order == INF and (iota - want).is_zero()
        assert (inverse_by_logarithm(c, x, 5) - want).is_zero()


def recorded_calls(monkeypatch, owner, name):
    """The list to which every later call of owner.name appends its
    positional arguments."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestNewtonOnTheEvaluator:
    """Both Newton loops sum their polynomials with the packed evaluator
    (`series._evaluate`): no Horner evaluation and no Series.substitute,
    and the residual check of the group inverse runs on the evaluator
    when the law's order is finite."""

    def test_comp_inverse(self, monkeypatch):
        alg = builtin_algebra("qt2")
        lifted = random_logarithm(alg, random.Random(7), 16).map_coefficients(
            lambda A: A.apply_slot(0, "comul"))
        horner = recorded_calls(monkeypatch, series_module, "_horner")
        substitute = recorded_calls(monkeypatch, Series, "substitute")
        evaluate = recorded_calls(monkeypatch, series_module, "_evaluate")
        lifted.comp_inverse(order=16)
        assert horner == [] and substitute == []
        assert [call[2] for call in evaluate] == [2, 4, 8, 16]

    @pytest.mark.parametrize("law", ["reconstructed", "lemma"])
    def test_inverse_series(self, qt1, monkeypatch, law):
        """A reconstructed law (theta = 0) and a Lemma law (nilpotent
        theta, slack 2) at finite orders: the last evaluation is the
        residual check through the certified order."""
        if law == "lemma":
            F = lemma_law(qt1, two_t_t(qt1), order=12)
        else:
            F = reconstruct(qt1, TensorElement.zero(qt1, 2),
                            log_x_plus_tx2(qt1), 6)
        horner = recorded_calls(monkeypatch, series_module, "_horner")
        substitute = recorded_calls(monkeypatch, Series, "substitute")
        evaluate = recorded_calls(monkeypatch, fgl_module, "_evaluate")
        iota = inverse_series(F)
        assert horner == [] and substitute == []
        assert len(evaluate) >= 2 and evaluate[-1][2] == iota.order

    def test_complete_law_substitutes_nothing(self, qt1, monkeypatch):
        """For a complete law the one residual evaluation runs through
        order inf, and its zero makes the returned iota complete."""
        substitute = recorded_calls(monkeypatch, Series, "substitute")
        evaluate = recorded_calls(monkeypatch, fgl_module, "_evaluate")
        iota = inverse_series(lemma_law(qt1, two_t_t(qt1)), order=5)
        assert substitute == []
        assert evaluate[-1][2] == INF and iota.order == INF


def sparse_law(name, n=2000):
    """X + Y + X^n + Y^n over `name`, plus c = 2(t x t) over qt1: a
    complete law equal to its flip, associative through order n - 1."""
    alg = builtin_algebra(name)
    c = two_t_t(alg) if name == "qt1" else TensorElement.zero(alg, 2)
    one = TensorElement.unit(alg, 2)
    return lemma_law(alg, c) + Series(alg, 2, 2, {(n, 0): one, (0, n): one},
                                      INF, XY)


class TestSparseLaws:
    """On X + Y + X^n + Y^n (n = 2000, or 200,000) the work follows the
    requested order, not n: the gate stops at the first zero power of
    F(X, Y), and the constant part of the group inverse skips products of
    zero."""

    @pytest.mark.parametrize("name", ["trivial", "qt1"])
    def test_gate_stops_at_the_first_zero_power(self, name, monkeypatch):
        F = sparse_law(name)
        cert, slack = 4, F.constant_term().nilpotency_slack()
        products = recorded_calls(monkeypatch, fgl_module, "_series_mul")
        assert _minus_reversed(_gate_composite(F, cert)).is_zero()
        assert len(products) <= cert + slack + 1
        assert check_axioms(F, order=cert).passed

    @pytest.mark.parametrize("name", ["trivial", "qt1"])
    def test_inverse_skips_products_of_zero(self, name, monkeypatch):
        F = sparse_law(name)
        want = inverse_series(lemma_law(F.algebra, F.constant_term()),
                              order=4)
        products = recorded_calls(monkeypatch, TensorElement, "__mul__")
        iota = inverse_series(F, order=4)
        assert len(products) < 100
        assert (iota - want).is_zero() and iota.order == 4

    @pytest.mark.parametrize("name", ["trivial", "qt1"])
    def test_inverse_kernel_calls_follow_the_order(self, name, monkeypatch):
        """At n = 200,000 the constant stage crosses the run of absent
        coefficients of folded(0, y) with one power of theta: fewer than
        2,000 kernel calls in all, where one product per exponent makes
        about 400,000 over trivial and 800,000 over qt1."""
        F = sparse_law(name, 200_000)
        calls = []
        kernel = _Packed.sum_of_products

        def counted(pairs, keep, bound):
            calls.append(keep)
            return kernel(pairs, keep, bound)

        monkeypatch.setattr(_Packed, "sum_of_products",
                            staticmethod(counted))
        iota = inverse_series(F, order=4)
        assert len(calls) < 2000 and iota.order == 4


def one_sided_law(side, n):
    """X + Y + X^n (side 0) or X + Y + Y^n (side 1) over trivial: a
    complete law that is not equal to its flip."""
    alg = builtin_algebra("trivial")
    exps = (n, 0) if side == 0 else (0, n)
    return additive_law(alg) + Series(
        alg, 2, 2, {exps: TensorElement.unit(alg, 2)}, INF, XY)


class TestOneSidedLaws:
    """A law that is not equal to its flip takes the two-composite path;
    both composites are formed only through the checked order, so the
    work follows that order, not the degree n."""

    @pytest.mark.parametrize("side", [0, 1])
    def test_two_composites_follow_the_order(self, side):
        F = one_sided_law(side, 2000)
        started = time.perf_counter()
        report = check_axioms(F, order=4)
        assert time.perf_counter() - started < 1.0
        assert report.passed and report.certified_order == 4

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("n", [3, 40])
    def test_report_is_the_truncated_defect(self, side, n):
        F = one_sided_law(side, n)
        want = associativity_defect(F).truncate(4)
        assert want.is_zero() == (n > 4)
        report = check_axioms(F, order=4)
        got = [v.defect for v in report.violations
               if v.axiom == "associativity"]
        if want.is_zero():
            assert got == []
        else:
            _assert_same(got[0], want)


# -- associativity from one composite ------------------------------------------

def composites(F):
    """(F(F(X, Y), Z), F(X, F(Y, Z))), each from its own substitution."""
    alg = F.algebra
    left = F.map_coefficients(lambda A: A.apply_slot(0, "comul")).substitute(
        [_lift_inner(F, (0, 1)), Series.variable(alg, 3, 3, 2, INF, XYZ)])
    right = F.map_coefficients(lambda A: A.apply_slot(1, "comul")).substitute(
        [Series.variable(alg, 3, 3, 0, INF, XYZ), _lift_inner(F, (1, 2))])
    return left, right


def reversed_composite(S):
    """S with X and Z swapped and the three tensor slots reversed."""
    return S.permute_vars((2, 1, 0)).map_coefficients(
        lambda A: A.permute((2, 1, 0)))


def reference_associativity_defect(F):
    """F(X, F(Y, Z)) - F(F(X, Y), Z) from both composites, the reference
    for the one-composite route of twisted-symmetric laws."""
    left, right = composites(F)
    return right - left


def reference_check_axioms(F, order=None):
    """check_axioms with the two-composite associativity defect and no
    one-composite gate."""
    def two_composites(F, sym, cert=None):
        outer, assigns = _left(F)
        return (fgl_module._right_composite(F, cert)
                - outer.substitute(assigns, cert))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fgl_module, "_composites_defect", two_composites)
        return check_axioms(F, order=order)


def assert_same_report(got, want):
    """Equal verdicts, certified orders and violations, whose defects are
    equal in terms, coefficient flags, order and `truncated`."""
    assert (got.passed, got.certified_order) == (
        want.passed, want.certified_order)
    assert [(v.axiom, v.detail) for v in got.violations] == [
        (v.axiom, v.detail) for v in want.violations]
    for v, w in zip(got.violations, want.violations):
        _assert_same(v.defect, w.defect)


def composite_count(F, monkeypatch):
    """How many substitutions associativity_defect(F) makes."""
    calls = []
    original = Series.substitute

    def counted(series, assignments, order=None):
        calls.append(series)
        return original(series, assignments, order)

    monkeypatch.setattr(Series, "substitute", counted)
    associativity_defect(F)
    monkeypatch.setattr(Series, "substitute", original)
    return len(calls)


def calls_to(monkeypatch, name, fn, *args, **kwargs):
    """(fn(*args, **kwargs), how often it called fgl's `name`)."""
    original = getattr(fgl_module, name)
    calls = recorded_calls(monkeypatch, fgl_module, name)
    result = fn(*args, **kwargs)
    monkeypatch.setattr(fgl_module, name, original)
    return result, len(calls)


# Cocommutative, but u is not primitive: the packed composites of its laws
# have a common denominator other than 1.
QTU_HALF = {"generators": [{"name": "t", "degree": 1},
                           {"name": "u", "degree": 2}],
            "degree_bound": 8,
            "coproduct": {"t": "primitive",
                          "u": [[["u"], ["1"], "1"], [["1"], ["u"], "1"],
                                [["t"], ["t"], "1/2"]]}}


def non_cocommutative_algebra(bound=6):
    """Q[t, s, u] with Delta u = u (x) 1 + 1 (x) u + t (x) s."""
    return build_hopf_algebra({
        "generators": [{"name": "t", "degree": 1},
                       {"name": "s", "degree": 2},
                       {"name": "u", "degree": 3}],
        "degree_bound": bound,
        "coproduct": {"u": [[["u"], ["1"], "1"], [["1"], ["u"], "1"],
                            [["t"], ["s"], "1"]]}})


def qt2_flag_law():
    """X + Y - 2(t^2 (x) 1)X^3 Y^2 - 2(1 (x) t^2)X^2 Y^3 at order 5 over
    qt2 with degree bound 4: not associative, and only the right
    composite's Horner steps see the pairs that flag its defect."""
    alg = builtin_algebra("qt2", degree_bound=4)
    t = t_elem(alg)
    one = HopfElement.one(alg)
    return additive_law(alg, order=5) + Series(alg, 2, 2, {
        (3, 2): TensorElement.from_slots(t * t, one) * -2,
        (2, 3): TensorElement.from_slots(one, t * t) * -2}, 5, XY)


@st.composite
def symmetric_laws(draw):
    """A series equal to its flip over qt1, qt2, qtu or QTU_HALF at degree
    bounds 3-6: a law reconstructed from a random cocycle and logarithm,
    or a Lemma law c + X + Y with c = a + tau a (a cocycle or not), either
    one seldom plus a symmetric perturbation P + tau P(Y, X) (mostly not a
    group law; seldom with a constant term outside the augmentation
    ideal), at a finite or infinite order."""
    name = draw(st.sampled_from(["qt1", "qt2", "qtu", "qtu_half"]))
    bound = draw(st.integers(3, 6))
    if name == "qtu_half":
        alg = build_hopf_algebra(dict(QTU_HALF, degree_bound=bound))
    else:
        alg = builtin_algebra(name, degree_bound=bound)
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
        c = random_cocycle(alg, rng)
        g = random_logarithm(alg, rng, order=draw(st.integers(1, 4)))
        F = reconstruct(alg, c, g, order=draw(st.integers(1, 4)))
    else:
        a = draw(tensor_coefficients(alg, 2, unit=0))
        order = draw(st.one_of(st.just(INF), st.integers(0, 6)))
        F = lemma_law(alg, a + a.permute((1, 0)), order)
    if draw(SELDOM) or draw(SELDOM):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, 4))
            j = draw(st.integers(0 if i or draw(SELDOM) else 1, 4))
            terms[(i, j)] = draw(tensor_coefficients(alg, 2))
        P = Series(alg, 2, 2, terms, F.order, XY, truncated=draw(SELDOM))
        F = F + P + _flip(P)
    return F


class TestOneComposite:
    """For a law equal to its flip over a cocommutative H,
    associativity_defect computes only the right composite and gives what
    the two composites give: terms, certified order, `truncated`, every
    exception, and the same check_axioms report."""

    @settings(max_examples=150)
    @given(symmetric_laws())
    def test_matches_two_composites(self, F):
        assert _flip(F) == F
        assert_same_outcome(outcome(associativity_defect, F),
                            outcome(reference_associativity_defect, F))
        got, want = outcome(check_axioms, F), outcome(
            reference_check_axioms, F)
        assert got[1] == want[1]
        if want[1] is None:
            assert_same_report(got[0], want[0])

    @pytest.mark.parametrize("name", ["qt1", "qt2", "qtu"])
    def test_takes_one_composite(self, name, monkeypatch):
        alg = builtin_algebra(name)
        F = lemma_law(alg, two_t_t(alg), order=8)
        assert composite_count(F, monkeypatch) == 1
        assert composite_count(
            F + Series(alg, 2, 2, {(2, 0): two_t_t(alg)}, 8, XY),
            monkeypatch) == 2

    def test_flag_comes_from_the_right_composite(self):
        """The right composite's Horner steps form every overflowing
        pair the left one's do, and here more: its flag is that of both,
        the left one's alone would be clear."""
        alg = builtin_algebra("qt1", degree_bound=3)
        t = t_elem(alg)
        one = HopfElement.one(alg)
        F = additive_law(alg, order=5) + Series(alg, 2, 2, {
            (3, 2): TensorElement.from_slots(t * t, one) * -2,
            (2, 3): TensorElement.from_slots(one, t * t) * -2}, 5, XY)
        left, right = composites(F)
        assert (left.truncated, right.truncated) == (False, True)
        assert reversed_composite(right) == left
        assert_same_outcome(outcome(associativity_defect, F),
                            outcome(reference_associativity_defect, F))
        assert associativity_defect(F).truncated

    def test_asymmetric_above_the_requested_order(self, qt1, monkeypatch):
        """The symmetry defect vanishes through the requested order 3 but
        not in the stored data, so both composites are computed."""
        t = t_elem(qt1)
        bump = Series(qt1, 2, 2, {(3, 1): TensorElement.from_slots(
            t, HopfElement.one(qt1))}, 8, XY)
        F = additive_law(qt1, order=8) + bump
        assert symmetry_defect(F).truncate(3).is_zero()
        assert not symmetry_defect(F).is_zero()
        assert composite_count(F, monkeypatch) == 2
        assert_same_outcome(outcome(associativity_defect, F),
                            outcome(reference_associativity_defect, F))
        assert_same_report(check_axioms(F, order=3),
                           reference_check_axioms(F, order=3))
        assert check_axioms(F, order=3).passed

    def test_criterion_10_law(self, monkeypatch):
        """The order-16 law of acceptance criterion 10 equals its flip
        exactly, so its defect comes from one composite."""
        alg = builtin_algebra("qt1", degree_bound=10)
        tm = alg.generator_mono("t")
        g = Series(alg, 1, 1, {
            (1,): TensorElement.unit(alg, 1),
            (2,): TensorElement(alg, 1, {(tm,): Fraction(1)}),
            (3,): TensorElement(alg, 1, {(alg.mul_mono(tm, tm),):
                                         Fraction(1, 2)}),
        }, INF, ("x",))
        F = reconstruct(alg, TensorElement.zero(alg, 2), g, order=16)
        assert symmetry_defect(F).is_zero()
        assert composite_count(F, monkeypatch) == 1
        defect = associativity_defect(F)
        assert defect.is_zero() and defect.order == 16

    def test_constant_outside_the_augmentation_ideal(self, qt1,
                                                     monkeypatch):
        """F(0, 0) = 1 (x) 1 cannot be substituted; the two-composite
        path raises, naming the first variable as before."""
        F = lemma_law(qt1, TensorElement.unit(qt1, 2), order=4)
        with pytest.raises(NonNilpotentConstantTerm, match="variable X"):
            associativity_defect(F)

    def test_passing_gate_computes_no_defect(self, monkeypatch):
        """A law that passes is decided on the left composite alone; a
        failing one has its defect computed once, from the right
        composite, with that composite's flag."""
        alg = builtin_algebra("qt1", degree_bound=6)
        F = lemma_law(alg, two_t_t(alg), order=8)
        report, calls = calls_to(monkeypatch, "_right_composite",
                                 check_axioms, F)
        assert report.passed and calls == 0
        report, calls = calls_to(monkeypatch, "_right_composite",
                                 check_axioms, qt2_flag_law(), order=5)
        assert not report.passed and calls == 1
        (violation,) = report.violations
        assert violation.axiom == "associativity"
        assert violation.defect.truncated

    def test_failing_check_forms_one_symmetry_defect(self, monkeypatch):
        """A failing one-composite check reports the right composite
        minus its reversal without deciding the route a second time."""
        report, calls = calls_to(monkeypatch, "symmetry_defect",
                                 check_axioms, qt2_flag_law(), order=5)
        assert not report.passed and calls == 1
        assert_same_report(report,
                           reference_check_axioms(qt2_flag_law(), order=5))

    def test_rational_coproduct(self, monkeypatch):
        """Over QTU_HALF a law's composites have denominators other than
        1, and the packed reversal still gives both composites' defect."""
        alg = build_hopf_algebra(QTU_HALF)
        assert alg.cocommutative and not alg.is_primitive("u")
        u = HopfElement.generator(alg, "u")
        c = coboundary(u * u)
        F = reconstruct(alg, c, log_x_plus_tx2(alg), order=5)
        P = Series(alg, 2, 2, {(2, 1): TensorElement.from_slots(u, u)}, 5,
                   XY)
        for law in (F, F + P + _flip(P)):
            assert fgl_module._right_composite(law)._packed.den != 1
            assert composite_count(law, monkeypatch) == 1
            assert_same_outcome(outcome(associativity_defect, law),
                                outcome(reference_associativity_defect, law))
            assert_same_report(check_axioms(law),
                               reference_check_axioms(law))
        assert check_axioms(F).passed
        assert not check_axioms(F + P + _flip(P)).passed

    def test_empty_law(self, qt1):
        """A law with no stored term has a zero defect of order 0."""
        F = Series.zero(qt1, 2, 2, 0, XY)
        defect = associativity_defect(F)
        assert defect.is_zero() and defect.order == 0
        assert check_axioms(F).certified_order == 0

    def test_non_cocommutative_algebra_takes_two_composites(
            self, monkeypatch):
        """Over a non-cocommutative H the reversed right composite is not
        the left one, even for a law equal to its flip."""
        alg = non_cocommutative_algebra()
        assert not alg.cocommutative
        t, u = HopfElement.generator(alg, "t"), HopfElement.generator(alg,
                                                                       "u")
        c = TensorElement.from_slots(t, u) + TensorElement.from_slots(u, t)
        F = lemma_law(alg, c)
        assert symmetry_defect(F).is_zero()
        left, right = composites(F)
        assert reversed_composite(right) != left
        assert composite_count(F, monkeypatch) == 2
        assert associativity_defect(F) == right - left


def horner_composite(F):
    """F(F(X, Y), Z) by Horner, as associativity_defect's substitutions
    form it."""
    outer, assigns = _left(F)
    return outer.substitute(assigns)


def assert_gate_matches(F, cert=None):
    """The gate composite of F through cert (default: the composite's
    certified order) equals the Horner composite truncated there, term for
    term, and check_axioms decides as the two-composite reference does."""
    composite = horner_composite(F)
    cert = composite.order if cert is None else cert
    gate = _gate_composite(F, cert)
    want = composite.truncate(cert)
    assert (gate.arity, gate.names, gate.order) == (
        want.arity, want.names, want.order)
    assert gate.terms == want.terms
    got, ref = outcome(check_axioms, F), outcome(reference_check_axioms, F)
    assert got[1] == ref[1]
    if ref[1] is None:
        assert got[0].passed == ref[0].passed


class TestPackedGate:
    """check_axioms decides a law equal to its flip on F(F(X, Y), Z)
    formed from the powers of F(X, Y) on the packed kernel; that composite
    has the Horner composite's terms through the checked order."""

    @settings(max_examples=150)
    @given(symmetric_laws(), st.data())
    def test_matches_horner(self, F, data):
        composite = outcome(horner_composite, F)
        if composite[1] is not None:  # F(0, 0) outside the ideal
            assert composite[1][0] is NonNilpotentConstantTerm
            return
        top = composite[0].order
        if top < 0:
            return
        cert = data.draw(st.sampled_from(
            [top, *range(int(min(top, 8)) + 1)]))
        assert_gate_matches(F, cert)
        got = outcome(check_axioms, F, order=cert)
        want = outcome(reference_check_axioms, F, order=cert)
        assert got[1] == want[1]
        if want[1] is None:
            assert got[0].passed == want[0].passed

    def test_slack_three_law(self):
        """Reconstructed at order 9 over qt1 with D = 6: F(0, 0) = 2(t x t)
        has slack 3, so powers of U up to the third keep terms of every
        X-degree of F."""
        alg = builtin_algebra("qt1", degree_bound=6)
        F = reconstruct(alg, two_t_t(alg), log_x_plus_tx2(alg), order=9)
        assert horner_composite(F).order == 6
        assert_gate_matches(F)
        assert check_axioms(F, order=6).passed

    def test_criterion_10_law(self):
        alg = builtin_algebra("qt1", degree_bound=10)
        tm = alg.generator_mono("t")
        g = Series(alg, 1, 1, {
            (1,): TensorElement.unit(alg, 1),
            (2,): TensorElement(alg, 1, {(tm,): Fraction(1)}),
            (3,): TensorElement(alg, 1, {(alg.mul_mono(tm, tm),):
                                         Fraction(1, 2)}),
        }, INF, ("x",))
        F = reconstruct(alg, TensorElement.zero(alg, 2), g, order=16)
        assert_gate_matches(F)
        assert check_axioms(F).certified_order == 16

    def test_complete_polynomial(self, qtu):
        """Order inf: c + X + Y + (t x t)XY with c = u x t + t x u, not
        associative, and the Lemma law c + X + Y, which is."""
        t = HopfElement.generator(qtu, "t")
        u = HopfElement.generator(qtu, "u")
        c = TensorElement.from_slots(u, t) + TensorElement.from_slots(t, u)
        law = lemma_law(qtu, c)
        bent = law + Series(qtu, 2, 2, {(1, 1): TensorElement.from_slots(
            t, t)}, INF, XY)
        for F in (law, bent):
            assert F.order == INF and _flip(F) == F
            assert_gate_matches(F)
        assert check_axioms(law).passed
        assert not check_axioms(bent).passed

    def test_empty_law(self, qt1):
        assert_gate_matches(Series.zero(qt1, 2, 2, 0, XY))

    def test_passing_check_multiplies_on_the_kernel(self, monkeypatch):
        """A passing symmetric check substitutes nothing; every product of
        its gate runs on the kernel's sum of products, the powers of U
        one `_series_mul` call each and the rows U^k G_k, one per
        X-degree k of F, in one call."""
        alg = builtin_algebra("qt1", degree_bound=6)
        F = reconstruct(alg, two_t_t(alg), log_x_plus_tx2(alg), order=9)
        substitutions, kernel_calls = [], []
        substitute = Series.substitute
        sum_of_products = _Packed.sum_of_products

        def counted(series, assignments, order=None):
            substitutions.append(series)
            return substitute(series, assignments, order)

        def counted_kernel(pairs, keep, bound):
            kernel_calls.append(len(pairs))
            return sum_of_products(pairs, keep, bound)

        monkeypatch.setattr(Series, "substitute", counted)
        monkeypatch.setattr(_Packed, "sum_of_products", counted_kernel)
        assert check_axioms(F, order=6).passed
        assert substitutions == []
        rows = len({k for k, _ in F.terms})
        assert rows == 8 and rows in kernel_calls


@st.composite
def perturbed_laws(draw):
    """A law of symmetric_laws(), mostly plus a perturbation with no
    mirror image (a term at (i, j) but not at (j, i), or a coefficient
    unlike its mirror's), with rare coefficient and series flags."""
    F = draw(symmetric_laws())
    if draw(st.integers(0, 4)):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            exps = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
            terms[exps] = draw(tensor_coefficients(F.algebra, 2))
        F = F + Series(F.algebra, 2, 2, terms, F.order, XY,
                       truncated=draw(SELDOM))
    return F


def assert_same_symmetry_defect(F):
    got, want = symmetry_defect(F), F - _flip(F)
    assert (got.terms, got.order, got.truncated, got.names) == (
        want.terms, want.order, want.truncated, want.names)
    return got, want


class TestPackedSymmetry:
    """symmetry_defect, the packed law minus its key-field reversal, gives
    what F - tau F(Y, X) gives on Series: terms, certified order and
    `truncated`, for stored laws, laws read from group JSON, products and
    substitution results, over qt1, qt2, qtu and QTU_HALF."""

    @settings(max_examples=150)
    @given(perturbed_laws())
    def test_stored_laws(self, F):
        assert_same_symmetry_defect(F)

    @settings(max_examples=100)
    @given(perturbed_laws(), st.booleans())
    def test_json_laws(self, F, truncated):
        doc = jsonio.group_to_json(F)
        if truncated:
            doc["series"]["truncated"] = True
        _, G = jsonio.group_from_json(doc)
        assert G.truncated == (truncated or F.truncated)
        assert_same_symmetry_defect(G)

    @settings(max_examples=100)
    @given(perturbed_laws(), st.data())
    def test_substitution_results(self, F, data):
        """F(X + A, Y + B) for random A, B with nilpotent constants: the
        defect is reversed in the substitution's own layout, and the
        coefficient flags agree too."""
        shifts = [data.draw(engine_series(F.algebra, 2, 2,
                                          nilpotent_constant=True))
                  for _ in range(2)]
        G = F.substitute([Series.variable(F.algebra, 2, 2, v, INF, XY)
                          + Series(F.algebra, 2, 2, a.terms, a.order, XY,
                                   a.truncated)
                          for v, a in enumerate(shifts)])
        got, want = assert_same_symmetry_defect(G)
        assert {e: c.truncated for e, c in got.terms.items()} == {
            e: c.truncated for e, c in want.terms.items()}

    @settings(max_examples=100)
    @given(perturbed_laws(), st.data())
    def test_product_results(self, F, data):
        """F * G for a random G, and a product of two products: a product
        is reversed in its own layout, and the coefficient flags agree
        too."""
        G = data.draw(engine_series(F.algebra, 2, 2))
        for P in (F * G, (F * G) * (G * F)):
            got, want = assert_same_symmetry_defect(P)
            assert {e: c.truncated for e, c in got.terms.items()} == {
                e: c.truncated for e, c in want.terms.items()}

    def test_elevated_law_of_reconstruct(self):
        """The law that reconstruct solves for is a substitution result."""
        alg = build_hopf_algebra(QTU_HALF)
        u = HopfElement.generator(alg, "u")
        c, g = coboundary(u * u), log_x_plus_tx2(alg)
        F = elevated_law(c, g, order=5)
        _assert_same(reconstruct(alg, c, g, order=5), F.truncate(5))
        assert_same_symmetry_defect(F)
        asymmetric = F + Series(alg, 2, 2, {
            (2, 1): TensorElement.from_slots(u, HopfElement.one(alg))}, 5,
            XY, truncated=True)
        got, _ = assert_same_symmetry_defect(asymmetric)
        assert not got.is_zero() and got.truncated


# -- reconstruction by the theorem ----------------------------------------------

def elevated_law(c, g, order):
    """(Delta g)^{-1}(c + (g (x) 1)(X) + (1 (x) g)(Y)) at the working order
    order + 2 slack(c) of reconstruct, before it is truncated."""
    work = order + 2 * c.nilpotency_slack()
    inverse = g.map_coefficients(
        lambda A: A.apply_slot(0, "comul")).comp_inverse(order=work)
    rhs = (Series.constant(c, 2, INF, XY)
           + g.map_coefficients(lambda A: A.embed(2, (0,))).embed_vars(
               2, (0,), XY)
           + g.map_coefficients(lambda A: A.embed(2, (1,))).embed_vars(
               2, (1,), XY))
    return inverse.substitute([rhs.truncate(work)])


def reference_reconstruct(algebra, c, g, order):
    """reconstruct with the axioms of its elevated law verified by
    check_axioms through `order`, after the same checks of g."""
    work = order + 2 * c.nilpotency_slack()
    if g.order < work:
        raise TruncationInsufficient(
            f"reconstruction at order {order} needs the logarithm through "
            f"order {work} (certified {g.order})")
    if not g.constant_term().is_zero() or g.coeff((1,)).full_counit() != 1:
        raise NoInverse("logarithm must be of the form x + O(x^2)")
    F = elevated_law(c, g, order)
    report = check_axioms(F, order)
    if not report.passed:
        raise AxiomViolation(
            f"reconstructed series fails the {report.violations[0].axiom} "
            "axiom; the cocycle or logarithm is inconsistent")
    return F.truncate(order)


def primitive_pair(algebra, a, b):
    """The tensor of two primitive generators a (x) b, a cocycle."""
    return TensorElement.from_slots(HopfElement.generator(algebra, a),
                                    HopfElement.generator(algebra, b))


def bad_coassociative_algebra(bound=6):
    """Q[t, u] with Delta u = u (x) 1 + 1 (x) u + t (x) t^2, which is not
    coassociative (tests/fixtures/hopf_bad_coassoc.json)."""
    desc = json.loads((FIXTURES / "hopf_bad_coassoc.json").read_text())
    return build_hopf_algebra(dict(desc, degree_bound=bound))


def cocommutative_bad_coassociative_algebra(bound=8, skew=False):
    """Q[t, u] with Delta u = u (x) 1 + 1 (x) u + t^2 (x) t^2, cocommutative
    but not coassociative: t^2 (x) t^2 is no cobar cocycle. With `skew`,
    also s (degree 2, primitive) and v with Delta v = v (x) 1 + 1 (x) v +
    t (x) s, which makes H not cocommutative."""
    gens = [{"name": "t", "degree": 1}, {"name": "u", "degree": 4}]
    coproduct = {"u": [[["u"], ["1"], "1"], [["1"], ["u"], "1"],
                       [["t", "t"], ["t", "t"], "1"]]}
    if skew:
        gens += [{"name": "s", "degree": 2}, {"name": "v", "degree": 3}]
        coproduct["v"] = [[["v"], ["1"], "1"], [["1"], ["v"], "1"],
                          [["t"], ["s"], "1"]]
    return build_hopf_algebra({"generators": gens, "degree_bound": bound,
                               "coproduct": coproduct})


def algebra_named(name, bound):
    if name == "qtu_half":
        return build_hopf_algebra(dict(QTU_HALF, degree_bound=bound))
    if name == "non_cocommutative":
        return non_cocommutative_algebra(bound)
    if name == "bad_coassoc":
        return bad_coassociative_algebra(bound)
    if name == "bad_coassoc_cocommutative":
        return cocommutative_bad_coassociative_algebra(max(bound, 4))
    return builtin_algebra(name, degree_bound=bound)


def reconstruct_case(kind):
    """(algebra, c, g, order) of a reconstruction: "theorem" and "gate
    passes" pass, every other kind fails, most by breaking one condition on
    c or H. The "non-coassociative" kinds (c = 0, g = x + u x^2) satisfy
    the rule's conditions on c, and their laws are not associative."""
    if kind.startswith("non-coassociative"):
        alg = cocommutative_bad_coassociative_algebra(
            skew=kind.endswith("non-cocommutative"))
        g = Series.variable(alg, 1, 1, 0, INF, ("x",)) + Series(
            alg, 1, 1, {(2,): TensorElement.from_slots(
                HopfElement.generator(alg, "u"))}, INF, ("x",))
        return alg, TensorElement.zero(alg, 2), g, 4
    if kind == "gate passes":
        alg = bad_coassociative_algebra()
        return alg, TensorElement.zero(alg, 2), Series.variable(
            alg, 1, 1, 0, INF, ("x",)), 4
    if kind.startswith("non-cocommutative"):
        alg = non_cocommutative_algebra()
        u = HopfElement.generator(alg, "u")
        g = Series.variable(alg, 1, 1, 0, INF, ("x",)) + Series(
            alg, 1, 1, {(2,): TensorElement.from_slots(u)}, INF, ("x",))
        order = -1 if kind.endswith("negative order") else 4
        return alg, two_t_t(alg), g, order
    if kind == "non-cocycle":
        alg = builtin_algebra("qt2")
        t = t_elem(alg)
        c = (TensorElement.from_slots(t, t) * 3
             + TensorElement.from_slots(t * t, t * t))
        return alg, c, log_x_plus_tx2(alg), 4
    if kind == "asymmetric":
        alg = builtin_algebra("qtu", degree_bound=6)
        return alg, primitive_pair(alg, "t", "u"), log_x_plus_tx2(alg), 4
    alg = builtin_algebra("qt1", degree_bound=6)
    t, one = t_elem(alg), HopfElement.one(alg)
    non_counital = TensorElement.from_slots(t, one) + TensorElement.from_slots(
        one, t)
    if kind == "non-counital":
        return alg, non_counital, log_x_plus_tx2(alg), 4
    if kind == "unit and cocycle":
        # symmetric, t^2 (x) t^2 is no cocycle
        c = non_counital + TensorElement.from_slots(t * t, t * t)
        return alg, c, log_x_plus_tx2(alg), 4
    if kind == "all three":
        # t (x) t^2 is no cocycle
        c = TensorElement.from_slots(t, one) * 2 + TensorElement.from_slots(
            t, t * t)
        return alg, c, log_x_plus_tx2(alg), 4
    return alg, two_t_t(alg), log_x_plus_tx2(alg), (
        -1 if kind == "negative order" else 4)


# the kinds of reconstruct_case and what each gives: None passes, "no
# order" raises TruncationInsufficient, an axiom names the AxiomViolation
RECONSTRUCT_VERDICTS = {
    "theorem": None, "non-cocommutative": "symmetry",
    "non-cocycle": "associativity", "non-counital": "unit",
    "asymmetric": "symmetry", "all three": "symmetry",
    "unit and cocycle": "unit", "negative order": "no order",
    "non-cocommutative negative order": "no order",
    "non-coassociative": "associativity",
    "non-coassociative, non-cocommutative": "associativity",
    "gate passes": None}


@st.composite
def reconstruct_inputs(draw):
    """(algebra, c, g, order) over qt1, qt2, qtu, QTU_HALF, a
    non-cocommutative H or one of two non-coassociative ones, cocommutative
    or not, at degree bounds 3-6 (4-6 for the cocommutative one), orders
    0-6. c is a random cocycle, a symmetric candidate (mostly no
    cocycle), a cocycle plus a counit-zero tensor (mostly asymmetric) or
    plus the asymmetric cocycle t (x) u, a cocycle plus the non-counital
    t (x) 1 + 1 (x) t, or zero.
    g is a random logarithm, complete or at a finite order, whose linear
    coefficient is often 1 plus a nilpotent."""
    name = draw(st.sampled_from(["qt1", "qt2", "qtu", "qtu_half",
                                 "non_cocommutative", "bad_coassoc",
                                 "bad_coassoc_cocommutative"]))
    alg = algebra_named(name, draw(st.integers(3, 6)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["cocycle", "cocycle", "candidate",
                                 "asymmetric", "non-counital", "zero"]))
    if kind == "zero":
        c = TensorElement.zero(alg, 2)
    elif kind == "candidate":
        c = random_symmetric_candidate(alg, rng)
    else:
        c = random_cocycle(alg, rng)
    if kind == "asymmetric":
        if "u" in alg.names and alg.is_primitive("u") and draw(st.booleans()):
            c = c + primitive_pair(alg, "t", "u")
        else:
            a = draw(tensor_coefficients(alg, 2, unit=0))
            c = c + TensorElement(alg, 2, {
                k: q for k, q in a.terms.items()
                if all(alg.degree(m) for m in k)})
    elif kind == "non-counital":
        t, one = HopfElement.generator(alg, "t"), HopfElement.one(alg)
        c = c + (TensorElement.from_slots(t, one)
                 + TensorElement.from_slots(one, t)) * random_rational(
                     rng, nonzero=True)
    g = random_logarithm(alg, rng, order=draw(st.integers(1, 5)))
    if draw(st.booleans()):
        g = g + Series.constant(draw(tensor_coefficients(alg, 1, unit=0)),
                                1, INF, ("x",)) * Series.variable(
                                    alg, 1, 1, 0, INF, ("x",))
    if draw(SELDOM):
        g = g.with_order(draw(st.integers(0, 10)))
    return alg, c, g, draw(st.integers(0, 6))


class TestTheoremRoute:
    """reconstruct reads every axiom verdict off c, on every coassociative
    H, with no axiom gate and no composite, and returns or raises what the
    gate-checked reconstruction does."""

    @settings(max_examples=300)
    @given(reconstruct_inputs())
    def test_matches_gate_checked_reconstruction(self, case):
        assert_same_outcome(outcome(reconstruct, *case),
                            outcome(reference_reconstruct, *case))

    @pytest.mark.parametrize("kind", list(RECONSTRUCT_VERDICTS))
    def test_gate_runs_only_off_coassociative(self, kind, monkeypatch):
        """A kind over a coassociative H calls no check_axioms and forms no
        composite; one over any other H calls check_axioms once (the rule
        does not hold there). The first failing axiom in check_axioms'
        order is the one named."""
        case = reconstruct_case(kind)
        calls = [recorded_calls(monkeypatch, fgl_module, name)
                 for name in ("check_axioms", "_gate_composite",
                              "_right_composite", "_composites_defect")]
        got = outcome(reconstruct, *case)
        if case[0].coassociative:
            assert [len(c) for c in calls] == [0, 0, 0, 0]
        else:
            assert len(calls[0]) == 1
        monkeypatch.undo()
        assert_same_outcome(got, outcome(reference_reconstruct, *case))
        verdict = RECONSTRUCT_VERDICTS[kind]
        if verdict is None:
            assert got[1] is None
        elif verdict == "no order":
            assert got[1] == (TruncationInsufficient,
                              "stored data certifies no order at all")
        else:
            assert got[1] == (AxiomViolation, (
                f"reconstructed series fails the {verdict} axiom; the "
                "cocycle or logarithm is inconsistent"))


# -- the parts of a law, placed in one pass -------------------------------------

@st.composite
def placement_cases(draw):
    """(f, start, order) over trivial, qt1, qt2 or qtu at degree bounds
    3-8: a series of arity 1 in one variable placed at slot and variable
    0 or 1 of (X, Y), g (x) 1 or 1 (x) g, or one of arity 2 in two
    variables at slots and variables (0, 1) or (1, 2) of (X, Y, Z), as
    `_lift_inner` places a law, flagged half the time, through an order
    or none."""
    name, bound = draw(NEWTON_ALGEBRAS)
    alg = builtin_algebra(name, degree_bound=bound)
    arity = draw(st.sampled_from([1, 2]))
    f = draw(engine_series(alg, arity, arity, top=3, flags=st.booleans()))
    return (f, draw(st.integers(0, 1)),
            draw(st.one_of(st.just(INF), st.integers(-1, 8))))


def reference_packed_residual(F, g):
    """`fgl._packed_residual` with g (x) 1 and 1 (x) g formed by
    embed(...).embed_vars(...) chains, each truncated and re-laid into
    the evaluator's layout: the route before `_Codec.placed`."""
    lifted = g.apply_slot(0, "comul")
    cap, codec, _ = series_module._substitution_order(lifted, [F],
                                                      g.max_degree())
    bound = F.algebra.degree_bound
    composed = series_module._evaluate(
        lifted._codec.split(lifted._packed, codec,
                            lambda e: (e[0], (0, 0))),
        series_module._in(codec, F.truncate(cap))._packed, cap, bound)
    pairs = [(_UNIT, composed)] + [
        (_MINUS_UNIT, series_module._in(codec, g.embed(2, (s,)).embed_vars(
            2, (s,), F.names).truncate(cap))._packed) for s in (0, 1)]
    return Series._of(codec, _Packed.sum_of_products(pairs, cap, bound))


class TestPlacement:
    """`_Codec.placed` lays the parts of a law out in one pass: each
    placement is the embed(...).embed_vars(...) chain it replaces, in
    terms, certified order, flag and layout, and reconstruct's right-hand
    side and the twisted residual are those of the chains."""

    @settings(max_examples=250)
    @given(placement_cases())
    def test_matches_the_embed_chain(self, case):
        f, start, order = case
        arity = f.arity + 1
        slots = tuple(range(start, start + f.arity))
        want = f.embed(arity, slots).embed_vars(arity, slots,
                                                (XY, XYZ)[f.arity - 1])
        codec = want._codec
        got = Series._of(codec, codec.placed([(f, start)], order))
        _assert_same(got, want.truncate(order))
        assert got._codec is codec
        assert_one_packed_form(got)
        if f.arity == 2:
            lift = _lift_inner(f, slots)
            _assert_same(lift, want)
            assert lift._codec is codec

    def test_part_beyond_the_arity_rejected(self, qt1):
        g = Series.variable(qt1, 2, 1, 0)
        with pytest.raises(ArityMismatch):
            qt1._codec(2, XY, 3).placed([(g, 1)])

    @settings(max_examples=200)
    @given(st.data())
    def test_reconstruct_right_hand_side(self, data):
        """The right-hand side that reconstruct substitutes into is
        c + g (x) 1 + 1 (x) g through its working order, summed from
        `Series.constant` and the embed chains; the law is the one the
        chains give (`elevated_law`)."""
        name, bound = data.draw(NEWTON_ALGEBRAS)
        alg = builtin_algebra(name, degree_bound=bound)
        c = data.draw(tensor_coefficients(alg, 2, unit=0))
        x = Series.variable(alg, 1, 1, 0, INF, ("x",))
        g = x + data.draw(engine_series(
            alg, 1, 1, top=3, flags=st.booleans())) * x * x
        order = data.draw(st.integers(0, 4))
        rhs = []
        original = series_module._substituted

        def recorded(consts, flag, assigns, *args):
            rhs.append(assigns[0])
            return original(consts, flag, assigns, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fgl_module, "_substituted", recorded)
            got = outcome(reconstruct, alg, c, g, order)
        if not rhs:
            assert got[1] is not None
            return
        work = order + 2 * c.nilpotency_slack()
        want = (Series.constant(c, 2, INF, XY)
                + g.embed(2, (0,)).embed_vars(2, (0,), XY)
                + g.embed(2, (1,)).embed_vars(2, (1,), XY)).truncate(work)
        _assert_same(rhs[0], want)
        assert_one_packed_form(rhs[0])
        if got[1] is None:
            _assert_same(got[0], elevated_law(c, g, order).truncate(order))

    @settings(max_examples=200)
    @given(st.data())
    def test_packed_residual(self, data):
        name, bound = data.draw(NEWTON_ALGEBRAS)
        alg = builtin_algebra(name, degree_bound=bound)
        F = data.draw(engine_series(alg, 2, 2, nilpotent_constant=True,
                                    flags=st.booleans()))
        g = data.draw(engine_series(alg, 1, 1, top=3, flags=st.booleans()))
        assert_same_outcome(outcome(_packed_residual, F, g),
                            outcome(reference_packed_residual, F, g))


# -- classical specialization ----------------------------------------------------


class TestSpecialize:
    def test_lemma_law_collapses_to_additive(self, qt1):
        F = lemma_law(qt1, two_t_t(qt1))
        S = specialize(F)
        assert (S - additive_law(qt1)).is_zero()

    def test_rational_series_unchanged(self, qt1):
        x = Series.variable(qt1, 1, 1, 0, INF, ("x",))
        g = x + x * x * Fraction(1, 3)
        assert (specialize(g) - g).is_zero()

    def test_specialized_coefficients_are_scalar(self, qt1):
        g = log_x_plus_tx2(qt1)
        F = reconstruct(qt1, TensorElement.zero(qt1, 2), g, 4)
        S = specialize(F)
        unit = TensorElement.unit(qt1, 2)
        for _, coeff in S.sorted_terms():
            assert coeff == unit * coeff.full_counit()


# -- one flag per series ---------------------------------------------------------

FLAG_OPERATIONS = ("substitute", "comp_inverse", "lift", "mul_inverse",
                   "logarithm", "inverse_series", "reconstruct",
                   "series_from_json")


@st.composite
def flag_cases(draw):
    """(operation, series it returned or None when it raised): inputs
    whose tensors are often flagged before they become coefficients, and
    whose products often leave a low degree bound."""
    op = draw(st.sampled_from(FLAG_OPERATIONS))
    if op == "substitute":
        name, bound = draw(_ENGINE_ALGEBRAS)
        alg = builtin_algebra(name, degree_bound=bound)
        arity = draw(st.integers(1, 3))
        nvars = draw(st.integers(1, 3))
        f = draw(engine_series(alg, arity, nvars, flags=st.booleans()))
        assigns = [draw(engine_series(alg, arity, draw(st.integers(1, 3)),
                                      nilpotent_constant=True))
                   for _ in range(nvars)]
        assigns = [a.embed_vars(3, range(a.nvars)) for a in assigns]
        order = draw(st.one_of(st.none(), st.integers(0, 6)))
        return op, outcome(f.substitute, assigns, order)[0]
    if op in ("comp_inverse", "lift", "mul_inverse"):
        f, order = draw({"comp_inverse": reversion_inputs(),
                         "lift": lift_inputs(),
                         "mul_inverse": mul_inverse_inputs()}[op])
        call = f.mul_inverse if op == "mul_inverse" else f.comp_inverse
        return op, outcome(call, order=order)[0]
    if op in ("logarithm", "inverse_series"):
        F, order = draw(inverse_inputs())
        call = logarithm if op == "logarithm" else inverse_series
        return op, outcome(call, F, order)[0]
    if op == "reconstruct":
        return op, draw(logarithm_laws())[0]
    name, bound = draw(_ENGINE_ALGEBRAS)
    alg = builtin_algebra(name, degree_bound=bound)
    f = draw(engine_series(alg, draw(st.integers(1, 3)),
                           draw(st.integers(1, 3)), top=4))
    low = builtin_algebra(name, degree_bound=draw(st.integers(3, bound)))
    return op, jsonio.series_from_json(jsonio.series_to_json(f), low)


class TestOneFlagPerSeries:
    """A series carries one `truncated` flag: no coefficient of a series
    returned by a substitution, a reversion (of a lift too), an inverse,
    a logarithm, a group inverse, a reconstruction or a JSON read is
    flagged, whatever its inputs' tensors carried."""

    @settings(max_examples=300, deadline=None)
    @given(flag_cases())
    def test_no_coefficient_is_flagged(self, case):
        _, result = case
        if result is not None:
            assert not any(c.truncated for c in result.terms.values())
