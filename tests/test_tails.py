"""Tail-perturbation oracle for the certified order.

An input stored through a finite order r stands for every series that
agrees with it through r. So an operation's result through the order it
certifies must not change when terms above r, in every variable, are
added to its inputs: the same terms, and for a report the same violations
with the same defects, or the same exception. A call that certifies no
order at all (TruncationInsufficient) claims nothing. The perturbed call
runs on inputs stored two orders further, and the two results are compared
through the lesser of the two certified orders.

The inputs are drawn over qt1 or qt2 at degree bounds 3-8, with nilpotent
constant terms and with variables missing from their stored terms, where
a certified order that reads only the stored terms is over-claimed; each
test runs the worked witnesses as explicit examples.
"""

import functools
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fglog import HopfElement, TensorElement, builtin_algebra
from fglog.errors import FglError, TruncationInsufficient
from fglog.fgl import check_axioms, check_log, lemma_law
from fglog.scalars import Q
from fglog.series import Series

INF = math.inf
XY = ("X", "Y")

ALGEBRAS = st.builds(builtin_algebra, st.sampled_from(["qt1", "qt2"]),
                     st.integers(3, 8))


@st.composite
def coefficients(draw, algebra, arity, nilpotent=False):
    """A tensor of one to three basis keys inside the bound, the unit key
    among them often unless `nilpotent`; possibly zero when nilpotent."""
    keys = [k for k in _keys(algebra, arity)
            if not nilpotent or algebra.key_degree(k) > 0]
    unit = (algebra.unit_mono,) * arity
    terms = {}
    if not nilpotent and draw(st.booleans()):
        terms[unit] = Q(draw(st.sampled_from([1, -1, 2])))
    for _ in range(draw(st.integers(0 if nilpotent else 1, 2))):
        terms[draw(st.sampled_from(keys))] = Q(
            draw(st.sampled_from([1, -1, 2, 3])), draw(st.integers(1, 2)))
    return TensorElement(algebra, arity, terms)


@functools.lru_cache(maxsize=None)
def _keys(algebra, arity):
    monos = algebra.monomials()
    if arity == 1:
        return [(m,) for m in monos]
    return [(a, b) for a in monos for b in monos
            if algebra.degree(a) + algebra.degree(b) <= algebra.degree_bound]


@st.composite
def stored(draw, algebra, arity, nvars, names, top=3, nilpotent=True):
    """A series stored through a finite order r <= top, or complete (when
    top is None): a constant term (nilpotent when asked) and a few terms
    of degree 1..r, some variables often missing from them."""
    order = INF if top is None else draw(st.integers(0, top))
    present = [v for v in range(nvars) if draw(st.booleans())]
    terms = {(0,) * nvars: draw(coefficients(algebra, arity, nilpotent))}
    high = 3 if order == INF else order
    for _ in range(draw(st.integers(0, 3)) if present and high else 0):
        exps = [0] * nvars
        for _ in range(draw(st.integers(1, high))):
            exps[draw(st.sampled_from(present))] += 1
        terms[tuple(exps)] = draw(coefficients(algebra, arity))
    return Series(algebra, arity, nvars, terms, order, names)


@st.composite
def perturbed(draw, series):
    """The series plus terms of degree r + 1 and r + 2, a power of every
    variable among them, stored through r + 2; a complete series as it
    is."""
    if series.order == INF:
        return series
    r = series.order
    terms = dict(series.terms)
    for v in range(series.nvars):
        exps = [0] * series.nvars
        exps[v] = r + draw(st.integers(1, 2))
        terms[tuple(exps)] = draw(coefficients(series.algebra,
                                               series.arity))
    for _ in range(draw(st.integers(0, 2))):
        exps = [0] * series.nvars
        for _ in range(r + draw(st.integers(1, 2))):
            exps[draw(st.integers(0, series.nvars - 1))] += 1
        terms[tuple(exps)] = draw(coefficients(series.algebra,
                                               series.arity))
    return Series(series.algebra, series.arity, series.nvars, terms, r + 2,
                  series.names)


def _run(fn, *args):
    try:
        return fn(*args), None
    except FglError as exc:
        return None, exc


def _assert_same_through_cert(call, inputs, tails, order_of, cut):
    """call(*inputs) against call(*tails): the same exception type, or
    equal `cut` views through the lesser certified order."""
    got, error = _run(call, *inputs)
    if isinstance(error, TruncationInsufficient):
        return
    again, error_again = _run(call, *tails)
    if error is not None:
        assert type(error_again) is type(error)
        return
    assert error_again is None, error_again
    through = min(order_of(got), order_of(again))
    assert cut(got, through) == cut(again, through)


def _certified(report):
    return INF if report.certified_order is None else report.certified_order


def _violations(report, through):
    """(axiom, defect terms) of every violation nonzero through order."""
    out = []
    for v in report.violations:
        defect = v.defect.truncate(through)
        if not defect.is_zero():
            out.append((v.axiom, defect.terms))
    return out


# -- the witnesses, in library form -------------------------------------------

QT1_D4 = builtin_algebra("qt1", 4)
QT1_D8 = builtin_algebra("qt1", 8)


def _t(algebra):
    return HopfElement.generator(algebra, "t")


def _x(algebra, order=INF):
    return Series.variable(algebra, 1, 1, 0, order, ("x",))


def _two_t_t(algebra):
    t = _t(algebra)
    return TensorElement.from_slots(t, t) * 2


# W1: 2 + O(x^3) with x -> t^2 + x at D = 4 certifies order 0: 2 + x^3
# gives 2 + 3t^4 x + 3t^2 x^2 + x^3
W1 = ([Series.constant(TensorElement.unit(QT1_D4, 1) * 2, 1, 2, ("x",)),
       [Series.constant(_t(QT1_D4) ** 2, 1, INF, ("x",)) + _x(QT1_D4)]],
      [Series.constant(TensorElement.unit(QT1_D4, 1) * 2, 1, 4, ("x",))
       + _x(QT1_D4, 4) ** 3,
       [Series.constant(_t(QT1_D4) ** 2, 1, INF, ("x",)) + _x(QT1_D4)]])
# W2: g = x through 5 with F = 2(t (x) t) + X + Y through 4 at D = 4
# certifies order 2: x + x^6 fails log-invariance at order 3
W2 = ([lemma_law(QT1_D4, _two_t_t(QT1_D4)).truncate(4), _x(QT1_D4, 5)],
      [lemma_law(QT1_D4, _two_t_t(QT1_D4)).truncate(6),
       _x(QT1_D4, 7) + _x(QT1_D4, 7) ** 6])
# W3: 2(t (x) t) stored through order 0 certifies no order (-4): with
# X + Y + X^2 above it the constant of the associativity defect is nonzero
W3 = ([lemma_law(QT1_D8, _two_t_t(QT1_D8)).truncate(0)],
      [lemma_law(QT1_D8, _two_t_t(QT1_D8))
       + Series.variable(QT1_D8, 2, 2, 0, INF, XY) ** 2])


@st.composite
def substitutions(draw):
    """([f, assigns], [f', assigns']): f in one or two variables stored
    through a finite order, any constant; each assignment in one or two
    target variables, nilpotent constant, finite or complete."""
    algebra = draw(ALGEBRAS)
    arity = draw(st.integers(1, 2))
    nvars, target = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    names = ("x",) if target == 1 else XY
    f = draw(stored(algebra, arity, nvars, None if nvars == 1 else XY,
                    nilpotent=False))
    assigns = [draw(stored(algebra, arity, target, names,
                           top=draw(st.sampled_from([None, 3]))))
               for _ in range(nvars)]
    return ([f, assigns],
            [draw(perturbed(f)), [draw(perturbed(a)) for a in assigns]])


@st.composite
def log_checks(draw):
    """([F, g], [F', g']): F in (X, Y) over H (x) H with a nilpotent
    constant, sometimes plus X + Y, and g in x over H."""
    algebra = draw(ALGEBRAS)
    F = draw(stored(algebra, 2, 2, XY))
    if draw(st.booleans()):
        F = F + lemma_law(algebra, TensorElement.zero(algebra, 2), F.order)
    g = draw(stored(algebra, 1, 1, ("x",), top=4, nilpotent=False))
    return [F, g], [draw(perturbed(F)), draw(perturbed(g))]


@st.composite
def axiom_checks(draw):
    """([F], [F']): F as for check_log."""
    F = draw(log_checks())[0][0]
    return [F], [draw(perturbed(F))]


class TestTailPerturbation:

    @settings(max_examples=200)
    @given(substitutions())
    @example(W1)
    def test_substitute(self, case):
        (f, assigns), (f2, assigns2) = case
        _assert_same_through_cert(
            lambda g, a: g.substitute(a), (f, assigns), (f2, assigns2),
            lambda s: s.order, lambda s, n: s.truncate(n).terms)

    @settings(max_examples=200)
    @given(log_checks())
    @example(W2)
    def test_check_log(self, case):
        _assert_same_through_cert(check_log, *case, _certified, _violations)

    @settings(max_examples=200)
    @given(axiom_checks())
    @example(W3)
    def test_check_axioms(self, case):
        _assert_same_through_cert(check_axioms, *case, _certified,
                                  _violations)
