"""The product kernel (`_Packed.sum_of_products`) against a brute-force
term-pair product over unpacked terms: terms, canonical denominator,
certified order and `truncated` flag, and the graded layout of what it
packs and forms."""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from fglog import builtin_algebra
from fglog.packed import _UNIT, INF, _Codec, _Packed
from fglog.scalars import Q

ALGEBRAS = st.tuples(st.sampled_from(["trivial", "qt1", "qt2", "qtu"]),
                     st.integers(3, 6))


def keys_within(algebra, arity):
    """Every basis key of the arity inside the degree bound."""
    return [k for k in itertools.product(algebra.monomials(), repeat=arity)
            if algebra.key_degree(k) <= algebra.degree_bound]


@st.composite
def operands(draw, algebra, arity, nvars, dmax):
    """(terms, order, flag) of a packed operand: a few terms {exps: {key:
    Q}} of variable degree up to dmax, mostly none, seldom an empty one;
    an order inf or at least the top stored degree; a rare flag."""
    keys = keys_within(algebra, arity)
    exps = st.tuples(*[st.integers(0, dmax)] * nvars).filter(
        lambda e: sum(e) <= dmax)
    terms = {}
    for _ in range(draw(st.sampled_from([0, 1, 2, 3, 4, 6]))):
        coeff = terms.setdefault(draw(exps), {})
        for _ in range(draw(st.integers(1, 3))):
            coeff[draw(st.sampled_from(keys))] = Q(
                draw(st.sampled_from([-3, -1, 1, 2, 5])),
                draw(st.sampled_from([1, 1, 2, 3, 4, 9])))
    top = max((sum(e) for e in terms), default=0)
    order = draw(st.one_of(st.just(INF), st.integers(top, top + 3)))
    return terms, order, draw(st.sampled_from([False] * 5 + [True]))


@st.composite
def kernel_calls(draw):
    """(codec, [(a, b) as (terms, order, flag) or None for the unit], keep,
    bound): one to three pairs of one layout, over trivial, qt1, qt2 or qtu
    at degree bounds 3-6, a tensor layout (no variables) or one to three
    variables, `keep` inf or anywhere from 0 to past every cap."""
    name, bound = draw(ALGEBRAS)
    algebra = builtin_algebra(name, degree_bound=bound)
    nvars = draw(st.integers(0, 3))
    arity = draw(st.integers(1, 3 if nvars == 0 else 2))
    dmax = 0 if nvars == 0 else draw(st.integers(1, 6))
    names = ("X", "Y", "Z")[:nvars]
    codec = _Codec(algebra, arity, names, 2 * dmax)
    operand = st.one_of(operands(algebra, arity, nvars, dmax),
                        st.just(None))
    pairs = draw(st.lists(st.tuples(operand, operand), min_size=1,
                          max_size=3))
    keep = draw(st.one_of(st.just(INF), st.integers(0, 2 * dmax + 1)))
    return codec, pairs, keep, bound


def unit_terms(codec):
    key = (codec.algebra.unit_mono,) * codec.arity
    return {(0,) * codec.nvars: {key: Q(1)}}


def reference(codec, pairs, keep, bound):
    """(terms, order, flag) of the sum of the products by every pair of
    terms: each pair's order cap is min(r_a + val(b), r_b + val(a)), inf
    for two complete operands; terms are kept through the least of keep
    and the caps; the flag is an operand's, or a pair of terms within its
    own pair's cap whose Hopf degrees sum above the bound."""
    algebra = codec.algebra
    caps = []
    for (ta, ra, _), (tb, rb, _) in pairs:
        va = min((sum(e) for e in ta), default=INF)
        vb = min((sum(e) for e in tb), default=INF)
        caps.append(INF if ra == INF and rb == INF
                    else min(ra + vb, rb + va))
    order = min(keep, *caps)
    flag = False
    acc = {}
    for ((ta, _, fa), (tb, _, fb)), cap in zip(pairs, caps):
        flag = flag or fa or fb
        for (ea, ca), (eb, cb) in itertools.product(ta.items(), tb.items()):
            d = sum(ea) + sum(eb)
            if d > cap:
                continue
            exps = tuple(i + j for i, j in zip(ea, eb))
            for (ka, qa), (kb, qb) in itertools.product(ca.items(),
                                                        cb.items()):
                if algebra.key_degree(ka) + algebra.key_degree(kb) > bound:
                    flag = True
                    continue
                if d > order:
                    continue
                # the built-in algebras are polynomial: a product of
                # basis monomials is the monomial of the summed exponents
                key = tuple(tuple(i + j for i, j in zip(ma, mb))
                            for ma, mb in zip(ka, kb))
                coeff = acc.setdefault(exps, {})
                coeff[key] = coeff.get(key, 0) + qa * qb
    terms = {}
    for exps, coeff in acc.items():
        coeff = {k: q for k, q in coeff.items() if q}
        if coeff:
            terms[exps] = coeff
    return terms, order, flag


def assert_graded(codec, pack):
    """Nonempty buckets of nonzero terms, each sorted by code, holding
    the keys of its Hopf degree, with the degree field of every code equal
    to its variable degree; `val` the least of these degrees."""
    algebra = codec.algebra
    degrees = []
    for h, bucket in pack.buckets.items():
        assert bucket
        codes = [code for code, _ in bucket]
        assert codes == sorted(set(codes))
        for code, num in bucket:
            assert num != 0
            part = _Packed({h: [(code, num)]}, 1, INF, False, codec.shift)
            ((exps, coeff),) = codec.unpack(part).items()
            ((key, _),) = coeff.items()
            assert code >> codec.shift == sum(exps)
            assert algebra.key_degree(key) == h
            degrees.append(sum(exps))
    assert pack.val == min(degrees, default=INF)


def packed(codec, operand):
    if operand is None:
        return _UNIT
    terms, order, flag = operand
    pack = codec.pack(terms, order, flag)
    assert_graded(codec, pack)
    return pack


def as_terms(codec, operand):
    if operand is None:
        return unit_terms(codec), INF, False
    return operand


class TestSumOfProducts:

    @settings(max_examples=300)
    @given(kernel_calls())
    def test_matches_term_pairs(self, call):
        codec, pairs, keep, bound = call
        got = _Packed.sum_of_products(
            [(packed(codec, a), packed(codec, b)) for a, b in pairs],
            keep, bound)
        terms, order, flag = reference(
            codec, [(as_terms(codec, a), as_terms(codec, b))
                    for a, b in pairs], keep, bound)
        assert_graded(codec, got)
        assert codec.unpack(got) == terms
        assert got.den == math.lcm(*(q.denominator for c in terms.values()
                                     for q in c.values()))
        assert got.order == order
        assert got.flag == flag

    @settings(max_examples=100)
    @given(kernel_calls())
    def test_times_and_summed_are_kernel_calls(self, call):
        """`times` is the one-pair call and `summed` the unit times each
        addend."""
        codec, pairs, keep, bound = call
        (a, b), *rest = pairs
        a, b = packed(codec, a), packed(codec, b)
        want = _Packed.sum_of_products([(a, b)], keep, bound)
        got = a.times(b, keep, bound)
        assert codec.unpack(got) == codec.unpack(want)
        assert (got.den, got.order, got.flag) == (want.den, want.order,
                                                  want.flag)
        packs = [a, b] + [packed(codec, x) for pair in rest for x in pair]
        got = _Packed.summed(packs)
        assert_graded(codec, got)
        want = _Packed.sum_of_products([(_UNIT, p) for p in packs], INF, INF)
        assert codec.unpack(got) == codec.unpack(want)
        assert (got.den, got.order, got.flag) == (want.den, want.order,
                                                  want.flag)

    @settings(max_examples=100)
    @given(kernel_calls(), st.integers(-1, 13))
    def test_truncate_keeps_the_low_degrees(self, call, cap):
        """truncate(cap) keeps the terms of degree up to cap, in the
        graded layout, and certifies through cap at most."""
        codec, pairs, _, _ = call
        terms, order, flag = as_terms(codec, pairs[0][0])
        got = packed(codec, pairs[0][0]).truncate(cap)
        assert_graded(codec, got)
        assert codec.unpack(got) == {e: c for e, c in terms.items()
                                     if sum(e) <= cap}
        assert (got.order, got.flag) == (min(order, cap), flag)

    def test_short_exponent_tuples_lead(self, qt1):
        """An exponent tuple shorter than the layout's packs as its
        leading variables with the others 0, as the associativity gate
        packs F(X, Y) among X, Y and Z."""
        codec = _Codec(qt1, 2, ("X", "Y", "Z"), 8)
        key = ((1,), (2,))
        short = {(2, 3): {key: Q(1, 2)}, (0, 1): {key: Q(3)}}
        got = codec.pack(short)
        assert_graded(codec, got)
        assert codec.unpack(got) == {e + (0,): c for e, c in short.items()}
