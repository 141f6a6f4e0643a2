"""The product kernel (`_Packed.sum_of_products`) against a brute-force
term-pair product over unpacked terms: terms, canonical denominator,
certified order and `truncated` flag, and the graded layout of what it
packs and forms; the packed tensor operations against Fraction dicts; and
no Fraction built on the hot paths."""

import fractions
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fglog import (
    ArityMismatch,
    HopfElement,
    NonInvertibleConstantTerm,
    TensorElement,
    builtin_algebra,
)
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
    variables, `keep` inf or anywhere from 0 to past every cap, often
    2 * dmax, at or above the top degrees of any two operands summed,
    where every outer term takes the whole inner bucket."""
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
    keep = draw(st.one_of(st.just(INF), st.just(2 * dmax),
                          st.integers(0, 2 * dmax + 1)))
    return codec, pairs, keep, bound


def pack_terms(codec, terms, order=INF, flag=False):
    """codec.pack of {exps: {key: Q}}, each coefficient a tensor."""
    return codec.pack({e: TensorElement(codec.algebra, codec.arity, c)
                       for e, c in terms.items()}, order, flag)


def unpacked(codec, pack):
    """{exps: {key: Q}} of codec.unpack."""
    return {e: c.terms for e, c in codec.unpack(pack).items()}


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
            ((exps, coeff),) = unpacked(codec, part).items()
            ((key, _),) = coeff.items()
            assert code >> codec.shift == sum(exps)
            assert algebra.key_degree(key) == h
            degrees.append(sum(exps))
    assert pack.val == min(degrees, default=INF)


def packed(codec, operand):
    if operand is None:
        return _UNIT
    terms, order, flag = operand
    pack = pack_terms(codec, terms, order, flag)
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
        assert unpacked(codec, got) == terms
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
        assert unpacked(codec, got) == {e: c for e, c in terms.items()
                                        if sum(e) <= cap}
        assert (got.order, got.flag) == (min(order, cap), flag)

    @settings(max_examples=150)
    @given(kernel_calls(), st.data())
    def test_relaid_matches_pack_of_unpack(self, call, data):
        """A form re-laid code by code into another layout of its algebra
        (another variable width, one more variable, a larger arity) holds
        what packing its unpacked terms there gives, bucket for bucket in
        the same order, over its own denominator, which truncation can
        leave unreduced."""
        codec, pairs, _, _ = call
        source = packed(codec, pairs[0][0]).truncate(
            data.draw(st.integers(0, 13)))
        nvars = codec.nvars
        if 0 < nvars < 3 and data.draw(st.booleans()):
            nvars += 1
        arity = data.draw(st.integers(codec.arity,
                                      3 if nvars == 0 else 2))
        top = max((sum(e) for e in codec.unpack(source)), default=0)
        vmax = top + data.draw(st.integers(0, 9))
        target = _Codec(codec.algebra, arity, ("X", "Y", "Z")[:nvars], vmax)
        got = codec.relaid(source, target)
        want = target.pack(codec.unpack(source), source.order, source.flag)
        assert_graded(target, got)
        assert got.den == source.den
        assert (got.order, got.flag, got.shift) == (want.order, want.flag,
                                                    want.shift)

        def fractions(pack):
            return {h: [(code, Q(n, pack.den)) for code, n in bucket]
                    for h, bucket in pack.buckets.items()}
        assert fractions(got) == fractions(want)

    def test_relaid_among_three_variables_is_sorted(self, qt1):
        """X^2 Y and X Y^2 sort by X in the layout of (X, Y) and by Y first
        in that of (X, Y, Z): re-laid there, the bucket is sorted again."""
        source = _Codec(qt1, 2, ("X", "Y"), 2)
        target = _Codec(qt1, 2, ("X", "Y", "Z"), 2)
        key = ((1,), (0,))
        pack = pack_terms(source, {(2, 1): {key: Q(1)}, (1, 2): {key: Q(2)}})
        got = source.relaid(pack, target)
        assert_graded(target, got)
        assert got.buckets == target.pack(source.unpack(pack)).buckets

    def test_short_exponent_tuples_lead(self, qt1):
        """An exponent tuple shorter than the layout's packs as its
        leading variables with the others 0, as the associativity gate
        packs F(X, Y) among X, Y and Z."""
        codec = _Codec(qt1, 2, ("X", "Y", "Z"), 8)
        key = ((1,), (2,))
        short = {(2, 3): {key: Q(1, 2)}, (0, 1): {key: Q(3)}}
        got = pack_terms(codec, short)
        assert_graded(codec, got)
        assert unpacked(codec, got) == {e + (0,): c
                                        for e, c in short.items()}


# -- packed tensors against Fraction dicts -----------------------------------
#
# A TensorElement is a reduced _Packed of its algebra's tensor layout. Each
# of its operations below is compared, terms and `truncated` flag, with a
# reference over Fraction dicts {key: Q} kept here: the loops the tensor
# operations ran before they moved to packed codes.

MUTATIONS = (
    # Delta t = t (x) t + t (x) 1 + 1 (x) t: a component of degree 2 from
    # a generator of degree 1, so a slot map can leave the degree bound
    ("qt1", {"comul": {"t": {((1,), (1,)): 1, ((1,), (0,)): 1,
                             ((0,), (1,)): 1}}}),
    ("qt2", {"counit": {"t": Q(1, 2)}}),
    # S t = t - u leaves degree 1 for degree 3
    ("qtu", {"antipode": {"t": {(1, 0): 1, (0, 1): -1}}}),
)


@st.composite
def tensor_algebras(draw):
    """A built-in algebra at a bound of 3-6, or a `mutated` one."""
    if draw(st.booleans()):
        name, tables = draw(st.sampled_from(MUTATIONS))
        return builtin_algebra(name, draw(st.integers(3, 6))).mutated(
            **tables)
    name, bound = draw(ALGEBRAS)
    return builtin_algebra(name, degree_bound=bound)


@st.composite
def raw_terms(draw, algebra, arity):
    """(terms, flag) for the constructor: zero to five keys, seldom one
    of monomials of degree up to the bound plus 2, which may leave it,
    some coefficients zero, and a rare flag."""
    monos = st.tuples(*[st.integers(0, (algebra.degree_bound + 2) // d)
                        for d in algebra.degrees])
    keys = st.one_of(*[st.sampled_from(keys_within(algebra, arity))] * 5,
                     st.tuples(*[monos] * arity))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        key = draw(keys)
        terms[key] = Q(draw(st.sampled_from([-3, -1, 0, 1, 2, 5])),
                       draw(st.sampled_from([1, 1, 2, 3, 4])))
    return terms, draw(st.sampled_from([False] * 5 + [True]))


def ref_tensor(algebra, arity, terms, flag=False):
    """(terms, flag) as the constructor keeps them: zero coefficients
    dropped, keys above the bound dropped, flagging when nonzero."""
    kept = {}
    for key, q in terms.items():
        if q == 0:
            continue
        if algebra.key_degree(key) > algebra.degree_bound:
            flag = True
            continue
        kept[key] = q
    return kept, flag


def ref_add(a, b, sign=1):
    terms = dict(a[0])
    for key, q in b[0].items():
        terms[key] = terms.get(key, 0) + sign * q
    return {k: q for k, q in terms.items() if q}, a[1] or b[1]


def ref_scale(a, q):
    if q == 0:
        return {}, False
    return {k: c * q for k, c in a[0].items()}, a[1]


def ref_mul(algebra, a, b):
    """The product by every pair of terms: a pair whose Hopf degrees sum
    above the bound flags it."""
    flag = a[1] or b[1]
    acc = {}
    for (ka, qa), (kb, qb) in itertools.product(a[0].items(), b[0].items()):
        if (algebra.key_degree(ka) + algebra.key_degree(kb)
                > algebra.degree_bound):
            flag = True
            continue
        key = tuple(tuple(i + j for i, j in zip(ma, mb))
                    for ma, mb in zip(ka, kb))
        acc[key] = acc.get(key, 0) + qa * qb
    return {k: q for k, q in acc.items() if q}, flag


def ref_embed(algebra, a, arity, slots):
    terms = {}
    for key, q in a[0].items():
        new = [algebra.unit_mono] * arity
        for pos, m in zip(slots, key):
            new[pos] = m
        terms[tuple(new)] = q
    return terms, a[1]


def ref_comul_mono(algebra, mono):
    """Delta of a monomial: its first generator's table, keys above the
    bound dropped, times Delta of the rest."""
    unit = algebra.unit_mono
    if mono == unit:
        return {(unit, unit): Q(1)}
    i = next(j for j, e in enumerate(mono) if e)
    rest = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
    table = ref_tensor(algebra, 2, algebra._gen_comul[i])
    return ref_mul(algebra, table, (ref_comul_mono(algebra, rest),
                                    False))[0]


def ref_map_slot(algebra, a, slot, span, arity, image):
    """Every key's `span` monomials from `slot` on replaced by their image
    {monomials: Q}, the sum kept as the constructor keeps it."""
    acc = {}
    for key, q in a[0].items():
        for part, m in image(*key[slot:slot + span]).items():
            k = key[:slot] + part + key[slot + span:]
            acc[k] = acc.get(k, 0) + q * m
    return ref_tensor(algebra, arity, acc, a[1])


def ref_images(algebra):
    def counit(m):
        q = algebra.counit_mono(m)
        return {(): q} if q else {}

    def antipode(m):
        return algebra.antipode_mono(m).terms

    def product(m1, m2):
        return {(algebra.mul_mono(m1, m2),): Q(1)}

    return {"comul": lambda m: ref_comul_mono(algebra, m),
            "counit": counit, "antipode": antipode, "mul": product}


def ref_from_slots(algebra, slots):
    """The product of the slots' embeddings, zero slots first."""
    arity = len(slots)
    result = {(algebra.unit_mono,) * arity: Q(1)}, False
    for i, el in sorted(enumerate(slots), key=lambda item: bool(item[1][0])):
        result = ref_mul(algebra, result,
                         ref_embed(algebra, el, arity, (i,)))
    return result


def ref_mul_inverse(algebra, arity, a):
    """The geometric series in the unflagged 1 - a / q0, times 1 / q0."""
    unit_key = (algebra.unit_mono,) * arity
    q0 = a[0].get(unit_key, 0)
    if q0 == 0:
        raise NonInvertibleConstantTerm(
            "tensor has no unit component; not invertible")
    nil = {k: -q / q0 for k, q in a[0].items() if k != unit_key}, False
    result, power = ({unit_key: Q(1)}, False), nil
    while power[0]:
        result = ref_add(result, power)
        power = ref_mul(algebra, power, nil)
    return ref_scale(result, 1 / q0)


def ref_full_counit(algebra, a):
    total = Q(0)
    for key, q in a[0].items():
        for m in key:
            q *= algebra.counit_mono(m)
        total += q
    return total


def assert_canonical(tensor):
    """Sorted buckets of nonzero numerators over a positive denominator
    that shares no factor with them all, each code that of a key of its
    bucket's Hopf degree, within the bound."""
    algebra, packed = tensor.algebra, tensor._packed
    codec = algebra._codec(tensor.arity)
    assert packed.den > 0 and packed.shift == codec.shift
    assert math.gcd(packed.den, *[n for b in packed.buckets.values()
                                  for _, n in b]) == 1
    for h, bucket in packed.buckets.items():
        codes = [code for code, _ in bucket]
        assert bucket and codes == sorted(set(codes))
        assert h <= algebra.degree_bound
        for code, num in bucket:
            assert num and algebra.key_degree(codec.key(code)) == h
            assert codec.key_code(codec.key(code)) == (code, h)


def outcome(fn, *args):
    """(terms, flag) of a tensor, a scalar, or the exception's type and
    message."""
    try:
        value = fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    if isinstance(value, TensorElement):
        assert_canonical(value)
        return value.terms, value.truncated
    return value


@st.composite
def tensor_cases(draw):
    """(algebra, arity, [(terms, flag)] of three raw operands)."""
    algebra = draw(tensor_algebras())
    arity = draw(st.integers(1, 3))
    return algebra, arity, [draw(raw_terms(algebra, arity))
                            for _ in range(3)]


QT1_D8 = builtin_algebra("qt1", 8)


class TestPackedTensors:

    @settings(max_examples=300)
    @given(tensor_cases(), st.sampled_from([0, 3, Q(-1, 2), Q(5, 3)]))
    def test_linear_structure(self, case, q):
        algebra, arity, raw = case
        (a, fa), (b, fb), _ = raw
        ta = TensorElement(algebra, arity, a, fa)
        tb = TensorElement(algebra, arity, b, fb)
        ra = ref_tensor(algebra, arity, a, fa)
        rb = ref_tensor(algebra, arity, b, fb)
        assert outcome(lambda: ta) == ra
        assert outcome(lambda: ta + tb) == ref_add(ra, rb)
        assert outcome(lambda: ta - tb) == ref_add(ra, rb, -1)
        assert outcome(lambda: -ta) == ref_scale(ra, -1)
        assert outcome(lambda: ta * q) == ref_scale(ra, q)
        assert outcome(lambda: q * ta) == ref_scale(ra, q)
        assert outcome(lambda: ta + q) == ref_add(
            ra, ({(algebra.unit_mono,) * arity: Q(q)} if q else {}, False))
        assert (ta == tb) == (ra[0] == rb[0])
        assert ta == TensorElement(algebra, arity, ra[0])
        assert hash(ta) == hash(TensorElement(algebra, arity, ra[0]))

    @settings(max_examples=300)
    @given(tensor_cases(), st.data())
    def test_product_embed_permute(self, case, data):
        algebra, arity, raw = case
        (a, fa), (b, fb), _ = raw
        ta = TensorElement(algebra, arity, a, fa)
        tb = TensorElement(algebra, arity, b, fb)
        ra = ref_tensor(algebra, arity, a, fa)
        rb = ref_tensor(algebra, arity, b, fb)
        assert outcome(lambda: ta * tb) == ref_mul(algebra, ra, rb)
        assert outcome(ta.full_counit) == ref_full_counit(algebra, ra)
        target = data.draw(st.integers(arity, 3))
        slots = sorted(data.draw(st.permutations(range(target)))[:arity])
        assert outcome(ta.embed, target, slots) == ref_embed(
            algebra, ra, target, slots)
        perm = data.draw(st.permutations(range(arity)))
        assert outcome(ta.permute, perm) == (
            {tuple(key[p] for p in perm): q for key, q in ra[0].items()},
            ra[1])

    @settings(max_examples=300)
    @given(tensor_cases(), st.data())
    def test_slot_maps(self, case, data):
        algebra, arity, raw = case
        (a, fa), _, _ = raw
        ta = TensorElement(algebra, arity, a, fa)
        ra = ref_tensor(algebra, arity, a, fa)
        images = ref_images(algebra)
        slot = data.draw(st.integers(0, arity - 1))
        for op, width in (("comul", 2), ("counit", 0), ("antipode", 1)):
            arity_out = arity + width - 1
            want = (ref_map_slot(algebra, ra, slot, 1, arity_out,
                                 images[op])
                    if 1 <= arity_out <= 3 else None)
            got = outcome(ta.apply_slot, slot, op)
            if want is None:
                assert got[0] is ArityMismatch
            else:
                assert got == want
        if arity > 1:
            i = data.draw(st.integers(0, arity - 2))
            assert outcome(ta.contract_mul, (i, i + 1)) == ref_map_slot(
                algebra, ra, i, 2, arity - 1, images["mul"])

    @settings(max_examples=300)
    @given(tensor_cases(), st.integers(1, 3))
    # t^5 (x) t^5 (x) 0 at D = 8, whose first two slots overflow the bound,
    # and t (x) a flagged zero: zero, flagged by the slots' flags alone
    @example((QT1_D8, 1, [({((5,),): Q(1)}, False)] * 2 + [({}, False)]), 3)
    @example((QT1_D8, 1, [({((1,),): Q(2)}, False), ({}, True),
                          ({}, False)]), 2)
    def test_from_slots_and_mul_inverse(self, case, count):
        algebra, arity, raw = case
        slots = [TensorElement(algebra, 1,
                               {key[:1]: q for key, q in terms.items()},
                               flag)
                 for terms, flag in raw[:count]]
        refs = [ref_tensor(algebra, 1, el.terms, el.truncated)
                for el in slots]
        assert outcome(TensorElement.from_slots, *slots) == ref_from_slots(
            algebra, refs)
        (a, fa), _, _ = raw
        ta = TensorElement(algebra, arity, a, fa)
        ra = ref_tensor(algebra, arity, a, fa)
        for t, r in ((ta, ra), (ta + 1, ref_add(
                ra, ({(algebra.unit_mono,) * arity: Q(1)}, False)))):
            assert outcome(t.mul_inverse) == outcome(
                ref_mul_inverse, algebra, arity, r)


# -- no Fraction on the hot paths ---------------------------------------------

class TestNoFractions:
    """Products, slot maps, series products and substitutions on packed
    inputs move int numerators and codes: they construct no Fraction."""

    @pytest.fixture
    def fraction_count(self, monkeypatch):
        count = [0]
        new = fractions.Fraction.__new__

        def counted(cls, *args, **kwargs):
            count[0] += 1
            return new(cls, *args, **kwargs)
        monkeypatch.setattr(fractions.Fraction, "__new__", counted)
        return count

    @pytest.mark.parametrize("name", ["qt1", "qt2", "qtu"])
    def test_hot_paths_build_no_fraction(self, name, fraction_count):
        from fglog.series import Series

        algebra = builtin_algebra(name)
        gens = [HopfElement.generator(algebra, n) for n in algebra.names]
        g = gens[-1]
        a = TensorElement.from_slots(Q(1, 2) * g + 3, g * g - Q(2, 3) * g)
        b = TensorElement.from_slots(g - Q(1, 4), Q(5, 7) * g + 1)
        f = Series(algebra, 2, 1, {(1,): a, (2,): b, (3,): a - b}, 6)
        kappa = TensorElement.from_slots(g, g)  # nilpotent, counit 0
        h = Series(algebra, 2, 1, {(0,): kappa, (1,): b}, 6)
        # the algebra's caches of structure-map images are warm
        for op in ("comul", "counit", "antipode"):
            for slot in (0, 1):
                a.apply_slot(slot, op)
                b.apply_slot(slot, op)
        before = fraction_count[0]
        product = a * b
        images = [t.apply_slot(slot, op) for t in (a, b) for slot in (0, 1)
                  for op in ("comul", "counit", "antipode")]
        series_product = f * h
        composite = f.substitute([h])
        assert fraction_count[0] == before
        # the results are what the Fraction terms give
        assert (product.terms, product.truncated) == ref_mul(
            algebra, (a.terms, False), (b.terms, False))
        assert len(images) == 12 and not series_product.is_zero()
        assert composite.order == 6 - kappa.nilpotency_slack()
