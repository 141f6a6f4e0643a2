"""The product kernel: packed terms of H^(x)k[[X]] and their product.

Every product and sum of coefficient terms runs on one loop,
`_Packed.sum_of_products`, which adds the products of several pairs into
one accumulator over a common denominator (`_Packed.times` is one pair,
`_Packed.summed` the unit times each addend): sums and products of series
and of tensors, the Horner and Newton steps (series.py `_series_mul`, a
step's addend the unit times it as a second pair), the Paterson-Stockmeyer
evaluator (`series._evaluate`), the packed rows of `Series.mul_inverse`
and of the associativity gate (`fgl._gate_composite`).
A term's slot monomials, variable exponents and total variable degree are
packed into one graded int key, a field per exponent with the degree field
on top in place of the last exponent's (which the degree and the others
give), so the key of a product term is the sum of its factors' keys, keys
sort by degree first and are no longer than one field per exponent. The
Hopf fields have one width for every layout of an algebra, the variable
fields one sized for the series at hand (`_Codec`).
The symmetry defect of a law, and the associativity defect of a law equal
to its flip, are a packed series minus its key-field reversal, which puts
the tensor slots and the variables in reverse order
(`_Codec.minus_reversed`).
Coefficients are int numerators over one common denominator per operand.
Terms are bucketed by Hopf degree alone, each bucket a list sorted by key:
the degree bound is decided once per pair of buckets, and the order cap by
the first and last keys of the two buckets, or by one bisection of the
inner bucket per outer term (Monagan and Pearce, CASC 2007, on graded
packed monomials; Johnson 1974 on sparse products).

A tensor (hopf.py `TensorElement`) and a series (series.py `Series`) are
each one _Packed. A tensor's layout, without variables, is the low
`hopf_bits` of every series layout of its algebra and arity: a
coefficient's codes or-ed with its exponents' fields are the series'
codes (`_Codec.pack`, `_Codec.split`), a constant is its tensor's own
_Packed re-stamped (`_Packed.stamped`), and Fractions are built only from
input and for output (`TensorElement.terms`, `Series.terms`).

Tensor powers of H are truncated by total degree across the slots. That
span is an ideal and, since every structure map preserves degree, also a
coideal, so the structure maps descend exactly to the quotient and the Hopf
and group-law identities hold there on the nose; the coproduct of a
high-degree element discarded slot by slot would have components with every
leg inside the bound. A product of two terms leaves the quotient exactly
when their Hopf degrees sum above the bound. The `truncated` flag of a
product is set iff an operand is flagged or some pair of nonzero terms
within the order cap leaves the quotient: it is the one flag of the
series or tensor the _Packed stands for.
"""

import math
from bisect import bisect_left
from operator import itemgetter

INF = math.inf
_code = itemgetter(0)  # sorting (code, numerator) terms by code alone


class _Codec:
    """Packed-key layout for one algebra, arity and variable tuple. Every
    generator exponent of a tensor slot gets `hwidth` = max(D, 1).bit_length()
    bits, the slots first; the variables but the last get `width` bits
    each above them, sized by `vmax` alone; the total variable degree sits
    above those, at bit `shift`, with no bound, and the last exponent is
    the degree minus the others. A field of its own for the degree would
    push keys that now fit in one 30-bit int digit past it. Variable
    exponents up to `vmax` and generator exponents up to the degree bound
    fit; products are only formed within those limits, so adding two keys
    never carries from one field into the next, and a key's degree is
    `key >> shift`.

    The layout without variables, `HopfAlgebra._codec(arity)`, is that of
    the tensors themselves (`TensorElement`), and every layout of the
    algebra and arity embeds it: a tensor's code is the low `hopf_bits`
    of a series code, and its coefficients' codes, or-ed with their
    exponents' fields, are the series' codes."""

    __slots__ = ("algebra", "arity", "nvars", "names", "width", "hwidth",
                 "hopf_bits", "shift", "_codes", "_keys", "_exps")

    def __init__(self, algebra, arity, names, vmax):
        self.algebra = algebra
        self.arity = arity
        self.nvars = len(names)
        self.names = names
        self.hwidth = max(algebra.degree_bound, 1).bit_length()
        self.width = max(vmax, 1).bit_length()
        self.hopf_bits = self.hwidth * arity * len(algebra.names)
        self.shift = self.hopf_bits + self.width * max(self.nvars - 1, 0)
        self._codes = {}  # tensor key -> (code, Hopf degree)
        self._keys = {}  # tensor code -> tensor key
        self._exps = {}  # code >> hopf_bits -> exponent tuple

    def key_code(self, key):
        """(code, Hopf degree) of a tensor key of this layout's arity."""
        hit = self._codes.get(key)
        if hit is None:
            code = shift = 0
            for mono in key:
                for e in mono:
                    code |= e << shift
                    shift += self.hwidth
            hit = self._codes[key] = (code, self.algebra.key_degree(key))
        return hit

    def key(self, code):
        """The tensor key of a tensor code."""
        key = self._keys.get(code)
        if key is None:
            hwidth = self.hwidth
            mask = (1 << hwidth) - 1
            ngens = len(self.algebra.names)
            key = self._keys[code] = tuple(
                tuple((code >> (hwidth * (s * ngens + i))) & mask
                      for i in range(ngens))
                for s in range(self.arity))
        return key

    def _exps_code(self, exps):
        """The variable fields and the degree field of an exponent tuple;
        a tuple shorter than the layout's gives the leading variables'
        exponents, the others 0 (a law in X, Y among X, Y, Z)."""
        code = sum(exps) << self.shift
        shift = self.hopf_bits
        for e in exps[:self.nvars - 1]:
            code |= e << shift
            shift += self.width
        return code

    def _code_exps(self, vcode):
        """The exponent tuple of the variable and degree fields `vcode`
        (a code shifted down by hopf_bits)."""
        exps = self._exps.get(vcode)
        if exps is None:
            width = self.width
            mask = (1 << width) - 1
            head = [(vcode >> (width * i)) & mask
                    for i in range(self.nvars - 1)]
            exps = self._exps[vcode] = (
                () if not self.nvars
                else (*head, (vcode >> (width * len(head))) - sum(head)))
        return exps

    def like(self, arity=None, names=None, vmax=0):
        """This layout with another arity or variable tuple when given,
        whose variable fields also hold exponents up to `vmax`: this codec
        itself when nothing changes (one variable has no such field)."""
        arity = self.arity if arity is None else arity
        names = self.names if names is None else names
        if (arity, names) == (self.arity, self.names) and (
                self.nvars < 2 or vmax >> self.width == 0):
            return self
        return self.algebra._codec(arity, names,
                                   max(vmax, (1 << self.width) - 1))

    def pack(self, terms, order=INF, flag=False):
        """_Packed form of {exps: TensorElement}: each coefficient's codes
        or-ed with its exponents' fields, its numerators rescaled to the
        common denominator. The coefficients are taken in the order of
        those fields, which lie above every tensor code, so each bucket
        comes out sorted."""
        den = math.lcm(*[c._packed.den for c in terms.values()])
        buckets = {}
        for base, p in sorted([(self._exps_code(e), c._packed)
                               for e, c in terms.items()], key=_code):
            scale = den // p.den
            for h, bucket in p.buckets.items():
                out = buckets.get(h)
                if out is None:
                    out = buckets[h] = []
                out += [(base | code, num * scale) for code, num in bucket]
        return _Packed(buckets, den, order, flag, self.shift)

    def unpack(self, packed):
        """{exps: TensorElement} of a _Packed, unflagged (`split`)."""
        from .hopf import TensorElement

        tensors = self.algebra._codec(self.arity)
        return {exps: TensorElement._of(self.algebra, self.arity, p)
                for exps, p in self.split(packed, tensors,
                                          lambda e: (e, ())).items()}

    def split(self, packed, codec, part):
        """{key: _Packed} of packed's terms in the layout of `codec` (same
        algebra, at least this arity): `part` maps each stored exponent
        tuple to None, which drops its terms, or to (key, exponents), and
        the terms go to the part of that key at those exponents (`part`
        must be injective on the exponents of one key). Each part is a
        complete, unflagged polynomial over its own denominator."""
        bits = self.hopf_bits
        mask = (1 << bits) - 1
        moves = {}
        for vcode in {code >> bits for bucket in packed.buckets.values()
                      for code, _ in bucket}:
            move = part(self._code_exps(vcode))
            if move is not None:
                moves[vcode] = (move[0], codec._exps_code(move[1]))
        parts = {}
        for h, bucket in packed.buckets.items():
            for code, num in bucket:
                move = moves.get(code >> bits)
                if move is not None:
                    buckets = parts.get(move[0])
                    if buckets is None:
                        buckets = parts[move[0]] = {}
                    row = buckets.get(h)
                    if row is None:
                        row = buckets[h] = []
                    row.append((move[1] | code & mask, num))
        for buckets in parts.values():
            for row in buckets.values():
                row.sort(key=_code)
        return {key: _Packed.divided(buckets, packed.den, False, codec.shift)
                for key, buckets in parts.items()}

    def relaid(self, packed, codec, move=None):
        """packed in the layout of `codec` (same algebra, at least this
        arity), code by code: tensor codes, den, order and flag kept, and
        each term's exponents e moved to move(e) when `move` is given, an
        injective map (None drops the term)."""
        bits = self.hopf_bits
        mask = (1 << bits) - 1
        bases = {}
        for vcode in {code >> bits for bucket in packed.buckets.values()
                      for code, _ in bucket}:
            exps = self._code_exps(vcode)
            target = exps if move is None else move(exps)
            if target is not None:
                bases[vcode] = codec._exps_code(target)
        buckets = {}
        for h, bucket in packed.buckets.items():
            out = [(bases[code >> bits] | code & mask, n)
                   for code, n in bucket if code >> bits in bases]
            if out:
                if move is not None or codec.nvars != self.nvars:
                    out.sort(key=_code)
                buckets[h] = out
        return _Packed(buckets, packed.den, packed.order, packed.flag,
                       codec.shift)

    def stepped(self, packed, var, up=False):
        """The derivative of packed in variable `var` (each term with
        exponent k >= 1 of it one lower, its numerator times k) or, `up`,
        the integral (each term one higher, its numerator over k + 1), its
        order moved alike. Every code moves by one step, so the buckets
        stay sorted; the layout must hold the raised exponents."""
        bits, exps = self.hopf_bits, self._code_exps
        step = 1 << self.shift
        if var < self.nvars - 1:
            step += 1 << bits + var * self.width
        if up:
            ks = {code >> bits: exps(code >> bits)[var] + 1
                  for bucket in packed.buckets.values()
                  for code, _ in bucket}
            lcm = math.lcm(*ks.values())
            return _Packed.divided(
                {h: [(code + step, n * (lcm // ks[code >> bits]))
                     for code, n in bucket]
                 for h, bucket in packed.buckets.items()},
                packed.den * lcm, packed.flag, packed.shift).stamped(
                    packed.order + 1, packed.flag)
        buckets = {}
        for h, bucket in packed.buckets.items():
            out = []
            for code, n in bucket:
                k = exps(code >> bits)[var]
                if k:
                    out.append((code - step, n * k))
            if out:
                buckets[h] = out
        return _Packed(buckets, packed.den, packed.order - 1, packed.flag,
                       packed.shift)

    def minus_reversed(self, packed):
        """packed minus its image under the key-field reversal, which puts
        the tensor slots and the variables in reverse order. The reversal
        is a bijection of keys that keeps the Hopf degree and the degree
        field, so the int numerators are subtracted bucket by bucket over
        the common denominator, and only nonzero differences are stored."""
        hopf_bits = self.hopf_bits
        hopf_mask = (1 << hopf_bits) - 1
        slot_bits = self.hwidth * len(self.algebra.names)
        reversed_keys, reversed_exps = {}, {}
        buckets = {}
        for h, bucket in packed.buckets.items():
            out = {}
            get = dict(bucket).get
            for code, num in bucket:
                kcode = code & hopf_mask
                rk = reversed_keys.get(kcode)
                if rk is None:
                    rk = reversed_keys[kcode] = _reversed_fields(
                        kcode, self.arity, slot_bits)
                vcode = code >> hopf_bits
                rv = reversed_exps.get(vcode)
                if rv is None:
                    rv = reversed_exps[vcode] = self._exps_code(
                        self._code_exps(vcode)[::-1])
                image = rv | rk
                mirror = get(image)
                if mirror is None:
                    out[code] = num
                    out[image] = -num
                elif mirror != num:
                    out[code] = num - mirror
            if out:
                buckets[h] = sorted(out.items(), key=_code)
        return _Packed(buckets, packed.den, packed.order, packed.flag,
                       packed.shift)


def _reversed_fields(code, count, bits):
    """code with its `count` fields of `bits` bits in reverse order."""
    mask = (1 << bits) - 1
    out = 0
    for _ in range(count):
        out = (out << bits) | (code & mask)
        code >>= bits
    return out


class _Packed:
    """Packed terms buckets[Hopf degree] = [(code, numerator), ...], each
    bucket nonempty and sorted by code, so by variable degree (the field
    at bit `shift` of its layout), over the common denominator `den`,
    with the certified order and the `truncated` flag of the series they
    stand for."""

    __slots__ = ("buckets", "den", "order", "flag", "shift")

    def __init__(self, buckets, den, order, flag, shift):
        self.buckets = buckets
        self.den = den
        self.order = order
        self.flag = flag
        self.shift = shift

    @property
    def val(self):
        """The valuation: the least variable degree of a stored term, which
        the least code has; inf when there is none."""
        buckets = self.buckets
        return (min([b[0][0] for b in buckets.values()]) >> self.shift
                if buckets else INF)

    @classmethod
    def reduced(cls, buckets, den, order, flag, shift):
        """_Packed of buckets {Hopf degree: {code: numerator}}: zero
        numerators and empty buckets dropped, the common factor of the
        numerators and the denominator cancelled, each bucket sorted."""
        clean = {}
        g = den
        for h, bucket in buckets.items():
            if 0 in bucket.values():
                bucket = {k: n for k, n in bucket.items() if n}
            if bucket:
                clean[h] = bucket
                if g != 1:
                    g = math.gcd(g, *bucket.values())
        if g != 1:
            den //= g
            for h, bucket in clean.items():
                clean[h] = [(k, bucket[k] // g) for k in sorted(bucket)]
        else:
            for h, bucket in clean.items():
                clean[h] = sorted(bucket.items(), key=_code)
        return cls(clean, den, order, flag, shift)

    @classmethod
    def divided(cls, buckets, den, flag, shift):
        """Complete _Packed of buckets {Hopf degree: [(code, numerator),
        ...]}, each sorted and nonzero, over den > 0: the common factor of
        the numerators and the denominator cancelled."""
        g = math.gcd(den, *[n for bucket in buckets.values()
                            for _, n in bucket])
        if g != 1:
            den //= g
            buckets = {h: [(code, n // g) for code, n in bucket]
                       for h, bucket in buckets.items()}
        return cls(buckets, den, INF, flag, shift)

    def stamped(self, order, flag, shift=None):
        """The same terms with another certified order and flag, and in
        the layout of `shift` when given: a tensor's terms are the
        constant terms of every series layout of its algebra and arity."""
        return _Packed(self.buckets, self.den, order, flag,
                       self.shift if shift is None else shift)

    def scaled(self, n):
        """The terms times the int n over the same denominator."""
        return _Packed({h: [(code, n * m) for code, m in bucket]
                        for h, bucket in self.buckets.items()},
                       self.den, self.order, self.flag, self.shift)

    def times(self, other, keep, bound):
        """Product: the one-pair case of `sum_of_products`."""
        return _Packed.sum_of_products(((self, other),), keep, bound)

    @staticmethod
    def sum_of_products(pairs, keep, bound):
        """Sum of the products a * b over the (a, b) pairs in one
        accumulator over the lcm L of the den(a) * den(b), reduced once;
        the outer factor of each term pair is scaled by L / (den(a) *
        den(b)). A product's order cap is min(r_a + val(b), r_b + val(a))
        (inf for two complete polynomials), and any pair of nonzero terms
        within it whose Hopf degrees overflow the bound sets the flag: the
        lowest-degree terms of the two buckets decide. Terms of variable
        degree up to the least of keep and the caps are formed and
        certified: all of a pair of buckets whose top terms stay within
        keep, else each outer term's run of the inner bucket up to keep.
        The operands share one layout, apart from `_UNIT`, whose shift of
        0 is below every layout's, so the largest shift of a pair's
        operands is the layout's."""
        caps = [INF if a.order == INF and b.order == INF
                else min(a.order + b.val, b.order + a.val) for a, b in pairs]
        keep = min(keep, *caps) if caps else keep
        den = math.lcm(*(a.den * b.den for a, b in pairs))
        flag = False
        acc = {}
        shift = 0
        for (a, b), cap in zip(pairs, caps):
            flag = flag or a.flag or b.flag
            scale = den // (a.den * b.den)
            shift = max(shift, a.shift, b.shift)
            b_buckets = b.buckets.items()
            for ha, la in a.buckets.items():
                for hb, lb in b_buckets:
                    h = ha + hb
                    if h > bound:
                        if cap == INF or (
                                (la[0][0] >> shift) + (lb[0][0] >> shift)
                                <= cap):
                            flag = True
                        continue
                    out = acc.get(h)
                    if out is None:
                        out = acc[h] = {}
                    get = out.get
                    # the longer bucket innermost: fewer loop set-ups
                    if len(la) > len(lb):
                        outer, inner = lb, la
                    else:
                        outer, inner = la, lb
                    if keep == INF or (
                            (la[-1][0] >> shift) + (lb[-1][0] >> shift)
                            <= keep):
                        for ko, no in outer:
                            no *= scale
                            for ki, ni in inner:
                                k = ko + ki
                                out[k] = get(k, 0) + no * ni
                        continue
                    top = inner[-1][0] >> shift
                    for ko, no in outer:
                        room = keep - (ko >> shift)
                        if room < top:
                            # inner terms of degree up to room: the codes
                            # below (room + 1) << shift
                            run = inner[:bisect_left(
                                inner, ((room + 1) << shift,))]
                            if not run:
                                break
                        else:
                            run = inner
                        no *= scale
                        for ki, ni in run:
                            k = ko + ki
                            out[k] = get(k, 0) + no * ni
        return _Packed.reduced(acc, den, keep, flag, shift)

    @staticmethod
    def summed(packs):
        """Sum of packs as `Series.__add__` forms it (least order, flags
        or-ed): the sum of their products with the unit."""
        return _Packed.sum_of_products([(_UNIT, p) for p in packs], INF, INF)

    def truncate(self, cap):
        """The terms of variable degree up to cap, certified through cap
        at most."""
        buckets = self.buckets
        if buckets and cap < max(
                [b[-1][0] for b in buckets.values()]) >> self.shift:
            end = (int(max(cap, -1)) + 1) << self.shift
            buckets = {}
            for h, bucket in self.buckets.items():
                bucket = bucket[:bisect_left(bucket, (end,))]
                if bucket:
                    buckets[h] = bucket
        return _Packed(buckets, self.den, min(self.order, cap), self.flag,
                       self.shift)


# the complete, unflagged constants 1 and -1 of every layout
_UNIT = _Packed({0: [(0, 1)]}, 1, INF, False, 0)
_MINUS_UNIT = _Packed({0: [(0, -1)]}, 1, INF, False, 0)
