"""The product kernel: packed terms of H^(x)k[[X]] and their product.

Every product and sum of coefficient terms runs on one loop,
`_Packed.sum_of_products`, which adds the products of several pairs into
one accumulator over a common denominator: series products and the Horner
steps of a substitution (series.py; `_Packed.times` is one pair,
`_Packed.summed` the unit times each addend), the powers and blocks of the
Paterson-Stockmeyer evaluator (`series._evaluate`) that the Newton loops
of series reversion and of the group inverse (`fgl.inverse_series`) run
on, the powers of F(X, Y) and the rows U^k G_k of the associativity gate
(`fgl._gate_composite`), and tensor products (`TensorElement.__mul__`
packs its operands as 0-variable series), which extend the coproduct
multiplicatively from the generators (`HopfAlgebra.comul_mono`) and form
the tensor of elements of H (`TensorElement.from_slots`).
A term's variable exponents and slot monomials are
packed into one int, a field per exponent, so the key of a product term is
the sum of its factors' keys. The symmetry defect of a law, and the
associativity defect of a law equal to its flip, are a packed series minus
its key-field reversal, which puts the tensor slots and the variables in
reverse order (`_Codec.minus_reversed`).
Coefficients are int numerators over one common denominator per operand.
Terms are bucketed by (variable degree, Hopf degree), so the order cap and
the degree bound are decided once per pair of buckets (Monagan and Pearce,
CASC 2007, on packed monomials; Johnson 1974 on sparse products).

Tensor powers of H are truncated by total degree across the slots. That
span is an ideal and, since every structure map preserves degree, also a
coideal, so the structure maps descend exactly to the quotient and the Hopf
and group-law identities hold there on the nose; the coproduct of a
high-degree element discarded slot by slot would have components with every
leg inside the bound. A product of two terms leaves the quotient exactly
when their Hopf degrees sum above the bound. The `truncated` flag of a
product is set iff an operand is flagged or some pair of nonzero terms
within the order cap leaves the quotient.
"""

import math

from .scalars import Q

INF = math.inf


class _Codec:
    """Packed-key layout for one algebra, arity and variable tuple: every
    exponent gets `width` bits, tensor slots first, then the variables.
    Variable exponents up to `vmax` and generator exponents up to the
    degree bound fit; products are only formed within those limits, so
    adding two keys never carries from one field into the next."""

    __slots__ = ("algebra", "arity", "nvars", "names", "width", "hopf_bits",
                 "_codes", "_keys", "_exps")

    def __init__(self, algebra, arity, names, vmax):
        self.algebra = algebra
        self.arity = arity
        self.nvars = len(names)
        self.names = names
        self.width = max(vmax, algebra.degree_bound, 1).bit_length()
        self.hopf_bits = self.width * arity * len(algebra.names)
        self._codes = {}  # tensor key -> (code, Hopf degree)
        self._keys = {}  # code -> tensor key
        self._exps = {}  # code >> hopf_bits -> exponent tuple

    def _key_code(self, key):
        hit = self._codes.get(key)
        if hit is None:
            code = shift = 0
            for mono in key:
                for e in mono:
                    code |= e << shift
                    shift += self.width
            hit = self._codes[key] = (code, self.algebra.key_degree(key))
        return hit

    def _exps_code(self, exps):
        code = 0
        shift = self.hopf_bits
        for e in exps:
            code |= e << shift
            shift += self.width
        return code

    def pack(self, terms, order=INF, flag=False):
        """_Packed form of a terms dict {exps: {key: Q}}."""
        den = math.lcm(*(int(q.denominator) for coeff in terms.values()
                         for q in coeff.values()))
        rows = {}
        for exps, coeff in terms.items():
            if not coeff:
                continue
            base = self._exps_code(exps)
            row = rows.setdefault(sum(exps), {})
            for key, q in coeff.items():
                code, h = self._key_code(key)
                row.setdefault(h, {})[base | code] = (
                    int(q.numerator) * (den // int(q.denominator)))
        return _Packed(rows, den, order, flag)

    def pack_image(self, terms, image):
        """Complete, unflagged _Packed form of {exps: {key: Q}} with each
        key's first monomial replaced by its degree-keeping image {monomials:
        Q}, over the terms' denominator times the images' one."""
        images = {key[0]: image(key[0])
                  for coeff in terms.values() for key in coeff}
        den_q = math.lcm(*(int(q.denominator) for coeff in terms.values()
                           for q in coeff.values()))
        den_t = math.lcm(*(int(q.denominator) for parts in images.values()
                           for q in parts.values()))
        codes = {m: [(self._key_code(part)[0],
                      int(q.numerator) * (den_t // int(q.denominator)))
                     for part, q in parts.items()]
                 for m, parts in images.items()}
        # the rest of a key moves up one slot
        shift = 2 * self.width * len(self.algebra.names)
        rows = {}
        for exps, coeff in terms.items():
            base = self._exps_code(exps)
            row = rows.setdefault(sum(exps), {})
            for key, q in coeff.items():
                out = row.setdefault(self.algebra.key_degree(key), {})
                n = int(q.numerator) * (den_q // int(q.denominator))
                rest = base | self._key_code(key[1:])[0] << shift
                for code, m in codes[key[0]]:
                    out[code | rest] = out.get(code | rest, 0) + n * m
        return _Packed.reduced(rows, den_q * den_t, INF, False)

    def unpack(self, packed):
        """Terms dict {exps: {key: Q}} of a _Packed."""
        width, hopf_bits = self.width, self.hopf_bits
        mask = (1 << width) - 1
        hopf_mask = (1 << hopf_bits) - 1
        ngens = len(self.algebra.names)
        keys, exps_of = self._keys, self._exps
        den = packed.den
        acc = {}
        for row in packed.rows.values():
            for bucket in row.values():
                for code, num in bucket.items():
                    vcode = code >> hopf_bits
                    exps = exps_of.get(vcode)
                    if exps is None:
                        exps = exps_of[vcode] = tuple(
                            (vcode >> (width * i)) & mask
                            for i in range(self.nvars))
                    kcode = code & hopf_mask
                    key = keys.get(kcode)
                    if key is None:
                        key = keys[kcode] = tuple(
                            tuple((kcode >> (width * (s * ngens + i))) & mask
                                  for i in range(ngens))
                            for s in range(self.arity))
                    coeff = acc.get(exps)
                    if coeff is None:
                        coeff = acc[exps] = {}
                    coeff[key] = Q(num, den)
        return acc

    def minus_reversed(self, packed):
        """packed minus its image under the key-field reversal, which puts
        the tensor slots and the variables in reverse order. The reversal
        is a bijection of keys that keeps both bucket degrees, so the int
        numerators are subtracted bucket by bucket over the common
        denominator, and only nonzero differences are stored."""
        hopf_bits = self.hopf_bits
        hopf_mask = (1 << hopf_bits) - 1
        slot_bits = self.width * len(self.algebra.names)
        reversed_keys, reversed_exps = {}, {}
        rows = {}
        for d, row in packed.rows.items():
            out_row = {}
            for h, bucket in row.items():
                out = {}
                get = bucket.get
                for code, num in bucket.items():
                    kcode = code & hopf_mask
                    rk = reversed_keys.get(kcode)
                    if rk is None:
                        rk = reversed_keys[kcode] = _reversed_fields(
                            kcode, self.arity, slot_bits)
                    vcode = code >> hopf_bits
                    rv = reversed_exps.get(vcode)
                    if rv is None:
                        rv = reversed_exps[vcode] = _reversed_fields(
                            vcode, self.nvars, self.width) << hopf_bits
                    image = rv | rk
                    mirror = get(image)
                    if mirror is None:
                        out[code] = num
                        out[image] = -num
                    elif mirror != num:
                        out[code] = num - mirror
                if out:
                    out_row[h] = out
            if out_row:
                rows[d] = out_row
        return _Packed(rows, packed.den, packed.order, packed.flag)


def _reversed_fields(code, count, bits):
    """code with its `count` fields of `bits` bits in reverse order."""
    mask = (1 << bits) - 1
    out = 0
    for _ in range(count):
        out = (out << bits) | (code & mask)
        code >>= bits
    return out


class _Packed:
    """Packed terms rows[variable degree][Hopf degree] = {code: numerator}
    over the common denominator `den`, with the certified order and the
    `truncated` flag of the series they stand for. `val` is the valuation
    (smallest variable degree of a stored term)."""

    __slots__ = ("rows", "den", "order", "flag", "val")

    def __init__(self, rows, den, order, flag):
        self.rows = rows
        self.den = den
        self.order = order
        self.flag = flag
        self.val = min(rows, default=INF)

    @classmethod
    def reduced(cls, rows, den, order, flag):
        """Drop zero numerators and empty buckets, then cancel the common
        factor of the numerators and the denominator."""
        clean = {}
        g = den
        for d, row in rows.items():
            kept = {}
            for h, bucket in row.items():
                if 0 in bucket.values():
                    bucket = {k: n for k, n in bucket.items() if n}
                if bucket:
                    kept[h] = bucket
                    if g != 1:
                        g = math.gcd(g, *bucket.values())
            if kept:
                clean[d] = kept
        if g != 1:
            den //= g
            for row in clean.values():
                for h, bucket in row.items():
                    row[h] = {k: n // g for k, n in bucket.items()}
        return cls(clean, den, order, flag)

    def times(self, other, keep, bound):
        """Product: the one-pair case of `sum_of_products`."""
        return _Packed.sum_of_products(((self, other),), keep, bound)

    @staticmethod
    def sum_of_products(pairs, keep, bound):
        """Sum of the products a * b over the (a, b) pairs in one rows dict
        over the lcm L of the den(a) * den(b), reduced once; b's numerators
        are scaled by L / (den(a) * den(b)) before its pass. A product's
        order cap is min(r_a + val(b), r_b + val(a)) (inf for two complete
        polynomials), and any pair of nonzero terms within it whose Hopf
        degrees overflow the bound sets the flag. Terms of variable degree
        up to the least of keep and the caps are formed and certified."""
        caps = [INF if a.order == INF and b.order == INF
                else min(a.order + b.val, b.order + a.val) for a, b in pairs]
        keep = min(keep, *caps) if caps else keep
        den = math.lcm(*(a.den * b.den for a, b in pairs))
        flag = False
        rows = {}
        for (a, b), cap in zip(pairs, caps):
            flag = flag or a.flag or b.flag
            scale = den // (a.den * b.den)
            b_rows = sorted(b.rows.items())
            if scale != 1:
                b_rows = [(db, {hb: {k: n * scale for k, n in bucket.items()}
                                for hb, bucket in row.items()})
                          for db, row in b_rows]
            for da, row_a in a.rows.items():
                for db, row_b in b_rows:
                    d = da + db
                    if d > cap:
                        break
                    for ha, bucket_a in row_a.items():
                        for hb, bucket_b in row_b.items():
                            h = ha + hb
                            if h > bound:
                                flag = True
                                continue
                            if d > keep:
                                continue
                            out = rows.setdefault(d, {}).setdefault(h, {})
                            get = out.get
                            # the longer bucket innermost: fewer loop set-ups
                            if len(bucket_a) > len(bucket_b):
                                outer, inner = bucket_b, bucket_a
                            else:
                                outer, inner = bucket_a, bucket_b
                            items_b = inner.items()
                            for ka, na in outer.items():
                                for kb, nb in items_b:
                                    k = ka + kb
                                    out[k] = get(k, 0) + na * nb
        return _Packed.reduced(rows, den, keep, flag)

    @staticmethod
    def summed(packs):
        """Sum of packs as `Series.__add__` forms it (least order, flags
        or-ed): the sum of their products with the unit."""
        return _Packed.sum_of_products([(_UNIT, p) for p in packs], INF, INF)

    def truncate(self, cap):
        return _Packed({d: row for d, row in self.rows.items() if d <= cap},
                       self.den, min(self.order, cap), self.flag)


# the complete, unflagged constant 1 of every layout
_UNIT = _Packed({0: {0: {0: 1}}}, 1, INF, False)
