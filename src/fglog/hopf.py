"""Graded connected commutative Hopf algebras over exact rationals.

An algebra is presented by finitely many generators with positive degrees, a
degree bound D, and a coproduct table per generator. The basis is the set of
monomials of degree <= D; multiplication is polynomial multiplication with
everything above D truncated away (an exact quotient of the free object).
Connectedness (1 is the only degree-0 basis element) makes every
positive-degree element nilpotent in the quotient, which is what the series
engine's inversions rely on.

The counit is the augmentation extended multiplicatively, the coproduct is
extended multiplicatively from the generator table, and the antipode is
derived by induction on generator degree from mu(S x id)Delta = eta eps
rather than taken as input. Mutation hooks (`HopfAlgebra.mutated`) produce
deliberately broken structure tables for testing the axiom checker, so every
derived map is defensive about tables that fail the usual axioms.

Elements of H and of its tensor powers are one type, `TensorElement`: an
element of H is an arity-1 tensor, and `HopfElement` only names its
constructors. Tensor powers are truncated by total degree across the
slots (an ideal and a coideal, see packed.py). A tensor is one reduced
packed form of packed.py, int numerators over one denominator keyed by
codes of the algebra's tensor layout, and every operation on it works on
codes and numerators: products and sums on packed.py's kernel, the
structure maps slot by slot from each monomial's image, cached by the
algebra as packed rows (`HopfAlgebra._image_rows`). Fractions remain in
the structure tables, in the constructor from a {key: rational} dict,
which parsed and generated input goes through, and in `terms`, the
presentation that printing and JSON read.
"""

import math

from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    DegreeOverflow,
    NonInvertibleConstantTerm,
    NonNilpotentConstantTerm,
    ParseError,
    SpecError,
)
from .packed import _MINUS_UNIT, _UNIT, INF, _code, _Codec, _Packed
from .report import Report, Violation
from .scalars import ONE, ZERO, Q, format_rational, rational

_STRUCTURE_MAPS = ("comul", "counit", "antipode")


class HopfAlgebra:
    """A graded connected commutative Hopf algebra, truncated at degree D.

    Instances are immutable after construction and hashable on their
    signature (generator names, degrees, degree bound); structural equality
    also compares the structure tables so algebras decoded from files
    interoperate with programmatically built ones.
    """

    __slots__ = (
        "names",
        "degrees",
        "degree_bound",
        "cocommutative",
        "_coassociative",
        "_gen_comul",
        "_gen_counit",
        "_gen_antipode",
        "_index",
        "_comul_cache",
        "_antipode_cache",
        "_rows",
        "_codecs",
        "_deg_cache",
        "_kdeg_cache",
        "_monomials",
        "_hash",
    )

    def __init__(self, names, degrees, degree_bound, gen_comul,
                 gen_counit=None, gen_antipode=None):
        names = tuple(names)
        degrees = tuple(int(d) for d in degrees)
        if len(names) != len(set(names)):
            raise SpecError("duplicate generator names")
        if any(d < 1 for d in degrees):
            raise SpecError("generator degrees must be >= 1")
        if any(d > degree_bound for d in degrees):
            raise DegreeOverflow(
                "generator degree exceeds the degree bound")
        self.names = names
        self.degrees = degrees
        self.degree_bound = int(degree_bound)
        self._index = {n: i for i, n in enumerate(names)}
        self._gen_comul = tuple({k: q for k, q in dict(t).items() if q}
                                for t in gen_comul)
        # H is commutative, so Delta and its flip agree everywhere once
        # they agree on the generators
        self.cocommutative = all(
            table == {(b, a): q for (a, b), q in table.items()}
            for table in self._gen_comul)
        self._coassociative = None
        self._gen_counit = tuple(
            gen_counit if gen_counit is not None else (ZERO,) * len(names))
        self._gen_antipode = tuple(
            gen_antipode if gen_antipode is not None else (None,) * len(names))
        self._comul_cache = {}
        self._antipode_cache = {}
        self._rows = {}
        self._codecs = {}
        self._deg_cache = {}
        self._kdeg_cache = {}
        self._monomials = None
        self._hash = hash((names, degrees, self.degree_bound))

    # -- construction helpers -------------------------------------------

    def _validate_tables(self):
        unit = self.unit_mono
        for i, name in enumerate(self.names):
            table = self._gen_comul[i]
            gen_mono = self.generator_mono(name)
            gdeg = self.degrees[i]
            left_unit = {}
            right_unit = {}
            for (a, b), q in table.items():
                if self.degree(a) + self.degree(b) != gdeg:
                    raise SpecError(
                        f"coproduct of {name} is not degree-homogeneous")
                if a == unit:
                    left_unit[b] = left_unit.get(b, ZERO) + q
                if b == unit:
                    right_unit[a] = right_unit.get(a, ZERO) + q
            for side, acc in (("left", left_unit), ("right", right_unit)):
                if {m: q for m, q in acc.items() if q} != {gen_mono: ONE}:
                    raise SpecError(
                        f"coproduct of {name} is not counital on the "
                        f"{side} side")

    def mutated(self, comul=None, counit=None, antipode=None):
        """Unvalidated copy of this algebra with selected generator tables
        replaced. Intended for negative tests of the axiom checker."""
        gen_comul = list(self._gen_comul)
        gen_counit = list(self._gen_counit)
        gen_antipode = list(self._gen_antipode)
        for name, value in (comul or {}).items():
            gen_comul[self._index[name]] = _table_terms(value, 2, "coproduct")
        for name, value in (counit or {}).items():
            gen_counit[self._index[name]] = rational(value)
        for name, value in (antipode or {}).items():
            gen_antipode[self._index[name]] = _table_terms(value, 1, "antipode")
        return HopfAlgebra(self.names, self.degrees, self.degree_bound,
                           gen_comul, tuple(gen_counit), tuple(gen_antipode))

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, HopfAlgebra):
            return NotImplemented
        return (self.names == other.names
                and self.degrees == other.degrees
                and self.degree_bound == other.degree_bound
                and self._gen_comul == other._gen_comul
                and self._gen_counit == other._gen_counit
                and self._gen_antipode == other._gen_antipode)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"HopfAlgebra([{gens}], D={self.degree_bound})"

    # -- monomial arithmetic ---------------------------------------------

    @property
    def unit_mono(self):
        return (0,) * len(self.names)

    def generator_mono(self, name):
        exps = [0] * len(self.names)
        exps[self._index[name]] = 1
        return tuple(exps)

    def is_primitive(self, name):
        """Whether the generator's coproduct is name (x) 1 + 1 (x) name."""
        i = self._index[name]
        return self._gen_comul[i] == _primitive_table_raw(len(self.names), i)

    @property
    def coassociative(self):
        """Whether (Delta (x) id)Delta = (id (x) Delta)Delta on all of H.
        Both sides are ring homomorphisms unless a coproduct table lowers a
        degree, so the generators decide; a lowering table gives False.
        build_hopf_algebra does not require it, check-hopf reports it."""
        if self._coassociative is None:
            self._coassociative = not self.lowers_degree() and all(
                d.apply_slot(0, "comul") == d.apply_slot(1, "comul")
                for d in map(self._comul, map(self.generator_mono,
                                               self.names)))
        return self._coassociative

    def lowers_degree(self):
        """Whether a generator's coproduct table lowers its degree (only a
        `mutated` one can): Delta is then no ring homomorphism of the
        truncated algebras."""
        return any(self.key_degree(key) < degree
                   for table, degree in zip(self._gen_comul, self.degrees)
                   for key in table)

    def degree(self, mono):
        d = self._deg_cache.get(mono)
        if d is None:
            d = sum(e * g for e, g in zip(mono, self.degrees))
            self._deg_cache[mono] = d
        return d

    def mul_mono(self, a, b):
        """Product monomial, or None when the degree bound truncates it."""
        prod = tuple(x + y for x, y in zip(a, b))
        return prod if self.degree(prod) <= self.degree_bound else None

    def key_degree(self, key):
        """Total degree of a tensor basis key, summed across slots."""
        d = self._kdeg_cache.get(key)
        if d is None:
            d = sum(self.degree(m) for m in key)
            self._kdeg_cache[key] = d
        return d

    def _codec(self, arity, names=(), vmax=0):
        """Packed layout of arity-`arity` terms in the variables `names`
        whose fields hold exponents up to vmax, one per layout, so series
        share its caches; by default that of the tensors themselves."""
        key = (arity, names, max(vmax, 1).bit_length()) if names else arity
        codec = self._codecs.get(key)
        if codec is None:
            codec = self._codecs[key] = _Codec(self, arity, names, vmax)
        return codec

    def monomials(self):
        """All basis monomials of degree <= D in graded-lex order."""
        if self._monomials is None:
            out = [self.unit_mono]
            for i in range(len(self.names)):
                extended = []
                for m in out:
                    e = 1
                    while True:
                        cand = m[:i] + (m[i] + e,) + m[i + 1:]
                        if self.degree(cand) > self.degree_bound:
                            break
                        extended.append(cand)
                        e += 1
                out.extend(extended)
            out.sort(key=lambda m: (self.degree(m), m))
            self._monomials = tuple(out)
        return self._monomials

    def mono_str(self, mono):
        return _mono_join(self.names, mono, "") or "1"

    # -- structure maps on monomials --------------------------------------

    def counit_mono(self, mono):
        """Multiplicative extension of the generator counits (normally the
        augmentation: 1 on the unit, 0 on positive degree)."""
        q = ONE
        for i, e in enumerate(mono):
            if e:
                ci = self._gen_counit[i]
                if ci == 0:
                    return ZERO
                q = q * ci ** e
        return q

    def comul_mono(self, mono):
        """Coproduct of a basis monomial as a dict (left, right) -> Q."""
        return self._comul(mono).terms

    def _comul(self, mono):
        """Coproduct of a basis monomial as an arity-2 tensor: the table of
        its first generator times the coproduct of the rest. On
        degree-homogeneous tables every component has the monomial's total
        degree, so the product drops none; a `mutated` table is truncated
        by total degree."""
        cached = self._comul_cache.get(mono)
        if cached is None:
            if mono == self.unit_mono:
                cached = TensorElement.unit(self, 2)
            else:
                i = next(j for j, e in enumerate(mono) if e)
                rest = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
                cached = (TensorElement(self, 2, self._gen_comul[i])
                          * self._comul(rest))
            self._comul_cache[mono] = cached
        return cached

    def _image_rows(self, op, code):
        """The image of a monomial, given by its code in one slot, under
        the structure map op ('comul', 'counit' or 'antipode'), or of the
        two monomials of a code of two slots under 'mul', as packed rows:
        (rows, den) with rows [(code, change of Hopf degree, numerator),
        ...] over den, the image's codes in the layout of its 2, 0, 1 or
        1 slots."""
        hit = self._rows.get((op, code))
        if hit is None:
            bits = self._codec(1).hopf_bits
            if op == "mul":
                # the product of two monomials is the sum of their fields
                hit = ([((code & ((1 << bits) - 1)) + (code >> bits), 0, 1)],
                       1)
            else:
                (mono,) = self._codec(1).key(code)
                d = self.degree(mono)
                if op == "counit":
                    q = self.counit_mono(mono)
                    hit = ([(0, -d, q.numerator)] if q else [],
                           q.denominator)
                else:
                    image = (self._comul(mono) if op == "comul"
                             else self.antipode_mono(mono))._packed
                    hit = ([(c, h - d, n)
                            for h, bucket in image.buckets.items()
                            for c, n in bucket], image.den)
            self._rows[(op, code)] = hit
        return hit

    def antipode_mono(self, mono):
        """Antipode of a basis monomial as an element of H, derived from
        mu(S x id)Delta = eta eps by induction on generator degree and
        extended multiplicatively."""
        cached = self._antipode_cache.get(mono)
        if cached is None:
            cached = self._antipode_cache[mono] = self._antipode_product(
                mono, set())
        return cached

    def _antipode_gen(self, i, stack):
        gen_mono = tuple(
            1 if j == i else 0 for j in range(len(self.names)))
        result = self._antipode_cache.get(gen_mono)
        if result is None:
            override = self._gen_antipode[i]
            if override is not None:
                result = HopfElement(self, override)
            elif i in stack:
                # circular table (only possible for mutated input)
                result = HopfElement(self, {gen_mono: -ONE})
            else:
                stack.add(i)
                result = self._derive_antipode(i, gen_mono, stack)
                stack.discard(i)
            self._antipode_cache[gen_mono] = result
        return result

    def _derive_antipode(self, i, gen_mono, stack):
        # mu(S x id)Delta g = eps(g) 1 splits into S(g)*beta + rest, where
        # beta collects the right legs paired with g itself and rest needs
        # only antipodes of monomials not containing g (strictly smaller
        # degree, so the induction is well-founded on honest tables).
        beta = {}
        rest = HopfElement.zero(self)
        for (a, b), q in self._gen_comul[i].items():
            if a == gen_mono:
                beta[b] = beta.get(b, ZERO) + q
            else:
                rest = rest + (self._antipode_product(a, stack)
                               * HopfElement(self, {b: q}))
        try:
            beta_inv = HopfElement(self, beta).mul_inverse()
        except NonInvertibleConstantTerm:
            # non-counital mutation: leave a defined value for the checker
            return HopfElement(self, {gen_mono: -ONE})
        return beta_inv * (self._gen_counit[i] - rest)

    def _antipode_product(self, mono, stack):
        result = TensorElement.unit(self, 1)
        for j, e in enumerate(mono):
            if e:
                gen_s = self._antipode_gen(j, stack)
                for _ in range(e):
                    result = result * gen_s
        return result


def _table_terms(value, arity, what):
    """Terms of a generator's structure table, given as an arity-`arity`
    tensor or as a dict {key: rational}; an antipode table (arity 1) is
    keyed by monomials."""
    if isinstance(value, TensorElement):
        if value.arity != arity:
            raise ArityMismatch(f"{what} table must have arity {arity}")
        return {(k if arity > 1 else k[0]): q for k, q in value.terms.items()}
    table = {k: rational(q) for k, q in dict(value).items()}
    return {k: q for k, q in table.items() if q}


class HopfElement:
    """Constructors for elements of H. H is the first tensor power of
    itself, so an element is an arity-1 TensorElement; this class has no
    instances."""

    def __new__(cls, algebra, terms):
        """Arity-1 tensor from a {monomial: rational} dict."""
        return TensorElement(algebra, 1, {(m,): q for m, q in terms.items()})

    @staticmethod
    def zero(algebra):
        return TensorElement.zero(algebra, 1)

    @staticmethod
    def one(algebra):
        return TensorElement.unit(algebra, 1)

    @staticmethod
    def from_scalar(algebra, q):
        return TensorElement.from_scalar(algebra, 1, q)

    @staticmethod
    def generator(algebra, name):
        mono = algebra.generator_mono(name)
        return TensorElement(algebra, 1, {(mono,): ONE})


class TensorElement:
    """Element of the k-fold tensor power of H, k in {1,2,3}: a finite
    rational combination of k-tuples of basis monomials. Arity 1 is H
    itself; a rational operand of +, - or == stands for that multiple of
    the unit at the tensor's own arity.

    It is stored as one reduced `_Packed` of its algebra's tensor layout
    (`HopfAlgebra._codec(arity)`): int numerators over one denominator,
    whose flag is the tensor's `truncated`. The reduced form is canonical,
    so `==` and `hash` read it. `terms`, {key tuple: Q}, is its
    presentation, unpacked on first read."""

    __slots__ = ("algebra", "arity", "_packed", "_terms", "_cocycle")

    def __init__(self, algebra, arity, terms, truncated=False):
        """Tensor from a dict {key tuple: rational}: zero coefficients are
        dropped, and keys above the degree bound are dropped and set the
        flag."""
        if arity not in (1, 2, 3):
            raise ArityMismatch(f"tensor arity {arity} outside 1..3")
        self.algebra = algebra
        self.arity = arity
        codec = algebra._codec(arity)
        bound = algebra.degree_bound
        kept = {}
        rows = {}
        for key, q in terms.items():
            if q == 0:
                continue
            code, h = codec.key_code(key)
            if h > bound:
                truncated = True
                continue
            kept[key] = q
            rows.setdefault(h, []).append((code, q))
        den = math.lcm(*[q.denominator for q in kept.values()])
        self._packed = _Packed(
            {h: sorted([(code, q.numerator * (den // q.denominator))
                        for code, q in row]) for h, row in rows.items()},
            den, INF, truncated, codec.shift)
        self._terms, self._cocycle = kept, None  # check_cocycle's Report

    @classmethod
    def _of(cls, algebra, arity, packed):
        """Tensor standing for a reduced _Packed of the algebra's tensor
        layout of that arity."""
        self = object.__new__(cls)
        self.algebra = algebra
        self.arity = arity
        self._packed = packed
        self._terms = self._cocycle = None
        return self

    @property
    def terms(self):
        """{key tuple: Q}, unpacked from the packed form on first read."""
        if self._terms is None:
            packed = self._packed
            key, den = self.algebra._codec(self.arity).key, packed.den
            self._terms = {key(code): Q(num, den)
                           for bucket in packed.buckets.values()
                           for code, num in bucket}
        return self._terms

    @property
    def truncated(self):
        return self._packed.flag

    def _flagged(self, flag):
        """The same terms with the `truncated` flag `flag`."""
        return TensorElement._of(self.algebra, self.arity,
                                 self._packed.stamped(INF, flag))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, algebra, arity):
        return cls._of(algebra, arity, _Packed(
            {}, 1, INF, False, algebra._codec(arity).shift))

    @classmethod
    def unit(cls, algebra, arity):
        return cls.from_scalar(algebra, arity, ONE)

    @classmethod
    def from_scalar(cls, algebra, arity, q):
        q = rational(q)
        buckets = {0: [(0, q.numerator)]} if q else {}
        return cls._of(algebra, arity, _Packed(
            buckets, q.denominator, INF, False, algebra._codec(arity).shift))

    @classmethod
    def from_slots(cls, *elements):
        """Tensor product of 1..3 elements of H (arity-1 tensors), slot per
        argument: the product of the slots' embeddings into the arity, or,
        when a slot is zero, zero flagged by the slots' own flags."""
        algebra = elements[0].algebra
        arity = len(elements)
        for el in elements:
            if el.algebra != algebra:
                raise AlgebraMismatch("tensor slots over different algebras")
            if el.arity != 1:
                raise ArityMismatch("tensor slots must be elements of H")
        if any(el.is_zero() for el in elements):
            return cls.zero(algebra, arity)._flagged(
                any(el.truncated for el in elements))
        product = elements[0].embed(arity, (0,))
        for slot, el in enumerate(elements[1:], 1):
            product = product * el.embed(arity, (slot,))
        return product

    # -- linear structure ---------------------------------------------------

    def _check(self, other):
        if self.algebra != other.algebra:
            raise AlgebraMismatch("tensors over different Hopf algebras")
        if self.arity != other.arity:
            raise ArityMismatch(
                f"tensor arity {self.arity} vs {other.arity}")

    def _lift(self, other):
        if isinstance(other, int) or _is_rational(other):
            return TensorElement.from_scalar(self.algebra, self.arity, other)
        return other

    def _combine(self, other, sign):
        """self + other or self - other (sign _UNIT or _MINUS_UNIT): one
        kernel call, the flags or-ed."""
        other = self._lift(other)
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        return TensorElement._of(self.algebra, self.arity,
                                 _Packed.sum_of_products(
                                     ((_UNIT, self._packed),
                                      (sign, other._packed)), INF, INF))

    def __add__(self, other):
        return self._combine(other, _UNIT)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, _MINUS_UNIT)

    def __neg__(self):
        return self._scaled(-1, 1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            # a tensor is a 0-variable series to the product kernel
            self._check(other)
            return TensorElement._of(self.algebra, self.arity,
                                     self._packed.times(
                                         other._packed, INF,
                                         self.algebra.degree_bound))
        if isinstance(other, int) or _is_rational(other):
            return self._scaled(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def _scaled(self, num, den):
        """The tensor times num / den (den > 0); a scalar 0 gives the
        unflagged zero."""
        if num == 0:
            return TensorElement.zero(self.algebra, self.arity)
        packed = self._packed
        return TensorElement._of(self.algebra, self.arity, _Packed.divided(
            packed.scaled(num).buckets, packed.den * den, packed.flag,
            packed.shift))

    def __pow__(self, n):
        """Power by repeated squaring, which stops once the value is zero,
        so a power that the degree bound kills costs a few products
        whatever the exponent."""
        if n < 0:
            raise ValueError("negative tensor powers are not defined")
        result = TensorElement.unit(self.algebra, self.arity)
        square = self
        while n and not result.is_zero():
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def __eq__(self, other):
        other = self._lift(other)
        if not isinstance(other, TensorElement):
            return NotImplemented
        a, b = self._packed, other._packed
        return (self.algebra == other.algebra and self.arity == other.arity
                and a.den == b.den and a.buckets == b.buckets)

    def __hash__(self):
        packed = self._packed
        return hash((self.algebra, self.arity, packed.den,
                     tuple(sorted((h, tuple(bucket))
                                  for h, bucket in packed.buckets.items()))))

    def is_zero(self):
        return not self._packed.buckets

    # -- slot operations -----------------------------------------------------

    def apply_slot(self, slot, op):
        """Apply a structure map in one slot, identity elsewhere.

        op is one of 'comul' (arity +1), 'counit' (arity -1) and
        'antipode'. Slots are 0-based.
        """
        if op not in _STRUCTURE_MAPS:
            raise ValueError(f"unknown structure map {op!r}")
        if not 0 <= slot < self.arity:
            raise ArityMismatch(
                f"slot {slot} outside arity {self.arity}")
        if op == "comul":
            if self.arity == 3:
                raise ArityMismatch("comul would exceed arity 3")
            return self._map_slot(slot, op, 2)
        if op == "counit":
            if self.arity == 1:
                raise ArityMismatch(
                    "counit on arity 1 yields a scalar; use full_counit")
            return self._map_slot(slot, op, 0)
        return self._map_slot(slot, op, 1)

    def contract_mul(self, slots=(0, 1)):
        """Multiply two adjacent slots via mu, reducing arity by one."""
        i, j = slots
        if j != i + 1 or not 0 <= i < j < self.arity:
            raise ArityMismatch(
                f"slots {slots} are not an adjacent pair in arity "
                f"{self.arity}")
        return self._map_slot(i, "mul", 1, 2)

    def _map_slot(self, slot, op, width, span=1):
        """The tensor that replaces the `span` monomials from `slot` on of
        every key by their `width` monomials' image under op, packed rows
        of the algebra (`HopfAlgebra._image_rows`), and keeps the other
        slots and, above them, the variable fields of a series, which move
        with the slots. What leaves the degree bound is dropped and, when
        nonzero, sets the flag."""
        alg = self.algebra
        packed = self._packed
        bits = alg._codec(1).hopf_bits
        low = slot * bits
        mask = (1 << (span * bits)) - 1
        head = (1 << low) - 1
        tail_in, tail_out = low + span * bits, low + width * bits
        rows_of = alg._image_rows
        images = {}
        for bucket in packed.buckets.values():
            for code, _ in bucket:
                part = (code >> low) & mask
                if part not in images:
                    images[part] = rows_of(op, part)
        den = math.lcm(*[d for _, d in images.values()])
        acc = {}
        for h, bucket in packed.buckets.items():
            for code, n in bucket:
                rows, d = images[(code >> low) & mask]
                if d != den:
                    n *= den // d
                rest = code & head | (code >> tail_in) << tail_out
                for c, dh, m in rows:
                    out = acc.get(h + dh)
                    if out is None:
                        out = acc[h + dh] = {}
                    k = rest | c << low
                    out[k] = out.get(k, 0) + n * m
        flag = packed.flag
        for h in [h for h in acc if h > alg.degree_bound]:
            flag = any(acc.pop(h).values()) or flag
        layout = self._layout(self.arity + width - span)
        return self._laid(layout, _Packed.reduced(
            acc, packed.den * den, packed.order, flag, layout.shift))

    def embed(self, arity, slots):
        """Place the slots of this tensor at the given strictly increasing
        positions of a larger arity, filling the rest with 1."""
        slots = tuple(slots)
        if len(slots) != self.arity:
            raise ArityMismatch("slot assignment length != arity")
        if list(slots) != sorted(set(slots)):
            raise ArityMismatch("slot assignment must be strictly increasing")
        if arity not in (1, 2, 3) or (slots and slots[-1] >= arity):
            raise ArityMismatch("slot assignment outside target arity")
        return self._placed(slots, arity)

    def permute(self, perm):
        """Reorder slots: new slot i holds old slot perm[i]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.arity)):
            raise ArityMismatch(f"{perm} is not a permutation of the slots")
        # a bijection of keys that keeps their degrees: nothing to merge,
        # cancel or truncate
        return self._placed([perm.index(s) for s in range(self.arity)],
                            self.arity)

    def _placed(self, positions, arity):
        """The arity-`arity` tensor with slot s of every key at
        positions[s], 1 elsewhere, and the variable fields of a series
        above them. Increasing positions keep the order of the codes, so
        only a permutation sorts its buckets."""
        bits = self.algebra._codec(1).hopf_bits
        mask = (1 << bits) - 1
        top = arity * bits
        buckets = {}
        for h, bucket in self._packed.buckets.items():
            out = buckets[h] = []
            for code, n in bucket:
                moved = 0
                for p in positions:
                    moved |= (code & mask) << (p * bits)
                    code >>= bits
                out.append((moved | code << top, n))
            if list(positions) != sorted(positions):
                out.sort(key=_code)
        packed, layout = self._packed, self._layout(arity)
        return self._laid(layout, _Packed(
            buckets, packed.den, packed.order, packed.flag, layout.shift))

    def _layout(self, arity):
        """The packed layout of this kind of object at another arity (a
        series overrides it: the slot maps serve both)."""
        return self.algebra._codec(arity)

    @staticmethod
    def _laid(codec, packed):
        """The tensor of a _Packed of the codec's layout."""
        return TensorElement._of(codec.algebra, codec.arity, packed)

    def full_counit(self):
        """Counit applied in every slot: the scalar part of the tensor."""
        scalar = self
        for _ in range(self.arity):
            scalar = scalar._map_slot(0, "counit", 0)
        packed = scalar._packed
        num = packed.buckets[0][0][1] if packed.buckets else 0
        return (ZERO if num == 0 else ONE if num == packed.den
                else Q(num, packed.den))

    # -- Hopf structure of H (arity 1) -----------------------------------------

    def _require_element(self):
        if self.arity != 1:
            raise ArityMismatch(
                f"structure map of H applied to arity {self.arity}")

    def counit(self):
        self._require_element()
        return self.full_counit()

    def comul(self):
        self._require_element()
        return self.apply_slot(0, "comul")

    def antipode(self):
        self._require_element()
        return self.apply_slot(0, "antipode")

    def mul_inverse(self):
        """Inverse with respect to slot-wise multiplication; requires the
        unit-tuple coefficient q0 to be nonzero. The geometric series in
        the unflagged nilpotent part 1 - self / q0, times 1 / q0: its flag
        comes from its products alone."""
        packed = self._packed
        # the unit key is the only key of Hopf degree 0, and its code is 0
        n0 = packed.buckets.get(0, ((0, 0),))[0][1]
        if n0 == 0:
            raise NonInvertibleConstantTerm(
                "tensor has no unit component; not invertible")
        sign = -1 if n0 > 0 else 1
        nil = packed.scaled(sign).buckets
        nil = _Packed.divided({h: b for h, b in nil.items() if h}, abs(n0),
                              False, packed.shift)
        bound = self.algebra.degree_bound
        result = _UNIT.stamped(INF, False, packed.shift)
        power = nil
        while power.buckets:
            result = _Packed.summed((result, power))
            power = power.times(nil, INF, bound)
        return TensorElement._of(self.algebra, self.arity,
                                 result)._scaled(packed.den * -sign,
                                                 abs(n0))

    def nilpotency_slack(self):
        """Largest m with self**m nonzero; raises when the element is not
        nilpotent under the degree bound (possible only when the constant
        term has nonzero full counit)."""
        if self.is_zero():
            return 0
        limit = self.algebra.degree_bound + 1
        power = self
        m = 1
        while True:
            power = power * self
            if power.is_zero():
                return m
            m += 1
            if m > limit:
                raise NonNilpotentConstantTerm(
                    "constant term is not nilpotent under the degree bound")

    # -- presentation --------------------------------------------------------

    def sorted_terms(self):
        alg = self.algebra
        return sorted(
            self.terms.items(),
            key=lambda kv: (sum(alg.degree(m) for m in kv[0]),
                            tuple((alg.degree(m), m) for m in kv[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        alg = self.algebra
        parts = []
        for key, q in self.sorted_terms():
            body = ""
            if any(map(any, key)):
                body = "⊗".join(map(alg.mono_str, key))
                if self.arity > 1:
                    body = f"({body})"
            parts.append(_times_str(q, body, ""))
        return _join_signed(parts)

    def __repr__(self):
        return f"<TensorElement[{self.arity}] {self}>"


def _is_rational(value):
    return isinstance(value, type(ONE)) or (
        hasattr(value, "numerator") and hasattr(value, "denominator")
        and not isinstance(value, bool))


def _times_str(q, mono, sep):
    """q times a printed monomial, joined by sep: q alone for the empty
    monomial, the monomial alone or negated for q = 1 or -1."""
    if not mono:
        return format_rational(q)
    if q == 1:
        return mono
    if q == -1:
        return f"-{mono}"
    return f"{format_rational(q)}{sep}{mono}"


def _mono_join(names, exps, sep):
    """The factors name^e of a monomial, name alone for e = 1, joined by
    sep: "" for H, "·" for the series variables."""
    return sep.join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(names, exps) if e)


def _join_signed(parts):
    """The printed terms as a sum, a leading minus read as a difference."""
    return parts[0] + "".join(f" - {p[1:]}" if p.startswith("-")
                              else f" + {p}" for p in parts[1:])


# -- algebra construction ----------------------------------------------------

def _as_int(value, what, error=ParseError):
    """int(value) of a JSON field, or `error` naming the field. Booleans
    and non-integral numbers are refused, not read as 0 or 1 or floored."""
    try:
        if isinstance(value, bool) or (isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must be an integer, got {value!r}") from exc


def _as_list(value, what, error=ParseError):
    """A JSON field that must be a list, or `error` naming it."""
    if not isinstance(value, list):
        raise error(f"{what} must be a list, got {value!r}")
    return value


def _decode_monomial(algebra, obj):
    """Monomial from a generator-name list (['t','t'] = t^2, ['1'] = unit),
    an exponent vector, or a bare name string."""
    if isinstance(obj, str):
        if obj == "1":
            return algebra.unit_mono
        if obj in algebra._index:
            return algebra.generator_mono(obj)
        raise SpecError(f"unknown generator {obj!r}")
    if not isinstance(obj, (list, tuple)):
        raise SpecError(f"monomial {obj!r} is neither a generator name, a "
                        "name list nor an exponent vector")
    seq = list(obj)
    if any(isinstance(x, bool) for x in seq):
        raise SpecError(f"monomial {obj!r} holds a boolean")
    if all(isinstance(x, int) for x in seq):
        if len(seq) != len(algebra.names):
            raise SpecError(
                f"exponent vector length {len(seq)} != "
                f"{len(algebra.names)} generators")
        if any(x < 0 for x in seq):
            raise SpecError(f"negative exponent in {seq}")
        return tuple(seq)
    exps = [0] * len(algebra.names)
    for name in seq:
        if name == "1":
            continue
        idx = algebra._index.get(name) if isinstance(name, str) else None
        if idx is None:
            raise SpecError(f"unknown generator {name!r}")
        exps[idx] += 1
    return tuple(exps)


def build_hopf_algebra(description):
    """Construct a HopfAlgebra from a description dict.

    Format: {"generators": [{"name": "t", "degree": 2}, ...],
             "degree_bound": 6,
             "coproduct": {"t": "primitive" | [[left, right, "q"], ...]}}
    where left/right are monomials as generator-name lists or exponent
    vectors. A missing coproduct entry defaults to primitive. The coproduct
    of each generator must be counital and degree-homogeneous (SpecError
    otherwise); antipode and counit are derived, never supplied.
    """
    if not isinstance(description, dict):
        raise SpecError("algebra description must be an object")
    gens = _as_list(description.get("generators", []), "'generators'",
                    SpecError)
    names = []
    degrees = []
    for g in gens:
        try:
            name, degree = g["name"], g["degree"]
            int(degree)  # what int() refuses makes a bad entry
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"bad generator entry {g!r}") from exc
        if not isinstance(name, str):
            raise SpecError(f"bad generator entry {g!r}")
        degree = _as_int(degree, f"generator {name!r} 'degree'", SpecError)
        names.append(name)
        degrees.append(degree)
    if "degree_bound" not in description:
        raise SpecError("algebra description lacks degree_bound")
    bound = _as_int(description["degree_bound"], "'degree_bound'", SpecError)
    if bound < 1:
        raise SpecError("degree_bound must be >= 1")

    # a shell with primitive coproducts gives us monomial decoding
    shell = HopfAlgebra(
        names, degrees, bound,
        [_primitive_table_raw(len(names), i) for i in range(len(names))])

    coproduct = description.get("coproduct", {})
    if not isinstance(coproduct, dict):
        raise SpecError(f"'coproduct' must be an object, got {coproduct!r}")
    unknown = set(coproduct) - set(names)
    if unknown:
        raise SpecError(f"coproduct given for unknown generators {unknown}")
    tables = []
    for i, name in enumerate(names):
        entry = coproduct.get(name, "primitive")
        if entry == "primitive":
            tables.append(_primitive_table_raw(len(names), i))
            continue
        table = {}
        for item in _as_list(entry, f"coproduct of {name}", SpecError):
            try:
                left, right, coeff = item
            except (TypeError, ValueError) as exc:
                raise SpecError(
                    f"coproduct term {item!r} is not "
                    "[left, right, coefficient]") from exc
            key = (_decode_monomial(shell, left),
                   _decode_monomial(shell, right))
            try:
                q = rational(coeff)
            except (TypeError, ValueError, OverflowError) as exc:
                raise SpecError(
                    f"coproduct coefficient {coeff!r} is not a rational"
                ) from exc
            table[key] = table.get(key, ZERO) + q
        tables.append({k: q for k, q in table.items() if q})
    algebra = HopfAlgebra(names, degrees, bound, tables)
    algebra._validate_tables()
    return algebra


def _primitive_table_raw(n, i):
    unit = (0,) * n
    gen = tuple(1 if j == i else 0 for j in range(n))
    return {(gen, unit): ONE, (unit, gen): ONE}


def algebra_description(algebra):
    """Description dict for an algebra (inverse of build_hopf_algebra for
    algebras without mutations)."""
    gens = [{"name": n, "degree": d}
            for n, d in zip(algebra.names, algebra.degrees)]
    coproduct = {}
    for i, name in enumerate(algebra.names):
        if algebra.is_primitive(name):
            coproduct[name] = "primitive"
        else:
            table = algebra._gen_comul[i]
            entries = []
            for (a, b) in sorted(table):
                entries.append([_mono_name_list(algebra, a),
                                _mono_name_list(algebra, b),
                                format_rational(table[(a, b)])])
            coproduct[name] = entries
    return {"generators": gens, "degree_bound": algebra.degree_bound,
            "coproduct": coproduct}


def _mono_name_list(algebra, mono):
    if all(e == 0 for e in mono):
        return ["1"]
    out = []
    for name, e in zip(algebra.names, mono):
        out.extend([name] * e)
    return out


BUILTIN_ALGEBRAS = {
    "trivial": {"generators": [], "degree_bound": 1, "coproduct": {}},
    "qt1": {"generators": [{"name": "t", "degree": 1}],
            "degree_bound": 8, "coproduct": {"t": "primitive"}},
    "qt2": {"generators": [{"name": "t", "degree": 2}],
            "degree_bound": 8, "coproduct": {"t": "primitive"}},
    "qtu": {"generators": [{"name": "t", "degree": 1},
                            {"name": "u", "degree": 3}],
            "degree_bound": 8,
            "coproduct": {"t": "primitive", "u": "primitive"}},
}


def builtin_algebra(name, degree_bound=None):
    """One of the built-in algebras: 'trivial', 'qt1' (primitive t, degree
    1), 'qt2' (primitive t, degree 2), 'qtu' (primitive t degree 1 and u
    degree 3); degree_bound overrides the default of 8."""
    try:
        desc = dict(BUILTIN_ALGEBRAS[name])
    except KeyError:
        raise SpecError(f"unknown builtin algebra {name!r}") from None
    if degree_bound is not None:
        desc = {**desc, "degree_bound": degree_bound}
    return build_hopf_algebra(desc)


# -- axiom verification -------------------------------------------------------

def verify_hopf_axioms(algebra):
    """Check the Hopf axioms on every basis monomial up to the degree bound:
    coassociativity, both counit identities, Delta and eps multiplicative,
    and the antipode identity mu(S x id)Delta = eta eps. Returns a Report
    carrying the first violation found (axiom name, monomial, defect)."""
    monos = algebra.monomials()
    delta = {}
    for m in monos:
        el = TensorElement(algebra, 1, {(m,): ONE})
        dm = delta[m] = el.comul()
        left = dm.apply_slot(0, "comul")
        right = dm.apply_slot(1, "comul")
        if left != right:
            return Report.fail([Violation(
                "coassociativity", right - left,
                f"at monomial {algebra.mono_str(m)}")])
        for slot, side in ((0, "left"), (1, "right")):
            reduced = dm.apply_slot(slot, "counit")
            if reduced != el:
                return Report.fail([Violation(
                    "counit", reduced - el,
                    f"{side} counit fails at monomial "
                    f"{algebra.mono_str(m)}")])
        s_applied = dm.apply_slot(0, "antipode").contract_mul((0, 1))
        target = TensorElement.from_scalar(algebra, 1, el.counit())
        if s_applied != target:
            return Report.fail([Violation(
                "antipode", s_applied - target,
                f"mu(S x id)Delta != eta eps at monomial "
                f"{algebra.mono_str(m)}")])

    counit = algebra.counit_mono
    for i, m1 in enumerate(monos):
        for m2 in monos[i:]:
            m12 = algebra.mul_mono(m1, m2)
            if m12 is None:
                continue
            product = delta[m1] * delta[m2]
            if delta[m12] != product:
                return Report.fail([Violation(
                    "comul-multiplicative", product - delta[m12],
                    f"at {algebra.mono_str(m1)} * {algebra.mono_str(m2)}")])
            if counit(m12) != counit(m1) * counit(m2):
                return Report.fail([Violation(
                    "counit-multiplicative", None,
                    f"at {algebra.mono_str(m1)} * {algebra.mono_str(m2)}")])
    return Report.ok()
