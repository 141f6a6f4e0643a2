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
slots (an ideal and a coideal, see packed.py). Every product runs on
packed.py's `_Packed.times` through `TensorElement.__mul__`, as every
series product does: the antipode derivation, the multiplicative extension
of the coproduct and the tensor of elements of H (`from_slots`).
"""

import operator

from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    DegreeOverflow,
    NonInvertibleConstantTerm,
    NonNilpotentConstantTerm,
    ParseError,
    SpecError,
)
from .packed import INF, _Codec
from .report import Report, Violation
from .scalars import ONE, ZERO, format_rational, rational

_STRUCTURE_MAPS = ("comul", "counit", "antipode")


def _normalize_terms(terms):
    """Drop zero coefficients; return a plain dict."""
    return {k: q for k, q in terms.items() if q != 0}


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
        "_gen_comul",
        "_gen_counit",
        "_gen_antipode",
        "_index",
        "_comul_cache",
        "_antipode_cache",
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
        self._gen_comul = tuple(
            _normalize_terms(dict(t)) for t in gen_comul)
        # H is commutative, so Delta and its flip agree everywhere once
        # they agree on the generators
        self.cocommutative = all(
            table == {(b, a): q for (a, b), q in table.items()}
            for table in self._gen_comul)
        self._gen_counit = tuple(
            gen_counit if gen_counit is not None else (ZERO,) * len(names))
        self._gen_antipode = tuple(
            gen_antipode if gen_antipode is not None else (None,) * len(names))
        self._comul_cache = {}
        self._antipode_cache = {}
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
                acc = _normalize_terms(acc)
                if acc != {gen_mono: ONE}:
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

    def _codec(self, arity):
        """Packed layout of arity-`arity` tensors, as 0-variable terms."""
        codec = self._codecs.get(arity)
        if codec is None:
            codec = self._codecs[arity] = _Codec(self, arity, (), 0)
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
        if all(e == 0 for e in mono):
            return "1"
        parts = []
        for name, e in zip(self.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "".join(parts)

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
        """Coproduct of a basis monomial as a dict (left, right) -> Q: the
        table of its first generator times the coproduct of the rest. On
        degree-homogeneous tables every component has the monomial's total
        degree, so the product drops none; a `mutated` table is truncated
        by total degree."""
        cached = self._comul_cache.get(mono)
        if cached is None:
            unit = self.unit_mono
            if mono == unit:
                cached = {(unit, unit): ONE}
            else:
                i = next(j for j, e in enumerate(mono) if e)
                rest = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
                cached = (TensorElement(self, 2, self._gen_comul[i])
                          * TensorElement(self, 2, self.comul_mono(rest),
                                          _normalize=False)).terms
            self._comul_cache[mono] = cached
        return cached

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
    return _normalize_terms({k: rational(q) for k, q in dict(value).items()})


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
        return TensorElement(algebra, 1, {(mono,): ONE}, _normalize=False)


class TensorElement:
    """Element of the k-fold tensor power of H, k in {1,2,3}: a finite
    rational combination of k-tuples of basis monomials. Arity 1 is H
    itself; a rational operand of +, - or == stands for that multiple of
    the unit at the tensor's own arity."""

    __slots__ = ("algebra", "arity", "terms", "truncated")

    def __init__(self, algebra, arity, terms, truncated=False,
                 _normalize=True):
        if arity not in (1, 2, 3):
            raise ArityMismatch(f"tensor arity {arity} outside 1..3")
        self.algebra = algebra
        self.arity = arity
        if _normalize:
            clean = _normalize_terms(terms)
            bound = algebra.degree_bound
            kept = {}
            for key, q in clean.items():
                if algebra.key_degree(key) > bound:
                    truncated = True
                    continue
                kept[key] = q
            self.terms = kept
        else:
            self.terms = terms
        self.truncated = truncated

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, algebra, arity):
        return cls(algebra, arity, {}, _normalize=False)

    @classmethod
    def unit(cls, algebra, arity):
        key = (algebra.unit_mono,) * arity
        return cls(algebra, arity, {key: ONE}, _normalize=False)

    @classmethod
    def from_scalar(cls, algebra, arity, q):
        q = rational(q)
        key = (algebra.unit_mono,) * arity
        return cls(algebra, arity, {key: q} if q != 0 else {},
                   _normalize=False)

    @classmethod
    def from_slots(cls, *elements):
        """Tensor product of 1..3 elements of H (arity-1 tensors), slot per
        argument: the product of their embeddings into the arity."""
        algebra = elements[0].algebra
        arity = len(elements)
        for el in elements:
            if el.algebra != algebra:
                raise AlgebraMismatch("tensor slots over different algebras")
            if el.arity != 1:
                raise ArityMismatch("tensor slots must be elements of H")
        result = cls.unit(algebra, arity)
        # zero slots first: a zero tensor forms no pair of the other slots,
        # so only a flagged slot flags it
        for slot, el in sorted(enumerate(elements),
                               key=lambda item: not item[1].is_zero()):
            result = result * el.embed(arity, (slot,))
        return result

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

    def _rebuilt(self, terms, arity=None):
        """Tensor of this algebra and `truncated` flag from terms that are
        nonzero and within the degree bound, at this arity unless given."""
        return TensorElement(self.algebra, arity or self.arity, terms,
                             self.truncated, _normalize=False)

    def _combine(self, other, op):
        """self + other or self - other."""
        other = self._lift(other)
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        acc = dict(self.terms)
        for k, q in other.terms.items():
            acc[k] = op(acc.get(k, ZERO), q)
        return TensorElement(self.algebra, self.arity, acc,
                             self.truncated or other.truncated)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        return self._rebuilt({k: -q for k, q in self.terms.items()})

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            # a tensor is a 0-variable series to the product kernel
            self._check(other)
            alg = self.algebra
            codec = alg._codec(self.arity)
            prod = codec.pack({(): self.terms}, flag=self.truncated).times(
                codec.pack({(): other.terms}, flag=other.truncated),
                INF, alg.degree_bound)
            return TensorElement(alg, self.arity,
                                 codec.unpack(prod).get((), {}), prod.flag,
                                 _normalize=False)
        if _is_rational(other) or isinstance(other, int):
            q = rational(other)
            if q == 0:
                return TensorElement.zero(self.algebra, self.arity)
            return self._rebuilt({k: c * q for k, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

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
        return (self.algebra == other.algebra and self.arity == other.arity
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.algebra, self.arity,
                     tuple(sorted(self.terms.items()))))

    def is_zero(self):
        return not self.terms

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
        alg = self.algebra
        if op == "comul":
            if self.arity == 3:
                raise ArityMismatch("comul would exceed arity 3")
            return self._map_slots(slot, 1, self.arity + 1, alg.comul_mono)
        if op == "counit":
            if self.arity == 1:
                raise ArityMismatch(
                    "counit on arity 1 yields a scalar; use full_counit")

            def counit(m):
                c = alg.counit_mono(m)
                return {(): c} if c else {}
            return self._map_slots(slot, 1, self.arity - 1, counit)
        return self._map_slots(slot, 1, self.arity,
                               lambda m: alg.antipode_mono(m).terms)

    def contract_mul(self, slots=(0, 1)):
        """Multiply two adjacent slots via mu, reducing arity by one."""
        i, j = slots
        if j != i + 1 or not 0 <= i < j < self.arity:
            raise ArityMismatch(
                f"slots {slots} are not an adjacent pair in arity "
                f"{self.arity}")
        mul_mono = self.algebra.mul_mono

        def product(a, b):
            m = mul_mono(a, b)
            return None if m is None else {(m,): ONE}
        return self._map_slots(i, 2, self.arity - 1, product)

    def _map_slots(self, slot, width, arity, image):
        """The arity-`arity` tensor that replaces the `width` monomials of
        every key from `slot` on by their image, a dict {monomials: Q},
        and keeps the other slots. The constructor drops and flags what
        leaves the degree bound; an image of None has left it already and
        sets the flag."""
        acc = {}
        truncated = self.truncated
        end = slot + width
        for key, q in self.terms.items():
            parts = image(*key[slot:end])
            if parts is None:
                truncated = True
                continue
            head, tail = key[:slot], key[end:]
            for part, qq in parts.items():
                k = head + part + tail
                acc[k] = acc.get(k, ZERO) + q * qq
        return TensorElement(self.algebra, arity, acc, truncated)

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
        unit = self.algebra.unit_mono
        acc = {}
        for key, q in self.terms.items():
            new = [unit] * arity
            for pos, m in zip(slots, key):
                new[pos] = m
            acc[tuple(new)] = q
        return self._rebuilt(acc, arity)

    def permute(self, perm):
        """Reorder slots: new slot i holds old slot perm[i]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.arity)):
            raise ArityMismatch(f"{perm} is not a permutation of the slots")
        # a bijection of keys that keeps their degrees: nothing to merge,
        # cancel or truncate
        return self._rebuilt({tuple(key[p] for p in perm): q
                              for key, q in self.terms.items()})

    def full_counit(self):
        """Counit applied in every slot: the scalar part of the tensor."""
        counit_mono = self.algebra.counit_mono
        total = ZERO
        for key, q in self.terms.items():
            for m in key:
                q = q * counit_mono(m)
            total += q
        return total

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
        unit-tuple coefficient to be nonzero."""
        unit_key = (self.algebra.unit_mono,) * self.arity
        q0 = self.terms.get(unit_key, ZERO)
        if q0 == 0:
            raise NonInvertibleConstantTerm(
                "tensor has no unit component; not invertible")
        scale = ONE / q0
        nil = TensorElement(
            self.algebra, self.arity,
            {k: -q * scale for k, q in self.terms.items() if k != unit_key})
        result = TensorElement.unit(self.algebra, self.arity)
        power = nil
        while not power.is_zero():
            result = result + power
            power = power * nil
        return result * scale

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
            if self.arity == 1:
                parts.append(_scalar_mono_str(alg, key[0], q))
                continue
            body = "⊗".join(alg.mono_str(m) for m in key)
            if all(all(e == 0 for e in m) for m in key):
                parts.append(format_rational(q))
            elif q == 1:
                parts.append(f"({body})")
            elif q == -1:
                parts.append(f"-({body})")
            else:
                parts.append(f"{format_rational(q)}({body})")
        return _join_signed(parts)

    def __repr__(self):
        return f"<TensorElement[{self.arity}] {self}>"


def _is_rational(value):
    return isinstance(value, type(ONE)) or (
        hasattr(value, "numerator") and hasattr(value, "denominator")
        and not isinstance(value, bool))


def _scalar_mono_str(algebra, mono, q):
    mono_s = algebra.mono_str(mono)
    if mono_s == "1":
        return format_rational(q)
    if q == 1:
        return mono_s
    if q == -1:
        return f"-{mono_s}"
    return f"{format_rational(q)}{mono_s}"


def _join_signed(parts):
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += f" - {p[1:]}"
        else:
            out += f" + {p}"
    return out


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
        tables.append(_normalize_terms(table))
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
        el = TensorElement(algebra, 1, {(m,): ONE}, _normalize=False)
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
