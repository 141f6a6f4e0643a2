"""Truncated multivariate power series with tensor coefficients.

A Series is one `_Packed` of its `_Codec` layout (packed.py), as a tensor
is: terms exps -> TensorElement over the codec's algebra, arity and
variables, packed into int codes, with the packed form's flag and its
certified order: every coefficient of total variable degree <= order
equals that of the true mathematical object, and nothing above the order
is stored. order == math.inf marks a complete polynomial, exact at every
order (constant terms, Lemma-form group laws, coboundary data). Every
operation runs on the codes; `terms` is a presentation, unpacked on first
read. The bookkeeping rules:

  add/sub            min of the orders
  mul                min(r_f + val(g), r_g + val(f), r_f + r_g + 1)
  derivative         r - 1
  integrate          r + 1
  mul_inverse        r (coefficient k of 1/f depends only on f_0..f_k,
                     solved order by order on packed rows, one per degree)
  comp_inverse       r (each packed Newton step h - (f(h) - x) h', f(h)
                     summed by the Paterson-Stockmeyer evaluator, is
                     certified through the precision it doubles to; a
                     lift Delta g reverts over H as Delta(g^-1), exact
                     because Delta is a degree-keeping ring homomorphism)
  substitute         min(min_v r_v, r_f - sum_v slack_v) and the order
                     asked for (one rule, `_substitution_order`, for
                     Horner and for the packed evaluator of fgl's twisted
                     residual; once the flag is settled, set or out of
                     reach as every assignment has Hopf degree 0, a
                     Horner step, and in that case an inner row, keeps
                     only the terms that reach that order, `_horner`)

where r_v runs over the series assigned to the variables that occur in
f's stored terms, and slack_v is the nilpotency index of the constant term
of the series assigned to variable v (largest m with kappa^m != 0), summed
over every variable when r_f is finite (f's unknown tail holds them all)
and over the occurring ones for a complete f. The slack term is not
pessimism: substituting a series with nilpotent constant term kappa lets the
unknown tail of the outer series reach down by up to slack orders, so only
r_f - sum slack_v is honestly certified. Composite pipelines that need full
certification at order N therefore compute at an elevated internal order
first (see the group-law reconstruction).

Hopf-degree truncation (coefficients above the algebra's degree bound) is an
exact quotient and never reduces the order; it only sets the `truncated`
flag, the packed form's one flag. A tensor that becomes a coefficient
(construction, `Series.constant`, `map_coefficients`) has its flag or-ed
into it, and coefficients read from `terms` carry none.
"""

import math
import operator

from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    NonInvertibleConstantTerm,
    NonNilpotentConstantTerm,
    NonZeroConstantTerm,
    ShapeMismatch,
    TruncationInsufficient,
)
from .hopf import (
    TensorElement,
    _is_rational,
    _join_signed,
    _mono_join,
    _times_str,
)
from .packed import _MINUS_UNIT, _UNIT, _Packed
from .scalars import rational

INF = math.inf

DEFAULT_NAMES = {
    0: (),
    1: ("x",),
    2: ("X", "Y"),
    3: ("X", "Y", "Z"),
}


class Series:
    """Truncated power series in 0..3 variables with TensorElement
    coefficients, one packed form (module docstring); immutable."""

    __slots__ = ("_codec", "_packed", "_terms", "_log")

    def __init__(self, algebra, arity, nvars, terms, order=INF, names=None,
                 truncated=False):
        """Series from a dict {exps: TensorElement}: zero coefficients and
        terms above the order are dropped, and the flags of the others
        are or-ed into `truncated`."""
        if nvars not in (0, 1, 2, 3):
            raise ShapeMismatch(f"variable count {nvars} outside 0..3")
        names = tuple(names) if names is not None else DEFAULT_NAMES[nvars]
        if len(names) != nvars:
            raise ShapeMismatch("variable name count != variable count")
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ShapeMismatch(
                    f"exponent vector {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise ShapeMismatch(f"negative exponent in {exps}")
            if sum(exps) > order or coeff.is_zero():
                continue
            if coeff.arity != arity:
                raise ArityMismatch(
                    "coefficient arity differs from series arity")
            if coeff.algebra != algebra:
                raise AlgebraMismatch(
                    "coefficient over a different algebra")
            truncated = truncated or coeff.truncated
            clean[exps] = coeff
        codec = algebra._codec(arity, names, max(map(sum, clean), default=0))
        self._codec, self._packed = codec, codec.pack(clean, order,
                                                      truncated)
        self._terms = self._log = None  # _log: fgl.logarithm's result

    @classmethod
    def _of(cls, codec, packed):
        """Series standing for a _Packed of the codec's layout."""
        self = object.__new__(cls)
        self._codec, self._packed = codec, packed
        self._terms = self._log = None
        return self

    algebra = property(lambda self: self._codec.algebra)
    arity = property(lambda self: self._codec.arity)
    nvars = property(lambda self: self._codec.nvars)
    names = property(lambda self: self._codec.names)
    order = property(lambda self: self._packed.order)
    truncated = property(lambda self: self._packed.flag)

    @property
    def terms(self):
        """{exps: TensorElement}, unflagged, unpacked on first read."""
        if self._terms is None:
            self._terms = self._codec.unpack(self._packed)
        return self._terms

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, algebra, arity, nvars, order=INF, names=None):
        return cls(algebra, arity, nvars, {}, order, names)

    @classmethod
    def variable(cls, algebra, arity, nvars, index, order=INF, names=None):
        if not 0 <= index < nvars:
            raise ShapeMismatch(f"variable index {index} outside 0..{nvars-1}")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(algebra, arity, nvars,
                   {exps: TensorElement.unit(algebra, arity)}, order, names)

    @classmethod
    def constant(cls, coeff, nvars, order=INF, names=None):
        """Constant series with the given TensorElement as its value, and
        its flag."""
        return cls(coeff.algebra, coeff.arity, nvars, {(0,) * nvars: coeff},
                   order, names, coeff.truncated)

    # -- bookkeeping helpers ---------------------------------------------------

    def _check_shape(self, other):
        if self.algebra != other.algebra:
            raise AlgebraMismatch("series over different Hopf algebras")
        if (self.arity != other.arity or self.nvars != other.nvars
                or self.names != other.names):
            raise ShapeMismatch(
                f"series shapes differ: arity {self.arity} vs {other.arity},"
                f" variables {self.names} vs {other.names}")

    def _exponents(self):
        """The exponent tuples of the stored terms, read off the codes."""
        bits = self._codec.hopf_bits
        return set(map(self._codec._code_exps, {
            code >> bits for bucket in self._packed.buckets.values()
            for code, _ in bucket}))

    def is_zero(self):
        return not self._packed.buckets

    def valuation(self):
        """Minimal total degree of a stored term; inf for the zero series."""
        return self._packed.val

    def max_degree(self):
        packed = self._packed
        return max([b[-1][0] for b in packed.buckets.values()],
                   default=0) >> packed.shift

    def coeff(self, exps):
        """The coefficient of one exponent tuple, split off the codes."""
        exps = tuple(exps)
        part = self._codec.split(self._packed.truncate(sum(exps)),
                                 self.algebra._codec(self.arity),
                                 lambda e: (0, ()) if e == exps else None)
        return (TensorElement._of(self.algebra, self.arity, part[0]) if part
                else TensorElement.zero(self.algebra, self.arity))

    def constant_term(self):
        """The coefficient of degree 0: the codes of degree 0 are its
        tensor codes."""
        packed = self._packed.truncate(0)
        return TensorElement._of(self.algebra, self.arity, _Packed.divided(
            packed.buckets, packed.den, False,
            self.algebra._codec(self.arity).shift))

    def truncate(self, order):
        """Drop terms above the order; certification shrinks accordingly."""
        return Series._of(self._codec, self._packed.truncate(order))

    def with_order(self, order):
        """Re-stamp the certified order. Raising it asserts, on the caller's
        authority, that the stored terms are exact through the new order
        (used after an independent verification at elevated working order);
        lowering it behaves like truncate."""
        if order <= self.order:
            return self.truncate(order)
        return Series._of(self._codec,
                          self._packed.stamped(order, self.truncated))

    def with_names(self, names):
        """Same series under different display names for the variables."""
        names = tuple(names)
        if len(names) != self.nvars:
            raise ShapeMismatch(
                f"{len(names)} names for {self.nvars} variables")
        return Series._of(self._codec.like(names=names), self._packed)

    # -- linear structure -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Series):
            return other
        if _is_rational(other) or isinstance(other, int):
            return Series.constant(
                TensorElement.unit(self.algebra, self.arity)
                * rational(other), self.nvars, INF, self.names)
        return None

    def __add__(self, other):
        return self._combine(other, _UNIT)

    def __sub__(self, other):
        return self._combine(other, _MINUS_UNIT)

    def _combine(self, other, sign):
        """self + other or self - other (sign _UNIT or _MINUS_UNIT), one
        kernel call in a layout of both: minimal order, terms above it and
        zero coefficients dropped, flags or-ed."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_shape(other)
        # the wider layout holds both
        codec = max(self._codec, other._codec, key=lambda c: c.width)
        return Series._of(codec, _Packed.sum_of_products(
            ((_UNIT, _in(codec, self)._packed),
             (sign, _in(codec, other)._packed)), INF, INF))

    def __neg__(self):
        return Series._of(self._codec, self._packed.scaled(-1))

    __radd__ = __add__

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def scale(self, q):
        q = rational(q)
        if q == 0:
            return Series.zero(self.algebra, self.arity, self.nvars,
                               self.order, self.names)
        return self * self._coerce(q)

    # -- multiplication ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Series):
            self._check_shape(other)
            codec = self._codec.like(
                vmax=self.max_degree() + other.max_degree())
            # the product of the two unknown tails starts above
            # r_f + r_g + 1, which decides when neither factor has a term
            return _series_mul(_in(codec, self), _in(codec, other),
                               keep=self.order + other.order + 1)
        if _is_rational(other) or isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative series powers are not defined")
        result = Series.constant(TensorElement.unit(self.algebra, self.arity),
                                 self.nvars, INF, self.names)
        for _ in range(n):
            result = result * self
        return result

    # -- calculus ------------------------------------------------------------------

    def derivative(self, var=0):
        """Formal partial derivative; certified order drops by one. On the
        codes (`_Codec.stepped`)."""
        if not 0 <= var < self.nvars:
            raise ShapeMismatch(f"variable index {var} outside series")
        return Series._of(self._codec,
                          self._codec.stepped(self._packed, var))

    def integrate(self, var=0):
        """Term-wise antiderivative with integration constant 0; certified
        order rises by one. On the codes, in a layout that holds them."""
        if not 0 <= var < self.nvars:
            raise ShapeMismatch(f"variable index {var} outside series")
        codec = self._codec.like(vmax=self.max_degree() + 1)
        return Series._of(codec, codec.stepped(_in(codec, self)._packed, var,
                                               up=True))

    # -- composition ------------------------------------------------------------------

    def substitute(self, assignments, order=None):
        """Simultaneous substitution of a series for every variable; with
        `order`, substitute(assignments).truncate(order), flags included,
        whose Horner steps form only what reaches that order (`_horner`).

        assignments: a sequence of Series, the one for variable i at
        position i, all sharing one target shape and this series'
        coefficient arity. Each assigned constant term must have full
        counit 0 (NonNilpotentConstantTerm otherwise); the certified order
        of the result is min(min_v order_v, order_f - sum_v slack_v) as
        described in the module docstring.
        """
        order = _requested_order(order, INF)
        order = INF if order is None else order
        assigns = list(assignments)
        if self.nvars == 0 and not assigns:
            return self.truncate(order)
        cap, codec, slacks = _substitution_order(self, assigns)
        zero = (0,) * codec.nvars
        return _substituted(
            self._codec.split(self._packed, codec, lambda e: (e, zero)),
            self.truncated, [None if s is None else _in(codec, a)
                             for a, s in zip(assigns, slacks)],
            codec, cap, slacks, min(cap, order))

    def comp_inverse(self, order=None):
        """Compositional inverse of a one-variable series with f(0) = 0 and
        linear coefficient of full counit 1. The inverse of a complete
        polynomial is an infinite series, so an explicit target order is
        required when this series has order inf; below order 1 the
        inverse is the zero series.

        Newton iteration from b0^-1 x doubles the certified order at each
        step, so order N takes about log2 N evaluations of f, each by the
        packed Paterson-Stockmeyer evaluator (`_evaluate`) in about
        2 sqrt(N) full products: the loop substitutes and unpacks
        nothing. A lift Delta g reverts over H, as Delta(g^-1)."""
        order = _requested_order(order, self.order)
        if self.nvars != 1:
            raise ShapeMismatch("compositional inverse needs one variable")
        if self.valuation() == 0:
            raise NonZeroConstantTerm(
                "compositional inverse needs zero constant term")
        b0 = self.coeff((1,))
        if b0.full_counit() != 1:
            raise NonInvertibleConstantTerm(
                "linear coefficient must have full counit 1")
        if order is None:
            if self.order == INF:
                raise ValueError(
                    "series is a complete polynomial; its compositional "
                    "inverse is infinite, pass an explicit order")
            order = self.order
        if order > self.order:
            raise TruncationInsufficient(
                f"compositional inverse through order {order} needs the "
                f"input through that order (certified {self.order})",
                certified=self.order, requested=order)
        b0_inv = b0.mul_inverse()
        if order < 1:
            return self.truncate(order)
        f = self.truncate(order)
        base = _coproduct_base(f) if f.arity == 2 else None
        if base is not None:
            # Delta keeps degrees and is a ring homomorphism: it commutes
            # with truncation and reversion, and Delta(g^-1) has the flag
            # of g^-1
            return base.comp_inverse(order=order).apply_slot(0, "comul")
        codec, root = _newton_root(f, b0_inv, order)
        return Series._of(codec, root.stamped(order, self.truncated))

    # -- multiplicative inverse -------------------------------------------------------

    def mul_inverse(self, order=None):
        """Series g with f*g = 1. Needs a constant term of full counit 1;
        the finite geometric expansion in its nilpotent part gives g_0,
        and the order-by-order recursion g_m = -f_0^-1 sum_j f_j g_(m-j)
        (Brent and Kung, JACM 1978) the rest, on one packed row per degree
        (f_j the terms of f of degree j): one kernel call for the sum and
        one for the product by -f_0^-1 per order m. Rows and products are
        complete, so the flag counts every pair of Hopf-degree buckets
        whose product leaves the quotient, and f's own flag is or-ed in.

        For a complete polynomial whose positive-degree coefficients are all
        counit-zero the inverse is again a complete polynomial (degree
        exhaustion: it ends once as many rows in a row as f's top degree
        are zero) and is computed exactly; otherwise the inverse is an
        infinite series and an explicit target order is required when this
        series has order inf (inf is no such order). A target order above
        the certified order raises TruncationInsufficient, for a constant
        series too, whose inverse keeps its order."""
        order = _requested_order(order, self.order)
        f0 = self.constant_term()
        if f0.full_counit() != 1:
            raise NonInvertibleConstantTerm(
                "constant term must have full counit 1 "
                "(rational rescaling is the caller's job)")
        f0_inv = f0.mul_inverse()
        if order is not None and order > self.order:
            raise TruncationInsufficient(
                f"inverse through order {order} needs the input through "
                f"that order (certified {self.order})",
                certified=self.order, requested=order)

        flag = self.truncated or f0_inv.truncated
        maxdeg = self.max_degree()
        if not maxdeg:
            return Series._of(self._codec, f0_inv._packed.stamped(
                self.order, flag, self._codec.shift))
        exhaustive = False
        if order is None:
            if self.order != INF:
                order = self.order
            else:
                if any(sum(e) and c.full_counit() != 0
                       for e, c in self.terms.items()):
                    raise ValueError(
                        "series is a complete polynomial with a "
                        "non-nilpotent positive part; its inverse is "
                        "infinite, pass an explicit order")
                exhaustive = True
                # every use of a positive-degree part adds Hopf degree, so
                # the recursion dies after boundedly many orders
                order = (self.arity * self.algebra.degree_bound * maxdeg
                         + maxdeg)

        codec = self._codec.like(vmax=order)
        rows = self._codec.split(
            self._packed, codec,
            lambda e: (sum(e), e) if 0 < sum(e) <= order else None)
        bound = self.algebra.degree_bound
        minus_f0_inv = _constant(codec, -f0_inv)
        # the flags of f and f_0^-1 ride on row 0 into the sum of the rows
        levels = [_constant(codec, f0_inv, flag)]
        for m in range(1, order + 1):
            pairs = [(rows[j], levels[m - j])
                     for j in range(1, min(m, maxdeg) + 1)
                     if j in rows and levels[m - j].buckets]
            levels.append(minus_f0_inv.times(
                _Packed.sum_of_products(pairs, INF, bound), INF, bound))
            if exhaustive and m >= maxdeg and not any(
                    row.buckets for row in levels[-maxdeg:]):
                break
        return Series._of(codec, _Packed.summed(levels).truncate(
            INF if exhaustive else min(order, self.order)))

    # -- coefficient-wise structure maps -------------------------------------------

    def map_coefficients(self, fn):
        """Apply a TensorElement -> TensorElement map to every coefficient
        (the structure maps run on the codes: `apply_slot`). All outputs
        must share one arity, the result's; for an empty series it is the
        arity of the map's image of the zero coefficient."""
        acc = {}
        out_arity = None
        truncated = self.truncated
        for e, c in self.terms.items():
            out = fn(c)
            if out.algebra != self.algebra:
                raise AlgebraMismatch(
                    "coefficient map changed the algebra")
            if out_arity is None:
                out_arity = out.arity
            elif out.arity != out_arity:
                raise ArityMismatch(
                    "coefficient map produced mixed arities")
            truncated = truncated or out.truncated
            acc[e] = out
        if out_arity is None:
            out_arity = fn(TensorElement.zero(self.algebra, self.arity)).arity
        return Series(self.algebra, out_arity, self.nvars, acc, self.order,
                      self.names, truncated)

    # The tensors' slot maps (TensorElement.apply_slot, contract_mul,
    # embed) map every coefficient at once on this series' codes, whose
    # variable fields sit above the slots and move with them.
    apply_slot = TensorElement.apply_slot
    contract_mul = TensorElement.contract_mul
    embed = TensorElement.embed
    _map_slot = TensorElement._map_slot
    _placed = TensorElement._placed

    def _layout(self, arity):
        return self._codec.like(arity=arity)

    _laid = _of

    # -- variable plumbing -----------------------------------------------------------

    def _moved(self, move, names=None):
        """This series with each term's exponents e moved to move(e), or
        dropped where that is None, under `names`: one `_Codec.relaid`."""
        codec = self._codec.like(names=names, vmax=self.max_degree())
        return Series._of(codec, self._codec.relaid(self._packed, codec,
                                                    move))

    def embed_vars(self, nvars, positions, names=None):
        """Place this series' variables at the given positions of a larger
        variable tuple (exponents elsewhere zero)."""
        positions = tuple(positions)
        if len(positions) != self.nvars:
            raise ShapeMismatch("one position per variable required")
        if list(positions) != sorted(set(positions)) or (
                positions and positions[-1] >= nvars):
            raise ShapeMismatch(f"bad variable positions {positions}")

        def move(e):
            exps = [0] * nvars
            for pos, k in zip(positions, e):
                exps[pos] = k
            return tuple(exps)

        return self._moved(
            move, names if names is not None else DEFAULT_NAMES[nvars])

    def set_variable_zero(self, var):
        """Substitute 0 for one variable, keeping the variable tuple."""
        if not 0 <= var < self.nvars:
            raise ShapeMismatch(f"variable index {var} outside series")
        return self._moved(lambda e: None if e[var] else e)

    def drop_variable(self, var):
        """Remove a variable that occurs in no stored term."""
        if any(e[var] for e in self._exponents()):
            raise ShapeMismatch(
                f"variable {self.names[var]} still occurs; cannot drop")
        return self._moved(lambda e: e[:var] + e[var + 1:],
                           self.names[:var] + self.names[var + 1:])

    def permute_vars(self, perm):
        """Reorder variables: new variable i is old variable perm[i]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.nvars)):
            raise ShapeMismatch(f"{perm} is not a permutation")
        return self._moved(lambda e: tuple(e[p] for p in perm))

    # -- comparison --------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.algebra == other.algebra and self.arity == other.arity
                and self.nvars == other.nvars and self.names == other.names
                and self.order == other.order and self.terms == other.terms)

    def __hash__(self):
        return hash((self.algebra, self.arity, self.nvars, self.names,
                     self.order, tuple(sorted(self.terms))))

    def same_through(self, other, order=None):
        """Term-wise equality through the common certified order (or the
        given order, when lower)."""
        self._check_shape(other)
        cap = min(self.order, other.order)
        if order is not None:
            cap = min(cap, order)
        return self.truncate(cap).terms == other.truncate(cap).terms

    # -- presentation --------------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0]),
                                      tuple(-e for e in kv[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        return _join_signed(
            [_term_str(self, e, c) for e, c in self.sorted_terms()])

    def __repr__(self):
        order = "inf" if self.order == INF else self.order
        return (f"<Series[{self.nvars}v/{self.arity}t] order={order} "
                f"{self}>")


# -- Newton iteration ---------------------------------------------------------
#
# Series reversion and the group inverse solve for a root by Newton
# iteration, which doubles the certified order at each step (Brent and
# Kung, JACM 1978), so reaching order N takes about log2 N polynomial
# evaluations, each by the packed Paterson-Stockmeyer evaluator
# (`_evaluate`).

def _doubling_orders(start, target, extra=0):
    """Precisions above `start` up to the int `target` for a Newton
    iteration that takes precision p to 2p + extra, halved down from the
    target so that no step computes beyond what the next one needs."""
    steps = []
    p = operator.index(target)
    while p > start:
        steps.append(p)
        p = (p + 1 - extra) // 2
    return steps[::-1]


def _requested_order(order, stored):
    """A requested order as the inversions and substitutions read it:
    math.inf on a complete polynomial is None, and any other order must be
    an int (-math.inf is none)."""
    if order is None or isinstance(order, int) or order == INF:
        return None if order == INF == stored else order
    raise TypeError(f"order must be an int, None or math.inf, not {order!r}")


def _newton_root(f, b0_inv, order):
    """(codec, h): the root h of f(h) = x through the int order, packed in
    codec's layout, by Newton steps from b0_inv x for f(0) = 0."""
    codec = f._codec.like(vmax=order)
    x_code = codec._exps_code((1,))
    # -x as the coefficient of h^0: the evaluator sums f(h) - x
    consts = {0: _Packed({0: [(x_code, -1)]}, 1, INF, False, codec.shift)}
    consts.update(f._codec.split(f._packed, codec, lambda e: (e[0], (0,))))
    h = codec.pack({(1,): b0_inv})
    bound = f.algebra.degree_bound
    for p in _doubling_orders(1, order):
        # h is the inverse through some q >= p/2, so e = f(h) - x
        # starts above q and h' = (1 + e') / f'(h) with e' = O(x^q):
        # h - e h' is the inverse through 2q >= p. h is read as the
        # polynomial it stores, so f cut at p caps the step at p.
        err = _evaluate({k: c for k, c in consts.items() if k <= p},
                        h, p, bound)
        h = (_series_mul(  # a product, where the benchmark's tracer counts
            Series._of(codec, err),
            Series._of(codec, codec.stepped(h, 0).scaled(-1)), keep=p,
            plus=Series._of(codec, h))._packed if err.buckets
             else h.truncate(p)).stamped(INF, False)
    return codec, h


def _coproduct_base(f):
    """The series g over H with Delta g = f, of arity 2, with f's flag, or
    None when f is no such lift or Delta lowers a degree (then no ring
    homomorphism of the truncated algebras, so f reverts in H (x) H). H
    is connected, so g = (id (x) eps) f, checked by lifting it again."""
    if f.algebra.lowers_degree():
        return None
    g = f.apply_slot(1, "counit")
    return g if (g.apply_slot(0, "comul") - f).is_zero() else None


# -- series products on the packed kernel (packed.py) ------------------------
#
# Every series product is a `_series_mul` call on two series of one
# layout, and so is the product. `Series.__mul__` re-lays its operands in
# a layout sized for their product when theirs is too narrow; a
# substitution lays its inputs out once, and its Horner steps (each a
# product plus an addend in one call) and result share that layout.


def _substitution_order(f, assigns, vmax=0):
    """The checks and order rule of f(assigns), for Horner and the
    evaluator alike: (cap, codec, slacks), cap as in the module docstring,
    codec the assignments' layout for every product through cap and
    exponents up to `vmax`, slacks[v] the slack of the constant assigned
    to variable v of f, None where v does not occur in f's terms."""
    if len(assigns) != f.nvars:
        raise ShapeMismatch(
            "substitution needs an assignment for every variable")
    target = assigns[0]
    for a in assigns[1:]:
        target._check_shape(a)
    if target.algebra != f.algebra:
        raise AlgebraMismatch("assignment over a different algebra")
    if target.arity != f.arity:
        raise ArityMismatch(
            "assigned series arity differs from the substituted series")
    exponents = f._exponents()
    occurring = [any(e[v] for e in exponents) for v in range(f.nvars)]
    used = [a for v, a in enumerate(assigns) if occurring[v]]
    # f's unknown tail holds every variable: each nilpotent constant
    # reaches down into the result through it
    slacks = {v: _slack(f.names[v], a.constant_term())
              for v, a in enumerate(assigns)
              if occurring[v] or f.order != INF}
    cap = min([a.order for a in used] + [f.order - sum(slacks.values())])
    top = max((a.max_degree() for a in used), default=0)
    vmax = max(vmax, top, cap if cap != INF else f.max_degree() * top)
    return cap, target._codec.like(vmax=vmax), [
        slacks[v] if occurring[v] else None for v in range(f.nvars)]


def _substituted(consts, flag, assigns, codec, cap, slacks, order):
    """f(assigns) through `order`, at most cap, in the codec's layout, once
    the checks and the order rule are settled (`_substitution_order`):
    Horner on the constants {exps: _Packed} of f, whose flag is `flag`,
    the assignments laid out in the codec (None where a variable does not
    occur in f)."""
    if not consts:
        return Series._of(codec, _Packed({}, 1, order, flag, codec.shift))
    # each group carries f's flag, which the result ors in anyway: a
    # flagged series settles the Horner cut at once
    result = _horner({e: Series._of(codec, c.stamped(INF, flag))
                      for e, c in consts.items()},
                     assigns, cap, slacks, order)._packed
    return Series._of(codec, result.stamped(order, result.flag or flag))


def _lifted_parts(h, codec):
    """({(k,): Delta h_k}, flag): the coproduct lift of each coefficient
    h_k of the one-variable series h over H, as a complete constant of
    the codec's layout (arity 2), and the lift's flag: h.apply_slot(0,
    "comul") split by exponent, in one pass over h's codes from the
    algebra's packed image of each monomial (`HopfAlgebra._image_rows`)."""
    alg, packed, bits = h.algebra, h._packed, h._codec.hopf_bits
    mask = (1 << bits) - 1
    images = {code: alg._image_rows("comul", code) for code in {
        code & mask for bucket in packed.buckets.values()
        for code, _ in bucket}}
    den = math.lcm(*[d for _, d in images.values()])
    parts, flag = {}, packed.flag
    for hd, bucket in packed.buckets.items():
        for code, n in bucket:
            rows, d = images[code & mask]
            acc = parts.setdefault((code >> bits,), {})
            for c, dh, m in rows:
                out = acc.setdefault(hd + dh, {})
                out[c] = out.get(c, 0) + n * m * (den // d)
    for acc in parts.values():  # what leaves the bound, when nonzero
        for hd in [hd for hd in acc if hd > alg.degree_bound]:
            flag = any(acc.pop(hd).values()) or flag
    parts = {k: _Packed.reduced(acc, packed.den * den, INF, False,
                                codec.shift) for k, acc in parts.items()}
    return {k: p for k, p in parts.items() if p.buckets}, flag


def _slack(name, kappa):
    """The nilpotency slack of the constant kappa assigned to the variable
    `name`, which must be nilpotent: the largest m with kappa^m != 0."""
    if kappa.is_zero():
        return 0
    if kappa.full_counit() != 0:
        raise NonNilpotentConstantTerm(
            f"assignment for variable {name} has "
            "constant term with nonzero full counit")
    return kappa.nilpotency_slack()


def _in(codec, series):
    """The series in the codec's layout: itself when its codes are those
    of that layout (the same Hopf fields, variables and degree field),
    else re-laid code by code (`_Codec.relaid`)."""
    own = series._codec
    if (own.hopf_bits, own.nvars, own.shift) == (codec.hopf_bits,
                                                 codec.nvars, codec.shift):
        return series
    return Series._of(codec, own.relaid(series._packed, codec))


def _constant(codec, coeff, flag=False):
    """A coefficient as a complete constant of the codec's layout: its
    own packed terms, which sit at the zero exponents of every layout of
    its algebra and arity, re-stamped with `flag`."""
    return coeff._packed.stamped(INF, flag, codec.shift)


def _minus_reversed(series):
    """The series minus itself with the tensor slots and the variables in
    reverse order, formed in its own layout (`_Codec.minus_reversed`).
    The reversal keeps every term's degrees, so the difference has the
    flag that `series - reversed` gives, the series'."""
    return Series._of(series._codec,
                      series._codec.minus_reversed(series._packed))


def _series_mul(f, g, *, keep, plus=None):
    """f * g truncated at `keep`, for series of one layout, as a series of
    that layout (f's). The `truncated` flag counts every pair of terms
    within the product's own order cap, as (f * g).truncate(keep) would.
    A series `plus` is added as `Series.__add__` would add it, in the same
    kernel call, as the pair (1, plus)."""
    pairs = [(f._packed, g._packed)]
    if plus is not None:
        pairs.append((_UNIT, plus._packed))
    return Series._of(f._codec, _Packed.sum_of_products(
        pairs, keep, f.algebra.degree_bound))


def _horner(consts, assigns, cap, slacks=None, order=INF):
    """Horner evaluation over the first variable, recursing on the rest.

    consts maps the exponent tuples of the substituted series to its
    coefficients as constant series; assigns holds every variable's
    assignment (None where the variable does not occur), all of one
    layout whose `vmax` covers every product formed here, and slacks
    the slack of each one's constant (read for a finite order).
    Intermediates are truncated at cap, the result at `order` (at most
    cap); the certified order and the flag of each step follow the Series
    operations, and that of the result is stamped by the caller. Every step,
    one by a bare variable included, is one `_series_mul` with the step's
    group as its `plus`: the terms, order and flag of the product
    truncated at cap and then summed with the group. Until the flag is
    settled every step runs at the full cap; it is settled once set, and
    from the start when every assignment has only terms of Hopf degree 0
    (no product leaves the quotient). Then step R_(k+1) a + group k, which
    reaches the result times a^k of valuation >= (k - s)+ v (s the slack
    of a's constant, v the least degree of a's other terms), keeps only
    the terms through order - (k - s)+ v, stamped with cap; when settled
    from the start, so does row k of the inner variables."""
    settled = all(a is None or set(a._packed.buckets) <= {0}
                  for a in assigns)
    kmax = max(e[0] for e in consts)
    s = v = 0
    if kmax and order != INF:
        s, packed = slacks[0], assigns[0]._packed
        v = min([code >> packed.shift
                 for bucket in packed.buckets.values()
                 for code, _ in bucket if code >> packed.shift]
                or [max(order, 0) + 1])
    if len(assigns) == 1:
        groups = {e[0]: c for e, c in consts.items()}
    else:
        rows = {}
        for e, c in consts.items():
            rows.setdefault(e[0], {})[e[1:]] = c
        groups = {k: _horner(sub, assigns[1:], cap, slacks and slacks[1:],
                             order - max(k - s, 0) * v if settled else cap)
                  for k, sub in rows.items()}
    result = groups[kmax]
    for k in range(kmax - 1, -1, -1):
        settled = settled or result.truncated
        keep = order - max(k - s, 0) * v if settled else cap
        result = _series_mul(result, assigns[0], keep=keep,
                             plus=groups.get(k))
        if keep < cap:
            result = Series._of(result._codec, result._packed.stamped(
                cap, result.truncated))
    if order != INF:
        packed = result._packed
        result = Series._of(result._codec, packed.truncate(order).stamped(
            cap, packed.flag))
    return result


def _evaluate(coeffs, h, p, bound):
    """Sum over k of coeffs[k] * h^k through order p, for packed
    coefficient series coeffs {k: _Packed} and a packed polynomial h of
    one layout, by Paterson and Stockmeyer (SIAM J. Comput. 1973): h^0 ...
    h^m are formed once through p, m about the square root of the top k,
    and the blocks B_i = sum_j coeffs[im + j] h^j run by Horner in h^m,
    each block plus the running sum times h^m in one `sum_of_products`
    call. Block i is later multiplied by h^(im), whose valuation is at
    least i m val(h), so it is kept only through p - i m val(h). A nonzero
    (nilpotent) constant kappa of h is expanded about first (Brent and
    Kung, JACM 1978): G_j = sum_i binom(j + i, i) coeffs[j + i] kappa^i,
    over the present coeffs and kappa's powers formed once while nonzero,
    are summed in h - kappa, of valuation >= 1, so the cut applies; each
    G_j takes one kernel call, except G_(im), whose pairs join block i's
    own call, as it is times (h - kappa)^0 = 1 there. Terms are exact in
    the quotient ring and the order is p. No output reads the flag, which
    the expansion can change: extraction drops it, Newton steps stamp
    False, the CLI never prints check_log's functional defect."""
    if not coeffs:
        return _Packed({}, 1, p, False, h.shift)
    kmax = max(coeffs)
    m = max(1, math.isqrt(kmax))
    heads = {}
    if h.val == 0:
        kappa = h.truncate(0).stamped(INF, False)
        powers = [_UNIT, kappa]
        while len(powers) <= kmax and powers[-1].buckets:
            powers.append(powers[-1].times(kappa, INF, bound))
        shifted = {}
        for k in sorted(coeffs):
            for i, power in enumerate(powers[:k + 1]):
                shifted.setdefault(k - i, []).append(
                    (coeffs[k], power.scaled(math.comb(k, i))))
        # G_(im) is times (h - kappa)^0 = 1 in block i: its pairs join
        # that block's kernel call; every other G_j is summed once
        heads = {j: ps for j, ps in shifted.items() if not j % m}
        coeffs = {j: _Packed.sum_of_products(ps, p, bound)
                  for j, ps in shifted.items() if j % m}
        # each bucket of h is sorted by degree: kappa's terms lead it
        rest = {hd: b[len(kappa.buckets.get(hd, ())):]
                for hd, b in h.buckets.items()}
        h = _Packed({hd: b for hd, b in rest.items() if b}, h.den, h.order,
                    h.flag, h.shift)
    # p + 1 for h = 0: no block past the first reaches order p; through
    # p = inf every block is kept whole
    v = 0 if p == INF else min(h.val, p + 1)
    powers = [_UNIT, h.truncate(p)]
    while len(powers) <= m:
        powers.append(powers[-1].times(powers[1], p, bound))
    acc = None
    for i in range(kmax // m, -1, -1):
        pairs = heads.get(i * m, []) + [
            (coeffs[i * m + j], powers[j]) for j in range(m)
            if i * m + j in coeffs]
        if acc is not None:
            pairs.append((acc, powers[m]))
        acc = _Packed.sum_of_products(pairs, p - i * m * v, bound)
    return acc


# -- pretty printing -------------------------------------------------------------

def _term_str(series, exps, coeff):
    """A coefficient times a variable monomial: a scalar as 3·X, any
    other coefficient as it prints, parenthesized if it has several terms."""
    mono = _mono_join(series.names, exps, "·")
    items = coeff.terms
    if len(items) == 1:
        ((key, q),) = items.items()
        if key == (series.algebra.unit_mono,) * series.arity:
            return _times_str(q, mono, "·")
    head = str(coeff) if len(items) == 1 else f"({coeff})"
    return head if not mono else f"{head}·{mono}"
