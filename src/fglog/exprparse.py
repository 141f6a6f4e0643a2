"""Inline expression syntax for small Hopf and tensor elements.

Grammar (precedence from loose to tight):

    expr    :=  ['-'] term (('+' | '-') term)*
    term    :=  product (TENSOR product)*
    product :=  factor (['*'] factor)*
    factor  :=  atom ['^' natural]
    atom    :=  rational | generator | '(' expr ')'

TENSOR is written `(x)` or the character `⊗`; it binds tighter than `+`
so `2 t (x) t + t^2 (x) t^2` reads as a sum of two tensors. Products may
be juxtaposed (`3t^2`), rationals are `p` or `p/q`. Examples:

    t^2 + 3t
    2 t (x) t
    1/2 t (x) t^2 - t^2 (x) t
    (t + t^2) (x) (t - t^2)

Every value is a TensorElement (an element of H is one of arity one) or
a bare rational. Tensor factors of a term must agree in arity;
`parse_element` insists on arity one, `parse_tensor` returns the inferred
arity. A term whose value reaches above the algebra's degree bound is a
ParseError naming that term: the parser starts from generators, so only a
product or a tensor sign that dropped data can set a term's `truncated`
flag.

Sizes are bounded so that parsing ends quickly and every parsed value
can be printed. An exponent above MAX_EXPONENT is a ParseError. So is a
number, power, term or sum with a numerator or denominator of more than
`sys.get_int_max_str_digits()` digits, the interpreter's limit for
int-to-str conversion (4300 by default); a power is refused before it is
formed when its scalar part alone would be too long.
"""

import math
import re

from .errors import ArityMismatch, ParseError
from .hopf import HopfElement, TensorElement
from .scalars import _digit_limit, rational

__all__ = ["MAX_EXPONENT", "parse_element", "parse_tensor"]

MAX_EXPONENT = 10 ** 6


def _abbreviated(text):
    return text if len(text) <= 40 else f"{text[:20]}...({len(text)} chars)"

_TOKEN_RE = re.compile(r"""
    (?P<tensor>\(\s*x\s*\)|⊗)
  | (?P<number>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(text):
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(
                f"unexpected character {m.group()!r} at position {m.start()}")
        out.append((kind if kind != "op" else m.group(), m.group(),
                    m.start()))
    return out


class _Parser:
    def __init__(self, text, algebra):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.algebra = algebra
        self.digits = _digit_limit()

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, "", -1)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r} but found {tok[1]!r} "
                f"at position {tok[2]}")
        return tok

    def at_atom(self):
        kind = self.peek()[0]
        return kind in ("number", "name", "(")

    # -- grammar ----------------------------------------------------------

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] is not None:
            raise ParseError(
                f"trailing input {tok[1]!r} at position {tok[2]}")
        return value

    def expr(self):
        start = self.peek()[2]
        if self.peek()[0] == "-":
            self.next()
            acc = -self.term()
        else:
            acc = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            acc = self._combine(acc, self.term(), op)
        self._check_length(acc, "sum", start)
        return acc

    def _span(self, start):
        """Input text from position `start` through the last token read."""
        _, text, pos = self.tokens[self.pos - 1]
        return self.text[start:pos + len(text)]

    def _too_long(self, what, start):
        return ParseError(
            f"{what} {_abbreviated(self._span(start))!r} at position "
            f"{start} has a numerator or denominator of more than "
            f"{self.digits} digits")

    def _check_length(self, value, what, start):
        # an int of at most `safe` bits is below 10^digits, so only longer
        # ones are compared with that power
        safe = int(self.digits * math.log2(10))
        scalars = (value.terms.values() if isinstance(value, TensorElement)
                   else (value,))
        for q in scalars:
            for n in (abs(q.numerator), q.denominator):
                if n.bit_length() > safe and n >= 10 ** self.digits:
                    raise self._too_long(what, start)

    def _combine(self, lhs, rhs, op):
        # a bare rational operand is that multiple of the other's unit
        try:
            return lhs + rhs if op == "+" else lhs - rhs
        except (ArityMismatch, TypeError) as exc:
            raise ParseError(
                f"cannot combine incompatible terms: {exc}") from exc

    def term(self):
        start = self.peek()[2]
        slots = [self.product()]
        while self.peek()[0] == "tensor":
            self.next()
            slots.append(self.product())
        if len(slots) == 1:
            value = slots[0]
        else:
            value = TensorElement.from_slots(
                *[self._slot_element(s) for s in slots])
        if isinstance(value, TensorElement) and value.truncated:
            raise ParseError(
                f"term {self._span(start)!r} at position "
                f"{start} reaches above the degree bound "
                f"{self.algebra.degree_bound}")
        self._check_length(value, "term", start)
        return value

    def _slot_element(self, value):
        if not isinstance(value, TensorElement):
            return TensorElement.from_scalar(self.algebra, 1, value)
        if value.arity != 1:
            raise ParseError(
                "tensor slots cannot themselves be tensors; write "
                "a (x) b (x) c without nesting")
        return value

    def product(self):
        acc = self.factor()
        while True:
            if self.peek()[0] == "*":
                self.next()
            elif not self.at_atom():
                return acc
            rhs = self.factor()
            try:
                acc = acc * rhs
            except (ArityMismatch, TypeError) as exc:
                raise ParseError(
                    f"cannot multiply incompatible factors: {exc}") from exc

    def factor(self):
        start = self.peek()[2]
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            _, text, pos = self.expect("number")
            digits = text.lstrip("0") or "0"
            if (len(digits) > len(str(MAX_EXPONENT))
                    or int(digits) > MAX_EXPONENT):
                raise ParseError(
                    f"exponent {_abbreviated(text)} at position {pos} is "
                    f"above the limit {MAX_EXPONENT}")
            n = int(digits)
            # the scalar part of a power is the power of the scalar part;
            # one digit of slack leaves the borderline cases to the exact
            # check of the term
            scalar = base
            if isinstance(base, TensorElement):
                unit_key = (self.algebra.unit_mono,) * base.arity
                scalar = base.terms.get(unit_key, 0)
            if scalar and n * math.log10(max(
                    abs(scalar.numerator), scalar.denominator)) > (
                        self.digits + 1):
                raise self._too_long("power", start)
            base = base ** n
        return base

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "number":
            self.next()
            if self.peek()[0] == "/":
                self.next()
                text = f"{text}/{self.expect('number')[1]}"
            if max(len(part) for part in text.split("/")) > self.digits:
                raise self._too_long("number", pos)
            return rational(text)
        if kind == "name":
            self.next()
            if text not in self.algebra.names:
                known = ", ".join(self.algebra.names) or "(none)"
                raise ParseError(
                    f"unknown generator {text!r} at position {pos}; "
                    f"algebra generators: {known}")
            return HopfElement.generator(self.algebra, text)
        if kind == "(":
            self.next()
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(
            f"expected a value but found {text!r} at position {pos}"
            if kind is not None else "unexpected end of expression")


def parse_tensor(text, algebra, arity=None):
    """Parse an inline expression to a TensorElement; with `arity` given,
    a mismatching expression is a ParseError.  A pure scalar (no tensor
    sign, no generators) is read as that multiple of the arity-wide unit,
    so "0" denotes the zero tensor at any requested arity."""
    tensor = _Parser(text, algebra).parse()
    if not isinstance(tensor, TensorElement):
        tensor = TensorElement.from_scalar(
            algebra, 1 if arity is None else arity, tensor)
    if arity is not None and tensor.arity != arity:
        raise ParseError(
            f"expected a tensor of arity {arity} but parsed arity "
            f"{tensor.arity}: {text!r}")
    return tensor


def parse_element(text, algebra):
    """Parse an inline expression to an element of H, an arity-1
    TensorElement."""
    value = _Parser(text, algebra).parse()
    if not isinstance(value, TensorElement):
        return TensorElement.from_scalar(algebra, 1, value)
    if value.arity != 1:
        raise ParseError(
            f"expected a plain algebra element but parsed a tensor "
            f"of arity {value.arity}: {text!r}")
    return value
