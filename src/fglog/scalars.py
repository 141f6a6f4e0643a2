"""Exact rational scalars.

The kernel computes over arbitrary-precision rationals, but the arithmetic
does not run on this type, the stdlib fractions.Fraction: tensors and
series are packed forms of packed.py, Python int numerators over one
common denominator, and every operation on them moves ints and codes.
Fractions remain where a rational enters or leaves: the structure tables
of an algebra, parsed and generated input (through the TensorElement
constructor), scalars such as counits, and the `terms` that printing and
JSON output read.
"""

import sys
from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)


def rational(value):
    """Coerce an int, Fraction or 'p/q' string to the scalar type; a
    Fraction is returned as it is."""
    if type(value) is Q:
        return value
    if isinstance(value, str):
        return parse_rational(value)
    return Q(value)


def parse_rational(text):
    """Parse 'p' or 'p/q' with optional sign and surrounding whitespace."""
    body = text.strip()
    num, sep, den = body.partition("/")
    try:
        if sep:
            return Q(int(num), int(den))
        return Q(int(body))
    except (ValueError, ZeroDivisionError) as exc:
        from .errors import ParseError

        raise ParseError(f"invalid rational {text!r}") from exc


def _digit_limit():
    """The interpreter's int-to-str digit limit, or its default when that
    is off."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit or getattr(sys.int_info, "default_max_str_digits", 4300)


def format_rational(q):
    """Canonical 'p' or 'p/q' string (q > 0, gcd reduced by construction).
    A numerator or denominator longer than the interpreter's int-to-str
    digit limit cannot be written: that is a ParseError naming the limit."""
    num, den = q.numerator, q.denominator
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError as exc:
        from .errors import ParseError

        raise ParseError(
            "a result has a numerator or denominator of more than "
            f"{_digit_limit()} digits, the interpreter's limit for "
            "int-to-str conversion") from exc
