"""JSON interchange for algebras, tensors, series, groups and reports.

Formats (all emitted deterministically: fixed key order, terms in
graded-lex order, rationals as canonical "p" / "p/q" strings):

  algebra   {"generators": [{"name": "t", "degree": 2}], "degree_bound": 6,
             "coproduct": {"t": "primitive" | [[left, right, "q"], ...]}}
  tensor    {"arity": 2, "terms": [[["t"], ["t"], "2"], ...]}
            (a term is `arity` monomials as generator-name lists, then the
            coefficient string)
  series    {"variables": ["X", "Y"], "order": 8, "arity": 2,
             "terms": [{"exp": [1, 1], "coeff": <tensor terms>}, ...]}
            "order" absent or null marks a complete polynomial (exact at
            every order)
  group     {"hopf": <algebra | path string | builtin name>,
             "order": <fallback for the series>, "series": <series>}
  cocycle   {"hopf": <as above>, "cocycle": <tensor | expression string>}
  report    {"pass": bool, "certified_order": n | null,
             "violations": [{"axiom": "...", "detail": "...",
                             "defect": <series | tensor>}]}

An algebra is written by `hopf.algebra_description` and read by
`load_algebra`. Monomials are accepted as generator-name lists
(["t","t"] = t^2, ["1"] = unit) or exponent vectors; name lists are
emitted. Reading resolves a string "hopf" first against the builtin
algebra names and then as a file path relative to the referring file.
"""

import json
import os

from .errors import ParseError
from .hopf import (
    BUILTIN_ALGEBRAS,
    TensorElement,
    _as_int,
    _as_list,
    _decode_monomial,
    _mono_name_list,
    algebra_description,
    build_hopf_algebra,
    builtin_algebra,
)
from .scalars import format_rational, parse_rational
from .series import INF, Series

__all__ = [
    "defect_from_json",
    "defect_to_json",
    "group_from_json",
    "group_to_json",
    "load_algebra",
    "load_group",
    "read_json_file",
    "report_to_json",
    "series_from_json",
    "series_to_json",
    "tensor_from_json",
    "tensor_to_json",
]


def read_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: NUL or bad bytes
        raise ParseError(f"cannot read {path!r}: {exc}") from exc


# -- algebras -----------------------------------------------------------------

def load_algebra(source, base_dir=None, degree_bound=None):
    """Algebra from an inline description dict, a builtin name, or a path
    to a JSON description file."""
    if isinstance(source, dict):
        desc = dict(source)
    elif isinstance(source, str):
        if source in BUILTIN_ALGEBRAS:
            return builtin_algebra(source, degree_bound)
        path = source if base_dir is None else os.path.join(base_dir, source)
        desc = read_json_file(path)
        if not isinstance(desc, dict):
            raise ParseError(f"{path} does not hold an algebra description")
    else:
        raise ParseError("algebra reference must be an object or a string")
    if degree_bound is not None:
        desc["degree_bound"] = degree_bound
    return build_hopf_algebra(desc)


def _arity(obj, what):
    """The optional 'arity' field; absent, null and 0 leave it to the
    terms."""
    value = obj.get("arity")
    return _as_int(value if isinstance(value, bool) else value or 0, what)


# -- tensors ------------------------------------------------------------------

def tensor_to_json(tensor):
    terms = []
    for key in sorted(tensor.terms,
                      key=lambda k: (tensor.algebra.key_degree(k), k)):
        row = [_mono_name_list(tensor.algebra, m) for m in key]
        row.append(format_rational(tensor.terms[key]))
        terms.append(row)
    return {"arity": tensor.arity, "terms": terms}


def tensor_from_json(obj, algebra):
    if not isinstance(obj, dict) or "terms" not in obj:
        raise ParseError("tensor JSON must be an object with 'terms'")
    arity = _arity(obj, "tensor 'arity'")
    terms = {}
    for row in _as_list(obj["terms"], "tensor 'terms'"):
        if not isinstance(row, list) or len(row) < 2:
            raise ParseError(f"malformed tensor term {row!r}")
        *monos, q = row
        if arity == 0:
            arity = len(monos)
        if len(monos) != arity:
            raise ParseError(
                f"tensor term has {len(monos)} slots, expected {arity}")
        key = tuple(_decode_monomial(algebra, m) for m in monos)
        coeff = parse_rational(q) if isinstance(q, str) else parse_rational(
            str(q))
        if coeff == 0:
            continue
        terms[key] = terms.get(key, 0) + coeff
    if arity == 0:
        raise ParseError("tensor JSON needs 'arity' when it has no terms")
    return TensorElement(algebra, arity, {k: q for k, q in terms.items()
                                          if q != 0})


# -- series -------------------------------------------------------------------

def series_to_json(series):
    out = {"variables": list(series.names)}
    if series.order != INF:
        out["order"] = series.order
    out["arity"] = series.arity
    if series.truncated:
        out["truncated"] = True
    terms = []
    for e, coeff in series.sorted_terms():
        tj = tensor_to_json(coeff)
        terms.append({"exp": list(e), "coeff": tj["terms"]})
    out["terms"] = terms
    return out


def series_from_json(obj, algebra, fallback_order=None):
    if not isinstance(obj, dict) or "terms" not in obj:
        raise ParseError("series JSON must be an object with 'terms'")
    names = tuple(_as_list(obj.get("variables", []), "series 'variables'"))
    if not all(isinstance(n, str) for n in names):
        raise ParseError(f"series variable names {list(names)!r} are not "
                         "all strings")
    nvars = len(names)
    if nvars == 0:
        raise ParseError("series JSON needs at least one variable")
    order = obj.get("order", None)
    if order is None:
        order = fallback_order if fallback_order is not None else INF
    arity = _arity(obj, "series 'arity'")
    terms = {}
    for entry in _as_list(obj["terms"], "series 'terms'"):
        if not isinstance(entry, dict) or "exp" not in entry:
            raise ParseError(f"malformed series term {entry!r}")
        e = tuple(_as_int(x, "series term 'exp'")
                  for x in _as_list(entry["exp"], "series term 'exp'"))
        if len(e) != nvars:
            raise ParseError(
                f"exponent {e} does not match {nvars} variables")
        if any(x < 0 for x in e):
            raise ParseError(f"negative exponent in {e}")
        coeff = tensor_from_json(
            {"arity": arity,
             "terms": _as_list(entry.get("coeff", []),
                               "series term 'coeff'")}, algebra)
        if arity == 0:
            arity = coeff.arity
        # entries of one exponent add up; the Series drops a zero sum
        terms[e] = terms[e] + coeff if e in terms else coeff
    if arity == 0:
        raise ParseError("series JSON needs 'arity' when it has no terms")
    if order != INF:
        order = _as_int(order, "series 'order'")
        if order < 0:
            raise ParseError("series order must be non-negative")
    truncated = bool(obj.get("truncated", False))
    return Series(algebra, arity, nvars, terms, order, names, truncated)


# -- groups and cocycles -------------------------------------------------------

def group_to_json(F):
    """Group JSON with the algebra inlined."""
    out = {"hopf": algebra_description(F.algebra)}
    if F.order != INF:
        out["order"] = F.order
    out["series"] = series_to_json(F)
    return out


def group_from_json(obj, base_dir=None, degree_bound=None):
    """(algebra, Series) from group JSON. The series' own "order" wins;
    the group-level "order" is the fallback; absent both means exact."""
    if not isinstance(obj, dict):
        raise ParseError("group JSON must be an object")
    if "hopf" not in obj or "series" not in obj:
        raise ParseError("group JSON needs 'hopf' and 'series'")
    algebra = load_algebra(obj["hopf"], base_dir, degree_bound)
    F = series_from_json(obj["series"], algebra,
                         fallback_order=obj.get("order"))
    if F.nvars != 2 or F.arity != 2:
        raise ParseError(
            "a group law is a two-variable series over H (x) H; got "
            f"{F.nvars} variables, arity {F.arity}")
    return algebra, F


def load_group(path, degree_bound=None):
    obj = read_json_file(path)
    return group_from_json(obj, base_dir=os.path.dirname(os.path.abspath(
        path)), degree_bound=degree_bound)


# -- reports -------------------------------------------------------------------

def defect_to_json(defect):
    if isinstance(defect, TensorElement):
        return tensor_to_json(defect)
    if isinstance(defect, Series):
        return series_to_json(defect)
    return None


def defect_from_json(obj, algebra):
    """Inverse of defect_to_json: series JSON carries 'variables',
    tensor JSON does not."""
    if obj is None:
        return None
    if "variables" in obj:
        return series_from_json(obj, algebra)
    return tensor_from_json(obj, algebra)


def report_to_json(report):
    out = {"pass": report.passed}
    cert = report.certified_order
    if cert is not None:
        out["certified_order"] = None if cert == INF else cert
    violations = []
    for v in report.violations:
        entry = {"axiom": v.axiom}
        if v.detail:
            entry["detail"] = v.detail
        defect = defect_to_json(v.defect)
        if defect is not None:
            entry["defect"] = defect
        violations.append(entry)
    out["violations"] = violations
    return out


def dumps(obj):
    """Canonical serialization: two-space indent, stable key order as
    constructed, trailing newline."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
