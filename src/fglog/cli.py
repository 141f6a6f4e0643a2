"""Batch command-line front end for the formal group kernel.

Commands
--------
check-hopf     Hopf axiom suite for an algebra
verify         formal-group axioms for a stored group law
log            logarithm of a group law
cocycle        extract the symmetric 2-cocycle of a group law
check-cocycle  cocycle and counit conditions for an explicit tensor
coboundary     cobar differential of an augmented algebra element
inverse        formal inverse series of a group law
reconstruct    group law from a cocycle and a logarithm
specialize     classical image of a group law under the counit
roundtrip      log / extract / check / rebuild pipeline with a report

Exit codes: 0 pass or success, 1 mathematical violation found (the
defect is reported), 2 input or parse error, 3 the request needs more
order than the stored data certifies.

Inputs.  --hopf takes a builtin name (trivial, qt1, qt2, qtu), a path to
a JSON description, or an inline JSON object; --group takes a group JSON
file or '-' for stdin; --cocycle and --element take a JSON file or an
inline expression such as "t (x) t^2 + t^2 (x) t"; --log takes a series
JSON file.  --order bounds the variable-adic order (default 8) and
--hdeg overrides the coefficient degree bound (default: whatever the
algebra declares; builtins declare 8).  The effective values are
announced in the output header and echoed in JSON output.

Output is byte-deterministic for identical inputs and flags.  Set
FGLOG_COLOR=1 to color pass/fail verdicts in pretty mode; no other
behavior is environment-dependent.
"""

import argparse
import json
import os
import sys

from . import jsonio
from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    MathViolation,
    NonInvertibleConstantTerm,
    NonNilpotentConstantTerm,
    NonZeroConstantTerm,
    ParseError,
    ShapeMismatch,
    TruncationInsufficient,
)
from .exprparse import parse_element, parse_tensor
from .fgl import (
    check_axioms,
    check_cocycle,
    check_log,
    coboundary,
    extract_cocycle,
    inverse_series,
    logarithm,
    reconstruct,
    specialize,
    strict_grading_defect,
)
from .hopf import verify_hopf_axioms
from .report import Report, Violation
from .series import INF, Series

_INPUT_ERRORS = (ParseError, AlgebraMismatch, ArityMismatch, ShapeMismatch,
                 OSError)
_MATH_ERRORS = (MathViolation, NonInvertibleConstantTerm,
                NonNilpotentConstantTerm, NonZeroConstantTerm)


# -- input resolution ----------------------------------------------------------

def _algebra_arg(ref, hdeg):
    """Algebra from a builtin name, file path, or inline JSON object."""
    value = ref
    if isinstance(ref, str) and ref.lstrip().startswith("{"):
        try:
            value = json.loads(ref)
        except json.JSONDecodeError as exc:
            raise ParseError(f"inline algebra JSON: {exc}") from exc
    return jsonio.load_algebra(value, degree_bound=hdeg)


def _group_arg(ref, hdeg):
    """(algebra, group law) from a group JSON file or '-' for stdin."""
    if ref == "-":
        try:
            obj = json.load(sys.stdin)
        except json.JSONDecodeError as exc:
            raise ParseError(f"stdin is not valid JSON: {exc}") from exc
        return jsonio.group_from_json(obj, base_dir=os.getcwd(),
                                      degree_bound=hdeg)
    return jsonio.load_group(ref, degree_bound=hdeg)


def _tensor_arg(ref, algebra, arity):
    """Tensor from a JSON file or an inline expression."""
    if os.path.isfile(ref) or ref.endswith(".json"):
        return _tensor_file(ref, algebra, arity, f"arity {arity}")
    return parse_tensor(ref, algebra, arity=arity)


def _element_arg(ref, algebra):
    """Algebra element from a JSON file or an inline expression."""
    if os.path.isfile(ref) or ref.endswith(".json"):
        return _tensor_file(ref, algebra, 1, "a plain algebra element")
    return parse_element(ref, algebra)


def _tensor_file(ref, algebra, arity, expected):
    """Tensor of the given arity from a JSON file, refused, as an inline
    term is, when a term reaches above the degree bound."""
    tensor = jsonio.tensor_from_json(jsonio.read_json_file(ref), algebra)
    if tensor.arity != arity:
        raise ParseError(
            f"{ref} holds an arity-{tensor.arity} tensor; expected "
            f"{expected}")
    if tensor.truncated:
        raise ParseError(
            f"{ref} holds a term that reaches above the degree bound "
            f"{algebra.degree_bound}")
    return tensor


def _series_arg(path, algebra):
    """One-variable series with coefficients in H, from a JSON file."""
    g = jsonio.series_from_json(jsonio.read_json_file(path), algebra)
    if g.nvars != 1 or g.arity != 1:
        raise ParseError(
            f"{path} must hold a one-variable series with plain algebra "
            f"coefficients; got {g.nvars} variables, arity {g.arity}")
    return g


# -- output helpers ------------------------------------------------------------

def _color(word, ok):
    if os.environ.get("FGLOG_COLOR") == "1":
        return f"\x1b[{'32' if ok else '31'}m{word}\x1b[0m"
    return word


def _opening(command, algebra, order=None):
    """The JSON payload and the pretty lines a command's output opens
    with: the command, its order when it has one, and the degree bound."""
    payload = {"command": command}
    bits = []
    if order is not None:
        payload["order"] = None if order == INF else order
        bits.append(f"order {'exact' if order == INF else order}")
    payload["hdeg"] = algebra.degree_bound
    bits.append(f"hdeg {algebra.degree_bound}")
    return payload, [f"# fglog {command} ({', '.join(bits)})"]


def _algebra_line(algebra):
    gens = ", ".join(f"{name} (deg {degree})" for name, degree
                     in zip(algebra.names, algebra.degrees)) or "none"
    return f"hopf: generators {gens}; bound {algebra.degree_bound}"


def _report_lines(report):
    lines = str(report).split("\n")
    word = "pass" if report.passed else "fail"
    lines[0] = _color(word, report.passed) + lines[0][len(word):]
    return lines


# -- command handlers ----------------------------------------------------------
# Each returns (exit code, json payload, pretty lines).

def _cmd_check_hopf(args):
    algebra = _algebra_arg(args.hopf, args.hdeg)
    report = verify_hopf_axioms(algebra)
    payload, lines = _opening("check-hopf", algebra)
    payload.update(jsonio.report_to_json(report))
    lines.append(_algebra_line(algebra))
    lines += _report_lines(report)
    return (0 if report.passed else 1), payload, lines


def _cmd_verify(args):
    algebra, F = _group_arg(args.group, args.hdeg)
    weight = args.weight if args.strict_grading else None
    report = check_axioms(F, order=args.order, strict_grading_weight=weight)
    payload, lines = _opening("verify", algebra, args.order)
    if weight is not None:
        payload["strict_grading_weight"] = weight
        lines.append(f"strict grading: weight {weight}")
    payload.update(jsonio.report_to_json(report))
    lines += _report_lines(report)
    return (0 if report.passed else 1), payload, lines


def _graded_result(args, command, algebra, key, series, rendered):
    """Output of a command whose result is a series (JSON `rendered`
    under `key`), with the strict-grading check of --strict-grading."""
    payload, lines = _opening(command, algebra, args.order)
    code = 0
    if args.strict_grading:
        base, offending = strict_grading_defect(series, args.weight)
        report = Report.ok() if offending.is_zero() else Report.fail(
            [Violation("strict-grading", offending,
                       f"weight {args.weight}, expected value {base}")])
        payload["strict_grading_weight"] = args.weight
        payload.update(jsonio.report_to_json(report))
        code = 0 if report.passed else 1
    payload[key] = rendered
    lines.append(str(series))
    if args.strict_grading:
        lines.append("strict-grading: " + "\n".join(_report_lines(report)))
    return code, payload, lines


def _cmd_log(args):
    algebra, F = _group_arg(args.group, args.hdeg)
    g = logarithm(F, order=args.order)
    return _graded_result(args, "log", algebra, "logarithm", g,
                          jsonio.series_to_json(g))


def _cmd_cocycle(args):
    algebra, F = _group_arg(args.group, args.hdeg)
    c = extract_cocycle(F, order=args.order)
    payload, lines = _opening("cocycle", algebra, args.order)
    payload["cocycle"] = jsonio.tensor_to_json(c)
    lines.append(str(c))
    return 0, payload, lines


def _cmd_check_cocycle(args):
    algebra = _algebra_arg(args.hopf, args.hdeg)
    c = _tensor_arg(args.cocycle, algebra, 2)
    report = check_cocycle(c)
    payload, lines = _opening("check-cocycle", algebra)
    payload["cocycle"] = jsonio.tensor_to_json(c)
    payload.update(jsonio.report_to_json(report))
    lines.append(f"cocycle: {c}")
    lines += _report_lines(report)
    return (0 if report.passed else 1), payload, lines


def _cmd_coboundary(args):
    algebra = _algebra_arg(args.hopf, args.hdeg)
    h = _element_arg(args.element, algebra)
    b = coboundary(h)
    payload, lines = _opening("coboundary", algebra)
    payload["coboundary"] = jsonio.tensor_to_json(b)
    lines.append(str(b))
    return 0, payload, lines


def _cmd_inverse(args):
    algebra, F = _group_arg(args.group, args.hdeg)
    theta = inverse_series(F, order=args.order)
    payload, lines = _opening("inverse", algebra, args.order)
    payload["inverse"] = jsonio.series_to_json(theta)
    lines.append(str(theta))
    return 0, payload, lines


def _cmd_reconstruct(args):
    algebra = _algebra_arg(args.hopf, args.hdeg)
    c = _tensor_arg(args.cocycle, algebra, 2)
    if args.log is not None:
        g = _series_arg(args.log, algebra)
    else:
        g = Series.variable(algebra, 1, 1, 0, names=("x",))
    F = reconstruct(algebra, c, g, order=args.order)
    return _graded_result(args, "reconstruct", algebra, "group", F,
                          jsonio.group_to_json(F))


def _cmd_specialize(args):
    algebra, F = _group_arg(args.group, args.hdeg)
    S = specialize(F)
    if args.order is not None:
        S = S.truncate(args.order)
    payload, lines = _opening("specialize", algebra, S.order)
    payload["series"] = jsonio.series_to_json(S)
    lines.append(str(S))
    return 0, payload, lines


def _cmd_roundtrip(args):
    algebra, F = _group_arg(args.group, args.hdeg)
    N = args.order
    stages = []
    payload, lines = _opening("roundtrip", algebra, N)
    failed = False

    def push_report(name, report):
        entry = {"stage": name}
        entry.update(jsonio.report_to_json(report))
        stages.append(entry)
        body = _report_lines(report)
        lines.append(f"{name}: {body[0]}")
        lines.extend(body[1:])
        return report.passed

    def push_value(name, key, value, rendered):
        stages.append({"stage": name, "pass": True, key: rendered})
        lines.append(f"{name}: {value}")

    try:
        if push_report("axioms", check_axioms(F, order=N)):
            # substituting F spends the nilpotency slack of F(0, 0)
            slack = F.constant_term().nilpotency_slack()
            g_chk = logarithm(F, order=min(N + 1 + slack, F.order))
            g = logarithm(F, order=N)
            push_value("logarithm", "logarithm", g,
                       jsonio.series_to_json(g))
            c = extract_cocycle(
                F, g_chk.truncate(min(N + slack, F.order)), order=N)
            push_value("extract-cocycle", "cocycle", c,
                       jsonio.tensor_to_json(c))
            # extract_cocycle has checked the cocycle conditions
            push_report("check-cocycle", Report.ok())
            if push_report("log-equation", check_log(F, g_chk, order=N)):
                g_full = logarithm(F, order=min(
                    N + 2 * c.nilpotency_slack(), F.order))
                F2 = reconstruct(algebra, c, g_full, order=N)
                push_report("reconstruct", Report.ok(certified_order=N))
                diff = (F2.with_names(F.names) - F).truncate(N)
                if diff.is_zero():
                    push_report("compare", Report.ok(certified_order=N))
                else:
                    push_report("compare", Report.fail(
                        [Violation("equality", diff)]))
    except _MATH_ERRORS as exc:
        stages.append({"stage": "error", "pass": False, "detail": str(exc)})
        lines.append(f"error: {exc}")
        failed = True

    overall = not failed and all(s.get("pass") for s in stages)
    payload["pass"] = overall
    payload["stages"] = stages
    lines.append(f"roundtrip: {_color('pass' if overall else 'fail', overall)}")
    return (0 if overall else 1), payload, lines


# -- argument parsing ----------------------------------------------------------

def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fglog",
        description="Formal group laws over graded connected Hopf algebras: "
                    "verify, take logarithms, extract cocycles, rebuild.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    def command(name, help_text, handler):
        q = sub.add_parser(name, help=help_text, description=help_text)
        q.set_defaults(handler=handler)
        q.add_argument("--format", choices=("pretty", "json"),
                       default="pretty",
                       help="output format (default pretty)")
        q.add_argument("--hdeg", type=_positive_int, default=None,
                       metavar="D",
                       help="coefficient degree bound (default: the bound "
                            "the algebra declares; builtins declare 8)")
        return q

    def opt_hopf(q):
        q.add_argument("--hopf", required=True, metavar="REF",
                       help="builtin algebra name, JSON description file, "
                            "or inline JSON object")

    def opt_group(q):
        q.add_argument("--group", required=True, metavar="FILE",
                       help="group JSON file, or '-' to read it from stdin")

    def opt_order(q):
        q.add_argument("--order", type=_positive_int, default=8,
                       metavar="N",
                       help="variable-adic order to work to (default 8)")

    def opt_strict(q):
        q.add_argument("--strict-grading", action="store_true",
                       help="also require Hopf degree + weight * variable "
                            "degree to be constant across terms")
        q.add_argument("--weight", type=int, default=-2, metavar="W",
                       help="weight of one variable degree for "
                            "--strict-grading (default -2)")

    q = command("check-hopf", "run the Hopf axiom suite on an algebra",
                _cmd_check_hopf)
    opt_hopf(q)

    q = command("verify", "check the formal-group axioms of a group law",
                _cmd_verify)
    opt_group(q)
    opt_order(q)
    opt_strict(q)

    q = command("log", "compute the logarithm of a group law", _cmd_log)
    opt_group(q)
    opt_order(q)
    opt_strict(q)

    q = command("cocycle", "extract the symmetric 2-cocycle of a group law",
                _cmd_cocycle)
    opt_group(q)
    opt_order(q)

    q = command("check-cocycle", "test a tensor against the cocycle and "
                                 "counit conditions", _cmd_check_cocycle)
    opt_hopf(q)
    q.add_argument("--cocycle", required=True, metavar="VAL",
                   help="arity-2 tensor: JSON file or inline expression "
                        "like \"t (x) t^2\"")

    q = command("coboundary", "apply the cobar differential to an element",
                _cmd_coboundary)
    opt_hopf(q)
    q.add_argument("--element", required=True, metavar="VAL",
                   help="algebra element: JSON file or inline expression "
                        "like \"t^2 + 3t\" (must have zero counit)")

    q = command("inverse", "solve for the formal inverse series",
                _cmd_inverse)
    opt_group(q)
    opt_order(q)

    q = command("reconstruct", "rebuild a group law from a cocycle and a "
                               "logarithm", _cmd_reconstruct)
    opt_hopf(q)
    q.add_argument("--cocycle", default="0", metavar="VAL",
                   help="symmetric counit-zero arity-2 tensor (default 0)")
    q.add_argument("--log", default=None, metavar="FILE",
                   help="series JSON file for the logarithm g "
                        "(default: the identity series x)")
    opt_order(q)
    opt_strict(q)

    q = command("specialize", "collapse a group law to its classical image",
                _cmd_specialize)
    opt_group(q)
    q.add_argument("--order", type=_positive_int, default=None, metavar="N",
                   help="truncate the result (default: the stored order)")

    q = command("roundtrip", "run log, extract, check and rebuild, then "
                             "compare exactly", _cmd_roundtrip)
    opt_group(q)
    opt_order(q)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help (0) and usage errors (2) itself
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, payload, lines = args.handler(args)
    except TruncationInsufficient as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _MATH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        sys.stdout.write(jsonio.dumps(payload))
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
