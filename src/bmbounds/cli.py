"""Command-line front door for certification, sweeps, closed forms and audits.

``main`` parses argv, runs one subcommand and writes its rendering once.
Each subcommand returns its exit code, its structured document and its
text (and CSV) lines; ``--format`` picks one of them, ``structured`` being
the document as JSON, and ``--out`` names a file to write it to instead of
stdout.  Documents are built in ``certify`` and audited in ``audit``.
The parser is built on the first call to ``main`` and reused.  Only
``verify-cert`` loads ``audit``, and only ``upper`` and ``bounds`` load
``upperiso`` and ``bounds``, when they run; mpmath is loaded only by
``bounds`` and ``upper --optimize``, to display closed forms.

Exit codes follow the certification convention: 0 = certified / verified,
1 = not certified / invalid certificate, 2 = input or guard error.
Rational flags accept only integer or p/q literals; decimals are rejected
so the certification path stays exact.  Structured output is deterministic
JSON: identical argv and inputs yield byte-identical reports, written by
``render_json`` exactly as ``json.dumps(doc, indent=2)`` would write them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .certify import (
    certify_at,
    certify_dichotomy,
    certify_report_doc,
    dichotomy_report_doc,
    binary_search_bound,
    search_report_doc,
    sweep_policies,
    sweep_report_doc,
)
from .rationals import InputError, RationalFormatError, format_rational, parse_int, parse_rational
from .systems import (ALL_CASES, EXIT_CERTIFIED, EXIT_INPUT_ERROR, EXIT_NOT_CERTIFIED, CPolicy,
                      DEFAULT_POLICY, Variant)

CASE_FLAG = {"all": None, **{case.value.lower(): case for case in ALL_CASES}}


def _arg(parse):
    """An argparse type that reads its text with ``parse``; a ValueError (a
    RationalFormatError, or a policy's DomainError) is the usage message."""
    def read(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return read


_rational, _int, _policy = _arg(parse_rational), _arg(parse_int), _arg(CPolicy.parse)


def _nonnegative_int(text: str) -> int:
    try:
        value = parse_int(text)
        if value >= 0:
            return value
    except RationalFormatError:
        pass
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


def _tolerance(text: str) -> str:
    """A tolerance of at least upperiso.MIN_TOL, read exactly; the text is
    passed on unchanged, and the optimizer reads it the same way."""
    from .upperiso import MIN_TOL

    try:
        if Fraction(MIN_TOL) <= Fraction(text):
            return text
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"expected a number from {MIN_TOL} up, got {text!r}")


def _int_range(text: str) -> tuple[int, int]:
    a, dots, b = text.partition("..")
    lo = _int(a)
    hi = _int(b) if dots else lo
    if lo > hi:
        raise argparse.ArgumentTypeError(f"range a..b needs a <= b, got {text!r}")
    return lo, hi


def _scan_spec(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"scan spec must be lo:hi:step, got {text!r}")
    return tuple(_rational(x) for x in parts)  # type: ignore[return-value]


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


_ESCAPE = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def render_json(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, without its generator overhead.

    One pass appends the text of ``doc`` to one fragment list, which is
    joined once at the end.  Strings are escaped where they are met, other
    scalars encoded directly.  The memo of the call records the fragment
    span of each container object at the depth it was written at; only
    when the object is met again at that depth is its span joined, and the
    text reused from then on, so the rows and certificates a dichotomy
    document shares across its assignments are rendered once.  It raises
    TypeError for values JSON cannot hold and for dict keys that are not
    strings, which ``json.dumps`` would convert; it does not detect cycles.
    """
    if not isinstance(doc, (list, tuple, dict)):
        return _scalar(doc)
    out: list[str] = []
    _write(doc, 0, {}, out)
    return "".join(out)


def _scalar(x) -> str:
    if isinstance(x, str):
        return _ESCAPE(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float_text(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _write(x, depth: int, done: dict, out: list) -> None:
    # A module-level function, not a closure: a closure that calls itself is
    # a reference cycle, which would keep ``done`` and ``out`` alive until
    # the cyclic garbage collector runs.
    key = (id(x), depth)
    seen = done.get(key)
    if seen is not None:
        if type(seen) is tuple:  # the span written at the first meeting
            seen = done[key] = "".join(out[seen[0]:seen[1]])
        out.append(seen)
        return
    if not x:
        out.append("{}" if isinstance(x, dict) else "[]")
        return
    start = len(out)
    inner = "\n" + "  " * (depth + 1)
    comma = "," + inner
    if isinstance(x, dict):
        sep = "{" + inner
        for k, v in x.items():
            if type(v) is str:
                out.append(f"{sep}{_ESCAPE(k)}: {_ESCAPE(v)}")
            elif isinstance(v, (list, tuple, dict)):
                out.append(f"{sep}{_ESCAPE(k)}: ")
                _write(v, depth + 1, done, out)
            else:
                out.append(f"{sep}{_ESCAPE(k)}: {_scalar(v)}")
            sep = comma
        out.append(f"\n{'  ' * depth}}}")
    else:
        sep = "[" + inner
        for v in x:
            if type(v) is str:
                out.append(sep + _ESCAPE(v))
            elif isinstance(v, (list, tuple, dict)):
                out.append(sep)
                _write(v, depth + 1, done, out)
            else:
                out.append(sep + _scalar(v))
            sep = comma
        out.append(f"\n{'  ' * depth}]")
    done[key] = start, len(out)


def _distortion_row(t, norm_t, norm_s, distortion) -> dict:
    return {"t": format_rational(t), "normT": float(norm_t), "normS": float(norm_s),
            "distortion": float(distortion)}


def _distortion_csv(rows: list[dict]) -> list[str]:
    return ["t,normT,normS,distortion"] + [
        f"{r['t']},{r['normT']:.12f},{r['normS']:.12f},{r['distortion']:.12f}" for r in rows]


FORMATS = ("text", "csv", "structured")


def _output_options(p, formats=FORMATS) -> None:
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", default=None, help="write the report to this path")


def _lp_options(p, formats=FORMATS, c_policy=True) -> None:
    """The options of the subcommands that decide case systems."""
    if c_policy:
        p.add_argument("--c-policy", type=_policy, default=DEFAULT_POLICY,
                       metavar="p,q,r", help="threshold policy c(t) = (p*t+q)/r")
    p.add_argument("--variant", choices=["printed", "symmetrized"], default="symmetrized")
    _output_options(p, formats)


def _bracket_options(p, iters: int) -> None:
    p.add_argument("--lo", type=_rational, default=Fraction(3))
    p.add_argument("--hi", type=_rational, default=Fraction(5))
    p.add_argument("--iters", type=_nonnegative_int, default=iters)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbounds",
        description="Certified lower/upper bounds for distortions between sequence spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="decide all four case systems at one t")
    p.add_argument("--t", type=_rational, required=True)
    p.add_argument("--case", type=str.lower, choices=sorted(CASE_FLAG), default="all")
    _lp_options(p, formats=("text", "structured"))
    p.set_defaults(run=_cmd_certify)

    p = sub.add_parser("search", help="bisect the largest certified t")
    _bracket_options(p, iters=6)
    _lp_options(p)
    p.set_defaults(run=_cmd_search)

    p = sub.add_parser("sweep", help="rank c-policies by certified bound")
    p.add_argument("--policies", type=_policy, nargs="+",
                   default=[CPolicy(1, 0, 2), CPolicy(1, 1, 2), CPolicy(2, 1, 4)])
    _bracket_options(p, iters=8)
    _lp_options(p, c_policy=False)
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("dichotomy", help="branch-split certification at one t")
    p.add_argument("--t", type=_rational, required=True)
    p.add_argument("--functions", type=_int, nargs="*", choices=[0, 1, 2], default=[0, 1, 2])
    _lp_options(p, formats=("text", "structured"))
    p.set_defaults(run=_cmd_dichotomy)

    p = sub.add_parser("bounds", help="closed-form bound tables")
    p.add_argument("--m", type=_int_range, default=None, metavar="a..b")
    p.add_argument("--k", type=_int_range, default=None, metavar="a..b")
    _output_options(p)
    p.set_defaults(run=_cmd_bounds)

    p = sub.add_parser("upper", help="norms and distortion of the block isomorphism")
    p.add_argument("--scan", type=_scan_spec, default=None, metavar="lo:hi:step")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="with --optimize: largest distance of t* from the minimizer (1e-12)")
    p.add_argument("--t", type=_rational, default=None)
    _output_options(p)
    p.set_defaults(run=_cmd_upper)

    p = sub.add_parser("verify-cert", help="re-verify a certificate file by substitution")
    p.add_argument("path")
    p.set_defaults(run=_cmd_verify, format="text", out=None)

    return parser


# Each subcommand returns (exit code, structured document, {format: lines}).

def _cmd_certify(args):
    report = certify_at(args.t, args.c_policy, Variant(args.variant))
    doc = certify_report_doc(report, CASE_FLAG[args.case])
    text = [f"t = {format_rational(report.t)}  c = {format_rational(report.c)}"
            f"  policy = {args.c_policy.key()}  variant = {args.variant}"]
    text += [f"  case {entry['case']}: {entry['status']}" for entry in doc["cases"]]
    text.append("certified" if doc["certified"] else "not certified")
    return EXIT_CERTIFIED if doc["certified"] else EXIT_NOT_CERTIFIED, doc, {"text": text}


def _cmd_search(args):
    bound = binary_search_bound(args.lo, args.hi, args.iters, args.c_policy, Variant(args.variant))
    doc = search_report_doc(bound)
    text = [f"policy = {bound.policy.key()}  variant = {args.variant}",
            f"certified t_lo = {format_rational(bound.t_lo)}"
            f" ({float(bound.t_lo):.6f}), witnessed t_hi = {format_rational(bound.t_hi)}"]
    csv = ["t,all_infeasible"] + [f"{e['t']},{e['all_infeasible']}" for e in doc["trace"]]
    return EXIT_CERTIFIED, doc, {"text": text, "csv": csv}


def _cmd_sweep(args):
    variant = Variant(args.variant)
    ranked, skipped = sweep_policies(args.policies, args.lo, args.hi, args.iters, variant)
    doc = sweep_report_doc(ranked, skipped, variant, args.iters)
    text = [f"{r['policy']}: t_lo = {r['t_lo']}" for r in doc["results"]]
    text += [f"skipped {s['policy']}: {s['reason']}" for s in doc["skipped"]]
    csv = ["policy,t_lo,t_hi"] + [
        f"{r['policy'].replace(',', ';')},{r['t_lo']},{r['t_hi']}" for r in doc["results"]]
    return EXIT_CERTIFIED if ranked else EXIT_INPUT_ERROR, doc, {"text": text, "csv": csv}


def _cmd_dichotomy(args):
    report = certify_dichotomy(args.t, args.c_policy, tuple(args.functions), Variant(args.variant))
    doc = dichotomy_report_doc(report)
    text = [f"t = {format_rational(report.t)}  policy = {args.c_policy.key()}"
            f"  variant = {args.variant}"]
    for a in report.assignments:
        verdicts = ", ".join(
            f"{c.value}:{'feasible' if a.results[c].feasible else 'infeasible'}" for c in ALL_CASES)
        text.append(f"  branches {a.branches or '(none)'}: {verdicts}")
    text.append("certified" if report.certified else "not certified")
    return EXIT_CERTIFIED if report.certified else EXIT_NOT_CERTIFIED, doc, {"text": text}


def _cmd_bounds(args):
    if args.m is None and args.k is None:
        raise InputError("bounds needs --m a..b, --k a..b or both")
    ms = range(args.m[0], args.m[1] + 1) if args.m else []
    ks = range(args.k[0], args.k[1] + 1) if args.k else []
    from . import bounds

    rows = bounds.bounds_table(ms, ks)
    text = [f"{r['kind']}({r['parameter']}) = {r['value']}" for r in rows]
    csv = ["kind,parameter,value"] + [f"{r['kind']},{r['parameter']},{r['value']}" for r in rows]
    return EXIT_CERTIFIED, {"kind": "bounds", "rows": rows}, {"text": text, "csv": csv}


def _cmd_upper(args):
    modes = (args.scan is not None) + args.optimize + (args.t is not None)
    if modes != 1:
        raise InputError("--scan, --optimize and --t are mutually exclusive" if modes
                         else "upper needs one of --scan, --optimize, --t")
    if args.tol is not None and not args.optimize:
        raise InputError("--tol applies only to --optimize")
    from . import upperiso

    if args.scan is not None:
        rows = [_distortion_row(*r) for r in upperiso.scan_distortion(*args.scan)]
        csv = _distortion_csv(rows)
        return EXIT_CERTIFIED, {"kind": "upper-scan", "rows": rows}, {"text": csv, "csv": csv}
    if args.optimize:
        import mpmath as mp

        t_star, report = upperiso.optimize_distortion(tol=args.tol or "1e-12")
        cubic = upperiso.cubic_formula_value(t_star)
        exact = (t_star, report.norm_t, report.norm_s, report.distortion)
        # t* and its report are exact; round them at the display precision.
        with mp.workdps(upperiso.PRECISION_DPS):
            t_star, norm_t, norm_s, distortion = (
                mp.nstr(mp.fdiv(x.numerator, x.denominator), 20) for x in exact)
        printed, corrected = (mp.nstr(x, 20) for x in (cubic.printed, cubic.corrected))
        doc = {"kind": "upper-optimize", "t_star": t_star, "normT": norm_t, "normS": norm_s,
               "distortion": distortion, "argmax_rows": {"T": report.argmax_t, "S": report.argmax_s},
               "closed_form": {"printed": printed, "corrected": corrected, "matching": cubic.matching}}
        text = [f"t* = {t_star}", f"normT = {norm_t}", f"normS = {norm_s}", f"distortion = {distortion}",
                f"closed form: printed={printed} corrected={corrected} matching={cubic.matching}"]
        return EXIT_CERTIFIED, doc, {"text": text, "csv": text}
    report = upperiso.norm_report(args.t)
    row = _distortion_row(args.t, report.norm_t, report.norm_s, report.distortion)
    text = [f"t = {row['t']} normT = {row['normT']:.12f} normS = {row['normS']:.12f}"
            f" distortion = {row['distortion']:.12f}"]
    return EXIT_CERTIFIED, {"kind": "upper-t", **row}, {"text": text, "csv": _distortion_csv([row])}


def _cmd_verify(args):
    from .audit import verify_cert_file

    code, message = verify_cert_file(args.path)
    return code, None, {"text": [message]}


# main builds the parser on its first call and reuses it: parsing does not change it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, doc, lines = args.run(args)
        text = render_json(doc) if args.format == "structured" else "\n".join(lines[args.format])
        _emit(text + "\n", args.out)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    return code


if __name__ == "__main__":
    raise SystemExit(main())
