"""Command-line front door for certification, sweeps, closed forms and audits.

Exit codes follow the certification convention: 0 = certified / verified,
1 = not certified / invalid certificate, 2 = input or guard error.
Rational flags accept only integer or p/q literals; decimals are rejected
so the certification path stays exact.  Structured output is deterministic
JSON: identical argv and inputs yield byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import mpmath as mp

from . import bounds as bounds_mod
from . import upperiso
from .certify import (
    EXIT_CERTIFIED,
    EXIT_INPUT_ERROR,
    EXIT_NOT_CERTIFIED,
    TOOL_VERSION,
    BracketError,
    certify_at,
    certify_dichotomy,
    certify_report_doc,
    dichotomy_report_doc,
    binary_search_bound,
    search_report_doc,
    sweep_policies,
    verify_cert_file,
)
from .rationals import RationalFormatError, format_rational, parse_int, parse_rational
from .systems import ALL_CASES, CPolicy, DEFAULT_POLICY, DomainError, JCase, Variant

CASE_FLAG = {"all": None, "j012": JCase.J012, "not0": JCase.NOT0,
             "in0not1": JCase.IN0_NOT1, "in01not2": JCase.IN01_NOT2}


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except RationalFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int(text: str) -> int:
    try:
        return parse_int(text)
    except RationalFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _policy(text: str) -> CPolicy:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"c-policy must be p,q,r, got {text!r}")
    try:
        p, q, r = (parse_int(x) for x in parts)
        return CPolicy(p, q, r)
    except (ValueError, DomainError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _nonnegative_int(text: str) -> int:
    try:
        value = parse_int(text)
        if value >= 0:
            return value
    except RationalFormatError:
        pass
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


# The golden-section loop runs while its bracket is wider than the tolerance,
# so a tolerance near the optimizer's working precision would never be met.
MIN_TOL = f"1e-{upperiso.PRECISION_DPS - 5}"


def _tolerance(text: str) -> str:
    """A finite tolerance of at least MIN_TOL; the text is passed on unchanged,
    so the optimizer reads it at its own working precision."""
    try:
        if mp.mpf(MIN_TOL) <= mp.mpf(text) < mp.inf:
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a number from {MIN_TOL} up, got {text!r}")


def _int_range(text: str) -> tuple[int, int]:
    if ".." in text:
        a, b = text.split("..", 1)
        lo, hi = _int(a), _int(b)
        if lo > hi:
            raise argparse.ArgumentTypeError(f"range a..b needs a <= b, got {text!r}")
        return lo, hi
    v = _int(text)
    return v, v


def _scan_spec(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"scan spec must be lo:hi:step, got {text!r}")
    try:
        return tuple(parse_rational(x) for x in parts)  # type: ignore[return-value]
    except RationalFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _distortion_row(t, norm_t, norm_s, distortion) -> dict:
    return {"t": format_rational(t), "normT": float(norm_t), "normS": float(norm_s),
            "distortion": float(distortion)}


def _distortion_csv(rows: list[dict]) -> str:
    body = [f"{r['t']},{r['normT']:.12f},{r['normS']:.12f},{r['distortion']:.12f}" for r in rows]
    return "\n".join(["t,normT,normS,distortion"] + body) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbounds",
        description="Certified lower/upper bounds for distortions between sequence spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--c-policy", type=_policy, default=DEFAULT_POLICY,
                       metavar="p,q,r", help="threshold policy c(t) = (p*t+q)/r")
        p.add_argument("--variant", choices=["printed", "symmetrized"],
                       default="symmetrized")
        p.add_argument("--format", choices=["text", "csv", "structured"], default="text")
        p.add_argument("--out", default=None, help="write the report to this path")

    p = sub.add_parser("certify", help="decide all four case systems at one t")
    p.add_argument("--t", type=_rational, required=True)
    p.add_argument("--case", type=str.lower, choices=sorted(CASE_FLAG), default="all")
    common(p)

    p = sub.add_parser("search", help="bisect the largest certified t")
    p.add_argument("--lo", type=_rational, default=Fraction(3))
    p.add_argument("--hi", type=_rational, default=Fraction(5))
    p.add_argument("--iters", type=_nonnegative_int, default=6)
    common(p)

    p = sub.add_parser("sweep", help="rank c-policies by certified bound")
    p.add_argument("--policies", type=_policy, nargs="+",
                   default=[CPolicy(1, 0, 2), CPolicy(1, 1, 2), CPolicy(2, 1, 4)])
    p.add_argument("--lo", type=_rational, default=Fraction(3))
    p.add_argument("--hi", type=_rational, default=Fraction(5))
    p.add_argument("--iters", type=_nonnegative_int, default=8)
    p.add_argument("--variant", choices=["printed", "symmetrized"], default="symmetrized")
    p.add_argument("--format", choices=["text", "csv", "structured"], default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("dichotomy", help="branch-split certification at one t")
    p.add_argument("--t", type=_rational, required=True)
    p.add_argument("--functions", type=_int, nargs="*", choices=[0, 1, 2], default=[0, 1, 2])
    common(p)

    p = sub.add_parser("bounds", help="closed-form bound tables")
    p.add_argument("--m", type=_int_range, default=None, metavar="a..b")
    p.add_argument("--k", type=_int_range, default=None, metavar="a..b")
    p.add_argument("--format", choices=["text", "csv", "structured"], default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("upper", help="norms and distortion of the block isomorphism")
    p.add_argument("--scan", type=_scan_spec, default=None, metavar="lo:hi:step")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--tol", type=_tolerance, default="1e-12")
    p.add_argument("--t", type=_rational, default=None)
    p.add_argument("--format", choices=["text", "csv", "structured"], default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify-cert", help="re-verify a certificate file by substitution")
    p.add_argument("path")

    return parser


def _cmd_certify(args) -> int:
    variant = Variant(args.variant)
    report = certify_at(args.t, args.c_policy, variant)
    doc = certify_report_doc(report)
    case = CASE_FLAG[args.case]
    if case is not None:
        doc["case"] = case.value
        doc["cases"] = [e for e in doc["cases"] if e["case"] == case.value]
        doc["certified"] = all(e["status"] == "infeasible" for e in doc["cases"])
    if args.format == "structured":
        _emit(_json_text(doc), args.out)
    else:
        lines = [f"t = {format_rational(report.t)}  c = {format_rational(report.c)}"
                 f"  policy = {args.c_policy.key()}  variant = {variant.value}"]
        for entry in doc["cases"]:
            lines.append(f"  case {entry['case']}: {entry['status']}")
        lines.append("certified" if doc["certified"] else "not certified")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_CERTIFIED if doc["certified"] else EXIT_NOT_CERTIFIED


def _cmd_search(args) -> int:
    variant = Variant(args.variant)
    bound = binary_search_bound(args.lo, args.hi, args.iters, args.c_policy, variant)
    doc = search_report_doc(bound)
    if args.format == "structured":
        _emit(_json_text(doc), args.out)
    elif args.format == "csv":
        rows = ["t,all_infeasible"] + [f"{t},{ok}" for t, ok in
                                       ((e["t"], e["all_infeasible"]) for e in doc["trace"])]
        _emit("\n".join(rows) + "\n", args.out)
    else:
        lines = [
            f"policy = {bound.policy.key()}  variant = {variant.value}",
            f"certified t_lo = {format_rational(bound.t_lo)}"
            f" ({float(bound.t_lo):.6f}), witnessed t_hi = {format_rational(bound.t_hi)}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_CERTIFIED


def _cmd_sweep(args) -> int:
    variant = Variant(args.variant)
    ranked, skipped = sweep_policies(args.policies, args.lo, args.hi, args.iters, variant)
    doc = {
        "tool_version": TOOL_VERSION,
        "kind": "sweep",
        "variant": variant.value,
        "iters": args.iters,
        "results": [
            {"policy": pol.key(), "t_lo": format_rational(b.t_lo),
             "t_hi": format_rational(b.t_hi)}
            for pol, b in ranked
        ],
        "skipped": [{"policy": pol.key(), "reason": reason} for pol, reason in skipped],
    }
    if args.format == "structured":
        _emit(_json_text(doc), args.out)
    elif args.format == "csv":
        rows = ["policy,t_lo,t_hi"] + [
            f"{r['policy'].replace(',', ';')},{r['t_lo']},{r['t_hi']}" for r in doc["results"]
        ]
        _emit("\n".join(rows) + "\n", args.out)
    else:
        lines = [f"{r['policy']}: t_lo = {r['t_lo']}" for r in doc["results"]]
        lines += [f"skipped {s['policy']}: {s['reason']}" for s in doc["skipped"]]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_CERTIFIED if ranked else EXIT_INPUT_ERROR


def _cmd_dichotomy(args) -> int:
    variant = Variant(args.variant)
    report = certify_dichotomy(args.t, args.c_policy, tuple(args.functions), variant)
    doc = dichotomy_report_doc(report)
    if args.format == "structured":
        _emit(_json_text(doc), args.out)
    else:
        lines = [f"t = {format_rational(report.t)}  policy = {args.c_policy.key()}"
                 f"  variant = {variant.value}"]
        for a in report.assignments:
            verdicts = ", ".join(
                f"{c.value}:{'feasible' if a.results[c].feasible else 'infeasible'}"
                for c in ALL_CASES
            )
            lines.append(f"  branches {a.branches or '(none)'}: {verdicts}")
        lines.append("certified" if report.certified else "not certified")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_CERTIFIED if report.certified else EXIT_NOT_CERTIFIED


def _cmd_bounds(args) -> int:
    if args.m is None and args.k is None:
        sys.stderr.write("error: bounds needs --m a..b, --k a..b or both\n")
        return EXIT_INPUT_ERROR
    ms = range(args.m[0], args.m[1] + 1) if args.m else []
    ks = range(args.k[0], args.k[1] + 1) if args.k else []
    try:
        rows = bounds_mod.bounds_table(ms, ks)
    except bounds_mod.BoundDomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    if args.format == "structured":
        _emit(_json_text({"kind": "bounds", "rows": rows}), args.out)
    elif args.format == "csv":
        out = ["kind,parameter,value"] + [f"{r['kind']},{r['parameter']},{r['value']}" for r in rows]
        _emit("\n".join(out) + "\n", args.out)
    else:
        out = [f"{r['kind']}({r['parameter']}) = {r['value']}" for r in rows]
        _emit("\n".join(out) + "\n", args.out)
    return EXIT_CERTIFIED


def _cmd_upper(args) -> int:
    modes = sum(1 for flag in (args.scan is not None, args.optimize, args.t is not None) if flag)
    if modes > 1:
        sys.stderr.write("error: --scan, --optimize and --t are mutually exclusive\n")
        return EXIT_INPUT_ERROR
    if args.scan is not None:
        rows = [_distortion_row(*r) for r in upperiso.scan_distortion(*args.scan)]
        if args.format == "structured":
            _emit(_json_text({"kind": "upper-scan", "rows": rows}), args.out)
        else:
            _emit(_distortion_csv(rows), args.out)
        return EXIT_CERTIFIED
    if args.optimize:
        t_star, report = upperiso.optimize_distortion(tol=args.tol)
        cubic = upperiso.cubic_formula_value(t_star)
        # mp.mpf rounds to the working precision: convert at the optimizer's.
        with mp.workdps(upperiso.PRECISION_DPS):
            norm_t, norm_s, distortion = (
                mp.nstr(mp.mpf(x), 20) for x in (report.norm_t, report.norm_s, report.distortion))
        doc = {
            "kind": "upper-optimize",
            "t_star": mp.nstr(t_star, 20),
            "normT": norm_t,
            "normS": norm_s,
            "distortion": distortion,
            "argmax_rows": {"T": report.argmax_t, "S": report.argmax_s},
            "closed_form": {
                "printed": mp.nstr(cubic.printed, 20),
                "corrected": mp.nstr(cubic.corrected, 20),
                "matching": cubic.matching,
            },
        }
        if args.format == "structured":
            _emit(_json_text(doc), args.out)
        else:
            _emit(
                f"t* = {doc['t_star']}\nnormT = {doc['normT']}\nnormS = {doc['normS']}\n"
                f"distortion = {doc['distortion']}\n"
                f"closed form: printed={doc['closed_form']['printed']}"
                f" corrected={doc['closed_form']['corrected']}"
                f" matching={doc['closed_form']['matching']}\n",
                args.out,
            )
        return EXIT_CERTIFIED
    if args.t is not None:
        report = upperiso.norm_report(args.t)
        row = _distortion_row(args.t, report.norm_t, report.norm_s, report.distortion)
        if args.format == "structured":
            _emit(_json_text({"kind": "upper-t", **row}), args.out)
        elif args.format == "csv":
            _emit(_distortion_csv([row]), args.out)
        else:
            _emit(f"t = {row['t']} normT = {row['normT']:.12f} normS = {row['normS']:.12f}"
                  f" distortion = {row['distortion']:.12f}\n", args.out)
        return EXIT_CERTIFIED
    sys.stderr.write("error: upper needs one of --scan, --optimize, --t\n")
    return EXIT_INPUT_ERROR


def _cmd_verify(args) -> int:
    code, message = verify_cert_file(args.path)
    print(message)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "dichotomy":
            return _cmd_dichotomy(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "upper":
            return _cmd_upper(args)
        if args.command == "verify-cert":
            return _cmd_verify(args)
    except (DomainError, BracketError, upperiso.IsoDomainError,
            bounds_mod.BoundDomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return EXIT_INPUT_ERROR  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
