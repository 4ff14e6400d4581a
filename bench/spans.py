"""Spans and counters around the calls into each bmbounds module.

The tracer wraps public functions of the program from the benchmark's own
files: each wrapper is installed in every namespace where callers look the
function up (``certify`` imports ``check_feasibility`` by name, while
``check_feasibility`` reaches ``verify_certificate`` as an ``exactlp``
global, and so on).  Nothing in ``src/`` changes.  Spans are kept in memory
as (op, id, parent, name, start, end, attrs) and written out at the end;
self time is a span's time minus its children's.  Counters are recorded
at the same boundaries as span attributes, so every ratio is measured
where its work happens.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

# Span name -> the (module, attribute) places the function is looked up.
SPANS = {
    "exactlp.fm": [("exactlp", "check_feasibility"), ("certify", "check_feasibility")],
    "exactlp.verify": [("exactlp", "verify_certificate"), ("certify", "verify_certificate")],
    "certify.probe": [("certify", "certify_at"), ("cli", "certify_at")],
    "certify.search": [("certify", "binary_search_bound"), ("cli", "binary_search_bound")],
    "certify.doc": [("cli", "certify_report_doc"), ("cli", "search_report_doc"),
                    ("cli", "dichotomy_report_doc")],
    "certify.verify_text": [("certify", "verify_certificate_text")],
    "systems.build_case": [("systems", "build_case_system"), ("certify", "build_case_system")],
    "systems.build_group": [("systems", "build_all_cases"), ("certify", "build_all_cases"),
                            ("systems", "build_dichotomy_systems"),
                            ("certify", "build_dichotomy_systems")],
    "systems.serialize": [("systems", "serialize_system"), ("certify", "serialize_system")],
    "systems.parse": [("systems", "parse_system_file"), ("certify", "parse_system_file")],
    "upperiso.optimize": [("upperiso", "optimize_distortion")],
    "upperiso.build_matrices": [("upperiso", "build_matrices")],
    "upperiso.scan": [("upperiso", "scan_distortion")],
    "bounds.table": [("bounds", "bounds_table")],
}

# Counter name -> places; these functions are too small to time usefully.
COUNTS = {
    "rationals.parse": [("rationals", "parse_rational"), ("systems", "parse_rational"),
                        ("certify", "parse_rational"), ("cli", "parse_rational")],
    "rationals.format": [("rationals", "format_rational"), ("systems", "format_rational"),
                         ("certify", "format_rational"), ("cli", "format_rational")],
}

BUILD_SPANS = ("systems.build_case", "systems.build_group")


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


def _fm_attrs(args, kwargs, result) -> dict:
    system = args[0] if args else kwargs["system"]
    return {"rows": len(system.inequalities) + len(system.nonneg), "infeasible": not result.feasible}


def _verify_attrs(args, kwargs, result) -> dict:
    cert = args[1] if len(args) > 1 else kwargs["result"]
    values = list(cert.witness.values()) if cert.witness is not None else list(cert.farkas or ())
    return {"bits": _bits(values)}


def _probe_attrs(args, kwargs, report) -> dict:
    feasible = [i for i, r in enumerate(report.results.values()) if r.feasible]
    # Cases whose verdict a feasible probe needs: those up to its first feasible one.
    return {"cases": len(report.results), "needed": feasible[0] + 1 if feasible else len(report.results),
            "report": id(report)}


ATTRS: dict[str, Callable] = {
    "exactlp.fm": _fm_attrs,
    "exactlp.verify": _verify_attrs,
    "certify.probe": _probe_attrs,
    "certify.search": lambda a, k, bound: {"finals": [id(bound.report_lo), id(bound.report_hi)]},
}


class Tracer:
    """In-memory span recorder; spans are recorded only while an op is open."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [op, id, parent, name, start, end, attrs]
        self.counts: dict[str, int] = defaultdict(int)
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self.missing: list[str] = []
        self._alive: list = []        # results referenced by id, kept alive until the op ends

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [self.op, len(self.spans), self._stack[-1] if self._stack else None, name,
                time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[1])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op: int) -> list:
        self.op = op
        return self._open("cli.main")

    def end_op(self, span: list, report_bytes: int) -> None:
        self._close(span)
        span[6] = {"bytes": report_bytes}
        self.op = None
        self._alive.clear()

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
                self._alive.append(result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules: dict) -> None:
        """Patch every listed place; one wrapper per original function object.

        A place the program no longer has is skipped and listed in
        ``missing``, so a refactor of the program never breaks the run.
        """
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for name, places in table.items():
                wrapped: dict[int, Callable] = {}
                for mod_name, attr in places:
                    module = modules[mod_name]
                    fn = getattr(module, attr, None)
                    if fn is None:
                        self.missing.append(f"{mod_name}.{attr}")
                        continue
                    if id(fn) not in wrapped:
                        wrapped[id(fn)] = make(name, fn)
                    setattr(module, attr, wrapped[id(fn)])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["op", "id", "parent", "name", "start", "end", "attrs"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans, "counts": dict(self.counts)}, fh)


def _top_level(spans: list[list], names: tuple[str, ...]) -> list[list]:
    """Spans named in ``names`` that have no ancestor also named in ``names``."""
    by_id = {s[1]: s for s in spans}
    out = []
    for s in spans:
        if s[3] not in names:
            continue
        parent = by_id.get(s[2])
        while parent is not None and parent[3] not in names:
            parent = by_id.get(parent[2])
        if parent is None:
            out.append(s)
    return out


def _within(spans: list[list], name: str) -> set[int]:
    """Ids of spans that are ``name`` or descend from one."""
    inside: set[int] = set()
    for s in spans:  # spans are stored in start order, parents first
        if s[3] == name or s[2] in inside:
            inside.add(s[1])
    return inside


def _dur(spans) -> float:
    return sum(s[5] - s[4] for s in spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics, per op where they are sums; spans of whole passes only."""
    spans = tracer.spans
    named: dict[str, list[list]] = defaultdict(list)
    for s in spans:
        named[s[3]].append(s)
    children = defaultdict(float)
    for s in spans:
        if s[2] is not None:
            children[s[2]] += s[5] - s[4]

    fm = named["exactlp.fm"]
    verify = named["exactlp.verify"]
    probes = named["certify.probe"]

    # FM runs the returned result needs: every run outside bisection probes,
    # all cases of all-infeasible and final probes, the prefix up to the
    # first feasible case of any other probe.
    finals = {(s[0], r) for s in named["certify.search"] for r in s[6]["finals"]}
    in_probe = _within(spans, "certify.probe")
    useful = sum(1 for s in fm if s[1] not in in_probe)
    for s in probes:
        a = s[6]
        final = (s[0], a["report"]) in finals or spans[s[2]][3] == "cli.main"
        useful += a["cases"] if final else a["needed"]

    in_audit = _within(spans, "certify.verify_text")
    audit_parse = sum(1 for s in named["systems.parse"] if s[1] in in_audit)
    audit_build = sum(1 for s in named["systems.build_case"] if s[1] in in_audit)

    mains = named["cli.main"]
    per = 1.0 / ops
    return {
        "exactlp.fm_calls": len(fm) * per,
        "exactlp.fm_s": sum(s[5] - s[4] - children[s[1]] for s in fm) * per,
        "exactlp.fm_input_rows": sum(s[6]["rows"] for s in fm) * per,
        "exactlp.fm_infeasible_share": _ratio(sum(s[6]["infeasible"] for s in fm), len(fm)),
        "exactlp.verify_calls": len(verify) * per,
        "exactlp.verify_s": _dur(verify) * per,
        "exactlp.verify_per_fm": _ratio(len(verify), len(fm)),
        "exactlp.cert_bits_max": max((s[6]["bits"] for s in verify), default=0),
        "certify.probe_calls": len(probes) * per,
        "certify.probe_s": _dur(probes) * per,
        "certify.fm_useful_ratio": _ratio(useful, len(fm)),
        "certify.doc_s": _dur(named["certify.doc"]) * per,
        "certify.verify_text_calls": len(named["certify.verify_text"]) * per,
        "certify.verify_text_s": _dur(named["certify.verify_text"]) * per,
        "certify.report_bytes": sum(s[6]["bytes"] for s in mains) * per,
        "systems.build_calls": len(named["systems.build_case"]) * per,
        "systems.build_s": _dur(_top_level(spans, BUILD_SPANS)) * per,
        "systems.rebuild_useful_ratio": _ratio(audit_parse, audit_build),
        "systems.serialize_calls": len(named["systems.serialize"]) * per,
        "systems.serialize_s": _dur(named["systems.serialize"]) * per,
        "systems.parse_calls": len(named["systems.parse"]) * per,
        "systems.parse_s": _dur(named["systems.parse"]) * per,
        "rationals.parse_calls": tracer.counts["rationals.parse"] * per,
        "rationals.format_calls": tracer.counts["rationals.format"] * per,
        "upperiso.optimize_calls": len(named["upperiso.optimize"]) * per,
        "upperiso.optimize_s": _dur(named["upperiso.optimize"]) * per,
        "upperiso.build_matrices_calls": len(named["upperiso.build_matrices"]) * per,
        "upperiso.build_matrices_s": _dur(named["upperiso.build_matrices"]) * per,
        "upperiso.scan_s": _dur(named["upperiso.scan"]) * per,
        "bounds.table_calls": len(named["bounds.table"]) * per,
        "bounds.table_s": _dur(named["bounds.table"]) * per,
        "cli.main_s": _dur(mains) * per,
        "cli.self_s": sum(s[5] - s[4] - children[s[1]] for s in mains) * per,
    }


UNITS = {"_calls": "calls/op", "_s": "s/op", "_rows": "rows/op", "_share": "ratio",
         "_ratio": "ratio", "_per_fm": "ratio", "_bits_max": "bits", "_bytes": "bytes/op"}


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in UNITS.items() if name.endswith(suffix))
