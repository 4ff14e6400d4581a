"""The audit reaches no solver.

``bmbounds.audit`` re-verifies a document by substitution alone.  One test
reads the module with ``ast``: it imports nothing of ``certify``, only
``verify_pairs``, ``FeasibilityResult`` and ``SystemError_`` of
``exactlp``, and names no decision procedure.  The other audits genuine,
tampered, re-spelled, forged and malformed documents of every kind with each decision
procedure patched to raise in every ``bmbounds`` module, and requires the
(exit code, message) it gives without the patches.  The last table gives
an entry the certificate field of the other status, or a witness variable
outside ``VARIABLES``, in every kind of document: each is malformed.
"""

import ast
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import bmbounds.audit as audit_mod
from bmbounds.audit import (EXIT_CERTIFIED, EXIT_INPUT_ERROR, EXIT_NOT_CERTIFIED, KINDS,
                            verify_certificate_text)
from bmbounds.certify import (
    binary_search_bound,
    certify_at,
    certify_dichotomy,
    certify_report_doc,
    dichotomy_report_doc,
    search_report_doc,
    sweep_policies,
    sweep_report_doc,
)
from bmbounds.rationals import format_rational, parse_rational
from bmbounds.systems import CPolicy, Variant

# The decision procedures of ``exactlp`` and the settle step of ``certify``.
SOLVER = ("pivot", "_pivot_n", "check_feasibility", "infeasible_on", "feasible_at", "support_farkas",
          "_settle", "_certificate", "_certify_at")


def test_audit_imports_no_solver():
    tree = ast.parse(Path(audit_mod.__file__).read_text(encoding="utf-8"))
    package, absolute = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.setdefault(node.module, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            absolute.append(node.module)
        elif isinstance(node, ast.Import):
            absolute += [alias.name for alias in node.names]
    assert set(package) == {"exactlp", "rationals", "systems"}  # None: ``from . import <module>``
    assert package["exactlp"] == {"FeasibilityResult", "SystemError_", "verify_pairs"}
    assert all(name.partition(".")[0] in sys.stdlib_module_names for name in absolute)
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert named.union(*package.values()).isdisjoint({"certify", "exactlp", *SOLVER})


def _entries(doc):
    """Every case entry of a document, embedded searches included."""
    if doc["kind"] == "certify":
        return doc["cases"]
    if doc["kind"] == "search":
        return doc["lower_report"]["cases"] + doc["upper_report"]["cases"]
    if doc["kind"] == "sweep":
        return [e for r in doc["results"] for e in _entries(r["search"])]
    return [e for a in doc["assignments"] for e in a["cases"]]


def _tampered(doc):
    """The first Farkas vector's first nonzero multiplier plus 1."""
    entry = next(e for e in _entries(doc) if e["status"] == "infeasible")
    k = next(k for k, x in enumerate(entry["farkas"]) if parse_rational(x))
    entry["farkas"][k] = format_rational(parse_rational(entry["farkas"][k]) + 1)


def _respelled(doc):
    """Every number of every echo written with both terms doubled."""
    def doubled(s):
        x = parse_rational(s)
        return f"{2 * x.numerator}/{2 * x.denominator}"

    for entry in _entries(doc):
        for ineq in entry["system"]["inequalities"]:
            ineq["coeffs"] = {v: doubled(s) for v, s in ineq["coeffs"].items()}
            ineq["rhs"] = doubled(ineq["rhs"])


FORGED = {
    "certify": lambda d: d.update(certified=not d["certified"]),
    "search": lambda d: d.update(t_lo="4"),
    "sweep": lambda d: d["results"].reverse(),
    "dichotomy": lambda d: d["assignments"].pop(),
}
MALFORMED = {
    "certify": lambda d: d.update(certified="true"),
    "search": lambda d: d["trace"][2].update(all_infeasible="false"),
    "sweep": lambda d: d.update(iters=-1),
    "dichotomy": lambda d: d.update(certified=0),
}
# Edit -> the exit code it gives on every kind of document.
EDITS = {"genuine": (EXIT_CERTIFIED, lambda d: None), "tampered": (EXIT_NOT_CERTIFIED, _tampered),
         "respelled": (EXIT_CERTIFIED, _respelled), "forged": (EXIT_NOT_CERTIFIED, None),
         "malformed": (EXIT_INPUT_ERROR, None)}


@pytest.fixture(scope="module")
def documents():
    """(kind, edit, text, (exit code, message) without patches), made
    before any test patches the solver."""
    ranked, skipped = sweep_policies([CPolicy(1, 0, 2), CPolicy(2, 1, 4)], F(3), F(5), 3)
    genuine = {
        "certify": certify_report_doc(certify_at(F(113, 32))),
        "search": search_report_doc(binary_search_bound(F(3), F(5), 4)),
        "sweep": sweep_report_doc(ranked, skipped, Variant.SYMMETRIZED, 3),
        "dichotomy": dichotomy_report_doc(certify_dichotomy(F(113, 32))),
    }
    out = []
    for kind, doc in genuine.items():
        for edit, (code, apply) in EDITS.items():
            copy = json.loads(json.dumps(doc))
            (apply or {"forged": FORGED, "malformed": MALFORMED}[edit][kind])(copy)
            text = json.dumps(copy)
            verdict = verify_certificate_text(text)
            assert verdict[0] == code, (kind, edit, verdict)
            out.append((kind, edit, text, verdict))
    return out


def test_audit_runs_with_the_solver_raising(monkeypatch, documents):
    def boom(*args, **kwargs):  # pragma: no cover
        raise AssertionError("the audit reached the solver")

    patched = []
    for name, module in list(sys.modules.items()):
        if name == "bmbounds" or name.startswith("bmbounds."):
            for attr in SOLVER:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, boom)
                    patched.append(f"{name}.{attr}")
    assert {"bmbounds.exactlp.pivot", "bmbounds.certify._settle", "bmbounds.certify._certify_at",
            "bmbounds.certify.feasible_at"} <= set(patched)
    assert [(kind, edit, verify_certificate_text(text)) for kind, edit, text, _ in documents] == [
        (kind, edit, verdict) for kind, edit, _, verdict in documents]


# Edit of the first entry of a status -> the malformed line it gives.  A
# witness that lacks a variable keeps the message ``verify_pairs`` gives.
FIELD_EDITS = {
    "farkas-on-feasible": ("feasible", lambda e: e.update(farkas=["1"]),
                           "feasible entry carries field 'farkas'"),
    "witness-on-infeasible": ("infeasible", lambda e: e.update(witness={"th0": "0"}),
                              "infeasible entry carries field 'witness'"),
    "unknown-variable": ("feasible", lambda e: e["witness"].update(zz="-7"),
                         "witness names variables ['zz'] outside ['th0', 'th1', 'th2', 'a']"),
    "missing-variable": ("feasible", lambda e: e["witness"].pop("th0"), "witness misses variables ['th0']"),
}


@pytest.fixture(scope="module")
def status_documents():
    """A genuine document of each kind for each status it must hold: a
    certify document at 5 (all feasible) and at 113/32 (all infeasible); a
    search, a sweep and a dichotomy at 4 hold entries of both."""
    ranked, skipped = sweep_policies([CPolicy(1, 0, 2), CPolicy(2, 1, 4)], F(3), F(5), 3)
    both = {"search": search_report_doc(binary_search_bound(F(3), F(5), 4)),
            "sweep": sweep_report_doc(ranked, skipped, Variant.SYMMETRIZED, 3),
            "dichotomy": dichotomy_report_doc(certify_dichotomy(F(4)))}
    docs = {("certify", "feasible"): certify_report_doc(certify_at(F(5))),
            ("certify", "infeasible"): certify_report_doc(certify_at(F(113, 32)))}
    for kind, doc in both.items():
        docs[kind, "feasible"] = docs[kind, "infeasible"] = doc
    return {key: json.dumps(doc) for key, doc in docs.items()}


@pytest.mark.parametrize("edit", list(FIELD_EDITS))
@pytest.mark.parametrize("kind", KINDS)
def test_certificate_fields_off_the_status_are_malformed(status_documents, kind, edit):
    status, apply, message = FIELD_EDITS[edit]
    text = status_documents[kind, status]
    assert verify_certificate_text(text) == (EXIT_CERTIFIED, "all certificates verified")
    doc = json.loads(text)
    apply(next(e for e in _entries(doc) if e["status"] == status))
    assert verify_certificate_text(json.dumps(doc)) == (EXIT_INPUT_ERROR, f"malformed certificate: {message}")


def test_sweep_entry_t_lo_is_bound_to_its_search(status_documents):
    """A ranked entry whose t_lo is raised to its t_hi still heads the
    ranking, so only the binding of the entry to its embedded search
    rejects it."""
    doc = json.loads(status_documents["sweep", "feasible"])
    entry = doc["results"][0]
    entry["t_lo"] = entry["t_hi"]
    assert verify_certificate_text(json.dumps(doc)) == (
        EXIT_NOT_CERTIFIED, f"policy {entry['policy']}: policy, t_lo or t_hi differs from its search document")
