"""Every place the benchmark's tracer wraps must exist in the program.

``bench/spans.py`` names (module, attribute) places and skips, and lists as
missing, any place the program no longer has.  This test reads that table
without a benchmark run: it loads the file by path, edits nothing and
checks that each place resolves to a callable in ``bmbounds``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_place_resolves():
    spans = _load_spans()
    places = {place for table in (spans.SPANS, spans.COUNTS)
              for places in table.values() for place in places}
    missing = sorted(f"{module}.{attribute}" for module, attribute in places
                     if not callable(getattr(importlib.import_module(f"bmbounds.{module}"),
                                             attribute, None)))
    assert missing == []
