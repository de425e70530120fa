"""Every library name the benchmark tracer wraps, and every export, resolves.

``bench/spans.py`` looks up the functions it times with ``getattr`` only
when a traced run starts, so a deleted or renamed function would otherwise
break ``--trace 1`` runs alone.  The file is loaded here, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

import mecmc

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (module, name)
        for module, name in sorted(spans.SPANS)
        if not callable(getattr(importlib.import_module(f"mecmc.{module}"), name, None))
    ]
    assert missing == []


def test_exports_resolve():
    missing = [name for name in mecmc.__all__ if not hasattr(mecmc, name)]
    assert missing == []
