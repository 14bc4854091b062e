"""The benchmark traces catbij through the module attributes it names."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_attribute_exists():
    # a renamed or deleted function must be renamed in bench/spans.py too,
    # or a traced run fails to patch it
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [
        (module, attr)
        for module, attr, _ in spans.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
