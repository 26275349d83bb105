"""Every call boundary the benchmark's tracer wraps names a function of the
library, so no fold or rename silently zeroes a per-layer metric."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_boundaries_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.BOUNDARIES
    for modname, qual in tracing.BOUNDARIES:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{modname}")
        for attr in qual.split("."):
            owner = getattr(owner, attr, None)
        assert callable(owner), f"{modname}.{qual}"
