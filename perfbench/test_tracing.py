"""The tracer wraps a name wherever a module bound it, derives self times,
reports missing names instead of raising, and restores the originals.

    python3 -m pytest perfbench/test_tracing.py -q
"""

import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402

FFCORE = """
import time
def field_make():
    time.sleep(0.01)
"""

SEARCH = """
import time
def q_in_Q():
    time.sleep(0.02)
    field_make()
def exception_scan():
    for q in (3, 4, 5):
        yield q
"""


def _fake_package(monkeypatch):
    ffcore = types.ModuleType("primpair.ffcore")
    exec(FFCORE, ffcore.__dict__)
    search = types.ModuleType("primpair.search")
    search.field_make = ffcore.field_make
    exec(SEARCH, search.__dict__)
    monkeypatch.setitem(sys.modules, "primpair", types.ModuleType("primpair"))
    monkeypatch.setitem(sys.modules, "primpair.ffcore", ffcore)
    monkeypatch.setitem(sys.modules, "primpair.search", search)
    for name in ("primpair.polyrat", "primpair.bounds", "primpair.cli"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return ffcore, search


def test_spans_self_time_and_missing_names(monkeypatch):
    ffcore, search = _fake_package(monkeypatch)
    original = ffcore.field_make
    tracer = Tracer()
    tracer.install()
    assert search.field_make is ffcore.field_make is not original
    search.q_in_Q()
    assert list(search.exception_scan()) == [3, 4, 5]
    tracer.uninstall()
    assert search.field_make is ffcore.field_make is original

    s = tracer.summary()
    assert s["ffcore.field_make.calls"] == 1
    assert s["search.q_in_Q.calls"] == 1
    assert s["search.exception_scan.items"] == 3
    assert s["ffcore.field_make.s"] >= 0.01
    assert abs(s["search.q_in_Q.self_s"]
               - (s["search.q_in_Q.s"] - s["ffcore.field_make.s"])) < 1e-9
    assert "bounds.sieve_pass_prefix" in tracer.missing
    assert "search.pair_exists" in tracer.missing
