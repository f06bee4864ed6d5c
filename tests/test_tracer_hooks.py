"""The per-layer tracer in perfbench/ wraps apolar names from outside the
package; these checks fail when a refactor renames one of them, which would
otherwise only surface when `perfbench/run.py --trace 1` is run."""

import importlib
import importlib.util
import json
from pathlib import Path

import apolar.cache
from apolar import QQ, FBoundEntry, Form, catalecticant, parse_form, search_min_h2

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracer = _tracer()
    for module, attr, _ in tracer.SPANS:
        mod = importlib.import_module(f"apolar.{module}")
        assert callable(getattr(mod, attr, None)), f"apolar.{module}.{attr}"
    for attr, _ in tracer.FORM_OPS:
        assert attr in vars(Form), attr
    assert "verify" in vars(FBoundEntry)


def test_counted_attributes_exist():
    # the catalecticant hook reads these from every matrix it sees
    mat = catalecticant(parse_form("y0^4 + y1^4", 2, QQ), 2)
    assert mat.nrows * mat.ncols == 9 and len(mat.entries) == 2


def test_load_table_feeds_the_cache_counters(tmp_path):
    # BENCHMARK.json reports cache.entries_verified and cache.entries_dropped;
    # they count FBoundEntry.verify calls made inside load_table
    good = search_min_h2(4, 5).to_dict()
    path = tmp_path / "cache.json"
    path.write_text(json.dumps([good, dict(good, bound=good["bound"] - 1)]))
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        assert [en.r for en in apolar.cache.load_table(str(path))] == [5]
    finally:
        tracer.uninstall()
    assert tracer.counters["cache.entries_verified"] == 2
    assert tracer.counters["cache.entries_dropped"] == 1
