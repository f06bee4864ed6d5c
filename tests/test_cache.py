import dataclasses
import fcntl
import json
import os
import subprocess
import sys
import time

import pytest

import apolar
import apolar.search
from apolar import (
    DEFAULT_FIELD,
    GF,
    QQ,
    CorruptCacheError,
    FBoundEntry,
    hilbert_function,
    hilbert_functions,
    load_table,
    merge_store,
    power_sum_form,
    search_min_h2,
)


def _entry(e=4, r=5):
    return search_min_h2(e, r)


def test_round_trip_identity(tmp_path):
    path = str(tmp_path / "cache.json")
    entries = [_entry(4, 4), _entry(4, 5), _entry(5, 4)]
    merge_store(path, entries)
    loaded = load_table(path)
    key = lambda d: (d["e"], d["r"])
    assert sorted((en.to_dict() for en in loaded), key=key) == sorted(
        (en.to_dict() for en in entries), key=key
    )


def test_missing_and_empty_files(tmp_path):
    path = str(tmp_path / "none.json")
    assert load_table(path) == []
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert load_table(str(empty)) == []
    empty.write_text("[]")
    assert load_table(str(empty)) == []


def test_min_merge_keeps_smaller_bound(tmp_path):
    path = str(tmp_path / "cache.json")
    good = _entry(4, 13)  # bound 12
    assert good.bound == 12
    merge_store(path, [good])
    # a 13 never displaces the stored 12
    worse = FBoundEntry.from_form(power_sum_form(13, 4), 4, 13, 13)
    assert worse.verify() and worse.certificate != good.certificate
    merged = merge_store(path, [worse])
    kept = [en for en in merged if (en.e, en.r) == (4, 13)]
    assert len(kept) == 1 and kept[0].bound == 12
    assert kept[0].certificate == good.certificate


def test_merge_tie_keeps_incumbent(tmp_path):
    path = str(tmp_path / "cache.json")
    first = dataclasses.replace(_entry(4, 6), timestamp="2000-01-01T00:00:00+00:00")
    merge_store(path, [first])
    second = _entry(4, 6)
    assert second.bound == first.bound and second.timestamp != first.timestamp
    merged = merge_store(path, [second])
    kept = [en for en in merged if (en.e, en.r) == (4, 6)][0]
    assert kept.timestamp == first.timestamp


def test_corrupt_certificate_dropped_with_warning(tmp_path, caplog):
    path = str(tmp_path / "cache.json")
    good = _entry(4, 5)
    merge_store(path, [good])
    data = json.loads((tmp_path / "cache.json").read_text())
    data[0]["bound"] = good.bound - 1  # certificate no longer matches
    (tmp_path / "cache.json").write_text(json.dumps(data))
    with caplog.at_level("WARNING"):
        assert load_table(path) == []
    assert any("re-verification" in rec.message for rec in caplog.records)


def test_socle_three_entry_below_codimension_dropped(tmp_path, caplog):
    path = tmp_path / "cache.json"
    F = power_sum_form(4, 3)
    cubic = FBoundEntry.from_form(F, 3, 4, 4)
    assert cubic.verify()
    low = dict(cubic.to_dict(), bound=2)
    path.write_text(json.dumps([low]))
    with caplog.at_level("WARNING"):
        assert load_table(str(path)) == []
    assert any("re-verification" in rec.message for rec in caplog.records)


def test_malformed_entry_dropped_with_warning(tmp_path, caplog):
    path = tmp_path / "cache.json"
    good = _entry(4, 5)
    path.write_text(json.dumps([{"e": 4}, good.to_dict()]))
    with caplog.at_level("WARNING"):
        loaded = load_table(str(path))
    assert [en.r for en in loaded] == [5]
    assert any("malformed" in rec.message for rec in caplog.records)


def test_unsupported_socle_degree_dropped_with_warning(tmp_path, caplog):
    path = tmp_path / "cache.json"
    good = _entry(4, 5)
    odd = dict(good.to_dict(), e=6, r=2, bound=2, certificate="y0^6 + y1^6", nvars=2)
    path.write_text(json.dumps([odd, good.to_dict()]))
    with caplog.at_level("WARNING"):
        loaded = load_table(str(path))
    assert [(en.e, en.r) for en in loaded] == [(4, 5)]
    assert any("re-verification" in rec.message for rec in caplog.records)
    merged = merge_store(str(path), [_entry(4, 4)])
    assert [(en.e, en.r) for en in merged] == [(4, 4), (4, 5)]


def _mixed_table():
    """Cache items that load_table keeps or drops for every reason, over
    the default prime, q and p:7, socle degrees 3 to 6."""
    good4 = _entry(4, 5).to_dict()
    good5q = search_min_h2(5, 4, fld=QQ).to_dict()
    good4p7 = search_min_h2(4, 6, fld=GF(7)).to_dict()
    cubic = FBoundEntry.from_form(power_sum_form(4, 3), 3, 4, 4).to_dict()
    return [
        good4,
        {"e": 4},  # malformed: no r
        dict(good4, bound=good4["bound"] - 1),  # fails re-verification
        good5q,
        dict(cubic, bound=2),  # e = 3 below its codimension
        cubic,
        17,  # malformed: not a dict
        dict(good4, e=6, r=2, bound=2, certificate="y0^6 + y1^6", nvars=2),  # e = 6
        good4p7,
        dict(good4, certificate="y0^4 + @"),  # unparsable
        dict(good4p7, certificate="y0^7 + y1^7"),  # 7 does not exceed degree 7
        dict(good4, r="x"),  # malformed: r is no integer
        dict(good4, certificate="y0^3 + y1^3"),  # degree 3 under e = 4
        dict(good4, certificate="0"),  # the zero form
        dict(good5q, field="p:abc"),  # bad field spec
        dict(good5q, e=4),  # right form, wrong socle degree
        good4,  # the same certificate twice
        dict(good4p7, field="q"),  # the p:7 certificate read over q
    ]


def test_batched_load_keeps_and_warns_as_one_entry_at_a_time(tmp_path, caplog):
    # the reference is load_table's rule written entry by entry: parse the
    # item, then verify() it alone, warning in file order
    items = _mixed_table()
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(items))
    kept, warnings = [], []
    for pos, item in enumerate(items):
        try:
            entry = FBoundEntry.from_dict(item)
        except (KeyError, TypeError, ValueError) as exc:
            warnings.append(f"dropping malformed cache entry {pos} in {path}: {exc}")
            continue
        if entry.verify():
            kept.append(entry.to_dict())
        else:
            warnings.append(
                f"dropping cache entry {pos} in {path}: certificate for "
                f"e={entry.e} r={entry.r} failed re-verification"
            )
    assert [(d["e"], d["r"], d["field"]) for d in kept] == [
        (4, 5, "p:2147483647"), (5, 4, "q"), (3, 4, "p:2147483647"),
        (4, 6, "p:7"), (4, 5, "p:2147483647"), (4, 6, "q"),
    ]
    calls, batches = [], []
    verify = FBoundEntry.verify

    def counted(*args):  # positional only, as perfbench/tracer.py wraps it
        calls.append(args)
        return verify(*args)

    def batch(forms):
        forms = list(forms)
        batches.append(len(forms))
        return hilbert_functions(forms)

    caplog.set_level("WARNING", logger="apolar.cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FBoundEntry, "verify", counted)
        mp.setattr(apolar.search, "hilbert_functions", batch)
        loaded = load_table(str(path))
    assert [en.to_dict() for en in loaded] == kept
    assert [rec.getMessage() for rec in caplog.records] == warnings
    # one verify call per entry that from_dict accepts, in file order, each
    # given its value from one batch; only the certificates that parse to a
    # nonzero form of degree e, for e in 3..5, are ranked, and a value is
    # the degree-2 entry of a certificate with the target shape
    entries = [FBoundEntry.from_dict(it) for it in items
               if isinstance(it, dict) and "r" in it and it["r"] != "x"]
    assert [args[0].to_dict() for args in calls] == [en.to_dict() for en in entries]
    assert all(len(args) == 2 for args in calls)
    given = [(en, h2) for en, h2 in calls if h2 is not None]
    assert batches == [len(given)] and len(given) == 8
    for en, h2 in given:
        assert h2 == hilbert_function(en.parse_certificate())[2]


def test_structurally_broken_files_raise(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CorruptCacheError):
        load_table(str(bad))
    bad.write_text('{"a": 1}')
    with pytest.raises(CorruptCacheError):
        load_table(str(bad))


def test_store_writes_valid_sorted_json(tmp_path):
    path = str(tmp_path / "cache.json")
    merge_store(path, [_entry(5, 4), _entry(4, 7), _entry(4, 3)])
    data = json.loads((tmp_path / "cache.json").read_text())
    keys = [(d["e"], d["r"]) for d in data]
    assert keys == sorted(keys)
    assert all("timestamp" in d for d in data)


_CHILD_WRITER = """
import sys
from apolar import DEFAULT_FIELD, FBoundEntry, merge_store, power_sum_form
entry = FBoundEntry.from_form(power_sum_form(4, 4, DEFAULT_FIELD), 4, 4, 4)
print("ready", flush=True)
merge_store(sys.argv[1], [entry])
"""


def test_concurrent_writer_waits_for_the_lock(tmp_path):
    # two processes: this one holds the lock while it stores (4, 5); the
    # child's merge_store must wait, then load that entry and keep it
    path = str(tmp_path / "cache.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(apolar.__file__)),
                      env.get("PYTHONPATH")])
    )
    child = None
    try:
        with open(path + ".lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            child = subprocess.Popen(
                [sys.executable, "-c", _CHILD_WRITER, path],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            assert child.stdout.readline() == "ready\n"
            time.sleep(0.5)
            assert child.poll() is None and not os.path.exists(path)
            mine = FBoundEntry.from_form(power_sum_form(5, 4, DEFAULT_FIELD), 4, 5, 5)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([mine.to_dict()], fh)
        child.communicate(timeout=60)
        assert child.returncode == 0
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.communicate()
    assert [(en.e, en.r) for en in load_table(path)] == [(4, 4), (4, 5)]
