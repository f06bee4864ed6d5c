"""Per-layer tracing of apolar from outside the package.

``Tracer.install`` wraps the public functions of each layer and rebinds the
wrapper wherever an apolar module holds the original, so the copies made by
``from .x import y`` (``search.hilbert_function``, ``cli.realize_interval``)
are traced too.  ``Form.__mul__``, ``__pow__`` and ``__add__`` are wrapped on
the class.  ``uninstall`` puts every original back.

Each wrapped call is a span.  Self time is span time minus the time of the
spans nested in it; bookkeeping done outside the timed interval of a span is
charged to nobody.  ``fields`` is not wrapped: its scalar operations run
millions of times, so wrapping them would cost more than the work, and their
time shows as self time of the caller.

Spans are kept in memory and written as JSON lines by ``write_jsonl``.  The
Form operators run tens of thousands of times per workload, so they are kept
as counts and times only, not as individual span records.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name); the layer is the span name's first part.
SPANS = [
    ("poly", "parse_form", "poly.parse_form"),
    ("poly", "form_gcd", "poly.form_gcd"),
    ("poly", "exact_div", "poly.exact_div"),
    ("apolarity", "catalecticant", "apolarity.catalecticant"),
    ("apolarity", "hilbert_function", "apolarity.hilbert_function"),
    ("apolarity", "codimension", "apolarity.codimension"),
    ("linalg", "sparse_rank", "linalg.sparse_rank"),
    ("linalg", "matrix_rank", None),  # linalg.rank.gf or linalg.rank.qq
    ("restriction", "restrict_mod", "restriction.restrict_mod"),
    ("restriction", "restricted_rank", "restriction.restricted_rank"),
    ("restriction", "check_partials_gcd", "restriction.check_partials_gcd"),
    ("restriction", "run_codim_drop_suite", "restriction.run_codim_drop_suite"),
    ("restriction", "run_restricted_rank_suite", "restriction.run_restricted_rank_suite"),
    ("restriction", "run_partials_gcd_suite", "restriction.run_partials_gcd_suite"),
    ("search", "search_min_h2", "search.search_min_h2"),
    ("search", "realize_interval", "search.realize_interval"),
    ("search", "gic_verify", "search.gic_verify"),
    ("cache", "load_table", "cache.load_table"),
    ("cache", "merge_store", "cache.merge_store"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "render", "cli.render"),
    ("cli", "run", "cli.run"),
]
FORM_OPS = [("__mul__", "poly.mul"), ("__pow__", "poly.pow"), ("__add__", "poly.add")]
LAYERS = ("poly", "apolarity", "linalg", "restriction", "search", "cache", "cli")
# search spans whose Hilbert-function calls evaluate portfolio candidates
PORTFOLIO = ("search.search_min_h2", "search.realize_interval")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []  # frames: [span id, name, seconds in child spans]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, seconds, self seconds
        self.counters = defaultdict(int)
        self.spans = []  # (id, parent id, name, start, end)
        self.forms_seen = set()
        self._next_id = 0
        self._patched = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None, record=True):
        stack, stats, clock, spans = self.stack, self.stats, self.clock, self.spans

        def traced(*args, **kwargs):
            entered = clock()
            span = name(args) if callable(name) else name
            if before is not None:
                before(args)
            self._next_id += 1
            frame = [self._next_id, span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st = stats[span]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if record:
                    spans.append(
                        (frame[0], stack[-1][0] if stack else 0, span, start, end)
                    )
                if stack:
                    stack[-1][2] += clock() - entered
            if after is not None:
                counted = clock()
                after(args, result)
                if stack:
                    stack[-1][2] += clock() - counted
            return result

        return functools.wraps(fn)(traced)

    # -- counters computed at layer boundaries -------------------------------

    def _in(self, prefixes) -> bool:
        return any(frame[1] in prefixes for frame in self.stack)

    def _count_mul(self, args):
        a, b = args
        if hasattr(b, "coeffs"):
            self.counters["poly.mul.term_pairs"] += len(a.coeffs) * len(b.coeffs)

    def _count_catalecticant(self, args, mat):
        self.counters["apolarity.catalecticant.nonzeros"] += len(mat.entries)
        self.counters["apolarity.catalecticant.cells"] += mat.nrows * mat.ncols

    def _count_hilbert(self, args):
        F = args[0]
        self.forms_seen.add((F.nvars, F.field, frozenset(F.coeffs.items())))
        if self._in(PORTFOLIO):
            self.counters["search.portfolio_hf"] += 1

    def _count_rank(self, args):
        rows = args[0]
        if rows and rows[0]:
            self.counters["linalg.rank.cells"] += len(rows) * len(rows[0])

    def _count_suite(self, args, report):
        self.counters["restriction.trials"] += report.trials
        self.counters["restriction.witnesses"] += len(report.witnesses)

    def _count_search(self, args, result):
        self.counters["search.results"] += len(result) if isinstance(result, dict) else 1

    def _count_verify(self, args, ok):
        if self._in(("cache.load_table",)):
            self.counters["cache.entries_verified"] += 1
            self.counters["cache.entries_dropped"] += not ok

    def _count_store(self, args, table):
        self.counters["cache.bytes_written"] += os.path.getsize(args[0])

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Wrap every traced function of the imported apolar package."""
        mods = {
            name[len("apolar."):]: mod
            for name, mod in sys.modules.items()
            if name.startswith("apolar.")
        }
        mods[""] = sys.modules["apolar"]
        hooks = {
            "apolarity.catalecticant": (None, self._count_catalecticant),
            "apolarity.hilbert_function": (self._count_hilbert, None),
            "search.search_min_h2": (None, self._count_search),
            "search.realize_interval": (None, self._count_search),
            "cache.merge_store": (None, self._count_store),
        }
        for suite in ("codim_drop", "restricted_rank", "partials_gcd"):
            hooks[f"restriction.run_{suite}_suite"] = (None, self._count_suite)

        def rank_span(args):
            return "linalg.rank.qq" if args[1].char == 0 else "linalg.rank.gf"

        replace = {}  # id of an original function -> its wrapper
        for module, attr, span in SPANS:
            original = getattr(mods[module], attr)
            if span is None:
                wrapped = self._wrap(original, rank_span, before=self._count_rank)
            else:
                before, after = hooks.get(span, (None, None))
                wrapped = self._wrap(original, span, before=before, after=after)
            replace[id(original)] = wrapped
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    self._patch(mod, attr, replace[id(value)])

        Form = mods["poly"].Form
        for attr, span in FORM_OPS:
            before = self._count_mul if attr == "__mul__" else None
            self._patch(Form, attr, self._wrap(vars(Form)[attr], span, before=before, record=False))
        entry = mods["search"].FBoundEntry
        self._patch(entry, "verify", self._counting(vars(entry)["verify"], self._count_verify))

    def _counting(self, fn, after):
        def counted(*args):
            result = fn(*args)
            after(args, result)
            return result

        return counted

    def _patch(self, obj, attr, value):
        self._patched.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    # -- results -------------------------------------------------------------

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for span, (_, _, self_s) in self.stats.items():
            out[span.split(".", 1)[0]] += self_s
        return out

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        st = self.stats
        c = self.counters

        def calls(span):
            return st[span][0] if span in st else 0

        def total(span):
            return st[span][1] if span in st else 0.0

        def own(span):
            return st[span][2] if span in st else 0.0

        hf_calls = calls("apolarity.hilbert_function")
        results = c["search.results"]
        layer = self.layer_self()
        out = {
            "poly.mul.calls": (calls("poly.mul"), "count"),
            "poly.mul.self_s": (own("poly.mul"), "s"),
            "poly.mul.term_pairs": (c["poly.mul.term_pairs"], "count"),
            "poly.pow.calls": (calls("poly.pow"), "count"),
            "poly.pow.self_s": (own("poly.pow"), "s"),
            "poly.add.self_s": (own("poly.add"), "s"),
            "poly.form_gcd.calls": (calls("poly.form_gcd"), "count"),
            "poly.form_gcd.s": (total("poly.form_gcd"), "s"),
            "poly.exact_div.calls": (calls("poly.exact_div"), "count"),
            "poly.exact_div.self_s": (own("poly.exact_div"), "s"),
            "poly.parse_form.self_s": (own("poly.parse_form"), "s"),
            "apolarity.catalecticant.calls": (calls("apolarity.catalecticant"), "count"),
            "apolarity.catalecticant.self_s": (own("apolarity.catalecticant"), "s"),
            "apolarity.catalecticant.nonzeros": (c["apolarity.catalecticant.nonzeros"], "count"),
            "apolarity.catalecticant.cells": (c["apolarity.catalecticant.cells"], "count"),
            "apolarity.hilbert_function.calls": (hf_calls, "count"),
            "apolarity.hilbert_function.s": (total("apolarity.hilbert_function"), "s"),
            "apolarity.hilbert_function.distinct_frac": (
                len(self.forms_seen) / hf_calls if hf_calls else 0.0, "ratio"),
            "linalg.rank.qq.calls": (calls("linalg.rank.qq"), "count"),
            "linalg.rank.qq.self_s": (own("linalg.rank.qq"), "s"),
            "linalg.rank.gf.calls": (calls("linalg.rank.gf"), "count"),
            "linalg.rank.gf.self_s": (own("linalg.rank.gf"), "s"),
            "linalg.rank.cells": (c["linalg.rank.cells"], "count"),
            "restriction.restrict_mod.calls": (calls("restriction.restrict_mod"), "count"),
            "restriction.restrict_mod.self_s": (own("restriction.restrict_mod"), "s"),
            "restriction.trials": (c["restriction.trials"], "count"),
            "restriction.witnesses": (c["restriction.witnesses"], "count"),
            "search.results": (results, "count"),
            "search.hf_per_result": (
                c["search.portfolio_hf"] / results if results else 0.0, "hf/result"),
            "cache.load_table.calls": (calls("cache.load_table"), "count"),
            "cache.load_table.s": (total("cache.load_table"), "s"),
            "cache.entries_verified": (c["cache.entries_verified"], "count"),
            "cache.entries_dropped": (c["cache.entries_dropped"], "count"),
            "cache.merge_store.calls": (calls("cache.merge_store"), "count"),
            "cache.merge_store.self_s": (own("cache.merge_store"), "s"),
            "cache.bytes_written": (c["cache.bytes_written"], "bytes"),
            "cli.run.calls": (calls("cli.run"), "count"),
        }
        for name in LAYERS:
            out[f"{name}.self_s"] = (layer[name], "s")
        return out

    def write_jsonl(self, path):
        """One line per recorded span, per span name and per counter."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, span, start, end in self.spans:
                fh.write(json.dumps({"span": span, "id": sid, "parent": parent,
                                     "start": start, "end": end}) + "\n")
            for span, (n, secs, self_s) in sorted(self.stats.items()):
                fh.write(json.dumps({"stat": span, "calls": n, "s": secs,
                                     "self_s": self_s}) + "\n")
            for name, value in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": name, "value": value}) + "\n")
