#!/usr/bin/env python3
"""Benchmark of the apolar CLI: seeded workloads, end-to-end metrics, per-layer trace.

Run from the root of the repository:

    python3 perfbench/run.py --workload realize --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every call goes through ``apolar.cli.run`` in this process, on one thread,
with stdout captured and ``--cache`` pointing at a fresh file under
``perfbench/_work``, which is removed on exit.  A pass runs the workload's
whole argument list on a fresh import of apolar, so no call sees state left by
an earlier call with the same arguments.  Passes repeat while another one fits
in ``--seconds`` (at least one runs).  Each pass gives its summed call time
and Harrell-Davis estimates of its median call latency and of the latency at
the highest percentile with ten calls above it; the run reports the median
over passes of each.  ``setup_s`` is the median of seven set-ups, each a
fresh import of apolar plus generating the argument lists.  ``peak_rss_mb``
is the peak of the whole process so far.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs two passes,
each call traced in one of them and untraced in the other; it checks that
both print the same bytes and reports the per-layer metrics, the untraced
time per subcommand, and ``trace.overhead_frac``.  The spans go to
``perfbench/out/trace-<workload>-<seed>.jsonl``.

Outputs are checked after the timed calls.  Human-readable lines come first;
the last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 2 means nothing could be measured.
"""

from __future__ import annotations

import os

# one thread: pin native thread pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from exact import load_oracle, parse_form_text
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "span_oracle.py"
SETUP_REPEATS = 7
TAIL_BEYOND = 10
SUBCOMMANDS = ("hf", "restrict", "check-lemmas", "search-f", "realize", "gic")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("call_p50_ms", "ms"),
              ("call_tail_ms", "ms"), ("peak_rss_mb", "MB"))


class SetupError(Exception):
    """The program under test or the oracle cannot be loaded."""


@dataclass
class Result:
    seconds: float
    code: object  # exit code, or None when the call raised
    stdout: str
    error: str = ""


def fresh_import():
    """Import apolar from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "apolar" or n.startswith("apolar.")]:
        del sys.modules[name]
    try:
        apolar = importlib.import_module("apolar")
    except ImportError as exc:
        raise SetupError(f"cannot import apolar from {SRC}: {exc}") from None
    if Path(apolar.__file__).resolve().parent != SRC / "apolar":
        raise SetupError(f"apolar was imported from {apolar.__file__}, not {SRC}")


def run_pass(calls, passdir: Path, tracer=None, traced=()) -> list:
    """Run every call once; the calls whose index is in ``traced`` run with
    the tracer installed (install and uninstall happen outside the timing)."""
    passdir.mkdir(parents=True)
    cli = sys.modules["apolar.cli"]
    clock = time.perf_counter
    results = []
    gc.collect()
    for i, call in enumerate(calls):
        argv = call.argv + ["--cache", str(passdir / call.cache)]
        out = io.StringIO()
        if i in traced:
            tracer.install()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = clock()
                try:
                    code, error = cli.run(argv), ""
                except Exception:  # a crash is a failed call, not a failed run
                    code, error = None, traceback.format_exc()
                elapsed = clock() - start
        finally:
            if i in traced:
                tracer.uninstall()
        results.append(Result(elapsed, code, out.getvalue(), error))
    return results


class Context:
    """What the checks need besides one call's output."""

    def __init__(self, calls, bodies, passdir: Path, oracle):
        self.calls = calls
        self.bodies = bodies
        self.passdir = passdir
        self.oracle = oracle
        self._hf = {}

    def hilbert(self, text: str, nvars: int, p) -> tuple:
        key = (text, nvars, p)
        if key not in self._hf:
            coeffs = parse_form_text(text, nvars, p)
            degree = sum(next(iter(coeffs))) if coeffs else 0
            self._hf[key] = self.oracle.span_hilbert(coeffs, nvars, degree, p)
        return self._hf[key]

    def table_bounds(self) -> dict:
        return {
            (c.data["e"], c.data["r"]): b["bound"]
            for c, b in zip(self.calls, self.bodies)
            if c.command == "search-f" and b is not None
        }

    def cache_reload(self, name: str) -> tuple:
        """Entries in the cache file, and how many apolar keeps on reloading."""
        path = self.passdir / name
        stored = len(json.loads(path.read_text(encoding="utf-8")))
        return stored, len(sys.modules["apolar.cache"].load_table(str(path)))


def check_outputs(workload, calls, passes, passdir: Path, oracle) -> list:
    """One failure reason (or None) per call; every pass must print the
    first pass's bytes."""
    first = passes[0]
    bodies = []
    for res in first:
        try:
            bodies.append(json.loads(res.stdout) if res.code == 0 else None)
        except ValueError:
            bodies.append(None)
    ctx = Context(calls, bodies, passdir, oracle)
    reasons = []
    for i, (call, res, body) in enumerate(zip(calls, first, bodies)):
        if res.code is None:
            reason = "raised: " + res.error.strip().splitlines()[-1]
        elif res.code != 0:
            reason = f"exit code {res.code}"
        elif body is None:
            reason = "stdout is not JSON"
        else:
            try:
                reason = workload.check(call, body, ctx)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                reason = f"malformed output: {exc!r}"
        if reason is None and any(p[i].stdout != res.stdout for p in passes[1:]):
            reason = "stdout differs between passes"
        reasons.append(reason)
    return reasons


def quantile(values, q: float, steps: int = 20000) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density.  One order
    statistic carries the whole noise of a single call; this spreads it over
    its neighbours."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    per = max(steps // n, 20)  # midpoint rule on each interval [i/n, (i+1)/n]
    weights = [
        sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm)
            for t in ((i + (k + 0.5) / per) / n for k in range(per)))
        for i in range(n)
    ]
    return sum(x * w for x, w in zip(xs, weights)) / sum(weights)


def tail_pct(n: int) -> float:
    """The highest percentile with TAIL_BEYOND calls above it."""
    return 100.0 * max(n - TAIL_BEYOND, 1) / n


def pass_stats(results, calls) -> dict:
    secs = [r.seconds for r in results]
    pct = tail_pct(len(secs))
    out = {"wall_s": sum(secs), "call_p50_ms": 1000 * quantile(secs, 0.5),
           "call_tail_ms": 1000 * quantile(secs, pct / 100), "tail_pct": pct}
    for sub in SUBCOMMANDS:
        out[sub] = sum(r.seconds for r, c in zip(results, calls) if c.command == sub)
    return out


def median_of(stats, key):
    return statistics.median(s[key] for s in stats)


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, oracle):
    workload = WORKLOADS[name]
    clock = time.perf_counter
    setups = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        fresh_import()
        calls = workload.generate(seed)
        setups.append(clock() - start)
    digest = hashlib.sha256(json.dumps([c.argv + [c.cache] for c in calls]).encode()).hexdigest()

    if trace:
        # each call runs once traced and once untraced, in two passes that
        # alternate which calls are traced, so drift in machine speed over
        # the run falls on both sides of trace.overhead_frac alike
        tracer = Tracer()
        passes = []
        for half in (0, 1):
            fresh_import()
            passes.append(run_pass(calls, workdir / f"pass-{half}", tracer,
                                   range(half, len(calls), 2)))
        plain = [passes[1 - i % 2][i] for i in range(len(calls))]
        stats = [pass_stats(plain, calls)]
    else:
        passes = []
        started = clock()
        while True:
            passes.append(run_pass(calls, workdir / f"pass-{len(passes)}"))
            elapsed = clock() - started
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
            fresh_import()
        stats = [pass_stats(p, calls) for p in passes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks_started = clock()
    reasons = check_outputs(workload, calls, passes, workdir / "pass-0", oracle)
    failed = len(passes) * sum(r is not None for r in reasons)
    attempted = len(passes) * len(calls)

    lines = [f"workload={name} seed={seed} calls={len(calls)} passes={len(passes)}"
             f"{' (each call traced in one of them)' if trace else ''} args_sha256={digest}"]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": median_of(stats, "wall_s"),
        "call_p50_ms": median_of(stats, "call_p50_ms"),
        "call_tail_ms": median_of(stats, "call_tail_ms"),
        "peak_rss_mb": peak_rss_mb,
    }
    for key, unit in END_TO_END:
        note = ""
        if key == "call_tail_ms":
            note = f"  (p{stats[0]['tail_pct']:.1f} of {len(calls)} calls per pass)"
        lines.append(f"  {key:<16}{e2e[key]:>14.6f} {unit}{note}")
    for sub in SUBCOMMANDS:
        if any(c.command == sub for c in calls):
            lines.append(f"  {sub.replace('-', '_') + '_s':<16}{median_of(stats, sub):>14.6f} s")
    lines.append(f"  {'fail_frac':<16}{failed / attempted:>14.6f} ratio"
                 f"  ({failed} of {attempted} calls)")
    lines.append(f"  checks took {clock() - checks_started:.2f} s (outside the timed calls)")
    for i, (call, reason) in enumerate(zip(calls, reasons)):
        if reason is not None:
            lines.append(f"  FAILED call {i} ({call.command}): {reason[:200]}")

    if not trace:
        metrics = {key: (e2e[key], unit) for key, unit in END_TO_END}
        return lines, attempted, failed, metrics

    traced_wall = sum(passes[i % 2][i].seconds for i in range(len(calls)))
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced_wall / stats[0]["wall_s"] - 1, "ratio")
    for sub in SUBCOMMANDS:
        metrics[f"subcommand.{sub.replace('-', '_')}_s"] = (stats[0][sub], "s")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{name}-{seed}.jsonl"
    tracer.write_jsonl(trace_path)
    layer = tracer.layer_self()
    lines.append(f"  trace: {trace_path.relative_to(ROOT)}  overhead_frac="
                 f"{metrics['trace.overhead_frac'][0]:.4f}")
    lines.append("  self time by layer: " + "  ".join(
        f"{k}={layer[k]:.3f}s" for k in sorted(LAYERS, key=layer.get, reverse=True)))
    return lines, attempted, failed, metrics


def machine_line() -> str:
    import numpy

    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"machine: python={platform.python_version()} numpy={numpy.__version__}"
            f" nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))}"
            f" loadavg={load} platform={platform.platform()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if not (SRC / "apolar" / "__init__.py").is_file() or not ORACLE.is_file():
        print(f"error: {SRC / 'apolar'} or {ORACLE} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workroot = HERE / "_work" / f"{os.getpid()}"
    try:
        oracle = load_oracle(ORACLE)
        print(machine_line(), flush=True)
        attempted = failed = 0
        metrics = {}
        for name in names:
            lines, a, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                          workroot / name, oracle)
            print("\n".join(lines), flush=True)
            attempted += a
            failed += f
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in m.items()})
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.parent.rmdir()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
