"""Benchmark of bipminor: three closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload closure-cold --seed 1 --seconds 35 --trace 0

Run from the repository root.  One process runs one workload,
single-threaded: the next query starts when the previous one returns.  The
fixed query set of a workload is a pass.  Passes repeat for ``--seconds``:
the first pass always completes, and after it no query starts that its
last sample says would end past the deadline.  Each query reports the
median of its samples.  Queries that raise, and queries whose output
fails a check in ``checks.py`` or differs between passes, count as failed.

Times in the JSON are at nominal machine speed (``calibrate.py``): a
frozen reference kernel runs from a timer signal every ``TICK_S`` while
the passes run, and each sample, less the ticks inside it, is scaled by
the kernel's speed during it.  The raw times are printed above the JSON.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and then traced passes, and prints the per-layer
metrics of ``tracing.py``; the spans of the first traced pass go to
``perfbench/out/``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
SETUP_UNITS = 40
# The reference kernel runs TICK_UNITS units every TICK_S seconds.
TICK_S = 0.1
TICK_UNITS = 2

# A fresh process that imports the package and builds the inputs, then
# prints the wall clock (process start to the first query) and the time
# of one reference unit right after.
SETUP_PROBE = (
    "import sys, time\n"
    f"sys.path.insert(0, {str(HERE)!r})\n"
    "import workloads\n"
    "workloads.build_inputs(sys.argv[1], int(sys.argv[2]))\n"
    "end = time.time()\n"
    "import calibrate\n"
    f"print(repr(end), repr(calibrate.unit_seconds({SETUP_UNITS})))\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh processes of start to inputs built: raw, and at
    nominal speed."""
    raw, nominal = [], []
    for _ in range(SETUP_PROBES):
        start = time.time()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        end, unit_s = map(float, out.stdout.split())
        raw.append(end - start)
        nominal.append(calibrate.to_nominal(end - start, unit_s))
    return statistics.median(raw), statistics.median(nominal)


class Run:
    """Samples, first-pass results and failures of one workload run."""

    def __init__(self, workload, queries) -> None:
        self.workload = workload
        self.queries = queries
        self.samples: list[list[float]] = [[] for _ in queries]
        self.nominal: list[list[float]] = [[] for _ in queries]
        # Untraced samples: (query index, start, end).
        self.spans: list[tuple[int, float, float]] = []
        self.results: list = [None] * len(queries)
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def fail(self, what: str) -> None:
        if not self.failed:
            print(f"first failure: {what}", file=sys.stderr)
        self.failed += 1

    def one_pass(self, deadline: float | None, tracer=None) -> bool:
        """Run the queries in order; True if all of them ran.  With a
        ``deadline``, stop before a query whose last sample says it would
        end past it."""
        lib = None
        for i, q in enumerate(self.queries):
            if deadline is not None and self.samples[i] and (
                time.perf_counter() + self.samples[i][-1] > deadline
            ):
                self.passes += i > 0
                return False
            if lib is None or self.workload.import_per_query:
                lib = None  # let the old package go before importing again
                lib = workloads.fresh_import()
                if tracer is not None:
                    tracer.install(lib)
            self.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = workloads.run_query(lib, q)
                else:
                    result = tracer.run_query(workloads.run_query, lib, q)
            except Exception:
                self.fail(f"{q.label}\n{traceback.format_exc()}")
                continue
            if tracer is None:
                end = time.perf_counter()
                self.samples[i].append(end - start)
                self.spans.append((i, start, end))
            if self.results[i] is None:
                self.results[i] = result
            elif result != self.results[i]:
                self.fail(f"{q.label}: output differs from the first pass")
        self.passes += 1
        return True

    def scale(self, ticker: calibrate.Ticker) -> None:
        """Fill ``nominal``: each sample less its ticks, at nominal speed;
        ``samples`` then hold the same net times, raw."""
        self.samples = [[] for _ in self.queries]
        for i, start, end in self.spans:
            spent, unit_s = ticker.inside(start, end)
            self.samples[i].append(end - start - spent)
            self.nominal[i].append(calibrate.to_nominal(end - start - spent, unit_s))

    def per_query(self, nominal: bool = True) -> list[float]:
        return [statistics.median(s) for s in (self.nominal if nominal else self.samples) if s]

    def check(self) -> None:
        import checks  # networkx loads only now, outside the measured peak RSS

        done = [(q, r) for q, r in zip(self.queries, self.results) if r is not None]
        qs, rs = [q for q, _ in done], [r for _, r in done]
        name = self.workload.name
        if name == "closure-cold":
            bad = checks.check_closure_cold(qs, rs)
        elif name == "block-restriction":
            bad = checks.check_block_restriction(qs, rs)
        else:
            bad = checks.check_decide_mix(qs, rs, workloads.fresh_import())
        bad = set(bad)
        for q in qs:
            if q.label in bad:
                self.fail(f"{q.label}: check failed")


def end_to_end(run: Run, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """The JSON's metrics; times at nominal speed."""
    medians = run.per_query()
    wall = sum(medians)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "queries_per_s": len(medians) / wall,
        "peak_rss_mb": peak_rss_mb,
    }


def report_extras(run: Run, wall: float) -> None:
    """Metrics that exist on some workloads only, printed by name and unit
    next to the JSON (which carries the metrics every workload has)."""
    medians = run.per_query()
    ordered = sorted(medians)
    n = len(ordered)
    print(f"query_p50_ms {1000 * statistics.median(medians):.4f} ms ({n} queries)")
    if n >= 20:
        k = n - 11  # the highest rank with at least ten samples beyond it
        print(f"query_tail_ms {1000 * ordered[k]:.4f} ms (p{100 * (k + 1) / n:.1f} of {n} queries)")
    if run.workload.name == "decide-mix":
        per_rel: dict[str, float] = {}
        for q, s in zip(run.queries, run.nominal):
            if s:
                per_rel[q.args[0]] = per_rel.get(q.args[0], 0.0) + statistics.median(s)
        for rel, key in (("bipartite_minor", "bipartite_minor_s"), ("minor", "minor_s"),
                         ("subgraph", "subgraph_s")):
            print(f"{key} {per_rel.get(rel, 0.0):.4f} s")
    else:
        members = sum(
            len(r["closure"]) if isinstance(r, dict) else len(r)
            for r in run.results if r is not None
        )
        print(f"closure_members_per_s {members / wall:.2f} 1/s ({members} members per pass)")


def traced(run: Run, seconds: float, spans_path: Path) -> dict[str, float]:
    """One untraced pass, then traced passes until ``seconds`` have gone by."""
    start = time.perf_counter()
    run.one_pass(None)
    untraced_wall = sum(s[-1] for s in run.samples if s)
    counts, times = [], []
    first_tracer = None
    while not counts or time.perf_counter() - start < seconds:
        tracer = tracing.Tracer()
        run.one_pass(None, tracer)
        counts.append(tracer.counts())
        times.append(tracer.times())
        if first_tracer is None:
            first_tracer = tracer
    if any(c != counts[0] for c in counts):
        run.fail("count-type layer metrics differ between traced passes")
    first_tracer.write(spans_path)
    metrics = {k: float(v) for k, v in counts[0].items()}
    for key in times[0]:
        metrics[key] = float(statistics.median(t[key] for t in times))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    print(f"traced passes {len(times)}; untraced wall {untraced_wall:.4f} s")
    share = metrics["canonical.canonical_form.self_s"] / metrics["trace.wall_s"]
    print(f"canonical.canonical_form.self_s share of traced wall_s: {share:.3f}")
    return metrics


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "canonical.calls_per_member":
        return "ratio"
    return "count"


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["closure-cold", "block-restriction", "decide-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # The searches run under their default size cap.
    os.environ.pop("BIPMINOR_SIZE_CAP", None)

    try:
        workloads.fresh_import()
    except (OSError, ImportError) as exc:
        print(f"error: cannot import bipminor: {exc}", file=sys.stderr)
        return 2

    print(f"python {platform.python_version()}; nproc {len(os.sched_getaffinity(0))}; "
          f"commit {commit()}")
    print(f"workload {args.workload}; seed {args.seed}; seconds {args.seconds:g}; "
          f"trace {args.trace}")
    queries = workloads.build_inputs(args.workload, args.seed)
    run = Run(workloads.WORKLOADS[args.workload], queries)

    if args.trace:
        spans_path = HERE / "out" / f"{args.workload}-seed{args.seed}.spans.json"
        metrics = traced(run, args.seconds, spans_path)
        units = {k: unit(k) for k in metrics}
    else:
        raw_setup_s, setup_s = setup_seconds(args.workload, args.seed)
        with calibrate.Ticker(TICK_S, TICK_UNITS) as ticker:
            deadline = time.perf_counter() + args.seconds
            run.one_pass(None)
            while run.one_pass(deadline):
                pass
        run.scale(ticker)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(run, setup_s, peak_rss_mb)
        units = END_TO_END_UNITS
        report_extras(run, metrics["wall_s"])
        print(f"raw_setup_s {raw_setup_s:.4f} s; raw_wall_s {sum(run.per_query(False)):.4f} s")
        print(f"reference unit {statistics.median(t[2] for t in ticker.ticks) * 1000:.3f} ms "
              f"median over {len(ticker.ticks)} ticks "
              f"(nominal {calibrate.NOMINAL_UNIT_S * 1000:g} ms)")
    run.check()

    counts = [len(s) for s in run.samples]
    print(f"passes {run.passes}; samples per query {min(counts)}..{max(counts)}; "
          f"queries per pass {len(queries)}")
    print(f"failed_frac {run.failed / max(run.attempted, 1):.4f} "
          f"({run.failed} of {run.attempted})")
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
