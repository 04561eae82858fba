"""ncproj benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload proj-colimit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ncproj is imported from ./src.
One process, one thread.  Set-up (import ncproj, generate and parse the
seeded inputs) is repeated SETUP_REPS times and its median is `setup_s`.
Then whole rounds of the workload's job list run until the next round would
end past --seconds (at least one round); every output is checked against
perfbench/oracles.py.  An operation that shows the documented symptom of a
known program fault counts as failed; any other failure makes the run
incorrect.  Times are reference seconds (perfbench/calibrate.py):
wall time scaled by the machine speed sampled during the same interval.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and the metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a fixed number of
untraced and traced rounds in turn (tracing through perfbench/tracer.py)
and reports the per-layer metrics of the traced rounds together with the
tracing overhead (traced minus untraced time, in reference seconds).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from oracles import CheckFailed, KnownFault  # noqa: E402

MODULES = ["fields", "words", "rewriting", "linalg", "presentations", "homology",
           "coord_rings", "heart", "real_mult", "dsl", "cli"]
SETUP_REPS = 9


def import_ncproj():
    """A fresh import of every ncproj module from ./src."""
    for name in [n for n in sys.modules if n == "ncproj" or n.startswith("ncproj.")]:
        del sys.modules[name]
    nc = SimpleNamespace(**{m: importlib.import_module(f"ncproj.{m}") for m in MODULES})
    if not os.path.abspath(nc.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ncproj was imported from {nc.cli.__file__}, not from {SRC}")
    return nc


def setup(workload, seed, clock):
    """Import and input generation, SETUP_REPS times; returns the last.

    Collecting the previous repetitions' modules between repetitions keeps
    the peak memory of the run from depending on when the collector runs.
    """
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        mark = clock.mark()
        nc = import_ncproj()
        parsed = workload.parse(nc, workload.generate(random.Random(seed)))
        times.append(clock.since(mark))
    gc.collect()
    return nc, parsed, statistics.median(times)


class Tally:
    """Attempted/failed counts and correctness over every round of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def round(self, nc, workload, parsed, clock):
        """Run one round; returns (wall, [(job, seconds)]) as timed by clock."""
        jobs = workload.round_jobs(nc, parsed)
        results = []
        round_mark = clock.mark()
        for job in jobs:
            mark = clock.mark()
            try:
                out, ok = job.run(), True
            except Exception as e:  # a failed operation is counted, not fatal
                out, ok = e, False
            results.append((job, clock.since(mark), ok, out))
        wall = clock.since(round_mark)
        for job, _, ok, out in results:
            self.attempted += 1
            if not ok:
                # only the documented symptom of a known fault is expected
                self.failed += 1
                if not isinstance(out, KnownFault):
                    self.errors.append(f"{job.name}: unexpected failure: {out!r}")
                continue
            try:
                job.check(out)
            except CheckFailed as e:
                self.errors.append(f"{job.name}: {e}")
            except Exception:
                self.errors.append(f"{job.name}: check crashed:\n{traceback.format_exc()}")
        return wall, [(job, dt) for job, dt, _, _ in results]


def end_to_end(workload, seed, seconds, tally):
    """Set-up and whole rounds, all timed in reference seconds."""
    walls, per_field, times = [], {"Q": [], "Q(q)": []}, []
    with Calibrator() as cal:
        nc, parsed, setup_s = setup(workload, seed, cal)
        start = perf_counter()
        while True:
            t_round = perf_counter()
            wall, jobs = tally.round(nc, workload, parsed, cal)
            walls.append(wall)
            times.extend(dt for _, dt in jobs)
            for field, acc in per_field.items():
                acc.append(sum(dt for job, dt in jobs if job.field == field))
            now = perf_counter()
            if now - start + (now - t_round) > seconds:
                break
    print(f"machine speed: probe median {cal.speed_factor():.3f}x nominal over "
          f"{len(cal.samples)} probes; {len(walls)} round(s)", file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (statistics.quantiles(times, n=10)[8], "s"),
        "over_Q_s": (statistics.median(per_field["Q"]), "s"),
        "over_Qq_s": (statistics.median(per_field["Q(q)"]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(workload, seed, tally):
    """Untraced and traced rounds in turn.

    Span self times are wall seconds with the calibration probes left out;
    the overhead is in reference seconds, so the machine's drift between
    the two kinds of round does not enter it.
    """
    tr = tracing.Tracer()
    untraced = traced = 0.0
    with Calibrator() as cal:
        nc, parsed, _ = setup(workload, seed, cal)
        for _ in range(workload.trace_rounds):
            untraced += tally.round(nc, workload, parsed, cal)[0]
            tr.install({m: getattr(nc, m) for m in MODULES}, workloads)
            cal.on_probe = tr.exclude
            try:
                traced += tally.round(nc, workload, parsed, cal)[0]
            finally:
                cal.on_probe = None
                tr.uninstall()
    return tr.metrics(traced - untraced)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ncproj", "__init__.py")):
        print(f"error: no ncproj sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        metrics = per_layer(workload, args.seed, tally)
    else:
        metrics = end_to_end(workload, args.seed, args.seconds, tally)
    for line in tally.errors:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
