#!/usr/bin/env python3
"""ballwalk benchmark: paper-level drivers timed end to end and per layer.

    python3 bench/run.py --workload {spectral,counting,mixing,sampler} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The workload runs as a closed loop in this
one process until S seconds of iterations are measured; every
iteration's results are checked against independent oracles outside the
timed region. --trace 0 reports the end-to-end metrics, --trace 1 spends
half the time untraced and half traced and reports the per-layer metrics.
`sampler` is not declared in BENCHMARK.json: it fails its checks until the
d=1 sampler bias is fixed.
Human-readable lines come first; the last line of standard output is one
JSON object. The full record (and, when traced, the spans) goes to
bench/out/. README.md explains the workloads and the metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
READY = "ready"


def _pin_threads():
    """One BLAS/OpenMP thread, so a run occupies one CPU whatever the
    machine's core count, and other jobs on a shared box disturb it less."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program():
    src = ROOT / "src"
    if not (src / "ballwalk" / "analysis.py").is_file():
        sys.exit(f"bench: no ballwalk sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import workloads

    return workloads


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("spectral", "counting", "mixing", "sampler"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print a ready line and exit (timed by the parent)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure_setup(args):
    """Wall time from launching a fresh interpreter until it reports the
    workload's inputs ready: interpreter start, imports and set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        except BaseException:
            proc.kill()  # leaving the with block then waits for it
            raise
    if line != READY or code != 0:
        raise RuntimeError(f"set-up child failed (exit {code}, said {line!r})")
    return t1 - t0


class Loop:
    """Closed loop: the next iteration starts when the previous one (and
    its correctness check) has ended."""

    def __init__(self, wl, inputs, marker=None):
        self.wl = wl
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # call -> detail of its first failure
        self.marker = marker
        self.fastest = {}  # segment count -> fastest time of each segment
        self.cut = {}  # segment count -> iterations cut into that many
        self.layout = {}  # segment count -> [(segment, work key)] of keyed calls
        self.best = {}  # work key -> fastest call with that key
        self.first_rss_mb = None  # peak resident memory after the first iteration

    def run(self, seconds, on_iteration=None, between=None):
        """Iterate until `seconds` of iterations have run; returns the wall
        times of the iterations that completed and their stage times.
        `between(spent)` runs after each iteration and its check."""
        times, stages = [], {}
        spent = 0.0
        i = 0
        while spent < seconds:
            if on_iteration:
                on_iteration(i)
            if self.marker:
                self.marker.reset()
            t0 = time.perf_counter()
            try:
                res, st = self.wl.iterate(self.inputs)
            except Exception as exc:  # a raising driver call fails its iteration
                traceback.print_exc()
                self.attempted += self.wl.calls_per_iteration
                self.failed += self.wl.calls_per_iteration
                self.failures.setdefault("iteration", f"raised {exc!r}")
                res = None
            dt = time.perf_counter() - t0
            spent += dt
            i += 1
            if on_iteration:
                on_iteration(-1)  # the checks below are not part of an iteration
            if res is None:
                continue
            times.append(dt)
            if self.first_rss_mb is None:
                # later iterations add only allocator fragmentation, which
                # differs from run to run
                self.first_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if self.marker:
                self._fold(t0, t0 + dt)
            for name, v in st.items():
                stages.setdefault(name, []).append(v)
            checks = self.wl.check(self.inputs, res)
            self.attempted += len(checks)
            for c in checks:
                if not c.ok:
                    self.failed += 1
                    self.failures.setdefault(c.call, c.detail)
            if between:
                between(spent)
        return times, stages

    def _fold(self, t0, t1):
        """Cut the iteration at the marker's stamps and keep each segment's
        fastest time over the iterations, and each keyed call's fastest
        time over every call with the same work key."""
        import numpy as np

        stamps = np.frombuffer(self.marker.stamps, dtype=float)
        seg = np.diff(np.concatenate(([t0], stamps, [t1])))
        if seg.size in self.fastest:
            np.minimum(self.fastest[seg.size], seg, out=self.fastest[seg.size])
        else:
            self.fastest[seg.size] = seg
            # seg[i + 1] runs from stamp i, a keyed call's entry, to its exit
            self.layout[seg.size] = [(i + 1, (name, key))
                                     for i, name, key in self.marker.keyed]
        self.cut[seg.size] = self.cut.get(seg.size, 0) + 1
        for i, name, key in self.marker.keyed:
            self.best[name, key] = min(self.best.get((name, key), np.inf), seg[i + 1])

    def floor(self):
        """The iteration's time with each segment at its fastest, over the
        iterations cut into the most common number of segments (all of
        them when the work repeats exactly); returns (floor, segments,
        iterations used)."""
        size = max(self.cut, key=self.cut.get)
        fastest = self.fastest[size].copy()
        for i, key in self.layout[size]:
            fastest[i] = self.best[key]
        return float(fastest.sum()), size, self.cut[size]


def tail(times):
    """Highest percentile with at least ten samples beyond it, or None."""
    xs = sorted(times)
    r = len(xs) - 11
    if r < 0:
        return None
    return xs[r], 100.0 * r / (len(xs) - 1)


def end_to_end(args, wl, inputs):
    """The declared end-to-end metrics, and the lines and record that
    also carry the workload's stage times, the median, the tail and the
    failure share."""
    from spans import Marker

    setup = []

    def between(spent):
        # set-up children spread over the run, so that their median sees
        # the same contention as the iterations
        while len(setup) < SETUP_REPEATS * min(spent / args.seconds, 1.0):
            setup.append(measure_setup(args))

    marker = Marker(wl.marks, getattr(wl, "same_work", None))
    marker.install()
    try:
        loop = Loop(wl, inputs, marker)
        times, stages = loop.run(args.seconds, between=between)
    finally:
        marker.uninstall()
    between(args.seconds)
    if not times:
        sys.exit("bench: every iteration raised")
    floor, segments, used = loop.floor()
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "report_floor_s": (floor, "s"),
        "peak_rss_mb": (loop.first_rss_mb, "MB"),
    }
    extra = {"report_s": (statistics.median(times), "s"), "report_min_s": (min(times), "s")}
    for name, v in stages.items():
        extra[name] = (statistics.median(v), "1/s" if name.endswith("per_s") else "s")
    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in {**e2e, **extra}.items()]
    lines.append(f"report_floor_s: {segments} segments cut at {', '.join(wl.marks)}, "
                 f"fastest of {used} of {len(times)} iterations each; "
                 f"{len(loop.best)} pools of calls that do the same work")
    t = tail(times)
    if t:
        extra["report_s_tail"] = (t[0], "s")
        lines.append(f"report_s_tail = {t[0]:.6g} s at p{t[1]:.0f} of n={len(times)} iterations")
    else:
        lines.append(f"report_s_tail = n/a: {len(times)} iterations, needs 11 for ten beyond")
    extra["failed_frac"] = (loop.failed / loop.attempted, "1")
    lines.append(f"failed_frac = {loop.failed / loop.attempted:.6g} "
                 f"({loop.failed} of {loop.attempted} checked driver calls)")
    record = {
        "setup_samples_s": setup, "iteration_s": times, "stages_s": stages,
        "report_s_tail_percentile": t[1] if t else None,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    return loop, e2e, lines, record


def per_layer(args, wl, inputs):
    """Half the run untraced, half traced; the per-layer metrics come from
    the traced half and trace.overhead_s from the difference."""
    from spans import Tracer

    half = args.seconds / 2.0
    loop = Loop(wl, inputs)
    plain, _ = loop.run(half)
    tracer = Tracer()
    tracer.install()
    try:
        def mark(i):
            tracer.current_iteration = i

        traced, _ = loop.run(half, on_iteration=mark)
    finally:
        tracer.uninstall()
    if not plain or not traced:
        sys.exit("bench: every iteration raised")
    layers = layer_metrics(tracer, inputs)
    layers["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans_{args.workload}_seed{args.seed}.npz"
    tracer.save(spans)
    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in layers.items()]
    lines.append(f"spans: {len(tracer.start)} written to {spans.relative_to(ROOT)}")
    record = {"untraced_iteration_s": plain, "traced_iteration_s": traced}
    return loop, layers, lines, record


def layer_metrics(tracer, inputs):
    """Per-iteration medians of self time, and per-iteration counts."""
    import numpy as np

    s = tracer.arrays()
    names = tracer.names
    keep = s["iteration"] >= 0
    iters = np.unique(s["iteration"][keep])
    nid = {n: i for i, n in enumerate(names)}
    parent_name = np.where(s["parent"] >= 0, s["name"][np.maximum(s["parent"], 0)], -1)

    def per_iter(mask, values):
        mask = mask & keep
        return [float(np.sum(values[mask & (s["iteration"] == it)])) for it in iters]

    def is_(name):
        return s["name"] == nid.get(name, -2)

    def self_s(name):
        return statistics.median(per_iter(is_(name), s["self"]))

    def count(mask, values=None):
        vals = per_iter(mask, np.ones(s["self"].size) if values is None else values)
        if len(set(vals)) != 1:
            print(f"bench: count differs between iterations: {vals}", file=sys.stderr)
        return statistics.median(vals)

    # spans with a top_k span among their ancestors, for matvecs per top_k call
    top_id = nid.get("eigensolve.top_k", -2)
    under_top = np.zeros(s["parent"].size, dtype=bool)
    cur = s["parent"].copy()
    while np.any(cur >= 0):
        live = cur >= 0
        under_top[live] |= s["name"][cur[live]] == top_id
        cur[live] = s["parent"][cur[live]]
    matvec = np.isin(s["name"], [nid.get(f"operators.matvec.{k}", -2)
                                 for k in ("banded", "multiplier")])

    m = {}
    top_calls = count(is_("eigensolve.top_k"))
    m["eigensolve.top_k.calls"] = (top_calls, "count")
    m["eigensolve.top_k.self_s"] = (self_s("eigensolve.top_k"), "s")
    mv = count(matvec & under_top)
    m["eigensolve.top_k.matvecs_per_call"] = (mv / top_calls if top_calls else 0.0, "count")
    m["eigensolve.bottom_k.self_s"] = (self_s("eigensolve.bottom_k"), "s")
    m["eigensolve.count_in_interval.calls"] = (count(is_("eigensolve.count_in_interval")), "count")
    m["eigensolve.count_in_interval.self_s"] = (self_s("eigensolve.count_in_interval"), "s")
    m["eigensolve.count_in_interval.retries"] = (
        count(is_("eigensolve.count_in_interval"), s["retries"].astype(float)), "count")
    for scheme in ("multiplier", "banded"):
        name = f"operators.matvec.{scheme}"
        m[f"{name}.calls"] = (count(is_(name)), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["operators.build_conjugated.self_s"] = (self_s("operators.build_conjugated"), "s")
    m["operators.build_markov.calls"] = (count(is_("operators.build_markov")), "count")
    m["operators.build_markov.self_s"] = (self_s("operators.build_markov"), "s")
    m["walk.tv_exact_grid.calls"] = (count(is_("walk.tv_exact_grid")), "count")
    m["walk.tv_exact_grid.self_s"] = (self_s("walk.tv_exact_grid"), "s")
    m["operators.to_banded.self_s"] = (self_s("operators.to_banded"), "s")
    m["densities.ball_mass.calls"] = (count(is_("densities.ball_mass")), "count")
    m["densities.ball_mass.self_s"] = (self_s("densities.ball_mass"), "s")
    m["densities.ball_mass_grid.self_s"] = (self_s("densities.ball_mass_grid"), "s")
    m["densities.eval_density.points"] = (
        count(is_("densities.eval_density"), s["points"].astype(float)), "count")
    m["densities.eval_density.self_s"] = (self_s("densities.eval_density"), "s")
    if "walks" in inputs:  # the sampler workload only
        m["walk.simulate_paths.self_s"] = (self_s("walk.simulate_paths"), "s")
        m["walk.sample_stationary.self_s"] = (self_s("walk.sample_stationary"), "s")
        # two eval_density calls per rejection proposal, straight under simulate_paths
        in_walk = is_("densities.eval_density") & (
            parent_name == nid.get("walk.simulate_paths", -2))
        proposals = count(in_walk, s["points"].astype(float)) / 2.0
        steps = sum(c.paths * c.n_max for c in inputs["walks"])
        m["walk.sampler.proposals"] = (proposals, "count")
        m["walk.sampler.accept_ratio"] = (steps / proposals, "ratio")
    m["multiplier.eval_Gd.self_s"] = (self_s("multiplier.eval_Gd"), "s")
    m["multiplier.find_min_M.self_s"] = (self_s("multiplier.find_min_M"), "s")
    analysis_ids = [i for i, n in enumerate(names) if n.startswith("analysis.")]
    m["analysis.self_s"] = (
        statistics.median(per_iter(np.isin(s["name"], analysis_ids), s["self"])), "s")
    return m


def main(argv=None):
    args = _parse(argv)
    _pin_threads()
    workloads = _import_program()
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    if args.setup_only:
        print(READY, flush=True)
        return 0

    if args.trace:
        loop, metrics, lines, record = per_layer(args, wl, inputs)
    else:
        loop, metrics, lines, record = end_to_end(args, wl, inputs)
    correct = loop.failed == 0
    for call, detail in loop.failures.items():
        lines.append(f"FAILED {call}: {detail}")
    for line in lines:
        print(f"[{args.workload}] {line}")
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record.update(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  failures=loop.failures)
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
