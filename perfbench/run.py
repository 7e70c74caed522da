"""Benchmark for segreg: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload register --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py and README.md): ``register`` (learned pipeline
per pair, plus ``segreg register --checkpoint``), ``train`` (end-to-end
training steps, plus ``segreg train``) and ``baselines`` (ICP and RANSAC+ICP
per pair, plus ``segreg register --baseline icp``).  Every workload is a
closed loop: one process, one operation at a time.

With ``--trace 0`` the run reports the end-to-end metrics op_s, cli_s and
setup_s (seconds at the reference speed, see SpeedReference) and
peak_rss_mb; with ``--trace 1`` it wraps segreg's public functions and
reports per-layer self time (wall seconds) and counts per pair or step.
Detail lines (every timing with median, tail percentile and sample count,
accuracy guards, per-pair diagnostics and provenance) are printed first; the
last line of stdout is the JSON result.  ``--out FILE`` also appends the full
record to FILE (JSON lines) for ``perfbench/compare.py``.
"""

import os

# pinned before numpy is imported, here and in every child interpreter
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60

# units of the per-layer metrics that are not the self time of a traced layer
COUNT_UNITS = {
    "kpconv.influence_bytes": "B",
    "kpconv.kpconv_apply_calls": "count",
    "autodiff.tape_nodes": "count",
    "matching.normalize_scores_with_slack_calls": "count",
    "matching.weighted_procrustes_calls": "count",
    "matching.n_coarse": "count",
    "matching.n_fine": "count",
    "matching.fine_per_coarse": "ratio",
    "baselines.icp_iterations": "count",
}
PROBE_METRICS = ("cli.import_s", "kpconv.kernel_disposition_s")
# span name -> metric counting its calls, or summing its EXTRA field
CALL_COUNTS = {"kpconv.kpconv_apply": "kpconv.kpconv_apply_calls",
               "matching.normalize_scores_with_slack":
                   "matching.normalize_scores_with_slack_calls",
               "matching.weighted_procrustes": "matching.weighted_procrustes_calls"}
EXTRA_SUMS = {"kpconv.conv_influence": "kpconv.influence_bytes",
              "autodiff.backward": "autodiff.tape_nodes"}


def tail_percentile(samples: list[float]):
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            ordered = sorted(samples)
            return p, ordered[min(n - 1, int(round(p / 100.0 * (n - 1))))]
    return None, None


def summarize(samples: list[float], unit: str) -> dict:
    p, value = tail_percentile(samples)
    return {"median": statistics.median(samples), "tail_pct": p, "tail": value,
            "n": len(samples), "unit": unit, "samples": samples}


def provenance(wl) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    revision = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        revision = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "git_revision": revision, "git_dirty": dirty,
        "workload": wl.name, "seed": wl.seed, "phantom_seeds": wl.seeds,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: list[str]) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "segreg.cli", *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        from workloads import CheckFailed
        raise CheckFailed(f"segreg {args[0]} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-400:]}")
    return elapsed


class SpeedReference:
    """A fixed numpy/scipy/Python computation that shares no code with segreg.

    The host's CPU speed swings by a quarter over tens of seconds, so each
    timing is reported at the reference speed: wall seconds times
    NOMINAL_S over the mean of the reference times measured just before and
    just after it.  A faster segreg lowers the scaled time as much as the wall
    time; the wall-time medians stay in the details.
    """

    NOMINAL_S = 0.1

    def __init__(self):
        import numpy as np
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.normal(size=(48, 48))
        self._p = rng.normal(size=(3000, 3))
        self._tree = cKDTree(self._p)

    def measure(self) -> float:
        np, a, p = self._np, self._a, self._p
        t0 = time.perf_counter()
        for _ in range(150):
            np.linalg.eigh((a @ a.T)[:12, :12])
            self._tree.query(p[:300], k=8)
            total = 0.0
            for x in range(300):
                total += x * 0.5
            np.sort(p[:, 0])
        return time.perf_counter() - t0

    def scale(self, wall: float, before: float, after: float) -> float:
        return wall * self.NOMINAL_S / ((before + after) / 2.0)


class Loop:
    """Closed loop over a workload's units: op, then CLI call, until time is up.

    The first pass over every unit always completes, so accuracy figures do
    not depend on machine speed.  A raised exception or failed check counts
    as a failed operation; the loop goes on with the next one.  ``op`` and
    ``cli`` return their timings, which are kept as wall seconds and at the
    reference speed.
    """

    def __init__(self, workload, seconds: float, reference: SpeedReference):
        self.wl = workload
        self.seconds = seconds
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.wall: dict[str, list[float]] = {}

    def timed(self, fn, before: float):
        """Run fn, record its timings; return the reference time after it."""
        self.attempted += 1
        try:
            timings = fn()
        except Exception:  # noqa: BLE001 - counted and reported, loop goes on
            self.failed += 1
            print(f"[{self.wl.name}] failed operation:\n{traceback.format_exc()}",
                  file=sys.stderr)
            timings = {}
        after = self.reference.measure()
        for key, value in timings.items():
            self.wall.setdefault(key, []).append(value)
            self.samples.setdefault(key, []).append(self.reference.scale(value, before, after))
        return after

    def run(self, op, cli) -> None:
        deadline = time.perf_counter() + self.seconds
        ref = self.reference.measure()
        i = 0
        while i < self.wl.units or time.perf_counter() < deadline:
            unit = i % self.wl.units
            ref = self.timed(lambda: op(i, unit), ref)
            ref = self.timed(lambda: cli(i, unit), ref)
            i += 1


def end_to_end(name: str, seed: int, seconds: float, size, work: Path):
    from workloads import WORKLOADS

    reference = SpeedReference()
    setup_wall, setup_s = [], []
    before = reference.measure()
    for r in range(size.setups):
        wl = WORKLOADS[name](seed, size, work / f"setup{r}")
        t0 = time.perf_counter()
        wl.setup()
        setup_wall.append(time.perf_counter() - t0)
        after = reference.measure()
        setup_s.append(reference.scale(setup_wall[-1], before, after))
        before = after
        if r + 1 < size.setups:
            shutil.rmtree(wl.dir)
    loop = Loop(wl, seconds, reference)

    def op(i, unit):
        timings, result = wl.run(unit)
        wl.check(unit, result)
        return timings

    def cli(i, unit):
        elapsed = run_cli(wl.cli_args(unit))
        wl.check_cli(unit)
        return {wl.cli_timing: elapsed}

    loop.run(op, cli)
    loop.samples["setup_s"], loop.wall["setup_s"] = setup_s, setup_wall
    details = {}
    for key, values in loop.samples.items():
        details[key] = summarize(values, "s")
        details[key]["wall_median"] = statistics.median(loop.wall[key])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    for metric, source in (("op_s", wl.op_timing), ("cli_s", wl.cli_timing),
                           ("setup_s", "setup_s")):
        if source not in details:
            raise RuntimeError(f"no successful sample for {source}")
        metrics[metric] = {"value": details[source]["median"], "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    return wl, loop, metrics, details


def import_probe() -> dict:
    out = subprocess.run([sys.executable, str(HERE / "import_probe.py")], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def traced(name: str, seed: int, seconds: float, size, work: Path):
    import segreg.cli

    from tracer import EXTRA, INDEX, LAYERS, NAME, PHASE, Tracer, self_times
    from workloads import WORKLOADS

    tracer = Tracer()
    wl = WORKLOADS[name](seed, size, work / "setup0")
    with tracer.installed(), tracer.root("setup"):
        wl.setup()
    probes = [import_probe() for _ in range(3)]
    loop = Loop(wl, seconds, SpeedReference())
    overhead = []
    n_ok = {"op": 0, "cli": 0}

    def op(i, unit):
        plain, result = wl.run(unit)
        wl.check(unit, result)
        with tracer.installed(), tracer.root("op", i):
            timings, result = wl.run(unit)
        wl.check(unit, result)
        n_ok["op"] += 1
        # timings are already per pair or per step
        overhead.append(sum(timings.values()) - sum(plain.values()))
        return {}

    def cli(i, unit):
        with tracer.installed(), tracer.root("cli", i), \
                contextlib.redirect_stdout(io.StringIO()):
            code = segreg.cli.main(wl.cli_args(unit))
        if code != 0:
            from workloads import CheckFailed
            raise CheckFailed(f"segreg.cli.main exited {code}")
        wl.check_cli(unit)
        n_ok["cli"] += 1
        return {}

    loop.run(op, cli)

    # (phase, span name) -> [self seconds, first-pass calls, first-pass EXTRA];
    # the first pass covers each unit once, so its counts do not depend on
    # how many repeats fit in the run
    agg: dict[tuple[str, str], list[float]] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        row = agg.setdefault((span[PHASE], span[NAME]), [0.0, 0, 0])
        row[0] += own
        if span[INDEX] < wl.units:
            row[1] += 1
            row[2] += span[EXTRA] or 0
    steps = wl.steps_per_op
    per = {"op": max(n_ok["op"], 1) * steps, "cli": max(n_ok["cli"], 1), "setup": 1}
    per_first = {"op": min(max(n_ok["op"], 1), wl.units) * steps,
                 "cli": min(max(n_ok["cli"], 1), wl.units), "setup": 1}

    metrics, sources = {}, {}
    for layer in LAYERS:
        # per op where the layer runs in the timed operation, else per CLI
        # call, else per set-up
        phase = next((p for p in ("op", "cli", "setup") if (p, layer) in agg), None)
        row = agg.get((phase, layer), [0.0, 0, 0])
        sources[layer] = phase or "-"
        metrics[f"{layer}_s"] = (row[0] / per[phase] if phase else 0.0, "s")
        if layer in CALL_COUNTS:
            metrics[CALL_COUNTS[layer]] = (row[1] / per_first[phase] if phase else 0.0, "count")
        if layer in EXTRA_SUMS:
            metric = EXTRA_SUMS[layer]
            metrics[metric] = (row[2] / per_first[phase] if phase else 0.0,
                               COUNT_UNITS[metric])
    for metric in ("matching.n_coarse", "matching.n_fine", "matching.fine_per_coarse",
                   "baselines.icp_iterations"):
        metrics[metric] = (wl.counts().get(metric, 0.0), COUNT_UNITS[metric])
    for metric, key in zip(PROBE_METRICS, ("import_s", "kernel_disposition_s")):
        metrics[metric] = (statistics.median(p[key] for p in probes), "s")
    roots = agg.get(("op", "op"), [0.0])
    metrics["trace.unattributed_s"] = (roots[0] / per["op"], "s")
    metrics["trace.overhead_s"] = (statistics.median(overhead) if overhead else 0.0, "s")
    details = {"sources": sources, "ops": n_ok["op"] * steps, "cli_calls": n_ok["cli"],
               "spans": len(tracer.spans)}
    return wl, loop, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["register", "train", "baselines"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: small phantoms, one unit, one set-up (smoke test)")
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "segreg" / "__init__.py").is_file():
        print(f"perfbench: no segreg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import SIZES

    size = SIZES[args.size]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = traced if args.trace else end_to_end
        wl, loop, metrics, details = run(args.workload, args.seed, args.seconds, size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "size": args.size,
        "provenance": provenance(wl),
        "details": details, "guards": wl.guards(),
        "diagnostics": [wl.diagnostics[u] for u in sorted(wl.diagnostics)],
        "result": {"correct": loop.failed == 0, "attempted": loop.attempted,
                   "failed": loop.failed, "metrics": metrics},
    }
    print_report(record, wl)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(record["result"]))
    return 0


def print_report(record: dict, wl) -> None:
    res = record["result"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"failed {res['failed']}/{res['attempted']} operations")
    print("# provenance " + json.dumps(record["provenance"]))
    if record["trace"]:
        sources = record["details"]["sources"]
        for name, m in res["metrics"].items():
            source = sources.get(name[:-2], "") if name.endswith("_s") else ""
            print(f"{name:48s} {m['value']:.6g} {m['unit']}  {source}")
    else:
        alias = {"op_s": wl.op_timing, "cli_s": wl.cli_timing}
        for name, m in res["metrics"].items():
            print(f"{name:12s} {m['value']:.6g} {m['unit']}  ({alias.get(name, name)})")
        for name, s in record["details"].items():
            tail = (f"p{s['tail_pct']:g} {s['tail']:.6g}" if s["tail_pct"] is not None
                    else "no tail (n<20)")
            print(f"  {name:16s} median {s['median']:.6g} {s['unit']}  {tail}  n={s['n']}"
                  f"  (wall median {s['wall_median']:.6g} s)")
    for key, value in record["guards"].items():
        print(f"guard {key} = {value!r}")
    for row in record["diagnostics"]:
        print("diagnostic " + json.dumps(row))


if __name__ == "__main__":
    sys.exit(main())
