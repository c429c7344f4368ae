"""isores benchmark: seeded CLI workloads, checked against references.

Run from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload scan-numeric --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each task is one in-process ``isores.cli.main(argv)`` call with ``--out``
in a scratch directory, run in a closed loop from one thread: a task starts
when the previous one returns.  Tasks run in passes of a fixed mix
(``workloads.py``); a run makes as many passes as take about --seconds at
the reference CPU speed (at least one), so the task count does not depend
on the machine's speed.  Times are scaled to that speed (``speed.py``).
Every task's output is checked against a reference computed in
``oracles.py``.

--trace 0 reports the end-to-end metrics; --trace 1 runs one pass untraced
and then the same pass again with per-layer tracing (``tracing.py``) and
reports the per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Spans and a full
record, including library versions, nproc and the source commit, go to
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import os

# One thread for numpy's BLAS, set before numpy is imported.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True     # keep the benchmark directory free of caches

from speed import timed            # noqa: E402  (after the flag above)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("scan-numeric", "scan-piecewise", "forced-run", "shoot")
SETUP_RUNS = 5

# Known defects that a task is expected to show: (workload, task) ->
# (description, symptom test on exit code and parsed stdout, None when the
# output is not JSON).  The miss still counts as a failed task; it keeps
# `correct` true only while the symptom matches.
KNOWN_DEFECTS = {
    ("scan-numeric", 0): ("ROADMAP item 2: r = 0 false negative (psi at r = 0 uses "
                          "the linearization instead of the r -> 0+ limit)",
                          lambda rc, out: rc == 2 and out is not None
                          and out.get("argmin_r") == 0.0),
    ("shoot", 1): ("seed_from_phi_zero seeds at angle -theta* but the orbit of the "
                   "Phi zero theta* sits at +theta*; Newton leaves the domain",
                   lambda rc, out: rc == 1 and out is None),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup():
    """Median set-up time of fresh interpreters (setup_child.py); one
    unmeasured run first writes the bytecode caches a user's installation
    would already have.  Returns (scaled, raw) seconds."""
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, str(HERE / "setup_child.py"), str(SRC)],
                              cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True)
        if done.returncode != 0:
            fail(f"set-up interpreter failed: {done.stderr}")
        if i:
            raw_s, scaled_s = map(float, done.stdout.split())
            raw.append(raw_s)
            scaled.append(scaled_s)
    return statistics.median(scaled), statistics.median(raw)


def source_commit():
    """Commit of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Runner:
    """Runs tasks through the CLI and checks each one right after it."""

    def __init__(self, workload, scratch):
        import oracles
        self.workload = workload
        self.scratch = scratch
        self.check = {"scan-numeric": oracles.check_scan_asymmetric,
                      "scan-piecewise": oracles.check_scan_pinney_piecewise,
                      "forced-run": oracles.check_forced,
                      "shoot": oracles.check_periodic}[workload]
        self.records = []
        self.probe_inside = True

    def run(self, task, main):
        out_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        argv = [*task.argv, "--out", str(out_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        outcome = {"rc": None, "error": ""}

        def call():
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    outcome["rc"] = main(argv)
            except SystemExit as exc:       # argparse rejected the arguments
                outcome["error"] = f"exit {exc.code}: {stderr.getvalue().strip()}"
            except Exception as exc:        # the program raised: a failed task
                outcome["error"] = f"raised {exc!r}"

        _, raw_s, elapsed = timed(call, self.probe_inside)
        rc, error = outcome["rc"], outcome["error"]
        files = {p.name: p.read_text() for p in out_dir.iterdir()}
        shutil.rmtree(out_dir)

        ok, err, known, iterations, out = False, 0.0, None, None, None
        if not error:
            try:
                out = json.loads(stdout.getvalue())
            except ValueError:
                error = f"exit {rc}, no JSON result: {stderr.getvalue().strip()}"
            if out is not None:
                try:
                    iterations = out.get("iterations")
                    ok, err, error = self.check(task.ref, rc, out, files)
                except (KeyError, ValueError, IndexError, TypeError, AttributeError) as exc:
                    error = f"exit {rc}, output not checkable: {exc!r}"
        defect = KNOWN_DEFECTS.get((self.workload, task.index))
        if not ok and defect and defect[1](rc, out):
            known = defect[0]
        record = {"task": task.index, "label": task.label, "seconds": elapsed, "raw_s": raw_s,
                  "rc": rc, "ok": ok, "err": err, "message": error, "known_defect": known,
                  "iterations": iterations}
        self.records.append(record)
        return record


def pass_of(stream, n):
    return [next(stream) for _ in range(n)]


def run_pass(runner, tasks, main, tracer=None):
    """(scaled, raw) seconds spent in the pass's CLI calls."""
    scaled = raw = 0.0
    for task in tasks:
        if tracer is not None:
            tracer.task = task.index
        record = runner.run(task, main)
        scaled += record["seconds"]
        raw += record["raw_s"]
    return scaled, raw


def summarize_failures(workload, records):
    """(correct, failed) plus one printed line per missed task."""
    failed = [r for r in records if not r["ok"]]
    for r in failed:
        tag = "known defect: " + r["known_defect"] if r["known_defect"] else "UNEXPECTED"
        print(f"  miss task {r['task']} [{r['label']}]: {r['message']}  ({tag})")
    unexpected = [r for r in failed if not r["known_defect"]]
    return not unexpected, len(failed)


def source_digest():
    """sha256 over the paths and bytes of src/**/*.py: identifies the code
    measured when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "commit": source_commit(), "src_sha256": source_digest(),
            "platform": platform.platform()}


def run_workload(workload, seed, seconds, trace):
    if not (SRC / "isores" / "__init__.py").is_file():
        fail(f"no isores sources at {SRC}; run from the root of a source checkout")
    setup = None if trace else measure_setup()

    sys.path.insert(0, str(SRC))
    import isores.cli
    if Path(isores.cli.__file__).resolve().parent.parent != SRC.resolve():
        fail(f"imported isores from {isores.cli.__file__}, not from {SRC}")
    import workloads

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT)
    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    try:
        runner = Runner(workload, scratch)
        stream = workloads.tasks(workload, seed)
        n = workloads.PASS_LEN[workload]
        if trace:
            metrics, extra = traced_run(workload, seed, runner, n)
        else:
            metrics, extra = untraced_run(runner, stream, n,
                                          workloads.passes(workload, seconds), setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct, failed = summarize_failures(workload, runner.records)
    attempted = len(runner.records)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    print(f"{workload} seed {seed}: {extra['shape']}, attempted {attempted}, failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:30s} {value:.6g} {units[name]}{extra.get('notes', {}).get(name, '')}")
    print(f"  {'fail_ratio':30s} {failed / attempted:.6g} ratio ({failed}/{attempted})")

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "metrics": metrics, "tasks": runner.records, **extra.get("record", {})}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def untraced_run(runner, stream, n, n_passes, setup):
    import isores.cli
    import workloads
    if runner.workload in workloads.SOLO_TASK0:
        run_pass(runner, [next(stream)], isores.cli.main)
    passes, raw_passes = [], []
    for _ in range(n_passes):
        scaled, raw = run_pass(runner, pass_of(stream, n), isores.cli.main)
        passes.append(scaled)
        raw_passes.append(raw)
    task_times = [r["seconds"] for r in runner.records]
    raw_times = [r["raw_s"] for r in runner.records]
    metrics = {"wall_s": statistics.median(passes),
               "task_p50_s": statistics.median(task_times),
               "setup_s": setup[0],
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    notes = {"wall_s": f"  (median of {len(passes)} passes of {n} tasks; "
                       f"raw {statistics.median(raw_passes):.4f} s)",
             "task_p50_s": f"  (median of n={len(task_times)} tasks; "
                           f"raw {statistics.median(raw_times):.4f} s)",
             "setup_s": f"  (median of {SETUP_RUNS} fresh interpreters; raw {setup[1]:.4f} s)"}
    return metrics, {"shape": f"{len(passes)} passes of {n} tasks", "notes": notes,
                     "record": {"pass_seconds": passes, "raw_pass_seconds": raw_passes,
                                "raw_setup_s": setup[1]}}


def traced_run(workload, seed, runner, n):
    import isores.cli
    import tracing
    import workloads

    tasks = pass_of(workloads.tasks(workload, seed), n + (workload in workloads.SOLO_TASK0))
    runner.probe_inside = False
    untraced = run_pass(runner, tasks, isores.cli.main)[0]
    first = len(runner.records)

    tracing.clear_caches()      # the traced pass starts as cold as the first
    tracer = tracing.Tracer()
    tracer.install()
    origin = perf_counter()
    try:
        traced = run_pass(runner, tasks, isores.cli.main, tracer)[0]
    finally:
        tracer.uninstall()
    caches = {name: cache.cache_info()._asdict() for name, cache in tracing.CACHES.items()}

    records = runner.records[first:]
    errs = [r["err"] for r in records]
    newton = {r["task"]: r["iterations"] for r in records if r["iterations"] is not None}
    is_scan = workload.startswith("scan")
    metrics = tracer.layer_metrics(newton, ref_err=0.0 if is_scan else max(errs),
                                   phi_err=max(errs) if is_scan else 0.0,
                                   overhead_s=traced - untraced)
    tracer.write_spans(OUT / f"{workload}-seed{seed}-spans.jsonl", origin)

    task0 = {key: tracer.total(key, 0) for key in ("integrate.n_steps", "integrate.nfev",
                                                   "autonomous.psi_solves")}
    task0.update({name: tracer.span_count(name, 0) for name in
                  ("integrate.integrate_ode", "phi.adaptive_complex_quad",
                   "dynamics.stroboscopic_map")})
    print(f"task 0 counts {json.dumps(task0, sort_keys=True)}")
    print(f"cache_info {json.dumps(caches, sort_keys=True)}")
    print(f"wall untraced {untraced:.4f} s, traced {traced:.4f} s (scaled)")
    return metrics, {"shape": f"{len(tasks)} tasks untraced, then traced",
                     "record": {"task0_counts": task0, "cache_info": caches,
                                "untraced_s": untraced, "traced_s": traced}}


def run_all(seed, seconds, trace):
    """Every workload in its own interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            fail(f"workload {workload} exited {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
