"""conify benchmark runner: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload degen-families --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --self-check

Run from the repository root.  The runner imports conify from ./src, makes
its inputs from --seed, times whole passes of checked jobs until --seconds
have gone by, and prints each metric by name with its unit.  Slices of a
fixed reference computation run between jobs; every reported end-to-end time
is scaled to the machine's reference speed (calibrate.py).  The last line
of standard output is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics (from one traced pass, then the untraced loop) with
--trace 1.  See perfbench/README.md for what each number means.
"""

import time

# CPU time the interpreter spent before this line: its start-up, paid once per process.
STARTUP_CPU_S = time.process_time()

import argparse
import collections
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 1
SETUP_REPEATS = 9
# Job time between two reference slices; the slices take about 5% of a run.
CALIBRATE_EVERY_S = 0.02
CONIFY_MODULES = ("exactnum", "polyring", "groebner", "degeneration", "diophantine",
                  "poisson", "numerics", "inputdoc", "catalogue", "cli", "errors")

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402  (needs BENCH_DIR on sys.path)
from calibrate import Calibrator  # noqa: E402
from tracer import PER_LAYER, PREDICTED_IDLE, Tracer  # noqa: E402

END_TO_END = [("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"),
              ("job_tail_ms", "ms"), ("correct_share", "ratio"), ("peak_rss_mb", "MB")]


def import_conify():
    """A fresh import of every conify module: cold module-level caches."""
    for name in [m for m in sys.modules if m == "conify" or m.startswith("conify.")]:
        del sys.modules[name]
    package = importlib.import_module("conify")
    mods = {name: importlib.import_module(f"conify.{name}") for name in CONIFY_MODULES}
    return types.SimpleNamespace(package=package, **mods)


def setup(workload_cls, seed, scratch):
    """Import conify, draw pass 0 and write its documents; return (cf, workload, jobs)."""
    cf = import_conify()
    workload = workload_cls(cf, seed, Path(tempfile.mkdtemp(dir=scratch)))
    return cf, workload, workload.make_pass(0)


# slice: how many reference slices the run had timed when the job started.
Result = collections.namedtuple("Result", "seconds ok error output unexpected label slice")


def run_pass(jobs, tracer=None, calibrator=None):
    """Run jobs in order, one at a time, with reference slices between them.

    Returns (seconds spent in jobs, [Result]); a failure is unexpected unless
    it is the error the job's known defect raises today.
    """
    clock = time.perf_counter
    results = []
    since_slice = 0.0
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.start_job(i)
        t0 = clock()
        try:
            output, ok, error = job.run(), True, None
        except workloads.WrongAnswer as exc:
            output, ok, error = f"wrong: {exc}", False, "WrongAnswer"
        except Exception as exc:  # a job boundary: record the failure and go on
            output, ok, error = f"error: {type(exc).__name__}: {exc}", False, type(exc).__name__
        seconds = clock() - t0
        results.append(Result(seconds, ok, error, output,
                              not ok and error != job.expect_error, job.label,
                              len(calibrator.slices) if calibrator is not None else 0))
        since_slice += seconds
        if calibrator is not None and since_slice >= CALIBRATE_EVERY_S:
            calibrator.measure()
            since_slice = 0.0
    return sum(r.seconds for r in results), results


def percentile(sorted_values, q):
    """Linear interpolation between closest ranks, q in [0, 100]."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def emit(line=""):
    print(line, flush=True)


def run_workload(args):
    cls = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    # One CPU for the whole run: migrations between CPUs nearly double the
    # pass-to-pass spread on a shared two-CPU machine.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        setups, speed = [], Calibrator()
        for _ in range(SETUP_REPEATS):
            speed.measure()
            at = len(speed.slices)
            t0 = time.perf_counter()
            cf, workload, jobs0 = setup(cls, args.seed, scratch)
            setups.append((time.perf_counter() - t0, at))
            speed.measure()
        unscaled_setup_s = STARTUP_CPU_S + statistics.median(t for t, _ in setups)
        setup_s = statistics.median((STARTUP_CPU_S + t) * speed.factor(at) for t, at in setups)

        emit(f"workload {cls.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
        emit(f"python {platform.python_version()}  nproc {nproc}  pinned to cpu {cpu}  jobs/pass {len(jobs0)}")
        emit(f"input_digest {digest(job.inputs for job in jobs0)}")

        tracer = None
        if args.trace:
            tracer = Tracer(cf)
            tracer.install()
            try:
                traced_wall, traced = run_pass(jobs0, tracer)
            finally:
                tracer.uninstall()

        walls, results = [], []
        p, jobs = 0, jobs0
        loop_start = time.perf_counter()
        while True:
            wall, res = run_pass(jobs, calibrator=speed)
            walls.append(wall)
            results.append(res)
            p += 1
            if p >= cls.min_passes and time.perf_counter() - loop_start >= args.seconds:
                break
            jobs = workload.make_pass(p)
        flat = [r for res in results for r in res]
        emit(f"output_digest {digest(f'{r.label}|{r.output}' for r in results[0])}")

        failed = [r for r in flat if not r.ok]
        n_failed = len(failed)
        # Correct: no wrong answer, and every error is the one a known defect
        # raises today (README, "Known defects").
        unexpected = [r for r in flat + (traced if tracer is not None else []) if r.unexpected]
        correct = not unexpected

        scaled = [r.seconds * speed.factor(r.slice) for r in flat]
        latencies = sorted(scaled)
        q = cls.tail_percentile
        beyond = sum(1 for x in latencies if x > percentile(latencies, q))
        n_ok = len(flat) - n_failed
        e2e = {
            "setup_s": setup_s,
            "jobs_per_s": n_ok / sum(scaled),
            "job_p50_ms": 1000 * statistics.median(latencies),
            "job_tail_ms": 1000 * percentile(latencies, q),
            "correct_share": n_ok / len(flat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        emit(f"passes {len(walls)}  jobs {len(flat)}  in jobs {sum(walls):.3f} s  "
             f"median pass {statistics.median(walls):.3f} s  (measured, not scaled)")
        emit(f"speed factor {sum(scaled) / sum(walls):.4f} from {len(speed.slices)} reference slices "
             f"(median {1000 * statistics.median(speed.slices):.2f} ms); "
             f"unscaled setup_s {unscaled_setup_s:.6g}, "
             f"unscaled jobs_per_s {n_ok / sum(walls):.6g}")
        for name, unit in END_TO_END:
            emit(f"  {name:<14} {e2e[name]:.6g} {unit}")
        emit(f"  job_tail_ms is p{q}, {beyond} jobs beyond it")
        emit(f"  failed_share {n_failed / len(flat):.6g} ratio ({n_failed} of {len(flat)} jobs)")
        by_kind = collections.defaultdict(list)
        for r in flat:
            by_kind[r.label].append(r.seconds)
        for label, times in sorted(by_kind.items(), key=lambda item: -sum(item[1])):
            times.sort()
            emit(f"  kind {label:<16} {len(times):5d} jobs  p50 {1000 * percentile(times, 50):9.3f} ms"
                 f"  max {1000 * times[-1]:9.3f} ms  share of loop {sum(times) / sum(walls):.3f}")
        for r in unexpected[:5]:
            emit(f"  unexpected failure ({r.label}): {r.output[:300]}")

        if tracer is not None:
            untraced_wall = walls[0]
            metrics = tracer.metrics(traced_wall - untraced_wall, untraced_wall, cls.name)
            violations = tracer.separation_violations(cls.name)
            correct = correct and not violations
            trace_path = OUT_DIR / f"trace-{cls.name}-seed{args.seed}.json"
            tracer.write(trace_path, metrics)
            emit(f"traced pass {traced_wall:.3f} s, untraced {untraced_wall:.3f} s, "
                 f"overhead {traced_wall - untraced_wall:.3f} s; spans written to {trace_path.relative_to(ROOT)}")
            idle = ", ".join(PREDICTED_IDLE[cls.name]) or "none"
            emit(f"predicted idle layers: {idle}; violations: {', '.join(violations) or 'none'}")
            for name, unit in PER_LAYER:
                emit(f"  {name:<56} {metrics[name]:.6g} {unit}")
            out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
        else:
            out_metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

        print(json.dumps({"correct": correct, "attempted": len(flat), "failed": n_failed,
                          "metrics": out_metrics}), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def child(argv):
    """Run this script on one workload in its own process and return its stdout."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())] + argv,
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def field(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(key + " "):
            return line.split()[1]
    raise KeyError(key)


def run_all(args):
    summary = []
    for name in workloads.WORKLOADS:
        out = child(["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)])
        sys.stdout.write(out)
        summary.append((name, json.loads(out.splitlines()[-1])))
    emit()
    for name, result in summary:
        emit(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, value in result["metrics"].items():
            emit(f"  {metric:<56} {value['value']:.6g} {value['unit']}")
    return 0 if all(r["correct"] for _, r in summary) else 1


def self_check(args):
    """BENCHMARK.json names what the runner prints.  Same seed: byte-identical
    inputs and outputs.  Another seed: other inputs.  Traced runs: every layer
    the workload should not touch reads zero."""
    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from the runner's metrics")
    if [(m["name"], m["unit"]) for m in bench["per_layer"]] != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from the tracer's metrics")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the runner's")
    for name in workloads.WORKLOADS:
        base = ["--workload", name, "--seconds", "0", "--trace", "0"]
        first = child(base + ["--seed", str(args.seed)])
        again = child(base + ["--seed", str(args.seed)])
        other = child(base + ["--seed", str(args.seed + 1)])
        for key in ("input_digest", "output_digest"):
            if field(first, key) != field(again, key):
                problems.append(f"{name}: {key} differs between two runs of seed {args.seed}")
        if field(first, "input_digest") == field(other, "input_digest"):
            problems.append(f"{name}: seeds {args.seed} and {args.seed + 1} give the same inputs")
        traced = child(["--workload", name, "--seconds", "0", "--trace", "1", "--seed", str(args.seed)])
        result = json.loads(traced.splitlines()[-1])
        if result["metrics"]["trace.separation_violations"]["value"]:
            problems.append(f"{name}: a layer predicted idle was called")
        emit(f"{name}: input {field(first, 'input_digest')} output {field(first, 'output_digest')} "
             f"other-seed input {field(other, 'input_digest')} traced correct={result['correct']}")
    for problem in problems:
        emit(f"FAIL {problem}")
    emit("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "conify" / "__init__.py").is_file():
        print(f"error: conify sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
