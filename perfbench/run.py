"""finlap benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload torus-kz --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload torus-kz --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --self-check

Run it from a checkout of the repository: finlap is imported from the
checkout's ``src`` directory and never from an installed copy, so without
``src`` the benchmark exits with an error.

Each workload (see ``workloads.py``) runs as a closed loop with one client
in this process: a job starts when the previous one has ended, and jobs
start until ``--seconds`` have passed.  Job ``i`` of a run makes its
inputs from ``(seed, i)``; job 0 is the discarded warm-up.  Every job's
output is checked.  A job fails when it raises or when its check rejects
the output; ``correct`` is false only in the second case, when finlap
returned a wrong answer instead of an error.

With ``--trace 0`` the run reports, with tracing off:

* ``job_s``: mean seconds per job at the reference host speed.  The run
  times the fixed computation of ``reference.py`` (in a child process)
  before every job and once after the last, and scales the mean wall
  seconds per job by ``reference.NOMINAL_S`` over the reference's mean
  time in this run.
  The host's speed drifts by up to 1.6 times over minutes, and wall
  seconds spread across runs by more than the benchmark's bounds; the
  scale removes the drift that the jobs and the reference share.  The
  gated figure is a mean, not a median, because under that drift job
  times form a few separate clusters, and a median jumps from one to the
  next as their shares change;
* ``setup_s``: seconds this process takes, from the start of ``main``, to
  get ready to measure: importing numpy, scipy and finlap, making the
  inputs and running the warm-up job; scaled like ``job_s``;
* ``peak_rss_mb``: peak resident memory of this process.

The unscaled wall seconds are printed beside them: the mean, median and
highest percentile with at least ten jobs beyond it, and the set-up time.
It also prints ``fail_share`` (failed over attempted, as in the result
line), the errors by type, and on torus-kz ``eig_rel_err``.

With ``--trace 1`` the run checks the tracer on one
``operator_coefficients`` call, runs half the time untraced and half
traced on the same inputs, and reports the per-layer metrics of
``tracer.py`` together with the tracing overhead.  The spans go to
``.perfbench-out/`` in the checkout.

``--self-check`` checks the tracer, that two traced runs of every workload
give identical counts, and that no file outside the benchmark's own files
differs from the last commit, untracked files included.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170
# the only files the benchmark may add or change; ISSUE.md and REVIEW.md
# hold the task and its review
OWN_FILES = ("BENCHMARK.json", "CHANGES.md", ".gitignore", "ISSUE.md", "REVIEW.md")
OWN_DIRS = ("perfbench/",)
END_TO_END = [("job_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    if not args.self_check and not args.workload:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_finlap():
    """Import finlap from the checkout's src; exit with an error when it is not there."""
    sys.path.insert(0, SRC)
    try:
        import finlap
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import finlap from {SRC}: {exc}")
    if not os.path.abspath(finlap.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: finlap imported from {finlap.__file__}, not from {SRC}")


def run_child(args):
    """Run this script with ``args`` in a fresh interpreter; its result line."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)] + args, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git(*args):
    """``git -C ROOT <args>`` output, or None outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout if proc.returncode == 0 else None


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": (git("rev-parse", "HEAD") or "").strip() or None,
    }


@dataclass
class Job:
    """Outcome of one job: wall seconds of the timed part, the error it
    raised or the check's verdict."""

    seconds: float
    error: Optional[Exception] = None
    verdict: Optional[object] = None

    @property
    def wrong(self):
        return self.error is None and not self.verdict.ok


def run_job(workload, seed, index, workdir):
    from workloads import Verdict, job_rng

    inputs = workload.inputs(job_rng(seed, index))
    t0 = time.perf_counter()
    try:
        output = workload.execute(inputs, workdir)
    except Exception as exc:  # a failing job is counted, and the run goes on
        return Job(time.perf_counter() - t0, error=exc)
    seconds = time.perf_counter() - t0
    try:
        verdict = workload.check(inputs, output)
    except Exception as exc:  # an output the check cannot read is a wrong output
        verdict = Verdict(False, f"check raised {type(exc).__name__}: {exc}")
    return Job(seconds, verdict=verdict)


def closed_loop(workload, seed, seconds, workdir, before_job=None):
    """Jobs 1, 2, ... one after another until ``seconds`` have passed."""
    jobs = []
    t_end = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < t_end:
        if before_job:
            before_job()
        jobs.append(run_job(workload, seed, len(jobs) + 1, workdir))
    return jobs


def report_jobs(jobs):
    """Print fail share, errors and wrong outputs; (failed, correct)."""
    errors = {}
    for job in jobs:
        if job.error is not None:
            e = errors.setdefault(type(job.error).__name__, {"count": 0, "first": str(job.error)})
            e["count"] += 1
    wrong = [job.verdict.detail for job in jobs if job.wrong]
    failed = sum(job.error is not None for job in jobs) + len(wrong)
    print(f"fail_share   = {failed / len(jobs)!r}  ({failed} of {len(jobs)} jobs failed)")
    print(f"errors       = {json.dumps(errors)}")
    if wrong:
        print(f"wrong output = {json.dumps(wrong[:3])}")
    return failed, not wrong


def print_result(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def job_quantiles(seconds):
    """The median wall seconds per job and the highest percentile with at
    least ten jobs beyond it, as text."""
    text = f"median {statistics.median(seconds)!r} s"
    tail = int(100 * (1 - 10 / len(seconds)))
    if tail > 50:
        text += f", p{tail} {statistics.quantiles(seconds, n=100)[tail - 1]!r} s"
    return text


def measure_end_to_end(args, workload, setup_s, workdir):
    from reference import Reference

    with Reference() as ref:
        jobs = closed_loop(workload, args.seed, args.seconds, workdir, before_job=ref.run)
        ref.run()
    scale = ref.scale()
    seconds = [job.seconds for job in jobs]
    values = {
        "job_s": statistics.fmean(seconds) * scale,
        "setup_s": setup_s * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = dict(END_TO_END)
    notes = {"job_s": f"mean of {len(jobs)} jobs, scaled by {scale!r}; unscaled mean "
                      f"{statistics.fmean(seconds)!r} s, {job_quantiles(seconds)}",
             "setup_s": f"this process, scaled; unscaled {setup_s!r} s"}
    for name, value in values.items():
        print(f"{name:<12} = {value!r} {units[name]}  ({notes.get(name, 'this process')})")
    failed, correct = report_jobs(jobs)
    errs = [job.verdict.eig_rel_err for job in jobs if job.error is None]
    if any(errs):   # torus-kz: nonzero eigenvalues against torus_spectrum
        print(f"eig_rel_err  = {max(errs)!r}  (largest over {len(errs)} jobs)")
    print_result(correct, len(jobs), failed,
                 {name: {"value": values[name], "unit": units[name]} for name in values})


def measure_layers(args, workload, workdir, env):
    import tracer

    structure_ok, structure = tracer.structure_check()
    print(f"tracer self-check: {'PASS' if structure_ok else 'FAIL'} - {structure}")
    half = args.seconds / 2.0
    untraced = closed_loop(workload, args.seed, half, workdir)
    t = tracer.Tracer()
    t.install()
    try:
        traced = closed_loop(workload, args.seed, half, workdir, before_job=t.begin_job)
    finally:
        t.uninstall()
    values = tracer.layer_metrics(t, statistics.fmean(j.seconds for j in untraced),
                                  statistics.fmean(j.seconds for j in traced))
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    t.write(spans_path, env)
    print(f"traced {len(traced)} jobs after {len(untraced)} untraced; counts from the "
          f"first traced job, self_s as medians per job; spans in {spans_path}")
    metrics = {}
    for name, unit, _ in tracer.per_layer_metrics():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:<42} = {values[name]!r} {unit}")
    jobs = untraced + traced
    failed, correct = report_jobs(jobs)
    print_result(correct and structure_ok, len(jobs), failed, metrics)


def changed_files():
    """Files that differ from HEAD, staged, unstaged or untracked; None
    outside a git checkout."""
    status = git("status", "--porcelain", "-uall", "--no-renames")
    if status is None:
        return None
    return sorted(line[3:] for line in status.splitlines())


def self_check():
    """Tracer structure, repeatable counts, and no diff outside the benchmark."""
    import tracer
    from workloads import WORKLOADS

    results = [("operator_coefficients structure", *tracer.structure_check())]
    for name in WORKLOADS:
        counts = []
        for _ in range(2):
            res = run_child(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", "1"])
            counts.append({k: m["value"] for k, m in res["metrics"].items() if m["unit"] != "s"})
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        results.append((f"{name}: two traced runs give identical counts", not diff,
                        f"differing: {diff}" if diff else f"{len(counts[0])} counts equal"))
    changed = changed_files()
    if changed is None:
        print("changed-files check skipped: not a git checkout")
    else:
        outside = [p for p in changed if p not in OWN_FILES and not p.startswith(OWN_DIRS)]
        results.append(("no file changed or added outside the benchmark", not outside,
                        f"outside: {outside}" if outside else f"{len(changed)} own files changed"))
    for what, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {what} - {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


def main():
    args = parse_args()
    for var in BLAS_VARS:
        os.environ[var] = "1"
    t_start = time.perf_counter()
    import_finlap()
    if args.self_check:
        return self_check()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        run_job(workload, args.seed, 0, workdir)    # warm-up, discarded
        setup_s = time.perf_counter() - t_start
        env = environment(args.seed)
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"env {json.dumps(env)}")
        if args.trace:
            measure_layers(args, workload, workdir, env)
        else:
            measure_end_to_end(args, workload, setup_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
