"""hyperwave benchmark entry point.

    python3 benchmarks/run.py --workload {spectrum,scan,trajectory}
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout. It byte-compiles `src/`, then
measures set-up several times in fresh interpreters (`import hyperwave.cli`
plus a warm-up, see worker.py) and runs the workload as a closed loop with
one client: a single worker process executes the job list pass after pass
for `--seconds`, checking every job's output. With `--trace 1` the worker
alternates plain and traced passes and the per-layer metrics are reported
instead of the end-to-end ones.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is the run's provenance. Both are also kept, with the
raw pass times and, when traced, the spans, under `.bench_out/`.
"""

import argparse
import compileall
import gzip
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3           # fresh interpreters timed per run, median reported
# One BLAS thread (nproc is the ceiling): a single client on a shared 2-core
# box measured steadier and no slower than with two threads.
BLAS_THREADS = 1
DEADLINE_S = 170.0       # the whole run ends within this, or fails


class BenchError(Exception):
    pass


def _nproc():
    return len(os.sched_getaffinity(0))


def _git_sha():
    """HEAD of a git checkout, or None outside one (no git process)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _worker_env(blas_threads):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


class Worker:
    """A worker process; `ready_s` is the time from spawn to `ready`."""

    def __init__(self, args, env, work, deadline, setup_only):
        argv = [sys.executable, str(HERE / "worker.py"), args.workload,
                str(args.seed), str(args.seconds), str(args.trace),
                str(work)] + (["--setup-only"] if setup_only else [])
        self.log = work / "worker.log"
        self.deadline = deadline
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(argv, cwd=HERE, env=env,
                                         stdout=subprocess.PIPE, stderr=log)
        try:
            line = self._readline()
            self.ready_s = time.perf_counter() - t0
            if line.strip() != b"ready":
                self.finish()
                raise BenchError("worker stopped before it was ready")
        except BaseException:
            self.stop()
            raise

    def _remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left

    def _readline(self):
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    self._remaining())
        if not ready:
            raise BenchError("worker did not get ready in time")
        return self.proc.stdout.readline()

    def finish(self):
        try:
            self.proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not finish in time") from None
        finally:
            self.stop()
        if self.proc.returncode != 0:
            tail = self.log.read_text(errors="replace")[-4000:]
            raise BenchError(f"worker exited with {self.proc.returncode}:\n"
                             f"{tail}")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def measure(args, work, deadline):
    env = _worker_env(BLAS_THREADS)
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            w = Worker(args, env, work, deadline, setup_only=True)
            w.finish()
            setups.append(w.ready_s)
    w = Worker(args, env, work, deadline, setup_only=False)
    setups.append(w.ready_s)
    w.finish()
    out = json.loads((work / "worker.json").read_text())
    out["setup_s"] = setups
    return out


def pass_time(job_walls):
    """Mean wall time of a pass. The shared host switches between a fast
    and a slow speed for tens of seconds at a time; the mean follows the
    share of time spent in each, where a median or a minimum jumps
    between them, and it spread least from run to run."""
    return statistics.fmean(sum(walls) for walls in job_walls)


def metrics_of(out, failed, trace):
    if trace:
        layers = dict(out["layers"])
        # each traced pass follows a plain one: pairing them cancels most
        # of the host's drift in speed
        layers["trace_overhead_s"] = statistics.median(
            sum(t) - sum(p)
            for p, t in zip(out["job_s"], out["traced_job_s"]))
        units = {k: ("count" if k.endswith((".calls", ".roots", ".iterates"))
                     else "ratio" if k.endswith("_per_root") else "s")
                 for k in layers}
        return {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    return {
        "pass_s": {"value": pass_time(out["job_s"]), "unit": "s"},
        "setup_s": {"value": statistics.median(out["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        "ok_share": {"value": 1.0 - failed / out["attempted"],
                     "unit": "share"},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "hyperwave" / "cli.py").is_file():
        print(f"no hyperwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        print("byte-compiling src/ failed", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        out = measure(args, work, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(out["failures"])
    result = {"correct": failed == 0, "attempted": out["attempted"],
              "failed": failed,
              "metrics": metrics_of(out, failed, args.trace)}
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "nproc": _nproc(), **out["provenance"],
    }
    record = dict(provenance=provenance, result=result,
                  **{k: out[k] for k in ("job_s", "traced_job_s",
                                          "setup_s", "failures", "jobs")})
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if "spans" in out:
        with gzip.open(out_dir / f"{stem}.spans.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job",
                                  "size"], "spans": out["spans"]}, fh)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
