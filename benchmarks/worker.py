"""One benchmark client: a fresh interpreter that imports the hyperwave CLI,
warms up, prints `ready`, and then runs the workload's job list pass after
pass, in process, through `hyperwave.cli.main`, until the measuring time is
spent. Started by run.py; it writes its findings to `<work>/worker.json`.

    python3 worker.py <workload> <seed> <seconds> <trace 0|1> <work dir>
        [--setup-only]
"""

import contextlib
import ctypes
import io
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads


def _run_job(cli, job, work, tr=None, job_id=None):
    """Run one job through cli.main; returns (exit code, wall seconds,
    captured output)."""
    out_dir = work / job["name"]
    cfg_path = work / f"{job['name']}.json"
    cfg_path.write_text(json.dumps(job["config"]))
    argv = [job["command"], "--config", str(cfg_path), "--out", str(out_dir)]
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = tr.job(job_id, cli.main, argv) if tr else cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, time.perf_counter() - t0, sink.getvalue()


def _run_pass(cli, job_list, work, tr=None):
    """One pass over the job list; returns (wall seconds, failures,
    per-job walls). Outputs are checked after the timed region."""
    runs = []
    t0 = time.perf_counter()
    for i, job in enumerate(job_list):
        runs.append(_run_job(cli, job, work, tr, i))
    wall = time.perf_counter() - t0
    failures = []
    for job, (code, _, log) in zip(job_list, runs):
        problems = [f"exit code {code}: {log[-2000:]}"] if code \
            else workloads.check_job(job, work / job["name"])
        if problems:
            failures.append({"job": job["name"], "problems": problems})
    return wall, failures, [w for _, w, _ in runs]


def provenance():
    """Library versions and the BLAS thread count in effect here."""
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(handle, name):
                threads = getattr(handle, name)()
                break
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def main(argv):
    workload, seed, seconds, trace, work = argv[:5]
    seed, seconds, trace, work = int(seed), float(seconds), int(trace), \
        Path(work)
    from hyperwave import cli

    for job in workloads.warmup_jobs(workload):
        code, _, log = _run_job(cli, job, work)
        if code != 0:
            print(f"warm-up job {job['command']} failed with exit code "
                  f"{code}:\n{log}", file=sys.stderr)
            return 1
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0

    job_list = workloads.jobs(workload, seed)
    plain, traced, pass_walls, failures, attempted = [], [], [], [], 0
    layers, spans = [], []
    t_start = time.perf_counter()
    while True:
        use_trace = bool(trace) and len(traced) < len(plain)
        if use_trace:
            with tracer.Tracer() as tr:
                wall, failed, walls = _run_pass(cli, job_list, work, tr)
            spans = tr.spans
            metrics = tracer.layer_metrics(spans)
            for command in cli.COMMANDS:
                metrics[f"cli.{command.replace('-', '_')}_s"] = sum(
                    w for job, w in zip(job_list, walls)
                    if job["command"] == command)
            metrics["nonlinear.picard_solve.iterates"] = sum(
                json.loads((work / job["name"] / "results.json").read_text())
                ["num_iterates"] for job in job_list
                if job["command"] == "yangmills" and not failed)
            layers.append(metrics)
            traced.append(walls)
        else:
            wall, failed, walls = _run_pass(cli, job_list, work)
            plain.append(walls)
        pass_walls.append(wall)
        attempted += len(job_list)
        failures.extend(failed)
        # stop before a pass that would overrun the measuring time
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(pass_walls) > seconds \
                and (traced or not trace):
            break

    result = {
        "job_s": plain,
        "traced_job_s": traced,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "layers": {k: statistics.median(m[k] for m in layers)
                   for k in (layers[0] if layers else {})},
        "jobs": job_list,
        "provenance": provenance(),
    }
    if spans:
        result["spans"] = [s.as_list() for s in spans]
    (work / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
