"""Tests of the benchmark's own code. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("spectral.find_sigma_v", 1.0, 6.0, 0, 0, size=2),
        Span("spectral.build_u1", 2.0, 3.0, 1, 0),
        Span("spectral.build_u1", 4.0, 4.5, 1, 0),
        Span("core_types.make_grid", 7.0, 8.0, 0, 0),
        Span("spectral.build_u1", 8.5, 9.0, 0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx(
        [10.0 - 5.0 - 1.0 - 0.5, 5.0 - 1.5, 1.0, 0.5, 1.0, 0.5])
    m = tracer.layer_metrics(spans)
    assert m["spectral.build_u1.calls"] == 3
    assert m["spectral.build_u1.busy_s"] == pytest.approx(2.0)
    assert m["spectral.self_s"] == pytest.approx(3.5 + 2.0)
    assert m["cli.self_s"] == pytest.approx(3.5)
    assert m["core_types.self_s"] == pytest.approx(1.0)
    assert m["nonlinear.self_s"] == 0.0
    # two build_u1 calls ran under find_sigma_v, which returned two roots
    assert m["spectral.find_sigma_v.roots"] == 2
    assert m["spectral.build_u1_per_root"] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a.f", 0.0, 4.0, None, 0),
             Span("a.g", 1.0, 3.0, 0, 0),
             Span("a.h", 2.0, 5.0, 0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_busy_time_counts_reentrant_calls_once():
    spans = [Span("evolution.evolve", 0.0, 4.0, None, 0),
             Span("evolution.evolve", 1.0, 2.0, 0, 0)]
    m = tracer.layer_metrics(spans)
    assert m["evolution.evolve.calls"] == 2
    assert m["evolution.evolve.busy_s"] == pytest.approx(4.0)
    assert m["evolution.evolve.self_s"] == pytest.approx(4.0)


def test_wrapped_functions_return_identical_values():
    import hyperwave as hw
    from hyperwave import cli, core_types, spectral

    grid = hw.make_grid(32)
    state = hw.EnergyState.from_callables(grid, lambda y: y ** 3,
                                          lambda y: 0.5 * y)
    V = hw.Potential.constant(-1.0)

    def compute():
        return (hw.energy_norm(state), core_types.lq_norm(state.u, 6),
                spectral.build_u1(V, 0.3 + 1.0j).u1_at_zero,
                hw.make_grid(16).nodes,
                hw.EnsembleSpec(2, 3, seed=5).fields(grid)[1].state.stacked())

    plain = compute()
    orig = core_types.energy_norm
    with tracer.Tracer() as tr:
        assert cli.energy_norm is not orig
        assert hw.energy_norm is cli.energy_norm
        traced = compute()
    assert cli.energy_norm is orig and core_types.energy_norm is orig
    assert plain[:3] == traced[:3]
    assert np.array_equal(plain[3], traced[3])
    assert np.array_equal(plain[4], traced[4])
    assert [s.name for s in tr.spans if s.parent is None] == [
        "core_types.energy_norm", "core_types.lq_norm",
        "spectral.build_u1", "core_types.make_grid",
        "strichartz_harness.EnsembleSpec.fields"]


def test_checker_flags_doctored_results(tmp_path):
    job = workloads.jobs("spectrum", 0)[0]
    good = {"num_roots": 1, "roots": [
        {"re": 1.0 + 1e-12, "im": 0.0, "multiplicity": 1, "nilpotency": 0,
         "residual": 1e-16}]}
    (tmp_path / "results.json").write_text(json.dumps(good))
    assert workloads.check_job(job, tmp_path) == []

    doctored = json.loads(json.dumps(good))
    doctored["roots"][0]["re"] = 1.0 + 1e-6
    (tmp_path / "results.json").write_text(json.dumps(doctored))
    assert workloads.check_job(job, tmp_path)

    (tmp_path / "results.json").write_text("{not json")
    assert workloads.check_job(job, tmp_path)


@pytest.mark.parametrize("workload, index, results", [
    ("spectrum", 3, {"max_rel_diff": 2e-7, "max_identity_defect": 1e-7}),
    ("scan", 0, {"max_ratio": {"2,4": 1.5},
                 "refinement": {"2,4": {"grid_doubled": 0.2}}}),
    ("scan", 1, {"max_ratio": {"2,4": float("inf")},
                 "refinement": {"2,4": {"grid_doubled": 0.0}}}),
    ("trajectory", 1, {"converged": False, "ratios": [1e-6, 1e-6],
                       "fixed_point_residual": 0.0,
                       "picard_vs_direct_linf_l6": 0.0}),
    ("trajectory", 2, {"discrepancy": 1e-7, "contraction_factor": 8.0}),
])
def test_checker_flags_gate_violations(tmp_path, workload, index, results):
    job = workloads.jobs(workload, 0)[index]
    (tmp_path / "results.json").write_text(json.dumps(results))
    assert workloads.check_job(job, tmp_path)


def test_checker_flags_rising_energy(tmp_path):
    job = workloads.jobs("trajectory", 0)[0]
    n = job["check"]["num_slices"]
    energies = np.linspace(1.0, 0.5, n)
    res = {"num_slices": n, "initial_energy": 1.0, "max_energy": 1.0}
    (tmp_path / "results.json").write_text(json.dumps(res))

    def write_series(values):
        rows = "".join(f"{i},{e:.15g},0,0,0\n" for i, e in enumerate(values))
        (tmp_path / "series.csv").write_text("s,energy,l2,l6,sup\n" + rows)

    write_series(energies)
    assert workloads.check_job(job, tmp_path) == []
    energies[n // 2] = 2.0
    write_series(energies)
    assert workloads.check_job(job, tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_jobs_depend_only_on_seed(workload):
    assert workloads.jobs(workload, 3) == workloads.jobs(workload, 3)
    assert workloads.jobs(workload, 3) != workloads.jobs(workload, 4)


def test_warmup_jobs_pass_through_the_cli(tmp_path):
    from hyperwave import cli

    for workload in workloads.WORKLOADS:
        for job in workloads.warmup_jobs(workload):
            cfg = tmp_path / f"{workload}_{job['name']}.json"
            cfg.write_text(json.dumps(job["config"]))
            out = tmp_path / f"{workload}_{job['name']}"
            assert cli.main([job["command"], "--config", str(cfg),
                             "--out", str(out)]) == 0
