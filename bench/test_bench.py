"""Tests of the benchmark's own checks, and short runs of every workload.

Each check is shown to reject a corrupted output.  Run from the repository
root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks as K  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def agqc():
    sys.path.insert(0, str(run.SRC))
    return run.import_agqc()


@pytest.fixture
def workdir():
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "test-work"
    path.mkdir(exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def job_named(workload, name):
    return next(j for j in workload.jobs if j.name == name)


def test_target_times_phase_gate_is_rejected():
    target = K.chain_closed_form([0.0, 0.7, 1.9])
    assert K.unitary_problems("u", np.exp(0.3j) * target, target, 1e-10) == []
    phase_gate = np.diag([1.0, np.exp(1j * math.pi / 4)])
    assert K.unitary_problems("u", phase_gate @ target, target, 1e-2)


def test_chain_job_rejects_phase_gated_reference(agqc, workdir):
    job = job_named(jobs.chain_verify(agqc, 5, workdir), "chain3-stepwise")
    out = job.run()
    assert job.check(out) == []
    out["mbqc"] = np.diag([1.0, np.exp(1j * math.pi / 4)]) @ out["mbqc"]
    assert job.check(out)


def test_gap_shifted_by_1e6_is_rejected():
    rows = [{"s": i / 10, "gap": K.commuting_gap(i / 10)} for i in range(11)]
    assert K.commuting_gap_problems(rows) == []
    rows[5]["gap"] += 1e-6
    assert K.commuting_gap_problems(rows)


def test_gapscan_and_second_site_jobs_reject_shifted_gap(agqc, workdir):
    workload = jobs.reorder_spectra(agqc, 5, workdir)
    scan = job_named(workload, "gapscan-chain6")
    rc, out, err = scan.run()
    assert scan.check((rc, out, err)) == []
    header, *rows = out.splitlines()
    cells = rows[7].split(",")
    gap_col = header.split(",").index("gap")
    cells[gap_col] = repr(float(cells[gap_col]) + 1e-6)
    rows[7] = ",".join(cells)
    assert scan.check((rc, "\n".join([header, *rows]), err))

    second = job_named(workload, "second-site-scan")
    gaps = second.run()
    assert second.check(gaps) == []
    gaps[2][4] += 1e-6
    assert second.check(gaps)


def test_gflow_with_a_dropped_correcting_set_is_rejected(agqc, workdir):
    graph, gf = K.cluster(3, 4), K.column_gflow(3, 4)
    assert K.gflow_problems(graph, gf) == []
    g, layer = gf
    dropped = {v: c for v, c in g.items() if v != 4}
    assert K.gflow_problems(graph, (dropped, layer))
    emptied = {**g, 4: frozenset()}
    assert K.gflow_problems(graph, (emptied, layer))

    find = job_named(jobs.symbolic_compile(agqc, 5, workdir), "gflow-find-cluster5x6")
    rc, out, err = find.run()
    assert find.check((rc, out, err)) == []
    doc = json.loads(out)
    del doc["g"][sorted(doc["g"])[0]]
    assert find.check((rc, json.dumps(doc), err))


def test_bounds_row_with_wrong_tau_is_rejected(agqc, workdir):
    job = job_named(jobs.symbolic_compile(agqc, 5, workdir), "bounds-layered-zigzag8-r2")
    rc, out, err = job.run()
    assert job.check((rc, out, err)) == []
    lines = out.strip().splitlines()
    cells = lines[2].split(",")
    cells[-1] = repr(float(cells[-1]) * 1.01)
    lines[2] = ",".join(cells)
    assert job.check((rc, "\n".join(lines), err))


def test_frustration_report_is_checked():
    steps = K.replacement_steps(K.chain(4), K.chain_gflow(4), [[2], [0], [1]])
    assert [K.frustrated(s) for s in steps] == [True, True, False]
    report = {"feasible": False, "steps": [
        {"frustrated": True, "protected": True},
        {"frustrated": True, "protected": False},
        {"frustrated": False, "protected": True},
    ]}
    assert K.report_problems(steps, report) == []
    report["steps"][2]["frustrated"] = True
    assert K.report_problems(steps, report)


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=BENCH.parent,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_has_no_failed_operation(workload):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["chain-verify", "symbolic-compile"])
def test_traced_run_attributes_time_to_layers(workload):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = {k: m["value"] for k, m in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    if workload == "symbolic-compile":
        assert all(v == 0 for k, v in metrics.items() if k.startswith("sim.") and k.endswith(".calls"))
        assert metrics["cli.main.calls"] > 0 and metrics["pauli.commutes.calls"] > 0
    else:
        busy = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert metrics["sim.evolve.self_s"] > 0.5 * busy


def test_run_without_sources_fails_without_a_result():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "chain-verify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
