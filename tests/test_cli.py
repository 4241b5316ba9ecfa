import copy
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import agqc
from agqc.cli import main
from agqc.compiler import compile_reordered_fixed
from agqc.gflow import find_gflow, gflow_to_json
from agqc.graph import generate_chain, generate_cluster, generate_cnot_graph, graph_to_json


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_graph_gen_and_validate(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    assert main(["graph", "gen", "chain:4", "--out", str(gpath)]) == 0
    doc = json.loads(gpath.read_text())
    assert doc["n"] == 4 and doc["inputs"] == [1] and doc["outputs"] == [4]
    code, out = run(capsys, "graph", "validate", "--graph", str(gpath))
    assert code == 0 and json.loads(out)["ok"]


def test_graph_validate_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"n": 2, "edges": [[1,2]], "inputs": [1], "outputs": [], '
        '"angles": {"1": 0.0, "2": 0.0}}'
    )
    code, out = run(capsys, "graph", "validate", "--graph", str(bad))
    assert code == 1
    assert any("information loss" in p for p in json.loads(out)["problems"])


def test_malformed_graph_file_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "edges": [], "inputs": [], "outputs": [], "angles": {}, "zzz": 1}')
    code = main(["graph", "validate", "--graph", str(bad)])
    assert code == 2


def test_gflow_find_verify_pipeline(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    fpath = tmp_path / "f.json"
    main(["graph", "gen", "zigzag:4", "--out", str(gpath)])
    assert main(["gflow", "zigzag", "--n", "4", "--r", "2", "--out", str(fpath)]) == 0
    code, out = run(capsys, "gflow", "verify", "--graph", str(gpath), "--gflow", str(fpath))
    doc = json.loads(out)
    assert code == 0 and doc["valid"] and doc["depth"] == 2
    assert doc["layer_sizes"] == [2, 2]


def test_gflow_verify_invalid_is_exit_1(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    fpath = tmp_path / "f.json"
    main(["graph", "gen", "chain:3", "--out", str(gpath)])
    fpath.write_text('{"g": {"1": [1], "2": [3]}, "layer": {"1": 0, "2": 1}}')
    code, out = run(capsys, "gflow", "verify", "--graph", str(gpath), "--gflow", str(fpath))
    assert code == 1
    assert any(v["axiom"] == "G3" for v in json.loads(out)["violations"])


def test_gflow_verify_refuses_an_input_in_a_correcting_set(tmp_path, capsys):
    # compile refuses this gflow, whose g(1) holds the input 2, and so
    # does verify, with compile's detail
    gpath, fpath = tmp_path / "g.json", tmp_path / "f.json"
    gpath.write_text('{"n": 3, "edges": [[1, 2], [2, 3]], "inputs": [1, 2], "outputs": [3], '
                     '"angles": {"1": 0, "2": 0}}')
    fpath.write_text('{"g": {"1": [2], "2": [3]}, "layer": {"1": 0, "2": 1}}')
    code, out = run(capsys, "gflow", "verify", "--graph", str(gpath), "--gflow", str(fpath))
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["violations"] == [
        {"vertex": 1, "axiom": "codomain", "detail": "g(1) holds input 2; inputs have no generator"}]


def test_gflow_errors_name_vertices_by_their_1_based_labels(tmp_path, capsys):
    fpath = tmp_path / "f.json"
    fpath.write_text('{"g": {"1": [3], "2": [3]}, "layer": {"1": 0, "2": 0}}')
    code, out = run(capsys, "gflow", "verify", "--graph", "chain:3", "--gflow", str(fpath))
    violations = json.loads(out)["violations"]
    assert code == 1
    assert [(v["vertex"], v["axiom"], v["detail"]) for v in violations] == [
        (1, "G2", "2 is oddly connected to g(1) but not after 1"),
        (1, "G3", "g(1) must be oddly connected to 1"),
    ]
    code, _, err = run_err(capsys, "compile", "--graph", "chain:3", "--gflow", str(fpath))
    assert code == 2
    assert err == (
        "error: gflow fails verification: G2: 2 is oddly connected to g(1) but not after 1; "
        "G3: g(1) must be oddly connected to 1\n"
    )
    code, _, err = run_err(capsys, "compile", "--graph", "chain:4", "--mode", "reorder-fixed",
                           "--order", "1,2,2")
    assert code == 2
    assert err == "error: order [1, 2, 2] is not a permutation of the non-outputs [1, 2, 3]\n"


@pytest.mark.parametrize("mode", ["reorder-fixed", "reorder-strip"])
def test_reorder_modes_need_an_order(capsys, mode):
    code, out, err = run_err(capsys, "compile", "--graph", "chain:4", "--mode", mode)
    assert (code, out, err) == (2, "", f"error: {mode} needs --order\n")


def test_gflow_find_no_flow_is_exit_1(tmp_path, capsys):
    gpath = tmp_path / "tri.json"
    gpath.write_text(
        '{"n": 3, "edges": [[1,2],[2,3],[1,3]], "inputs": [], "outputs": [], '
        '"angles": {"1": 0.0, "2": 0.0, "3": 0.0}}'
    )
    code, out = run(capsys, "gflow", "find", "--graph", str(gpath))
    assert code == 1 and not json.loads(out)["found"]


def test_compile_renders_schedule(capsys):
    code, out = run(capsys, "compile", "--graph", "chain:4", "--mode", "stepwise")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["steps"]) == 3
    assert doc["steps"][0]["removed"]["1"] == "+1 . Z1 X2 Z3"
    assert doc["hamiltonian_degree"] == 3


def test_gapscan_matches_formula(capsys):
    code, out = run(
        capsys, "gapscan", "--graph", "chain:5", "--step", "1", "--s-grid", "11", "--levels", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,s,E0,E1,E2,gap,gap_above_degenerate,degeneracy"
    for line in lines[1:]:
        parts = line.split(",")
        s, gap = float(parts[1]), float(parts[5])
        assert abs(gap - 2 * math.sqrt(1 - 2 * s + 2 * s * s)) < 1e-9


def test_bounds_csv(capsys):
    code, out = run(
        capsys, "bounds", "--graph", "zigzag:3", "--gflow", "zigzag:3", "--mode", "layered",
        "--delta", "1.0", "--epsilon", "0.01",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,u_size,gap_min,hdot_norm,tau_bound"
    step, u, gap_min, hdot, tau = lines[1].split(",")
    tau0 = 100.0 / 2 ** 1.5
    assert int(u) == 3
    assert float(tau) == pytest.approx(tau0 * 9)


def test_evolve_json_report(capsys):
    code, out = run(
        capsys, "evolve", "--graph", "chain:3:0,0.7", "--tau", "50", "--target", "chain"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["leakage"] < 1e-3
    assert doc["distance_to_chain_prediction"] < 1e-2
    u = np.array([[complex(re, im) for re, im in row] for row in doc["logical_unitary"]])
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-8)


def test_gapscan_header_matches_its_rows(capsys):
    # chain:3 has 2^3 = 8 levels: --levels 20 keeps all of them
    code, out = run(capsys, "gapscan", "--graph", "chain:3", "--s-grid", "2", "--levels", "20")
    header, *rows = out.strip().splitlines()
    assert code == 0 and header.split(",")[2:11] == [f"E{i}" for i in range(8)] + ["gap"]
    assert rows and all(len(r.split(",")) == len(header.split(",")) for r in rows)


@pytest.mark.parametrize("option", [["--levels", "0"], ["--levels", "-2"], ["--levels", "-" + "9" * 400],
                                    ["--step", "0"], ["--step", "-1"], ["--step", "3"],
                                    ["--step", "9"], ["--step", "9" * 400]])
def test_gapscan_rejects_levels_and_steps_out_of_range(capsys, option):
    code, out, err = run_err(capsys, "gapscan", "--graph", "chain:3", "--s-grid", "2", *option)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and option[0] in err
    assert len(err) < 200


def test_long_graph_spec_is_clipped_in_its_error_line(capsys):
    for spec in ("chain:" + "1" * 5000, "chain:3:" + "x" * 5000, "cluster:" + "x" * 5000,
                 "nosuch:" + "x" * 5000, "chain:3:" + "\u00e9" * 5000, "\udcff" * 5000):
        code, out, err = run_err(capsys, "graph", "validate", "--graph", spec)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 200


def test_evolve_report_lists_each_step_method(capsys):
    code, out = run(capsys, "evolve", "--graph", "chain:3:0,0.7", "--tau", "50")
    assert code == 0
    assert json.loads(out)["propagation"] == [
        {"step": 1, "method": "pair", "n_sub": 200, "dim": 2, "distinct": 1},
        {"step": 2, "method": "pair", "n_sub": 200, "dim": 2, "distinct": 1},
    ]
    code, out = run(
        capsys, "evolve", "--graph", "chain:4", "--mode", "reorder-strip", "--order", "3,1,2", "--tau", "2"
    )
    # 8 blocks a step, with 2 or 1 traceless parts up to a Pauli conjugation
    assert [(p["method"], p["dim"], p["distinct"]) for p in json.loads(out)["propagation"]] == [
        ("blocks", 2, 2), ("blocks", 2, 1), ("blocks", 2, 1)]


_WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import agqc
for module in pkgutil.iter_modules(agqc.__path__):
    importlib.import_module("agqc." + module.name)
from agqc import cli
code = cli.main(["evolve", "--graph", "chain:3:0,0.7", "--target", "chain"])
loaded = sorted(k for k, v in sys.modules.items() if k.split(".")[0] == "scipy" and v is not None)
print(code, loaded)
"""


def test_agqc_runs_without_scipy():
    src = os.path.dirname(os.path.dirname(agqc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
    assert '"distance_to_chain_prediction"' in done.stdout


def test_reorder_fixed_reports_infeasible(capsys):
    code, out = run(
        capsys, "reorder", "--graph", "chain:4", "--order", "3,1,2", "--mode", "fixed"
    )
    doc = json.loads(out)
    assert code == 1
    assert not doc["report"]["feasible"]
    steps = doc["report"]["steps"]
    assert steps[0]["protected"] and steps[0]["protecting_product"] == [1, 3]
    assert not steps[1]["protected"]


def test_reorder_strip_with_leakage_table(tmp_path, capsys):
    csv_path = tmp_path / "leak.csv"
    code, out = run(
        capsys, "reorder", "--graph", "chain:4", "--order", "3,1,2",
        "--mode", "strip", "--tau", "100", "--leakage-csv", str(csv_path),
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["leakage"][0]["leakage"] < 1e-3
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "tau,leakage,fidelity"
    tau, leak, fid = (float(x) for x in lines[1].split(","))
    assert tau == 100.0 and leak < 1e-3 and fid > 0.999


def test_bounds_numerical_branch_for_reordered_schedule(capsys):
    # frustrated steps have no analytic form; the gap comes from a scan and
    # a closing protected-subspace gap reports an infinite bound
    code, out = run(
        capsys, "bounds", "--graph", "chain:4", "--mode", "reorder-fixed",
        "--order", "3,1,2", "--s-grid", "21",
    )
    assert code == 0
    lines = out.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-9)  # gap closes at s=1
    assert rows[0][4] == "inf"
    # the clean final step keeps the analytic sqrt(2) minimum
    assert float(rows[2][2]) == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_bounds_builds_each_block_form_once(capsys, monkeypatch):
    from agqc import sim

    calls = []
    step_blocks = sim.step_blocks

    def counted(schedule, step_index):
        calls.append(step_index)
        return step_blocks(schedule, step_index)

    monkeypatch.setattr(sim, "step_blocks", counted)
    code, out = run(
        capsys, "bounds", "--mode", "reorder-fixed", "--graph", "chain:6",
        "--order", "5,3,1,4,2", "--s-grid", "21",
    )
    # every step is frustrated, and each is split into blocks once
    assert code == 0 and len(out.strip().splitlines()) == 6
    assert calls == [0, 1, 2, 3, 4]


def test_mbqc_deterministic_output(capsys):
    _, out1 = run(capsys, "mbqc", "--graph", "chain:3:0,0.7", "--outcomes", "random", "--seed", "5")
    _, out2 = run(capsys, "mbqc", "--graph", "chain:3:0,0.7", "--outcomes", "random", "--seed", "5")
    assert out1 == out2
    doc = json.loads(out1)
    assert len(doc["output_state"]) == 2


def test_gadget_subcommand(capsys):
    code, out = run(capsys, "gadget", "--k", "3", "--lam", "0.1")
    doc = json.loads(out)
    assert code == 0
    assert doc["lambda_max"] == pytest.approx(1 / 6)
    assert main(["gadget", "--k", "1", "--lam", "0.1"]) == 2


@pytest.mark.parametrize("k, lam, code, coefficient", [
    ("200", "0.1", 0, -0.0),
    ("10", "1e100", 2, None),
    ("2", "1e300", 2, None),
    ("999999999", "0.1", 0, 0.0),
    (str(10**400), "0.1", 2, None),
])
def test_gadget_past_the_float_range(capsys, k, lam, code, coefficient):
    # a coupling below the float range is a signed zero, one above it exit 2
    assert main(["gadget", "--k", k, "--lam", lam]) == code
    captured = capsys.readouterr()
    if coefficient is None:
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and "past the float range" in captured.err
    else:
        got = json.loads(captured.out)["coefficient"]
        assert got == 0.0 and math.copysign(1.0, got) == math.copysign(1.0, coefficient)


def test_onestep_non_clifford_is_exit_2(capsys):
    code = main(["compile", "--graph", "chain:4:0,1.0,0,0", "--mode", "onestep"])
    assert code == 2


def run_err(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("points", ["1", "0", "-3"])
@pytest.mark.parametrize(
    "command",
    [
        ("gapscan", "--graph", "chain:3"),
        ("bounds", "--graph", "chain:4", "--mode", "reorder-fixed", "--order", "3,1,2"),
    ],
)
def test_s_grid_below_two_points_is_exit_2(capsys, command, points):
    code, out, err = run_err(capsys, *command, "--s-grid", points)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "--s-grid" in err


@pytest.mark.parametrize(
    "command",
    [
        ("gapscan", "--graph", "chain:3"),
        ("bounds", "--graph", "chain:4", "--mode", "reorder-fixed", "--order", "3,1,2"),
    ],
)
def test_over_budget_s_grid_is_exit_2_without_allocating(capsys, command):
    tracemalloc.start()
    try:
        code, out, err = run_err(capsys, *command, "--s-grid", "1000000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err == (
        "error: 1e+09 --s-grid points need ~6.1e+04 MiB, over the 1024 MiB memory budget\n"
    )
    assert peak < 1 << 22


def test_huge_generator_count_prints_a_short_error(capsys):
    for spec in ("chain:" + "9" * 400, "zigzag:" + "9" * 400, "cluster:2x" + "9" * 400):
        code, out, err = run_err(capsys, "graph", "validate", "--graph", spec)
        assert code == 2 and out == ""
        assert err.startswith("error: the ") and err.count("\n") == 1
        assert "memory budget" in err and "inf" not in err and len(err) < 100


@pytest.mark.parametrize(
    "graph,gflow,err",
    [
        ("chain:5", "zigzag:1",
         "g must be defined exactly on non-outputs (missing [3, 4], extra [])"),
        ("chain:3:0,0.7", '{"g": {"1": [2], "2": [3]}, "layer": {"1": 1, "2": 0}}',
         "gflow fails verification: G1: 2 in g(1) is not in the future of 1"),
        ('{"n": 3, "edges": [[1, 2], [2, 3]], "inputs": [1], "outputs": [3], '
         '"angles": {"1": 0, "2": 0.3}, "planes": {"2": "XZ"}}',
         '{"g": {"1": [2], "2": [2, 3]}, "layer": {"1": 0, "2": 1}}',
         "only XY-plane graphs compile (vertex 2 is XZ)"),
        # a valid gflow whose g(1) holds the input 2, named by its 1-based label
        ('{"n": 3, "edges": [[1, 2], [2, 3]], "inputs": [1, 2], "outputs": [3], '
         '"angles": {"1": 0, "2": 0}}',
         '{"g": {"1": [2], "2": [3]}, "layer": {"1": 0, "2": 1}}',
         "g(1) holds input 2; inputs have no generator"),
    ],
    ids=["structure", "G1", "XZ-plane", "input"],
)
def test_mbqc_checks_its_gflow_as_compile_does(tmp_path, capsys, graph, gflow, err):
    args = []
    for name, spec in (("graph", graph), ("gflow", gflow)):
        if spec.startswith("{"):
            path = tmp_path / f"{name}.json"
            path.write_text(spec)
            spec = str(path)
        args += [f"--{name}", spec]
    for command in (["compile"], ["mbqc"], ["mbqc", "--outcomes", "random", "--seed", "5"]):
        assert run_err(capsys, *command, *args) == (2, "", f"error: {err}\n")


def test_mbqc_zero_norm_input_is_exit_2(capsys):
    code, out, err = run_err(capsys, "mbqc", "--graph", "chain:3", "--input", "0,0")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "norm" in err


@pytest.mark.parametrize(
    "doc",
    [
        '{"n": true, "edges": [], "inputs": [], "outputs": [1], "angles": {}}',
        '{"n": 2, "edges": [[true, 2]], "inputs": [1], "outputs": [2], "angles": {"1": 0.0}}',
        '{"n": 2, "edges": [[1, 2]], "inputs": [true], "outputs": [2], "angles": {"1": 0.0}}',
        '{"n": 2, "edges": [[1, 2]], "inputs": [1], "outputs": [2], "angles": {"1": false}}',
        '{"n": 2, "edges": 5, "inputs": [1], "outputs": [2], "angles": {"1": 0.0}}',
        '{"n": 2, "edges": [[1, 2]], "inputs": 5, "outputs": [2], "angles": {"1": 0.0}}',
        '{"n": 2, "edges": [[1, 2]], "inputs": [1], "outputs": [2], "angles": []}',
        '{"n": 2, "edges": [[1, 2]], "inputs": [1], "outputs": [2], "angles": {"1": 0.0}, "planes": [1]}',
        '{"n": 2, "edges": [[1, 2]], "inputs": [1], "outputs": [2], "angles": {"1": Infinity}}',
        '{"n": 2, "edges": [[1, 2]], "inputs": [1], "outputs": [2], "angles": {"1": 1e400}}',
        '{"n": 1000000000000, "edges": [], "inputs": [1], "outputs": [2], "angles": {}}',
    ],
)
def test_graph_file_with_json_bool_is_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "g.json"
    path.write_text(doc)
    code, out, err = run_err(capsys, "graph", "validate", "--graph", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)
_BASE_DOCS = [
    (json.loads(graph_to_json(g)), json.loads(gflow_to_json(find_gflow(g))))
    for g in (generate_chain(3, [0.0, 0.4, 0.0]), generate_cluster(2, 2), generate_cnot_graph())
]


@st.composite
def _mutated(draw, doc):
    """``doc`` replaced by arbitrary JSON, or with up to two fields, or
    entries of a field, replaced by arbitrary JSON or deleted."""
    if draw(st.integers(0, 7)) == 0:
        return draw(_JSON)
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(doc) + ["zzz"]))
        field = doc.get(key)
        if field and isinstance(field, (dict, list)) and draw(st.booleans()):
            index = draw(st.sampled_from(sorted(field) if isinstance(field, dict) else range(len(field))))
            if draw(st.booleans()):
                del field[index]
            else:
                field[index] = draw(_JSON)
        elif draw(st.integers(0, 3)) == 0:
            doc.pop(key, None)
        else:
            doc[key] = draw(_JSON)
    return doc


@st.composite
def _graph_and_gflow_docs(draw):
    graph_doc, gflow_doc = draw(st.sampled_from(_BASE_DOCS))
    return draw(_mutated(graph_doc)), draw(_mutated(gflow_doc))


def _deep_mutation(edit):
    """The chain-3 documents of ``_BASE_DOCS`` with ``edit`` applied: a
    mutation that hypothesis's draw order might never reach."""
    graph_doc, gflow_doc = copy.deepcopy(_BASE_DOCS[0])
    edit(graph_doc, gflow_doc)
    return graph_doc, gflow_doc


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(docs=_graph_and_gflow_docs())
# a non-output angle dropped from an otherwise valid file
@example(docs=_deep_mutation(lambda g, f: g["angles"].pop("2")))
# a correcting set that lists a vertex twice
@example(docs=_deep_mutation(lambda g, f: f["g"].update({"1": [2, 2]})))
# a vertex key that is not the canonical spelling of its label
@example(docs=_deep_mutation(lambda g, f: g["angles"].update({"02": g["angles"].pop("2")})))
def test_arbitrary_graph_and_gflow_files_exit_0_1_or_2(tmp_path, capsys, docs):
    graph_doc, gflow_doc = docs
    gpath, fpath = tmp_path / "g.json", tmp_path / "f.json"
    gpath.write_text(json.dumps(graph_doc))
    fpath.write_text(json.dumps(gflow_doc))
    for argv in (["graph", "validate", "--graph", str(gpath)],
                 ["gflow", "verify", "--graph", str(gpath), "--gflow", str(fpath)],
                 ["mbqc", "--graph", str(gpath)],
                 ["compile", "--graph", "chain:3", "--gflow", str(fpath)]):
        code, out, err = run_err(capsys, *argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out == "" and err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["mbqc", "--graph", "chain:3:0,nan"],
        ["gadget", "--k", "3", "--lam", "nan"],
        ["bounds", "--graph", "chain:3", "--epsilon", "nan"],
        ["bounds", "--graph", "chain:3", "--gamma", "nan"],
        ["compile", "--graph", "chain:3", "--gamma", "nan"],
        ["evolve", "--graph", "chain:3", "--tau", "inf"],
        ["reorder", "--graph", "chain:4", "--order", "3,1,2", "--tau", "10,inf"],
        ["evolve", "--graph", "chain:3", "--tau", "1e12"],
        ["evolve", "--graph", "chain:3", "--tau", "1e308"],
        ["reorder", "--graph", "chain:4", "--order", "3,1,2", "--tau", "1e308"],
        ["reorder", "--graph", "chain:4", "--order", "3,1,2", "--tau", "10", "--gamma", "1e300"],
        ["gapscan", "--graph", "chain:3", "--gamma", "0"],
        ["evolve", "--graph", "chain:3", "--gamma", "-1"],
    ],
)
def test_non_finite_or_oversized_numbers_are_exit_2(capsys, argv):
    code, out, err = run_err(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


def test_oversized_tau_error_prints_short_counts(capsys):
    code, out, err = run_err(capsys, "evolve", "--graph", "chain:3", "--tau", "1e300")
    assert code == 2 and out == ""
    assert err == "error: 4e+300 CF4 substeps need ~1.53e+296 MiB, over the 1024 MiB memory budget\n"


def test_mbqc_input_near_the_float_limit_normalizes_without_overflow(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_err(capsys, "mbqc", "--graph", "chain:3", "--input", "1e308,1e308")
        assert code == 0 and err == ""
        assert json.loads(out)["output_state"] == [[2 ** -0.5, 0.0], [2 ** -0.5, 0.0]]
        for amps, norm in (("1e308,inf", "inf"), ("nan,1", "nan"), ("0,0j", "0.0")):
            code, out, err = run_err(capsys, "mbqc", "--graph", "chain:3", "--input", amps)
            assert code == 2 and out == ""
            assert err == f"error: input state needs a finite nonzero norm, got {norm}\n"


def test_bounds_past_the_float_range_print_no_nan(capsys):
    code, out = run(capsys, "bounds", "--graph", "chain:4", "--mode", "reorder-strip", "--order", "3,1,2",
                    "--s-grid", "5", "--epsilon", "1e308", "--c-delta", "1e308")
    assert code == 0 and "nan" not in out
    assert [row.split(",")[-1] for row in out.split()[1:]] == ["inf", "0.707106781187", "0.707106781187"]


def test_evolve_chain_target_on_non_chain_is_exit_2(capsys):
    code, out, err = run_err(capsys, "evolve", "--graph", "cnot", "--target", "chain")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "only to chains" in err


@pytest.mark.parametrize(
    "doc",
    [
        '{"g": {"1": [true], "2": [3]}, "layer": {"1": false, "2": true}}',
        '{"g": {"1": "2", "2": [3]}, "layer": {"1": 0, "2": 1}}',
        '{"g": [[2], [3]], "layer": {"1": 0, "2": 1}}',
    ],
)
def test_malformed_gflow_file_is_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "f.json"
    path.write_text(doc)
    code, out, err = run_err(capsys, "gflow", "verify", "--graph", "chain:3", "--gflow", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


def test_reorder_report_keeps_its_fields(capsys):
    code, out = run(
        capsys, "reorder", "--graph", "chain:4", "--order", "3,1,2", "--mode", "strip", "--tau", "10"
    )
    assert code == 0
    assert list(json.loads(out)) == ["order", "mode", "report", "leakage"]


@pytest.mark.parametrize(
    "argv",
    [
        ["reorder", "--graph", "chain:4", "--order", "3,1,2", "--mode", "fixed", "--tau", "10,200"],
        ["reorder", "--graph", "chain:4", "--order", "3,1,2", "--mode", "strip", "--tau", "10,200"],
        ["gapscan", "--graph", "chain:4", "--mode", "reorder-fixed", "--order", "3,1,2", "--s-grid", "11"],
        ["gapscan", "--graph", "chain:6:0,0.3,1.1,2.5,0.2,0", "--s-grid", "11"],
    ],
)
def test_simulating_commands_repeat_byte_for_byte(capsys, argv):
    first = run(capsys, *argv)
    assert first[0] in (0, 1)
    assert run(capsys, *argv) == first


def test_memory_budget_overrun_is_exit_2(monkeypatch, capsys):
    from agqc import budget

    # the 4-vertex graph itself is charged 1025 bytes; its state vectors are not
    monkeypatch.setattr(budget, "MEMORY_BUDGET", 1100)
    code = main(["reorder", "--graph", "chain:4", "--order", "3,1,2", "--mode", "strip", "--tau", "10"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "memory budget" in err and err.count("\n") == 1
    assert "state vectors" in err


def test_parser_is_built_once_and_keeps_its_messages(monkeypatch, capsys):
    from agqc import cli

    fresh = cli.build_parser
    built = []

    def counting():
        built.append(1)
        return fresh()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(2):
        assert main(["gadget", "--k", "2", "--lam", "0.1"]) == 0
    assert len(built) == 1
    capsys.readouterr()

    argv = ["gapscan", "--graph", "chain:4", "--bogus"]
    with pytest.raises(SystemExit) as cached:
        main(argv)
    cached_err = capsys.readouterr().err
    with pytest.raises(SystemExit) as rebuilt:
        fresh().parse_args(argv)
    assert cached.value.code == rebuilt.value.code == 2
    assert cached_err == capsys.readouterr().err and "--bogus" in cached_err
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv, mention",
    [
        (["bounds", "--graph", "chain:3", "--c-delta", "-inf"], "--c-delta"),
        (["compile", "--graph", "chain:3", "--gamma", "x"], "--gamma"),
        (["compile", "--graph", "chain:3", "--mode", "bogus"], "--mode"),
        (["evolve", "--tau", "3"], "--graph"),
        (["gapscan", "--graph", "chain:4", "--bogus"], "--bogus"),
        (["gapscan", "--graph", "chain:3", "--step", "9" * 5000], "--step"),
        (["evolve", "--graph", "chain:3", "--tau", "x" * 5000], "--tau"),
        (["evolve", "--graph", "chain:3", "--tau", "\u00e9" * 5000], "--tau"),
        # rejected past argparse, by messages that echo the value
        (["reorder", "--graph", "chain:4", "--order", "3,1,2", "--tau", "x" * 5000], "float"),
        (["mbqc", "--graph", "chain:3", "--outcomes", "y" * 5000], "outcome"),
        (["compile", "--graph", "chain:4", "--mode", "reorder-fixed", "--order", ",".join(["1"] * 3000)],
         "order"),
        (["compile", "--graph", "zigzag:4", "--gflow", "zigzag:" + "x" * 5000], "int()"),
        (["compile", "--graph", "chain:4", "--mode", "reorder-fixed", "--order", "3,1," + "x" * 5000],
         "int()"),
        # output paths that cannot be written; {tmp} is the test's own directory
        (["compile", "--graph", "chain:3", "--out", "{tmp}/missing/x.json"], "cannot write"),
        (["compile", "--graph", "chain:3", "--out", "{tmp}"], "cannot write"),
        (["reorder", "--graph", "chain:4", "--order", "3,1,2", "--tau", "10",
          "--leakage-csv", "{tmp}/missing/x.csv"], "cannot write"),
        (["evolve", "--graph", "chain:3", "--out", "{tmp}/" + "x" * 5000], "cannot write"),
        # '-' is stdout for both flags, and only one of them may take it
        (["reorder", "--graph", "chain:4", "--order", "1,2,3", "--tau", "10",
          "--leakage-csv", "-", "--out", "-"], "stdout"),
        (["reorder", "--graph", "chain:4", "--order", "1,2,3", "--leakage-csv", "-"], "stdout"),
    ],
)
def test_malformed_command_line_is_one_error_line(capsys, tmp_path, argv, mention):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert mention in captured.err and len(captured.err.encode()) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--graph", "chain:16", "--tau", "5", "--out", "{tmp}/missing/x.json"],
        ["evolve", "--graph", "chain:16", "--tau", "5", "--out", "{tmp}"],
        ["reorder", "--graph", "chain:4", "--order", "3,1,2", "--tau", "10",
         "--leakage-csv", "{tmp}/missing/x.csv", "--out", "{tmp}/x.json"],
        ["reorder", "--graph", "chain:4", "--order", "3,1,2", "--tau", "10",
         "--leakage-csv", "{tmp}/x.csv", "--out", "{tmp}/missing/x.json"],
    ],
)
def test_unwritable_output_is_refused_before_any_work(capsys, tmp_path, monkeypatch, argv):
    def no_work(*args):
        raise AssertionError("the graph was loaded before the output paths were checked")

    monkeypatch.setattr(agqc.cli, "_load_graph", no_work)
    code, out, err = run_err(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
    assert code == 2 and out == "" and err.startswith("error: cannot write")
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_leakage_csv_dash_writes_the_table_to_stdout(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out = run(capsys, "reorder", "--graph", "chain:4", "--order", "3,1,2", "--mode", "strip",
                    "--tau", "100", "--leakage-csv", "-", "--out", str(report))
    assert code == 0 and not (tmp_path / "-").exists()
    lines = out.splitlines()
    assert lines[0] == "tau,leakage,fidelity" and len(lines) == 2
    row = json.loads(report.read_text())["leakage"][0]
    assert lines[1] == f"{row['tau']:.12g},{row['leakage']:.12g},{row['fidelity']:.12g}"


@pytest.mark.parametrize("extra", [["--leakage-csv", "{tmp}/x.csv"], ["--tau", ""],
                                   ["--tau", "", "--leakage-csv", "{tmp}/x.csv"]])
def test_a_leakage_table_without_a_tau_is_refused_before_compiling(capsys, tmp_path, monkeypatch,
                                                                   extra):
    def no_work(*args):
        raise AssertionError("the schedule was compiled before the tau list was checked")

    monkeypatch.setattr(agqc.cli, "_compile", no_work)
    code, out, err = run_err(capsys, "reorder", "--graph", "chain:4", "--order", "1,2,3",
                             *(arg.replace("{tmp}", str(tmp_path)) for arg in extra))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "needs at least one tau" in err
    assert list(tmp_path.iterdir()) == []


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith("usage: agqc bounds") and "--c-delta" in out


def _size():
    return st.one_of(
        st.integers(-3, 8).map(str),
        st.integers(10**6, 10**40).map(str),
        st.sampled_from(["", "x", "1.5", "2e3", "0x10", " 4", "+3", "-0", "9" * 5000]),
    )


@st.composite
def _generator_specs(draw):
    kind = draw(st.sampled_from(["chain", "cluster", "zigzag"]))
    if kind == "cluster":
        return f"cluster:{draw(_size())}{draw(st.sampled_from(['x', 'X', '*']))}{draw(_size())}"
    spec = f"{kind}:{draw(_size())}"
    if kind == "chain" and draw(st.booleans()):
        spec += ":" + ",".join(draw(st.lists(st.sampled_from(["0", "0.5", "nan", "a"]), max_size=9)))
    return spec


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_generator_specs(), command=st.sampled_from(["validate", "gen"]))
def test_generator_specs_exit_0_1_or_2_without_building_large_graphs(capsys, spec, command):
    from agqc import graph as graph_mod

    built = []
    original = graph_mod.OpenGraph.__post_init__

    def recording(self):
        built.append(self.n_vertices)
        original(self)

    argv = {"validate": ["graph", "validate", "--graph", spec], "gen": ["graph", "gen", spec]}
    graph_mod.OpenGraph.__post_init__ = recording
    try:
        code, out, err = run_err(capsys, *argv[command])
    finally:
        graph_mod.OpenGraph.__post_init__ = original
    assert code in (0, 1, 2)
    assert all(n <= 128 for n in built)
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error:")


def test_generator_specs_are_charged_before_building(capsys):
    for spec in ("chain:100000", "cluster:1000x1000", "zigzag:100000", "cluster:1x200000"):
        code, out, err = run_err(capsys, "graph", "validate", "--graph", spec)
        assert code == 2 and out == ""
        assert "memory budget" in err and err.count("\n") == 1


def test_zigzag_gflow_is_charged_before_building(monkeypatch, capsys):
    from agqc import budget

    start = time.perf_counter()
    code, out, err = run_err(capsys, "gflow", "zigzag", "--n", "100000000", "--r", "1")
    assert time.perf_counter() - start < 5  # building it would take minutes and ~60 GB
    assert code == 2 and out == ""
    assert "memory budget" in err and err.count("\n") == 1
    # the zigzag:40 graph is charged 21,650 bytes, its g^1 24,320 and its g^40 99,200
    monkeypatch.setattr(budget, "MEMORY_BUDGET", 50_000)
    assert run_err(capsys, "compile", "--graph", "zigzag:40", "--gflow", "zigzag:1")[0] == 0
    code, out, err = run_err(capsys, "compile", "--graph", "zigzag:40", "--gflow", "zigzag:40")
    assert code == 2 and out == ""
    assert "correcting-set entries" in err and err.count("\n") == 1


def test_schedule_doc_renders_each_term_object_once(monkeypatch, capsys):
    from agqc.pauli import RotatedPauliOp

    rendered = []
    original = RotatedPauliOp.render

    def counting(self):
        rendered.append(id(self))
        return original(self)

    monkeypatch.setattr(RotatedPauliOp, "render", counting)
    code, out = run(capsys, "compile", "--graph", "cluster:5x6")
    assert code == 0
    assert len(rendered) == len(set(rendered)) == 2 * 25
    doc = json.loads(out)
    assert sum(len(step["static"]) for step in doc["steps"]) == 25 * 24


@pytest.mark.parametrize(
    "mode", ["stepwise", "layered", "onestep", "reorder-fixed", "reorder-strip"]
)
def test_schedule_doc_renders_each_term_object_once_in_every_mode(monkeypatch, capsys, mode):
    from agqc.pauli import RotatedPauliOp

    rendered = []
    original = RotatedPauliOp.render

    def counting(self):
        rendered.append(id(self))
        return original(self)

    monkeypatch.setattr(RotatedPauliOp, "render", counting)
    order = "7,1,13,19,2,8,25,14,20,3,9,15,21,4,10,16,22,5,11,17,23,6,12,18,24"
    code, out = run(capsys, "compile", "--graph", "cluster:5x6", "--mode", mode, "--order", order)
    assert code in (0, 1)
    assert len(rendered) == len(set(rendered))
    if mode == "stepwise":
        assert len(rendered) == 2 * 25
        doc = json.loads(out)
        assert sum(len(step["static"]) for step in doc["steps"]) == 25 * 24


def test_directory_as_graph_or_gflow_file_is_exit_2(tmp_path, capsys):
    for argv in (["graph", "validate", "--graph", str(tmp_path)],
                 ["gflow", "verify", "--graph", "chain:3", "--gflow", str(tmp_path)]):
        code, out, err = run_err(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read") and err.count("\n") == 1


# numbers as text: small values, values past every size budget, and the
# extreme, non-finite and malformed spellings argparse and float() meet
_NUMBER = st.one_of(
    st.floats(-20.0, 20.0).map(repr),
    st.floats(1e9, 1e308).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e400", "5e-324", "-0.0", "0",
                     "", "1e", "abc", "0x10", "1_0", "1+2j", "1e308+1e308j", "nanj"]),
)
# half of the draws are plain values, so that most commands also run through
_VALUE = st.one_of(st.floats(0.5, 20.0).map(repr), _NUMBER)
_ORDER = st.one_of(
    st.permutations([1, 2, 3]).map(lambda o: ",".join(map(str, o))),
    st.lists(st.integers(-1, 5), max_size=5).map(lambda o: ",".join(map(str, o))),
    st.sampled_from(["1,,2", "a", "3,1,2,", " 3,1,2"]),
)
_S_GRID = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["1.5", "nan", "", "1e3", "x"]),
    st.integers(10**8, 10**400).map(str),  # over the memory budget
)


# --levels and gapscan's --step: in and out of range, huge and malformed
_COUNT = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["", "x", "1.5", "1e3"]),
    st.integers(10**8, 10**400).map(str),
)


def _joined(items):
    return st.lists(items, min_size=1, max_size=3).map(",".join)


@st.composite
def _numeric_argv(draw):
    command = draw(st.sampled_from(["evolve", "reorder", "gapscan", "bounds", "mbqc", "zigzag", "gadget"]))
    if command == "evolve":
        argv = ["evolve", "--graph", "chain:3", "--tau", draw(_VALUE), "--gamma", draw(_VALUE)]
        if draw(st.booleans()):
            argv = ["evolve", "--graph", "chain:4", "--mode", "reorder-fixed", "--order", draw(_ORDER),
                    "--tau", draw(_VALUE)]
    elif command == "reorder":
        argv = ["reorder", "--graph", "chain:4", "--order", draw(_ORDER), "--tau", draw(_joined(_VALUE)),
                "--mode", draw(st.sampled_from(["fixed", "strip"])), "--gamma", draw(_VALUE)]
    elif command in ("gapscan", "bounds"):
        argv = [command, "--graph", "chain:3", "--s-grid", draw(_S_GRID), "--gamma", draw(_VALUE)]
        if command == "bounds":
            argv += ["--c-delta", draw(_VALUE), "--epsilon", draw(_VALUE)]
        else:
            for option in ("--levels", "--step"):
                if draw(st.booleans()):
                    argv += [option, draw(_COUNT)]
    elif command == "mbqc":
        # amplitudes past sqrt(max float), whose squares overflow
        amp = st.one_of(_VALUE, st.floats(1e155, 1e308).map(repr))
        pair = st.lists(amp, min_size=2, max_size=2).map(",".join)
        argv = ["mbqc", "--graph", "chain:3", "--input", draw(st.one_of(pair, _joined(amp)))]
    elif command == "gadget":
        argv = ["gadget", "--k", draw(_COUNT), "--lam", draw(_VALUE)]
    else:
        r = draw(st.one_of(st.integers(-2, 4).map(str), st.sampled_from(["", "x", "1.0", "99999999999"])))
        argv = [draw(st.sampled_from(["evolve", "mbqc"])), "--graph", "zigzag:2", "--gflow", f"zigzag:{r}"]
    return argv


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_numeric_argv())
def test_numeric_arguments_exit_0_1_or_2(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
        assert len(captured.err) < 200
    if code == 0:
        assert "nan" not in captured.out.lower()
    if code == 0 and argv[0] == "gapscan":
        header, *rows = captured.out.splitlines()
        assert all(row.count(",") == header.count(",") for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "gen", "zigzag:4"],
        ["graph", "validate", "--graph", "cnot"],
        ["gflow", "find", "--graph", "cluster:2x3"],
        ["gflow", "verify", "--graph", "zigzag:4", "--gflow", "zigzag:2"],
        ["gflow", "zigzag", "--n", "4", "--r", "2"],
        ["compile", "--graph", "chain:4", "--mode", "reorder-fixed", "--order", "3,1,2"],
        ["evolve", "--graph", "chain:3", "--tau", "20"],
        ["reorder", "--graph", "chain:4", "--order", "3,1,2", "--tau", "10"],
        ["mbqc", "--graph", "cnot"],
        ["gadget", "--k", "3", "--lam", "0.1"],
    ],
)
def test_json_reports_are_one_line_and_out_files_hold_the_same_bytes(capsys, tmp_path, argv):
    code, out = run(capsys, *argv)
    assert code in (0, 1)
    assert out.endswith("\n") and out.count("\n") == 1
    json.loads(out)
    path = tmp_path / "report.json"
    assert main([*argv, "--out", str(path)]) == code
    assert path.read_bytes() == out.encode()


def test_reorder_report_lists_each_step_feasibility(capsys):
    code, out = run(capsys, "compile", "--graph", "cluster:3x4", "--mode", "reorder-fixed",
                    "--order", "5,1,9,3,7,2,8,4,6")
    g = generate_cluster(3, 4)
    _, report = compile_reordered_fixed(g, find_gflow(g), [4, 0, 8, 2, 6, 1, 7, 3, 5])
    want = {
        "feasible": False,
        "steps": [
            {
                "vertex": fs.vertex + 1,
                "frustrated": fs.frustrated,
                "protected": fs.protected,
                "conserved_products": [sorted(v + 1 for v in p) for p in fs.conserved_products],
                "protecting_product": (
                    sorted(v + 1 for v in fs.protecting_product) if fs.protecting_product else None
                ),
                "detail": fs.detail,
            }
            for fs in report.steps
        ],
    }
    assert code == 1 and json.loads(out)["reorder_report"] == want
    # equal products are one object across the steps
    products = [p for fs in report.steps for p in fs.conserved_products]
    assert len(set(map(id, products))) == len(set(products)) < len(products)


@pytest.mark.parametrize(
    "command",
    [
        ["compile"],
        ["gapscan", "--s-grid", "3"],
        ["evolve", "--tau", "5"],
        ["reorder", "--order", "1,2"],
        ["bounds", "--s-grid", "3"],
    ],
)
def test_input_angle_is_refused_by_every_compiling_command(capsys, command):
    code, out, err = run_err(capsys, *command, "--graph", "chain:3:0.3,0.4")
    assert code == 2 and out == ""
    assert err.startswith("error: input vertex 1 has angle 0.3") and err.count("\n") == 1
    # a whole turn is angle 0
    assert main([*command, "--graph", f"chain:3:{2 * math.pi!r},0.4"]) == 0
    capsys.readouterr()


def test_input_angle_is_kept_by_mbqc_and_graph_gen(capsys):
    assert run(capsys, "mbqc", "--graph", "chain:3:0.3,0.4")[0] == 0
    code, out = run(capsys, "graph", "gen", "chain:3:0.3,0.4")
    assert code == 0 and json.loads(out)["angles"] == {"1": 0.3, "2": 0.4}


@pytest.mark.parametrize("command", ["mbqc", "evolve"])
def test_graph_file_listing_an_output_twice_is_exit_2(tmp_path, capsys, command):
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": [[1, 2], [2, 3]], "inputs": [1], "outputs": [3, 3], '
                    '"angles": {"1": 0.0, "2": 0.0}}')
    code, out, err = run_err(capsys, command, "--graph", str(path))
    assert code == 2 and out == ""
    assert err == "error: duplicate vertex in 'outputs'\n"


_CHAIN3 = '{"n": 3, "edges": [[1, 2], [2, 3]], "inputs": [1], "outputs": [3], "angles": %s}'


@pytest.mark.parametrize("command", [["mbqc"], ["evolve", "--tau", "20"], ["compile"]])
def test_missing_angle_reads_as_zero(tmp_path, capsys, command):
    omitted, written = tmp_path / "omitted.json", tmp_path / "written.json"
    omitted.write_text(_CHAIN3 % '{"1": 0.0}')
    written.write_text(_CHAIN3 % '{"1": 0.0, "2": 0.0}')
    first = run_err(capsys, *command, "--graph", str(omitted))
    assert first[0] == 0 and first == run_err(capsys, *command, "--graph", str(written))


@pytest.mark.parametrize("command", [["graph", "validate"], ["mbqc"], ["evolve"]])
def test_graph_file_with_a_self_loop_is_exit_2(tmp_path, capsys, command):
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": [[1, 2], [2, 2], [2, 3]], "inputs": [1], "outputs": [3], '
                    '"angles": {"1": 0.0, "2": 0.0}}')
    code, out, err = run_err(capsys, *command, "--graph", str(path))
    assert (code, out, err) == (2, "", "error: edge [2, 2] is a self-loop\n")


@pytest.mark.parametrize(
    "graph_doc, gflow_doc, error",
    [
        (_CHAIN3.replace('"n": 3,', '"n": 3, "n": 3,') % '{"1": 0.0, "2": 0.0}', None,
         "repeated key 'n'"),
        (_CHAIN3 % '{"1": 0.0, "2": 0.0, "2": 0.5}', None, "repeated key '2'"),
        (None, '{"g": {"1": [2], "1": [3], "2": [3]}, "layer": {"1": 0, "2": 1}}',
         "repeated key '1'"),
        (None, '{"g": {"1": [2], "2": [3]}, "layer": {"1": 0, "2": 1, "2": 1}}',
         "repeated key '2'"),
        (None, '{"g": {"1": [2, 2], "2": [3]}, "layer": {"1": 0, "2": 1}}',
         "malformed entry: g(1) lists a vertex twice"),
    ],
)
def test_repeated_keys_and_correcting_set_vertices_are_exit_2(tmp_path, capsys, graph_doc,
                                                             gflow_doc, error):
    # written as text: a JSON encoder cannot repeat a key
    gpath, fpath = tmp_path / "g.json", tmp_path / "f.json"
    gpath.write_text(graph_doc or _CHAIN3 % '{"1": 0.0, "2": 0.0}')
    fpath.write_text(gflow_doc or '{"g": {"1": [2], "2": [3]}, "layer": {"1": 0, "2": 1}}')
    code, out, err = run_err(capsys, "gflow", "verify", "--graph", str(gpath), "--gflow", str(fpath))
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("key", ["02", " 2", "+2", "1_0"])
@pytest.mark.parametrize("field", ["angles", "planes", "g", "layer"])
def test_non_canonical_vertex_keys_are_exit_2(tmp_path, capsys, field, key):
    graph_doc = {"n": 3, "edges": [[1, 2], [2, 3]], "inputs": [1], "outputs": [3],
                 "angles": {"1": 0.0, "2": 0.0}, "planes": {"1": "XY", "2": "XY"}}
    gflow_doc = {"g": {"1": [2], "2": [3]}, "layer": {"1": 0, "2": 1}}
    doc = graph_doc if field in graph_doc else gflow_doc
    doc[field][key] = doc[field].pop("2")
    gpath, fpath = tmp_path / "g.json", tmp_path / "f.json"
    gpath.write_text(json.dumps(graph_doc))
    fpath.write_text(json.dumps(gflow_doc))
    code, out, err = run_err(capsys, "gflow", "verify", "--graph", str(gpath), "--gflow", str(fpath))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error:") and f"vertex key {key!r} is not a label" in err


def test_reorder_evolves_its_tau_list_in_one_call(monkeypatch, capsys):
    from agqc import sim

    calls = []
    evolve_many = sim.evolve_many
    monkeypatch.setattr(sim, "evolve_many",
                        lambda sched, specs: calls.append(list(specs)) or evolve_many(sched, specs))
    code, out = run(capsys, "reorder", "--graph", "chain:4", "--order", "3,1,2", "--tau", "10,100,1000")
    assert code == 1 and calls == [[10.0, 100.0, 1000.0]]
    g = generate_chain(4)
    sched, _ = compile_reordered_fixed(g, find_gflow(g), [2, 0, 1])
    rows = json.loads(out)["leakage"]
    assert [row["tau"] for row in rows] == [10.0, 100.0, 1000.0]
    for row in rows:
        res = next(evolve_many(sched, [row["tau"]]))
        assert abs(row["leakage"] - res.leakage) < 1e-13 and abs(row["fidelity"] - res.fidelity) < 1e-13
