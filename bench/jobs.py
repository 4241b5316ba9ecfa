"""Job lists of the three workloads, generated from the workload seed.

A job is one timed call into agqc (a library call sequence or one in-process
``agqc.cli.main`` invocation) plus a check of its output that runs outside
the timed region.  Every agqc function is looked up on its module at call
time, so timing wrappers installed by :mod:`tracing` see the calls.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import checks as K

TAU = 200.0
LEAK_TAUS = "10,100,1000"


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    cli: bool = False  # output must repeat byte for byte on every pass


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    largest: str
    smallest: str


def workload(jobs: list[Job], largest: str, smallest: str, repeats: int = 1) -> Workload:
    """A pass runs ``jobs`` in order, with the smallest job ``repeats`` times,
    spread evenly through the pass.  A job of a few milliseconds samples the
    host's speed at one instant, so one execution per pass would leave its
    median at the mercy of the load of the moment."""
    small = next(j for j in jobs if j.name == smallest)
    rest = [j for j in jobs if j is not small]
    for k in reversed(range(repeats)):
        rest.insert(round(k * len(rest) / repeats), small)
    return Workload(tuple(rest), largest, smallest)


def cli_call(agqc: SimpleNamespace, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = agqc.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_job(agqc, name: str, argv: list[str], check: Callable[[int, str], list[str]]) -> Job:
    def checked(result) -> list[str]:
        rc, out, err = result
        if rc not in (0, 1):
            return [f"exit {rc}: {err.strip()}"]
        return check(rc, out)

    return Job(name, lambda: cli_call(agqc, argv), checked, cli=True)


def verdict(rc: int, ok: bool) -> list[str]:
    """Exit 0 for an accepted request, 1 for a negative verdict."""
    return [] if rc == (0 if ok else 1) else [f"exit {rc} for verdict ok={ok}"]


def _angles(rng: np.random.Generator, n: int) -> list[float]:
    """Chain angles: 0 on the input (convention), seeded inside, 0 on the output."""
    return [0.0] + [float(a) for a in rng.uniform(0.0, 2 * math.pi, n - 2)] + [0.0]


def _chain_spec(angles: list[float]) -> str:
    return f"chain:{len(angles)}:" + ",".join(repr(a) for a in angles)


def _write_gflow(workdir: Path, name: str, gf: K.Gflow) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(K.gflow_to_doc(gf)))
    return str(path)


# ---------------------------------------------------------------------------
# chain-verify


def _evolve_job(agqc, seed: int, name: str, graph, own: K.Graph, gf: K.Gflow, mode: str,
                closed_form=None, clifford: bool = False) -> Job:
    compile_fn = {"stepwise": "compile_stepwise", "layered": "compile_layered",
                  "onestep": "compile_one_step"}[mode]
    gflow = agqc.gflow.Gflow(*gf)
    tau = TAU * len(own.non_outputs) if mode == "onestep" else TAU

    def run():
        schedule = getattr(agqc.compiler, compile_fn)(graph, gflow)
        res = agqc.sim.evolve(schedule, tau)
        u_mbqc = agqc.sim.mbqc_logical_unitary(graph, gflow)
        out = {
            "overlap": res.overlap_matrix,
            "mbqc": u_mbqc,
            "mbqc_random": agqc.sim.mbqc_logical_unitary(graph, gflow, "random", seed=seed),
            "distance": agqc.logical.compare(res.overlap_matrix, u_mbqc),
        }
        if clifford:
            frame = agqc.logical.propagate_schedule(
                agqc.logical.initial_frame(graph, gflow), schedule.steps
            )
            out["frame"] = agqc.logical.frame_unitary(frame, graph)
        return out

    def check(out) -> list[str]:
        own_distance = K.phase_distance(out["overlap"], out["mbqc"])
        problems = K.within("distance to the MBQC reference", out["distance"], 1e-2)
        if out["distance"] > own_distance + 1e-9:
            problems.append(f"compare {out['distance']:.3e} is not minimal ({own_distance:.3e})")
        problems += K.unitary_problems("random-outcome MBQC", out["mbqc_random"], out["mbqc"], 1e-10)
        if closed_form is not None:
            problems += K.unitary_problems("closed-form chain", out["overlap"], closed_form, 1e-2)
        if clifford:
            problems += K.unitary_problems("Heisenberg frame", out["frame"], out["mbqc"], 1e-10)
        return problems

    return Job(name, run, check)


def chain_verify(agqc, seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for n in (3, 4, 5):
        angles = _angles(rng, n)
        graph = agqc.graph.generate_chain(n, angles)
        jobs.append(_evolve_job(agqc, seed, f"chain{n}-stepwise", graph, K.chain(n),
                                K.chain_gflow(n), "stepwise",
                                closed_form=K.chain_closed_form(angles[:-1])))
    for u in (2, 3):
        graph = agqc.graph.generate_zigzag(u)
        jobs.append(_evolve_job(agqc, seed, f"zigzag{u}-layered", graph, K.zigzag(u),
                                K.zigzag_gflow(u, u), "layered", clifford=True))
    graph = agqc.graph.generate_cluster(2, 2)
    for mode in ("stepwise", "layered", "onestep"):
        jobs.append(_evolve_job(agqc, seed, f"cluster2x2-{mode}", graph, K.cluster(2, 2),
                                K.column_gflow(2, 2), mode, clifford=True))
    return workload(jobs, largest="chain5-stepwise", smallest="cluster2x2-layered", repeats=3)


# ---------------------------------------------------------------------------
# reorder-spectra


def _gapscan_check(n_rows: int, extra=None):
    def check(rc, out):
        rows = K.gapscan_rows(out)
        if rc != 0 or len(rows) != n_rows:
            return [f"exit {rc}, {len(rows)} rows, expected {n_rows}"]
        return extra(rows) if extra else K.commuting_gap_problems(rows)
    return check


def _leakage_check(steps, limit: Callable[[float], bool], certificate=None):
    def check(rc, out):
        doc = json.loads(out)
        problems = []
        if steps is not None:
            problems += K.report_problems(steps, doc["report"])
            problems += verdict(rc, doc["report"]["feasible"])
        elif rc != 0:
            problems.append(f"strip schedule exits {rc}")
        if certificate is not None and doc["report"]["steps"][0]["protecting_product"] != certificate:
            problems.append(f"step 1 certificate {doc['report']['steps'][0]['protecting_product']}")
        for row in doc.get("leakage", []):
            if not limit(row["leakage"]) or abs(row["fidelity"] - (1 - row["leakage"])) > 1e-12:
                problems.append(f"leakage {row['leakage']:.3e} at tau={row['tau']:g}")
        return problems
    return check


def _second_site_job(agqc) -> Job:
    thetas = [k * math.pi / 6 for k in range(4)]
    grid = [i / 10 for i in range(11)]

    def run():
        g = agqc.graph.generate_chain(4, [0.0] * 4)
        gf = agqc.gflow.Gflow(*K.chain_gflow(4))
        terms = agqc.pauli.stabilizer_set(g, gf)
        gaps = []
        for theta in thetas:
            intro = agqc.pauli.RotatedPauliOp.from_parts(agqc.pauli.single(4, 1, "X"), {1: theta})
            step = agqc.compiler.ScheduleStep({1: terms[1]}, {1: intro}, (terms[0], terms[2]))
            sched = agqc.compiler.Schedule((step,), 1.0, g, gf)
            gaps.append(list(agqc.sim.spectral_scan(sched, 0, grid).gap))
        return gaps

    def check(gaps):
        worst = max(abs(gap - K.second_site_gap(theta, s))
                    for theta, row in zip(thetas, gaps) for s, gap in zip(grid, row))
        return K.within("max |gap - Delta_1|", worst, 1e-9)

    return Job("second-site-scan", run, check)


def _conserved_job(agqc) -> Job:
    own = K.chain(4)
    adj = own.adjacency
    want = K.render(K.pauli_mul(K.stabilizer(adj, 1), K.stabilizer(adj, 3)))

    def run():
        g = agqc.graph.generate_chain(4, [0.0] * 4)
        gf = agqc.gflow.Gflow(*K.chain_gflow(4))
        fixed, _ = agqc.compiler.compile_reordered_fixed(g, gf, [2, 0, 1])
        p = agqc.pauli
        t1t3 = p.RotatedPauliOp.from_pauli(p.stabilizer_generator(g, 1).mul(p.stabilizer_generator(g, 3)))
        chk = agqc.sim.conserved_operator_check(fixed, 0, [t1t3])[0]
        return t1t3.render(), chk.symbolic, chk.conserved, chk.max_commutator_norm

    def check(out):
        rendered, symbolic, conserved, norm = out
        problems = [] if rendered == want else [f"T1 T3 renders as {rendered}, expected {want}"]
        if not (symbolic and conserved):
            problems.append(f"T1 T3 not certified (symbolic={symbolic}, conserved={conserved})")
        return problems + K.within("||[T1 T3, H(s)]||", norm, 1e-9)

    return Job("conserved-T1T3", run, check)


def reorder_spectra(agqc, seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for n, points in ((6, 101), (7, 21), (8, 11)):
        argv = ["gapscan", "--graph", _chain_spec(_angles(rng, n)), "--s-grid", str(points)]
        jobs.append(cli_job(agqc, f"gapscan-chain{n}", argv, _gapscan_check((n - 1) * points)))

    def degenerate(rows):
        end = [r for r in rows if r["step"] == 1 and r["s"] == 1.0]
        return [] if [r["degeneracy"] for r in end] == [4] else [f"end of step 1: {end}"]

    fixed4 = ["--graph", "chain:4", "--order", "3,1,2"]
    jobs.append(cli_job(agqc, "gapscan-chain4-reorder-fixed",
                        ["gapscan", "--mode", "reorder-fixed", *fixed4],
                        _gapscan_check(3 * 101, degenerate)))
    steps4 = K.replacement_steps(K.chain(4), K.chain_gflow(4), [[2], [0], [1]])
    jobs.append(cli_job(agqc, "reorder-chain4-fixed",
                        ["reorder", "--mode", "fixed", "--tau", LEAK_TAUS, *fixed4],
                        _leakage_check(steps4, lambda x: x > 0.05, certificate=[1, 3])))
    jobs.append(cli_job(agqc, "reorder-chain4-strip",
                        ["reorder", "--mode", "strip", "--tau", "200", *fixed4],
                        _leakage_check(None, lambda x: 0 <= x <= 1e-3)))
    for name, own, gf in (("chain5", K.chain(5), K.chain_gflow(5)),
                          ("cluster2x3", K.cluster(2, 3), K.column_gflow(2, 3))):
        order = [int(v) for v in rng.permutation(own.non_outputs)]
        spec = "chain:5" if name == "chain5" else "cluster:2x3"
        common = ["--graph", spec, "--gflow", _write_gflow(workdir, name, gf),
                  "--order", ",".join(str(v + 1) for v in order), "--tau", "10"]
        steps = K.replacement_steps(own, gf, [[v] for v in order])
        jobs.append(cli_job(agqc, f"reorder-{name}-fixed", ["reorder", "--mode", "fixed", *common],
                            _leakage_check(steps, lambda x: 0 <= x <= 1)))
        jobs.append(cli_job(agqc, f"reorder-{name}-strip", ["reorder", "--mode", "strip", *common],
                            _leakage_check(None, lambda x: 0 <= x <= 1)))
    jobs.append(_second_site_job(agqc))
    jobs.append(_conserved_job(agqc))
    return workload(jobs, largest="reorder-chain4-fixed", smallest="conserved-T1T3", repeats=8)


# ---------------------------------------------------------------------------
# symbolic-compile


def _found_check(own: K.Graph, max_depth: int):
    def check(rc, out):
        gf = K.gflow_from_doc(json.loads(out))
        problems = K.gflow_problems(own, gf)
        if K.depth(gf) > max_depth:
            problems.append(f"found depth {K.depth(gf)} exceeds {max_depth}")
        return problems + verdict(rc, True)
    return check


def _verify_check(own: K.Graph, gf: K.Gflow | None, max_depth: int):
    """Accepted with the right depth; against a known gflow, also the layer
    sizes and the largest stabilizer-product support."""
    def check(rc, out):
        doc = json.loads(out)
        problems = verdict(rc, doc["valid"])
        if not doc["valid"] or doc["depth"] > max_depth:
            problems.append(f"valid={doc['valid']} depth={doc['depth']}")
        if gf is not None:
            adj = own.adjacency
            sizes = [list(gf[1].values()).count(k) for k in sorted(set(gf[1].values()))]
            support = max(len(K.correcting_product(adj, c)[1]) for c in gf[0].values())
            if (doc["layer_sizes"], doc["max_size"]) != (sizes, support):
                problems.append(f"layers {doc['layer_sizes']} size {doc['max_size']}, "
                                f"expected {sizes} size {support}")
        return problems
    return check


def _compile_check(steps, degree: int | None = None, reorder: bool = False):
    def check(rc, out):
        doc = json.loads(out)
        problems = K.schedule_problems(doc, steps)
        if reorder:
            problems += K.report_problems(steps, doc["reorder_report"])
            problems += verdict(rc, doc["reorder_report"]["feasible"])
        else:
            problems += verdict(rc, True)
        want = K.degree(doc) if degree is None else degree
        if doc["hamiltonian_degree"] != want or K.degree(doc) != want:
            problems.append(f"hamiltonian_degree {doc['hamiltonian_degree']}, expected {want}")
        return problems
    return check


def _onestep_check(rc, out):
    return K.one_step_problems(json.loads(out)) + verdict(rc, True)


def _strip_check(order: list[int]):
    def check(rc, out):
        doc = json.loads(out)
        got = [list(step["introduced"].items())[0] for step in doc["steps"]]
        want = [(str(v + 1), K.render(K.x_on(v))) for v in order]
        return verdict(rc, True) + ([] if got == want else ["strip steps do not follow the order"])
    return check


def symbolic_compile(agqc, seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for rows, cols in ((5, 6), (8, 10), (10, 20)):
        name = f"cluster{rows}x{cols}"
        own, gf = K.cluster(rows, cols), K.column_gflow(rows, cols)
        graph = ["--graph", f"cluster:{rows}x{cols}"]
        common = [*graph, "--gflow", _write_gflow(workdir, name, gf)]
        jobs.append(cli_job(agqc, f"gflow-find-{name}", ["gflow", "find", *graph],
                            _found_check(own, cols - 1)))
        jobs.append(cli_job(agqc, f"gflow-verify-{name}", ["gflow", "verify", *common],
                            _verify_check(own, gf, cols - 1)))
        bounds_check = lambda rc, out, n=len(own.non_outputs): K.bounds_problems(out, [1] * n)
        jobs.append(cli_job(agqc, f"bounds-{name}", ["bounds", *common], bounds_check))
        if rows * cols > 100:
            continue
        jobs.append(cli_job(agqc, f"gflow-verify-find-{name}",
                            ["gflow", "verify", *graph, "--gflow", "find"],
                            _verify_check(own, None, cols - 1)))
        for mode in ("stepwise", "layered"):
            steps = K.replacement_steps(own, gf, K.groups(gf, mode))
            jobs.append(cli_job(agqc, f"compile-{mode}-{name}",
                                ["compile", *common, "--mode", mode], _compile_check(steps)))
        jobs.append(cli_job(agqc, f"compile-onestep-{name}",
                            ["compile", *common, "--mode", "onestep"], _onestep_check))
        order = [int(v) for v in rng.permutation(own.non_outputs)]
        flag = ["--order", ",".join(str(v + 1) for v in order)]
        steps = K.replacement_steps(own, gf, [[v] for v in order])
        jobs.append(cli_job(agqc, f"compile-reorder-fixed-{name}",
                            ["compile", *common, "--mode", "reorder-fixed", *flag],
                            _compile_check(steps, reorder=True)))
        jobs.append(cli_job(agqc, f"compile-reorder-strip-{name}",
                            ["compile", *common, "--mode", "reorder-strip", *flag],
                            _strip_check(order)))
    for n in (8, 16, 32):
        own = K.zigzag(n)
        graph = ["--graph", f"zigzag:{n}"]
        jobs.append(cli_job(agqc, f"gflow-find-zigzag{n}", ["gflow", "find", *graph],
                            _found_check(own, 1)))
        for r in (1, 2, n):
            gf = K.zigzag_gflow(n, r)
            common = [*graph, "--gflow", f"zigzag:{r}"]
            layered = K.groups(gf, "layered")
            jobs.append(cli_job(agqc, f"gflow-verify-zigzag{n}-r{r}", ["gflow", "verify", *common],
                                _verify_check(own, gf, math.ceil(n / r))))
            jobs.append(cli_job(agqc, f"compile-layered-zigzag{n}-r{r}",
                                ["compile", *common, "--mode", "layered"],
                                _compile_check(K.replacement_steps(own, gf, layered),
                                               degree=r + 2 if r < n else n + 1)))
            sizes = [len(group) for group in layered]
            jobs.append(cli_job(agqc, f"bounds-layered-zigzag{n}-r{r}",
                                ["bounds", *common, "--mode", "layered"],
                                lambda rc, out, sizes=sizes: K.bounds_problems(out, sizes)))
    return workload(jobs, largest="bounds-cluster10x20", smallest="gflow-verify-zigzag8-r2",
                    repeats=8)


WORKLOADS = {
    "chain-verify": chain_verify,
    "reorder-spectra": reorder_spectra,
    "symbolic-compile": symbolic_compile,
}
