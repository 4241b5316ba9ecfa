"""Command-line front door: reproducible experiments over graph/gflow files
with CSV and JSON outputs.

Exit codes: 0 success, 1 validation/verification failure, 2 malformed or
infeasible request.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

from . import compiler, gflow as gflow_mod, graph as graph_mod, logical, sim
from .budget import SizeCapError, approx, check_bytes
from .compiler import AdiabaticBudget, ReorderReport, Schedule
from .gflow import Gflow
from .graph import OpenGraph


class CliError(ValueError):
    """A request the CLI refuses, with its exit code; every other
    ValueError (malformed files included) exits 2."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _file_text(spec: str) -> str | None:
    """Contents of the file that ``spec`` names, or None when it names none."""
    path = Path(spec)
    try:
        exists = path.exists()
    except OSError:  # e.g. a name too long for the file system
        return None
    if not exists:
        return None
    try:
        return path.read_text()
    except OSError as exc:
        raise CliError(f"cannot read {spec!r}: {exc}") from exc


def _clip(text: str, limit: int = 60) -> str:
    """``text`` with non-ASCII characters escaped, cut to ``limit``
    characters, so that an error line stays short in bytes too."""
    text = text.encode("ascii", "backslashreplace").decode("ascii")
    return text if len(text) <= limit else text[:limit] + "..."


def _load_graph(spec: str) -> OpenGraph:
    """Graph source: a JSON file path or a generator spec.

    Generator specs: ``chain:N[:a1,a2,...]``, ``cluster:RxC``, ``zigzag:N``,
    ``cnot``.
    """
    text = _file_text(spec)
    if text is not None:
        return graph_mod.graph_from_json(text)
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "chain":
            n = int(parts[1])
            angles = None
            if len(parts) > 2:
                given = [float(x) for x in parts[2].split(",")]
                if len(given) not in (n, n - 1):
                    raise CliError(f"chain:{n} takes {n} (or {n - 1}) angles")
                angles = given + [0.0] * (n - len(given))
            return graph_mod.generate_chain(n, angles)
        if kind == "cluster":
            rows, cols = (int(x) for x in parts[1].lower().split("x"))
            return graph_mod.generate_cluster(rows, cols)
        if kind == "zigzag":
            return graph_mod.generate_zigzag(int(parts[1]))
        if kind == "cnot":
            return graph_mod.generate_cnot_graph()
    except (CliError, SizeCapError):  # a wrong angle count, or a spec over the budget
        raise
    except (IndexError, ValueError) as exc:
        raise CliError(f"bad graph spec {_clip(spec)!r}: {_clip(str(exc), 80)}") from exc
    raise CliError(f"graph source {_clip(spec)!r} is neither a file nor a known generator")


def _load_gflow(spec: str, graph: OpenGraph) -> Gflow:
    """Gflow source: a JSON file path, ``find``, or ``zigzag:R``."""
    text = _file_text(spec)
    if text is not None:
        return gflow_mod.gflow_from_json(text)
    if spec == "find":
        gf = gflow_mod.find_gflow(graph)
        if gf is None:
            raise CliError("graph has no gflow", code=1)
        return gf
    if spec.startswith("zigzag:"):
        r = int(spec.split(":")[1])
        n = graph.n_vertices // 2
        return gflow_mod.zigzag_gflow_family(n, r)
    raise CliError(f"gflow source {_clip(spec)!r} is neither a file nor find/zigzag:R")


def _check_writable(path: str | None) -> None:
    """Refuse an output path that cannot be written, before any work is
    done; the file itself is created only by the write."""
    if path is None or path == "-":
        return
    target = Path(path)
    try:
        if target.is_dir():
            reason = os.strerror(errno.EISDIR)
        elif not target.parent.is_dir():
            reason = os.strerror(errno.ENOTDIR if target.parent.exists() else errno.ENOENT)
        elif not os.access(target if target.exists() else target.parent, os.W_OK):
            reason = os.strerror(errno.EACCES)
        else:
            return
    except OSError as exc:  # e.g. a name too long for the file system
        reason = exc.strerror or str(exc)
    raise CliError(f"cannot write {_clip(path)!r}: {reason}")


def _write(out: str | None, text: str) -> None:
    """Write ``text``, newline-terminated, to the file ``out``, or to stdout
    for None or '-'."""
    if not text.endswith("\n"):
        text += "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:  # the path changed since it was checked, a full disk
        raise CliError(f"cannot write {_clip(out)!r}: {exc.strerror or exc}") from exc


#: The energy scales ``--gamma`` may take: every product of gamma with a
#: time or a term count that the memory budget admits stays finite.
GAMMA_RANGE = (1e-100, 1e100)


def _finite(value: float, option: str) -> float:
    if not math.isfinite(value):
        raise CliError(f"{option} must be a finite number, got {value}")
    return value


def _s_grid(n_points: int) -> list[float]:
    if n_points < 2:
        raise CliError(f"--s-grid needs at least 2 points, got {n_points}")
    # a float and its slot, in this list and in each scan's copy
    check_bytes(64 * n_points, f"{approx(n_points)} --s-grid points")
    return [i / (n_points - 1) for i in range(n_points)]


def _compile(args: argparse.Namespace, mode: str) -> tuple[Schedule, ReorderReport | None]:
    """Load ``--graph`` and ``--gflow`` and build the schedule of ``mode``."""
    graph = _load_graph(args.graph)
    for v in graph.inputs:
        # no generator sits on an input, so a schedule cannot carry its twist
        angle = graph.angles.get(v, 0.0)
        if abs(math.remainder(angle, 2 * math.pi)) > 1e-12:
            raise CliError(
                f"input vertex {v + 1} has angle {angle:.6g}; a compiled schedule "
                "does not carry an input's angle, so it must be 0"
            )
    gf = _load_gflow(args.gflow, graph)
    order = None
    if args.order:
        order = [int(x) - 1 for x in args.order.split(",")]
    # looked up at each call, so that a wrapper installed on compiler's
    # functions is the one called
    plain = {"stepwise": compiler.compile_stepwise, "layered": compiler.compile_layered,
             "onestep": compiler.compile_one_step}
    if mode in plain:
        return plain[mode](graph, gf, args.gamma), None
    if order is None:
        raise CliError(f"{mode} needs --order")
    if mode == "reorder-fixed":
        return compiler.compile_reordered_fixed(graph, gf, order, args.gamma)
    return compiler.compile_reordered_strip(graph, gf, order, args.gamma), None


def _schedule_doc(schedule: Schedule) -> dict:
    # a compiled schedule removes or introduces each of its terms in some
    # step, and its steps share the term objects: render each object once,
    # keyed by id, as terms compare with a tolerance and do not hash
    moved = itertools.chain.from_iterable(
        (*st.removed.values(), *st.introduced.values()) for st in schedule.steps
    )
    rendered = {id(op): op.render() for op in moved}
    text = rendered.__getitem__
    steps = [
        {
            "removed": {str(v + 1): text(id(op)) for v, op in sorted(st.removed.items())},
            "introduced": {str(v + 1): text(id(op)) for v, op in sorted(st.introduced.items())},
            "static": list(map(text, map(id, st.static_terms))),
            "strip": st.strip,
        }
        for st in schedule.steps
    ]
    return {"gamma": schedule.gamma, "steps": steps}


def _complex_matrix(m: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


# ---------------------------------------------------------------------------
# subcommands: each returns its report and its exit code, and ``main``
# writes the report


def cmd_graph_gen(args) -> tuple[str, int]:
    return graph_mod.graph_to_json(_load_graph(args.kind)), 0


def cmd_graph_validate(args) -> tuple[str, int]:
    report = graph_mod.validate(_load_graph(args.graph))
    doc = {"ok": report.ok, "problems": list(report.problems)}
    return json.dumps(doc), 0 if report.ok else 1


def cmd_gflow_find(args) -> tuple[str, int]:
    gf = gflow_mod.find_gflow(_load_graph(args.graph))
    if gf is None:
        return json.dumps({"found": False}), 1
    return gflow_mod.gflow_to_json(gf), 0


def cmd_gflow_verify(args) -> tuple[str, int]:
    g = _load_graph(args.graph)
    gf = _load_gflow(args.gflow, g)
    report = gflow_mod.verify_gflow(g, gf)
    doc = {
        "valid": report.valid,
        "depth": report.depth,
        "max_size": report.max_size,
        "layer_sizes": list(report.layer_sizes),
        "violations": [
            {"vertex": v + 1, "axiom": ax, "detail": detail}
            for v, ax, detail in report.violations
        ],
    }
    return json.dumps(doc), 0 if report.valid else 1


def cmd_gflow_zigzag(args) -> tuple[str, int]:
    return gflow_mod.gflow_to_json(gflow_mod.zigzag_gflow_family(args.n, args.r)), 0


def cmd_compile(args) -> tuple[str, int]:
    schedule, report = _compile(args, args.mode)
    doc = _schedule_doc(schedule)
    doc["hamiltonian_degree"] = compiler.hamiltonian_degree(schedule)
    if report is not None:
        doc["reorder_report"] = _reorder_doc(report)
    return json.dumps(doc), 1 if report is not None and not report.feasible else 0


def _reorder_doc(report: ReorderReport) -> dict:
    # steps share their product sets: sort each distinct one once; a step's
    # protecting product is one of its conserved products
    products = itertools.chain.from_iterable(fs.conserved_products for fs in report.steps)
    one_based = {p: sorted(v + 1 for v in p) for p in dict.fromkeys(products)}
    return {
        "feasible": report.feasible,
        "steps": [
            {
                "vertex": fs.vertex + 1,
                "frustrated": fs.frustrated,
                "protected": fs.protected,
                "conserved_products": list(map(one_based.__getitem__, fs.conserved_products)),
                "protecting_product": (
                    one_based[fs.protecting_product] if fs.protecting_product else None
                ),
                "detail": fs.detail,
            }
            for fs in report.steps
        ],
    }


def cmd_gapscan(args) -> tuple[str, int]:
    if args.levels < 1:
        raise CliError(f"--levels must be at least 1, got {_clip(str(args.levels))}")
    grid = _s_grid(args.s_grid)
    schedule, _ = _compile(args, args.mode)
    n_steps = len(schedule.steps)
    if args.step is not None and not 1 <= args.step <= n_steps:
        raise CliError(f"--step must lie in 1..{n_steps}, got {_clip(str(args.step))}")
    levels = min(args.levels, 1 << schedule.n_qubits)
    lines = [
        "step,s,"
        + ",".join(f"E{i}" for i in range(levels))
        + ",gap,gap_above_degenerate,degeneracy"
    ]
    step_indices = range(n_steps) if args.step is None else [args.step - 1]
    for k in step_indices:
        scan = sim.spectral_scan(schedule, k, grid, n_levels=levels)
        # Python floats format faster than NumPy scalars, to the same text
        rows = zip(scan.s_grid, scan.energies.tolist(), scan.gap.tolist(),
                   scan.gap_above_degenerate.tolist(), scan.ground_degeneracy)
        for s, energies, gap, gap_above, degeneracy in rows:
            evals = ",".join(f"{e:.12g}" for e in energies)
            lines.append(f"{k + 1},{s:.6g},{evals},{gap:.12g},{gap_above:.12g},{degeneracy}")
    return "\n".join(lines), 0


def _is_chain(g: OpenGraph) -> bool:
    """The layout of ``chain:N``: path 1-2-...-N, input 1, output N."""
    n = g.n_vertices
    return (g.inputs, g.outputs) == ((0,), (n - 1,)) and g.edges == frozenset(
        (v, v + 1) for v in range(n - 1)
    )


def cmd_evolve(args) -> tuple[str, int]:
    schedule, report = _compile(args, args.mode)
    g = schedule.graph
    if args.target == "chain" and not _is_chain(g):
        raise CliError(
            "--target chain applies only to chains (path 1-2-...-N, input 1, output N)"
        )
    res = sim.evolve(schedule, args.tau)
    doc = {
        "mode": args.mode,
        "tau_per_step": list(res.tau_used),
        "leakage": res.leakage,
        "fidelity": res.fidelity,
        "unitarity_defect": None if math.isnan(res.unitarity_defect) else res.unitarity_defect,
        "logical_unitary": (
            _complex_matrix(res.logical_unitary)
            if res.logical_unitary is not None
            else None
        ),
        "propagation": [
            {"step": k, "method": p.method, "n_sub": p.n_sub, "dim": p.dim, "distinct": p.distinct}
            for k, p in enumerate(res.propagation, start=1)
        ],
    }
    if report is not None:
        doc["reorder_report"] = _reorder_doc(report)
    if args.target == "chain":
        pred = logical.chain_unitary(
            [g.angles[v] for v in sorted(g.angles)]
        )
        doc["distance_to_chain_prediction"] = logical.compare(res.logical_unitary, pred)
    return json.dumps(doc), 0


def cmd_reorder(args) -> tuple[str, int]:
    if args.tau == "" or (args.tau is None and args.leakage_csv is not None):
        raise CliError("a leakage table (--tau, --leakage-csv) needs at least one tau")
    taus = None if args.tau is None else [_finite(float(t), "--tau") for t in args.tau.split(",")]
    schedule, report = _compile(args, f"reorder-{args.mode}")
    doc: dict = {
        "order": [int(x) for x in args.order.split(",")],
        "mode": args.mode,
        "report": None if report is None else _reorder_doc(report),
    }
    if taus is not None:
        doc["leakage"] = rows = [{"tau": tau, "leakage": res.leakage, "fidelity": res.fidelity}
                                 for tau, res in zip(taus, sim.evolve_many(schedule, taus))]
        if args.leakage_csv:
            lines = ["tau,leakage,fidelity"]
            lines += [f"{r['tau']:.12g},{r['leakage']:.12g},{r['fidelity']:.12g}" for r in rows]
            _write(args.leakage_csv, "\n".join(lines))
    return json.dumps(doc), 1 if report is not None and not report.feasible else 0


def cmd_mbqc(args) -> tuple[str, int]:
    g = _load_graph(args.graph)
    gf = _load_gflow(args.gflow, g)
    k = len(g.inputs)
    if args.input:
        amps = [complex(x) for x in args.input.split(",")]
        if len(amps) != 1 << k:
            raise CliError(f"input state needs {1 << k} amplitudes")
        # the largest real or imaginary part is 0, inf or nan exactly when
        # the norm is; scaling by a power of two near it is exact, and the
        # sum of squares can then not overflow
        parts = np.array(amps, dtype=complex).view(float)
        scale = float(np.max(np.abs(parts)))
        if not 0.0 < scale < math.inf:
            raise CliError(f"input state needs a finite nonzero norm, got {scale}")
        state = np.ldexp(parts, -math.frexp(scale)[1]).view(complex)
        state = state / np.linalg.norm(state)
    else:
        state = np.zeros(1 << k, dtype=complex)
        state[0] = 1.0
    run = sim.mbqc_reference_run(g, gf, state, args.outcomes, seed=args.seed)
    doc = {
        "outcomes": list(run.outcomes),
        "seed": args.seed,
        "output_state": [[float(z.real), float(z.imag)] for z in run.output_state],
    }
    return json.dumps(doc), 0


def cmd_bounds(args) -> tuple[str, int]:
    grid = _s_grid(args.s_grid)
    schedule, _ = _compile(args, args.mode)
    budget = AdiabaticBudget(
        delta=args.delta, epsilon=args.epsilon, c_delta=args.c_delta, gamma=args.gamma
    )
    lines = ["step,u_size,gap_min,hdot_norm,tau_bound"]
    for k, step in enumerate(schedule.steps):
        if step.is_commuting_replacement():
            gap_min = compiler.step_gap_analytic(step, args.gamma, 0.5)
            hdot = compiler.step_norm_hdot(step, args.gamma)
            tau = compiler.runtime_bound(step, budget)
        else:
            blocks = sim.step_blocks(schedule, k)
            gap_min = float(min(sim.spectral_scan(schedule, k, grid, blocks=blocks).gap))
            hdot = blocks.hdot_norm()
            tau = compiler.runtime_bound(step, budget, gap=gap_min, hdot_norm=hdot)
        lines.append(f"{k + 1},{step.u_size},{gap_min:.12g},{hdot:.12g},{tau:.12g}")
    return "\n".join(lines), 0


def cmd_gadget(args) -> tuple[str, int]:
    gp = compiler.gadget_parameters(args.k, args.lam)
    doc = {
        "k": args.k,
        "lambda": args.lam,
        "coefficient": gp.coefficient,
        "lambda_max": gp.lambda_max,
        "converges": gp.converges,
    }
    return json.dumps(doc), 0


# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="graph file or generator spec")
    p.add_argument(
        "--gflow",
        default="find",
        help="gflow file, 'find', or 'zigzag:R' (default: find)",
    )


def _add_schedule(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--mode", default="stepwise",
                   choices=["stepwise", "layered", "onestep", "reorder-fixed", "reorder-strip"])
    p.add_argument("--order", default=None, help="1-based vertex order, e.g. 3,1,2")
    p.add_argument("--gamma", type=float, default=1.0)


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one short ``error:`` line, exit
    2; subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        # argparse echoes an invalid value in full
        self.exit(2, f"error: {_clip(' '.join(message.split()), 180)}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="agqc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    commands = []

    def command(group, name: str, func, **kwargs) -> argparse.ArgumentParser:
        p = group.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        commands.append(p)
        return p

    g = sub.add_parser("graph", help="graph generation and validation")
    gsub = g.add_subparsers(dest="subcommand", required=True)
    gg = command(gsub, "gen", cmd_graph_gen)
    gg.add_argument("kind", help="chain:N[:angles] | cluster:RxC | zigzag:N | cnot")
    gv = command(gsub, "validate", cmd_graph_validate)
    gv.add_argument("--graph", required=True)

    f = sub.add_parser("gflow", help="gflow search, verification, zig-zag family")
    fsub = f.add_subparsers(dest="subcommand", required=True)
    ff = command(fsub, "find", cmd_gflow_find)
    ff.add_argument("--graph", required=True)
    fv = command(fsub, "verify", cmd_gflow_verify)
    fv.add_argument("--graph", required=True)
    fv.add_argument("--gflow", required=True)
    fz = command(fsub, "zigzag", cmd_gflow_zigzag)
    fz.add_argument("--n", type=int, required=True)
    fz.add_argument("--r", type=int, required=True)

    c = command(sub, "compile", cmd_compile, help="build a schedule and print it")
    _add_schedule(c)

    gs = command(sub, "gapscan", cmd_gapscan, help="exact spectra across the interpolation")
    _add_schedule(gs)
    gs.add_argument("--step", type=int, help="1-based step (default: all)")
    gs.add_argument("--s-grid", type=int, default=101, dest="s_grid")
    gs.add_argument("--levels", type=int, default=6)

    ev = command(sub, "evolve", cmd_evolve,
                 help="integrate a schedule, extract the logical unitary")
    _add_schedule(ev)
    ev.add_argument("--tau", type=float, default=200.0)
    ev.add_argument("--target", choices=["none", "chain"], default="none")

    ro = command(sub, "reorder", cmd_reorder,
                 help="reordered schedules: feasibility and leakage")
    _add_common(ro)
    ro.add_argument("--order", required=True)
    ro.add_argument("--mode", choices=["fixed", "strip"], default="fixed")
    ro.add_argument("--tau", default=None, help="comma-separated taus for a leakage table")
    ro.add_argument("--leakage-csv", default=None, dest="leakage_csv",
                    help="also write the leakage table as CSV (tau,leakage,fidelity); "
                    "'-' for stdout, which then needs --out FILE")
    ro.add_argument("--gamma", type=float, default=1.0)

    mb = command(sub, "mbqc", cmd_mbqc, help="measurement-pattern reference simulation")
    _add_common(mb)
    mb.add_argument("--input", default=None, help="comma-separated complex amplitudes")
    mb.add_argument("--outcomes", default="zeros", help="zeros | random")
    mb.add_argument("--seed", type=int, default=0, help="seed of --outcomes random")

    bo = command(sub, "bounds", cmd_bounds, help="per-step runtime bounds as CSV")
    _add_schedule(bo)
    bo.add_argument("--delta", type=float, default=1.0)
    bo.add_argument("--epsilon", type=float, default=0.01)
    bo.add_argument("--c-delta", type=float, default=1.0, dest="c_delta")
    bo.add_argument("--s-grid", type=int, default=101, dest="s_grid")

    ga = command(sub, "gadget", cmd_gadget, help="perturbation-gadget coefficient and threshold")
    ga.add_argument("--k", type=int, required=True)
    ga.add_argument("--lam", type=float, required=True)

    for p in commands:
        p.add_argument("--out", default=None, help="output path (default: stdout)")
    return ap


_PARSER: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        for dest, value in vars(args).items():
            if isinstance(value, float):
                _finite(value, "--" + dest.replace("_", "-"))
        low, high = GAMMA_RANGE
        if "gamma" in args and not low <= args.gamma <= high:
            raise CliError(f"--gamma must lie in [{low:g}, {high:g}], got {args.gamma}")
        outputs = [getattr(args, dest, None) for dest in ("out", "leakage_csv")]
        for path in outputs:
            _check_writable(path)
        if outputs[1] == "-" and outputs[0] in (None, "-"):
            raise CliError("--leakage-csv - and --out would both write to stdout")
        text, code = args.func(args)
        _write(args.out, text)
        return code
    except ValueError as exc:
        print(f"error: {_clip(str(exc), 180)}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else 2


if __name__ == "__main__":
    sys.exit(main())
