"""Checks of agqc's outputs that the benchmark computes on its own.

Nothing here imports agqc.  Graphs, gflows, stabilizer products, closed-form
gaps and unitaries are rebuilt from their definitions, so a check compares
the program against an independent computation or against a property the
method must have, never against a stored copy of earlier output.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# graphs and gflows (0-based vertices)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    @property
    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    @property
    def non_outputs(self) -> list[int]:
        return [v for v in range(self.n) if v not in self.outputs]


def chain(n: int) -> Graph:
    return Graph(n, tuple((v, v + 1) for v in range(n - 1)), (0,), (n - 1,))


def cluster(rows: int, cols: int) -> Graph:
    """Vertex ``col * rows + row``; inputs on the first column, outputs on the last."""
    edges = []
    for c in range(cols):
        for r in range(rows):
            v = c * rows + r
            if r + 1 < rows:
                edges.append((v, v + 1))
            if c + 1 < cols:
                edges.append((v, v + rows))
    return Graph(
        rows * cols,
        tuple(edges),
        tuple(range(rows)),
        tuple((cols - 1) * rows + r for r in range(rows)),
    )


def zigzag(n: int) -> Graph:
    """Input v meets outputs n+v and n+v-1."""
    edges = [(v, n + v) for v in range(n)] + [(v + 1, n + v) for v in range(n - 1)]
    return Graph(2 * n, tuple(edges), tuple(range(n)), tuple(range(n, 2 * n)))


Gflow = tuple[dict[int, frozenset[int]], dict[int, int]]


def chain_gflow(n: int) -> Gflow:
    return {v: frozenset({v + 1}) for v in range(n - 1)}, {v: v for v in range(n - 1)}


def column_gflow(rows: int, cols: int) -> Gflow:
    """Hand-built cluster gflow: each vertex is corrected by its right neighbour."""
    g, layer = {}, {}
    for c in range(cols - 1):
        for r in range(rows):
            g[c * rows + r] = frozenset({(c + 1) * rows + r})
            layer[c * rows + r] = c
    return g, layer


def zigzag_gflow(n: int, r: int) -> Gflow:
    """The family g^r: a run of r outputs from n+v, layers in blocks of r."""
    g = {v: frozenset(range(n + v, min(n + v + r, 2 * n))) for v in range(n)}
    return g, {v: v // r for v in range(n)}


def gflow_to_doc(gf: Gflow) -> dict:
    g, layer = gf
    return {
        "g": {str(v + 1): sorted(w + 1 for w in g[v]) for v in sorted(g)},
        "layer": {str(v + 1): layer[v] for v in sorted(layer)},
    }


def gflow_from_doc(doc: dict) -> Gflow:
    g = {int(v) - 1: frozenset(w - 1 for w in ws) for v, ws in doc["g"].items()}
    return g, {int(v) - 1: int(k) for v, k in doc["layer"].items()}


def depth(gf: Gflow) -> int:
    return len(set(gf[1].values()))


def gflow_problems(graph: Graph, gf: Gflow) -> list[str]:
    """The XY-plane gflow axioms G1-G3, written out from their definitions."""
    g, layer = gf
    adj = graph.adjacency
    non_out = set(graph.non_outputs)
    problems = []
    if set(g) != non_out or set(layer) != non_out:
        problems.append(
            f"g and layer must cover exactly the non-outputs {sorted(non_out)}"
        )
        return problems
    inf = math.inf
    for v in sorted(g):
        corr = g[v]
        if corr & set(graph.inputs):
            problems.append(f"g({v}) contains an input")
        for w in corr:
            if w != v and layer.get(w, inf) <= layer[v]:
                problems.append(f"G1: {w} in g({v}) is not measured after {v}")
        for w in non_out:
            if w != v and layer[w] <= layer[v] and len(adj[w] & corr) % 2:
                problems.append(f"G2: {w} is oddly connected to g({v})")
        if v in corr or len(adj[v] & corr) % 2 == 0:
            problems.append(f"G3: g({v}) is not oddly connected to {v} alone")
    return problems


# ---------------------------------------------------------------------------
# Pauli strings: (phase exponent k of i**k, {site: letter})

Pauli = tuple[int, dict[int, str]]

_PRODUCT = {
    ("X", "Y"): (1, "Z"), ("Y", "Z"): (1, "X"), ("Z", "X"): (1, "Y"),
    ("Y", "X"): (3, "Z"), ("Z", "Y"): (3, "X"), ("X", "Z"): (3, "Y"),
}
_SIGNS = ("+1", "+i", "-1", "-i")


def pauli_mul(a: Pauli, b: Pauli) -> Pauli:
    k = a[0] + b[0]
    letters = dict(a[1])
    for v, lb in b[1].items():
        la = letters.pop(v, None)
        if la is None:
            letters[v] = lb
        elif la != lb:
            dk, letter = _PRODUCT[(la, lb)]
            k += dk
            letters[v] = letter
    return k % 4, letters


def stabilizer(adj: list[set[int]], v: int) -> Pauli:
    letters = {w: "Z" for w in adj[v]}
    letters[v] = "X"
    return 0, letters


def correcting_product(adj: list[set[int]], corr) -> Pauli:
    """T_v for zero angles: the product of the generators K_w, w in g(v)."""
    p: Pauli = (0, {})
    for w in sorted(corr):
        p = pauli_mul(p, stabilizer(adj, w))
    return p


def x_on(v: int) -> Pauli:
    return 0, {v: "X"}


def render(p: Pauli) -> str:
    letters = " ".join(f"{p[1][v]}{v + 1}" for v in sorted(p[1]))
    return f"{_SIGNS[p[0]]} . {letters or 'I'}"


def parse(text: str) -> Pauli:
    """Inverse of :func:`render`; a twisted operator is rejected."""
    parts = text.split(" . ")
    if len(parts) != 2 or parts[0] not in _SIGNS:
        raise ValueError(f"not a plain Pauli string: {text!r}")
    letters = {}
    if parts[1] != "I":
        for tok in parts[1].split():
            letters[int(tok[1:]) - 1] = tok[0]
    return _SIGNS.index(parts[0]), letters


def anticommute(a: Pauli, b: Pauli) -> bool:
    clashes = sum(1 for v, la in a[1].items() if v in b[1] and b[1][v] != la)
    return clashes % 2 == 1


# ---------------------------------------------------------------------------
# schedules rebuilt from the graph and the gflow (zero angles)


def groups(gf: Gflow, mode: str) -> list[list[int]]:
    """Replacement order: one vertex per step in measurement order, or one
    layer per step."""
    layer = gf[1]
    order = sorted(layer, key=lambda v: (layer[v], v))
    if mode == "layered":
        return [[v for v in order if layer[v] == k] for k in sorted(set(layer.values()))]
    return [[v] for v in order]


def replacement_steps(graph: Graph, gf: Gflow, batches: list[list[int]]):
    """(removed, introduced, static) per step of a T_v -> X_v schedule that
    replaces ``batches`` in order and keeps every other term."""
    adj = graph.adjacency
    terms = {v: correcting_product(adj, gf[0][v]) for v in gf[0]}
    steps, done = [], []
    for i, group in enumerate(batches):
        later = [w for grp in batches[i + 1:] for w in grp]
        steps.append((
            {v: terms[v] for v in group},
            {v: x_on(v) for v in group},
            [x_on(u) for u in done] + [terms[w] for w in later],
        ))
        done += group
    return steps


def frustrated(step) -> bool:
    removed, introduced, static = step
    movers = list(removed.values()) + list(introduced.values())
    return any(anticommute(s, m) for s in static for m in movers)


def report_problems(steps, report: dict) -> list[str]:
    """Frustration flags of a fixed reordering match the rebuilt steps, and
    the verdict is the conjunction of the per-step protections."""
    problems = [
        f"step {k}: frustrated={rep['frustrated']}"
        for k, (step, rep) in enumerate(zip(steps, report["steps"]), 1)
        if frustrated(step) != rep["frustrated"]
    ]
    if len(report["steps"]) != len(steps):
        problems.append(f"{len(report['steps'])} report steps, expected {len(steps)}")
    if report["feasible"] != all(s["protected"] for s in report["steps"]):
        problems.append("feasible disagrees with the per-step protections")
    return problems


# ---------------------------------------------------------------------------
# closed forms


def commuting_gap(s: float, gamma: float = 1.0) -> float:
    """Gap 2 gamma sqrt((1-s)^2 + s^2) of a commuting-replacement step."""
    return 2.0 * gamma * math.sqrt((1.0 - s) ** 2 + s * s)


def second_site_gap(theta2: float, s: float) -> float:
    """Delta_1 = sqrt(2(1-s+s^2) + G) - sqrt(2(1-s+s^2) - G),
    G = sqrt(2 s^2 cos(2 theta2) + 4 - 8 s + 6 s^2)."""
    big_g = math.sqrt(max(0.0, 2 * s * s * math.cos(2 * theta2) + 4 - 8 * s + 6 * s * s))
    a = 2.0 * (1.0 - s + s * s)
    return math.sqrt(max(0.0, a + big_g)) - math.sqrt(max(0.0, a - big_g))


def chain_closed_form(angles) -> np.ndarray:
    """prod_k H exp(-i theta_k Z / 2) over the measured chain vertices."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    u = np.eye(2, dtype=complex)
    for theta in angles:
        u = h @ np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]) @ u
    return u


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||a - e^{i phi} b|| at phi = arg tr(b^H a); an upper bound on the
    phase-quotiented distance."""
    phi = np.angle(np.trace(b.conj().T @ a))
    return float(np.linalg.norm(a - np.exp(1j * phi) * b, 2))


# ---------------------------------------------------------------------------
# checks


def within(name: str, value: float, limit: float) -> list[str]:
    return [] if value <= limit else [f"{name} = {value:.3e} exceeds {limit:g}"]


def unitary_problems(name: str, candidate, target, tol: float) -> list[str]:
    """Phase-quotiented distance of ``candidate`` to ``target`` is at most ``tol``."""
    if candidate is None:
        return [f"{name}: no matrix"]
    return within(f"{name} distance", phase_distance(np.asarray(candidate), target), tol)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def gapscan_rows(text: str) -> list[dict]:
    header, rows = parse_csv(text)
    return [
        {key: (float(val) if key != "degeneracy" else int(val)) for key, val in zip(header, row)}
        for row in rows
    ]


def commuting_gap_problems(rows: list[dict], tol: float = 1e-9) -> list[str]:
    """Every row of a scan of commuting steps follows the closed-form gap."""
    worst = max(abs(r["gap"] - commuting_gap(r["s"])) for r in rows)
    return within("max |gap - 2 sqrt((1-s)^2+s^2)|", worst, tol)


def bounds_problems(text: str, u_sizes: list[int], tol: float = 1e-9) -> list[str]:
    """Rows of commuting steps at the CLI's defaults (delta 1, epsilon 0.01,
    c 1, gamma 1): gap sqrt(2) gamma, ||H'|| = |U| gamma and
    tau = tau0 |U|^(1+delta), tau0 = c / (eps 2^(1+delta/2) gamma)."""
    delta, epsilon, c_delta, gamma = 1.0, 0.01, 1.0, 1.0
    header, rows = parse_csv(text)
    if header != ["step", "u_size", "gap_min", "hdot_norm", "tau_bound"]:
        return [f"bounds header {header}"]
    if [int(r[1]) for r in rows] != u_sizes:
        return [f"bounds u_size column {[int(r[1]) for r in rows]} != {u_sizes}"]
    tau0 = c_delta / (epsilon * 2 ** (1 + delta / 2) * gamma)
    problems = []
    for k, r in enumerate(rows, 1):
        u = int(r[1])
        want = (math.sqrt(2.0) * gamma, u * gamma, tau0 * u ** (1 + delta))
        for label, got, exp in zip(("gap_min", "hdot_norm", "tau_bound"), r[2:], want):
            if abs(float(got) - exp) > tol * max(1.0, exp):
                problems.append(f"bounds step {k}: {label} {got} != {exp:.12g}")
    return problems


def schedule_problems(doc: dict, steps: list[tuple[dict, dict, list]]) -> list[str]:
    """A compiled schedule equals the one rebuilt here, term for term.

    ``steps`` holds (removed, introduced, static) per step with Pauli
    values; the static terms compare as a multiset.
    """
    got = doc["steps"]
    if len(got) != len(steps):
        return [f"{len(got)} steps, expected {len(steps)}"]
    problems = []
    for k, (step, (removed, introduced, static)) in enumerate(zip(got, steps), 1):
        want_removed = {str(v + 1): render(p) for v, p in removed.items()}
        want_intro = {str(v + 1): render(p) for v, p in introduced.items()}
        if step["removed"] != want_removed:
            problems.append(f"step {k}: removed {step['removed']} != {want_removed}")
        if step["introduced"] != want_intro:
            problems.append(f"step {k}: introduced {step['introduced']} != {want_intro}")
        if sorted(step["static"]) != sorted(render(p) for p in static):
            problems.append(f"step {k}: static terms differ")
    return problems


def one_step_problems(doc: dict) -> list[str]:
    """Swept terms of a one-step schedule: T~_v anticommutes with X_v only,
    and all T~ commute with each other."""
    (step,) = doc["steps"]
    swept = {int(v) - 1: parse(t) for v, t in step["removed"].items()}
    problems = []
    for v, t in swept.items():
        if t[0] % 2:
            problems.append(f"T~_{v + 1} is not Hermitian")
        for w, u in swept.items():
            if anticommute(t, x_on(w)) != (v == w):
                problems.append(f"T~_{v + 1} vs X_{w + 1} has the wrong commutation")
            if w > v and anticommute(t, u):
                problems.append(f"T~_{v + 1} and T~_{w + 1} anticommute")
    return problems


def degree(doc: dict) -> int:
    """Largest support among the first step's terms (the initial Hamiltonian)."""
    first = doc["steps"][0]
    terms = list(first["static"]) + list(first["removed"].values())
    return max(len(parse(t)[1]) for t in terms)
