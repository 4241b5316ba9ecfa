"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``).

Criterion 4's literal reading (the 6-qubit two-row graph yields the plain
CNOT and its computational-basis truth table) is unattainable: the graph
pins the entangling rung between the middle columns, which realizes CNOT
conjugated by a Hadamard on the control wire at both ends, exactly.  That
test is marked xfail(strict) and the realized-gate consistency checks run
alongside it; the README's conventions section documents the identity.
"""

import math

import numpy as np
import pytest

from agqc.compiler import (
    AdiabaticBudget,
    Schedule,
    ScheduleStep,
    compile_layered,
    compile_one_step,
    compile_reordered_fixed,
    compile_reordered_strip,
    compile_stepwise,
    delta1_gap,
    hamiltonian_degree,
    runtime_bound,
)
from agqc.gflow import find_gflow, verify_gflow, zigzag_gflow_family
from agqc.graph import generate_chain, generate_cnot_graph, generate_zigzag
from agqc.logical import compare
from agqc.pauli import (
    Commutation,
    RotatedPauliOp,
    commutes,
    one_step_update,
    single,
    stabilizer_generator,
    stabilizer_set,
)
from agqc.sim import (
    conserved_operator_check,
    evolve,
    mbqc_logical_unitary,
    mbqc_reference_run,
    spectral_scan,
)

from conftest import chain_gflow

S_GRID_11 = [i / 10 for i in range(11)]
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_gap_oracle():
    """Gap law: diagonalized gaps equal 2 gamma sqrt((1-s)^2 + s^2)."""
    worst = 0.0
    rng = np.random.default_rng(1)
    for n in range(3, 9):
        angles = [0.0] + [float(rng.uniform(0, 2 * math.pi)) for _ in range(n - 2)] + [0.0]
        sched = compile_stepwise(generate_chain(n, angles), chain_gflow(n))
        for k in (0, len(sched.steps) // 2):
            scan = spectral_scan(sched, k, S_GRID_11)
            for i, s in enumerate(S_GRID_11):
                worst = max(worst, abs(scan.gap[i] - 2 * math.hypot(1 - s, s)))
    for u in range(1, 5):
        sched = compile_layered(generate_zigzag(u), zigzag_gflow_family(u, u))
        scan = spectral_scan(sched, 0, S_GRID_11)
        for i, s in enumerate(S_GRID_11):
            worst = max(worst, abs(scan.gap[i] - 2 * math.hypot(1 - s, s)))
        # minimum sqrt(2) gamma at s = 1/2, independent of |U|
        i_min = int(np.argmin(scan.gap))
        assert scan.s_grid[i_min] == 0.5
        worst = max(worst, abs(scan.gap[i_min] - math.sqrt(2.0)))
    report(1, worst <= 1e-9, f"max |gap - 2 gamma eta| = {worst:.2e} <= 1e-9 "
           "(chains n=3..8, zigzag |U|=1..4; min sqrt(2) at s=1/2)")


def test_criterion_2_bound_scaling():
    """Runtime bounds equal tau0 |U|^(1+delta) exactly; zigzag totals sandwich."""
    budget = AdiabaticBudget(delta=1.0, epsilon=0.01, c_delta=1.0, gamma=1.0)
    tau0 = budget.tau0
    exact = True
    for n, r in ((4, 1), (4, 2), (4, 4), (8, 2)):
        sched = compile_layered(generate_zigzag(n), zigzag_gflow_family(n, r))
        for step in sched.steps:
            exact &= runtime_bound(step, budget) == tau0 * step.u_size ** (
                1.0 + budget.delta
            )
    n = 8
    lines = []
    sandwich = True
    for r in (1, 2, n):
        sched = compile_layered(generate_zigzag(n), zigzag_gflow_family(n, r))
        total = sum(runtime_bound(st, budget) for st in sched.steps)
        lines.append(f"r={r}: total={total / tau0:.0f} tau0")
        sandwich &= n * tau0 <= total <= tau0 * n ** (1.0 + budget.delta) + 1e-9
        if r == n:
            exact &= total == tau0 * n ** (1.0 + budget.delta)
    report(2, exact and sandwich,
           "bounds equal tau0*|U|^(1+delta) exactly; zigzag totals within the "
           f"[n, n^(1+delta)] tau0 sandwich ({'; '.join(lines)})")


def test_criterion_3_model_equivalence():
    """AGQC evolve vs MBQC reference on 20 random chains, tau scaling."""
    rng = np.random.default_rng(7)
    sizes = [3] * 6 + [4] * 7 + [5] * 7
    d200, d400 = [], []
    for n in sizes:
        angles = [0.0] + [float(rng.uniform(0, 2 * math.pi)) for _ in range(n - 2)] + [0.0]
        g = generate_chain(n, angles)
        gf = chain_gflow(n)
        u_mbqc = mbqc_logical_unitary(g, gf)
        sched = compile_stepwise(g, gf)
        d200.append(compare(evolve(sched, 200.0).overlap_matrix, u_mbqc))
        d400.append(compare(evolve(sched, 400.0).overlap_matrix, u_mbqc))
    all_small = all(d <= 1e-2 for d in d200)
    improved = sum(b < a for a, b in zip(d200, d400))
    report(3, all_small and improved >= 19,
           f"max distance at tau=200 is {max(d200):.2e} <= 1e-2; tau=400 "
           f"strictly smaller in {improved}/20 cases (>= 19 required)")


def _cnot_setup():
    g = generate_cnot_graph()
    gf = find_gflow(g)
    return g, gf


@pytest.mark.xfail(
    strict=True,
    reason="the two-row graph provably realizes the Hadamard-dressed CNOT "
    "(H x 1) CNOT (H x 1), not the plain CNOT; the realized-gate test "
    "alongside carries the attainable content",
)
def test_criterion_4_cnot_literal():
    """Literal reading: logical unitary = CNOT; computational truth table."""
    g, gf = _cnot_setup()
    res = evolve(compile_stepwise(g, gf), 200.0)
    dist = compare(res.logical_unitary, CNOT)
    table_ok = True
    for b in range(4):
        e = np.zeros(4, dtype=complex)
        e[b] = 1.0
        out = mbqc_reference_run(g, gf, e).output_state
        want = CNOT @ e
        table_ok &= abs(abs(np.vdot(want, out)) - 1.0) < 1e-10
    ok = dist <= 1e-2 and table_ok
    print(f"[criterion 4 / literal] {'PASS' if ok else 'FAIL'}: distance to plain "
          f"CNOT = {dist:.3f} (<= 1e-2 required); computational truth table "
          f"{'exact' if table_ok else 'not reproduced'} - the realized gate is "
          "(H x 1) CNOT (H x 1); see ledger")
    assert ok


def test_criterion_4_cnot_realized_gate():
    """Attainable content: the realized entangling gate is consistent across
    AGQC and MBQC and equals the Hadamard-dressed CNOT exactly; the CNOT
    truth table holds with the control encoded/read in the X basis."""
    g, gf = _cnot_setup()
    dressed = np.kron(HADAMARD, np.eye(2)) @ CNOT @ np.kron(HADAMARD, np.eye(2))
    res = evolve(compile_stepwise(g, gf), 200.0)
    d_agqc = compare(res.logical_unitary, dressed)
    u_mbqc = mbqc_logical_unitary(g, gf)
    d_mbqc = compare(u_mbqc, dressed)
    d_cross = compare(res.overlap_matrix, u_mbqc)
    # CNOT truth table in the (X-basis control) x (Z-basis target) frame
    hi = np.kron(HADAMARD, np.eye(2))
    table_ok = True
    for b in range(4):
        e = np.zeros(4, dtype=complex)
        e[b] = 1.0
        out = mbqc_reference_run(g, gf, hi @ e).output_state
        want = hi @ CNOT @ e
        table_ok &= abs(abs(np.vdot(want, out)) - 1.0) < 1e-10
    ok = d_agqc <= 1e-2 and d_mbqc <= 1e-10 and d_cross <= 1e-2 and table_ok
    report(4, ok,
           f"realized gate (H x 1) CNOT (H x 1): AGQC distance {d_agqc:.1e} <= 1e-2, "
           f"MBQC distance {d_mbqc:.1e}, AGQC-vs-MBQC {d_cross:.1e}; CNOT truth "
           f"table exact in the X-basis-control frame: {table_ok}")


def test_criterion_5_reordering():
    """Fixed (3,1,2): degeneracy 4, T1 T3 certified, leakage plateau; strip ok."""
    g = generate_chain(4, [0.0] * 4)
    gf = chain_gflow(4)
    fixed, rep = compile_reordered_fixed(g, gf, [2, 0, 1])

    scan = spectral_scan(fixed, 0, [1.0])
    deg_ok = scan.ground_degeneracy[0] == 4

    t1t3 = RotatedPauliOp.from_pauli(
        stabilizer_generator(g, 1).mul(stabilizer_generator(g, 3))
    )
    chk = conserved_operator_check(fixed, 0, [t1t3])[0]
    cert_ok = chk.symbolic and chk.conserved
    cert_ok &= rep.steps[0].protecting_product == frozenset({0, 2})

    taus = [10.0, 100.0, 1000.0, 10000.0]
    rows = [(tau, evolve(fixed, tau).leakage) for tau in taus]
    plateau_ok = all(leak > 0.05 for _, leak in rows)

    strip = compile_reordered_strip(g, gf, [2, 0, 1])
    strip_leak = evolve(strip, 200.0).leakage
    strip_ok = strip_leak <= 1e-3

    ok = deg_ok and cert_ok and plateau_ok and strip_ok
    report(5, ok,
           f"fixed: end-of-step-1 degeneracy {scan.ground_degeneracy[0]} (=4), "
           f"T1T3 certified {cert_ok}, leakage "
           f"{', '.join(f'{l:.3f}@{t:.0f}' for t, l in rows)} all > 0.05; "
           f"strip leakage {strip_leak:.1e} <= 1e-3 at tau=200")


def test_criterion_6_delta1_formula():
    """Closed form vs diagonalization; exact endpoint values."""
    g = generate_chain(4, [0.0] * 4)
    gf = chain_gflow(4)
    terms = stabilizer_set(g, gf)
    worst = 0.0
    for k in range(4):
        theta = k * math.pi / 6
        intro = RotatedPauliOp.from_parts(single(4, 1, "X"), {1: theta})
        step = ScheduleStep({1: terms[1]}, {1: intro}, (terms[0], terms[2]))
        sched = Schedule((step,), 1.0, g, gf)
        scan = spectral_scan(sched, 0, S_GRID_11)
        for i, s in enumerate(S_GRID_11):
            worst = max(worst, abs(scan.gap[i] - delta1_gap(theta, s)))
    exact_ok = (
        abs(delta1_gap(math.pi / 2, 1.0)) <= 1e-12
        and abs(delta1_gap(0.0, 0.5) - math.sqrt(2.0)) <= 1e-12
    )
    report(6, worst <= 1e-9 and exact_ok,
           f"max |numeric - closed form| = {worst:.2e} <= 1e-9 over "
           "theta2 in {0, pi/6, pi/3, pi/2} x 11 s-points; "
           "Delta1(pi/2,1) = 0 and Delta1(0,1/2) = sqrt(2) to 1e-12")


def test_criterion_7_gflow_combinatorics():
    """Zigzag n=8 family: verify, depth, degree, cardinality, minimal depth."""
    n = 8
    g = generate_zigzag(n)
    ok = True
    details = []
    for r in range(1, n + 1):
        gf = zigzag_gflow_family(n, r)
        rep = verify_gflow(g, gf)
        ok &= rep.valid
        ok &= rep.depth == math.ceil(n / r)
        ok &= gf.max_correcting_set_size() <= r
        k_max = hamiltonian_degree(compile_layered(g, gf))
        if r <= n - 1:
            ok &= k_max == r + 2
        else:
            # r = n has no interior vertex; the clamped support peaks at n+1
            ok &= k_max == n + 1
        details.append(f"r={r}:d={rep.depth},k={k_max}")
    found = find_gflow(g)
    ok &= found is not None and verify_gflow(g, found).valid
    ok &= all(
        found.depth <= zigzag_gflow_family(n, r).depth for r in range(1, n + 1)
    )
    report(7, ok,
           f"zigzag n=8: all gflows valid, depth=ceil(8/r), k_max=r+2 (interior), "
           f"cardinality <= r; find_gflow depth {found.depth} is minimal "
           f"({' '.join(details)})")


def test_criterion_8_one_step_clifford():
    """Swept stabilizers commute as required; one-step matches stepwise."""
    clifford_sets = {
        4: [0.0, math.pi / 2, math.pi, 0.0],
        5: [0.0, math.pi, math.pi / 2, 3 * math.pi / 2, 0.0],
        6: [0.0, math.pi / 2, math.pi / 2, math.pi, 3 * math.pi / 2, 0.0],
    }
    cases = [(generate_chain(n, a), chain_gflow(n), f"chain{n}") for n, a in clifford_sets.items()]
    cnot = generate_cnot_graph()
    cases.append((cnot, find_gflow(cnot), "cnot"))
    ok = True
    dists = []
    for g, gf, name in cases:
        updated = one_step_update(stabilizer_set(g, gf), gf)
        items = list(updated.items())
        for i, (v, t) in enumerate(items):
            for w, u in items[i + 1:]:
                ok &= commutes(t, u) is Commutation.COMMUTE
            for w, _ in items:
                want = (
                    Commutation.ANTICOMMUTE if w == v else Commutation.COMMUTE
                )
                x_w = RotatedPauliOp.from_pauli(single(g.n_vertices, w, "X"))
                ok &= commutes(t, x_w) is want
        n_steps = len(g.non_outputs)
        res_sw = evolve(compile_stepwise(g, gf), 200.0)
        res_os = evolve(compile_one_step(g, gf), 200.0 * n_steps)
        d = compare(res_os.logical_unitary, res_sw.logical_unitary)
        dists.append(f"{name}:{d:.1e}")
        ok &= d <= 1e-2
    report(8, ok,
           "swept stabilizer sets satisfy the exact commutation targets; "
           f"one-step vs stepwise logical unitaries at matched tau: {' '.join(dists)}")
