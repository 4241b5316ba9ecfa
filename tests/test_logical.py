import math
import tracemalloc

import numpy as np
import pytest

from agqc.compiler import compile_layered, compile_one_step, compile_stepwise
from agqc.gflow import find_gflow, zigzag_gflow_family
from agqc.graph import generate_chain, generate_cluster, generate_cnot_graph, generate_zigzag
from agqc.logical import (
    LogicalFrame,
    NestedExponentError,
    chain_unitary,
    compare,
    final_frame,
    frame_unitary,
    initial_frame,
    propagate,
    propagate_schedule,
)
from agqc.pauli import Commutation, PauliString, RotatedPauliOp, commutes, single, to_matrix
from agqc.sim import evolve, mbqc_logical_unitary

from conftest import chain_gflow, cluster_gflow

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def rop(p):
    return RotatedPauliOp.from_pauli(p)


# --- frames -----------------------------------------------------------------


def test_initial_frame_chain():
    g = generate_chain(4, [0.0] * 4)
    fr = initial_frame(g, chain_gflow(4))
    assert len(fr.pairs) == 1
    x_l, z_l = fr.pairs[0]
    assert x_l == rop(PauliString(4, x=0b0001, z=0b0010))  # X1 Z2
    assert z_l == rop(single(4, 0, "Z"))


def test_initial_frame_single_edge():
    g = generate_chain(2, [0.0, 0.0])
    x_l, z_l = initial_frame(g, chain_gflow(2)).pairs[0]
    assert x_l == rop(PauliString(2, x=0b01, z=0b10))
    assert z_l == rop(single(2, 0, "Z"))


def test_initial_frame_cnot_graph():
    g = generate_cnot_graph()
    fr = initial_frame(g, find_gflow(g))
    (xa, za), (xb, zb) = fr.pairs
    assert xa == rop(PauliString(6, x=1 << 0, z=1 << 1))  # X_a1 Z_a2
    assert za == rop(single(6, 0, "Z"))
    assert xb == rop(PauliString(6, x=1 << 3, z=1 << 4))
    assert zb == rop(single(6, 3, "Z"))


def test_initial_frame_commutes_with_all_terms():
    from agqc.pauli import stabilizer_set

    for g, gf in [
        (generate_chain(5, [0.0, 0.3, 2.2, 0.9, 0.0]), chain_gflow(5)),
        (generate_zigzag(4), zigzag_gflow_family(4, 2)),
        (generate_cnot_graph(), find_gflow(generate_cnot_graph())),
    ]:
        fr = initial_frame(g, gf)
        terms = stabilizer_set(g, gf)
        for x_l, z_l in fr.pairs:
            assert commutes(x_l, z_l) is Commutation.ANTICOMMUTE
            for t in terms.values():
                assert commutes(x_l, t) is Commutation.COMMUTE
                assert commutes(z_l, t) is Commutation.COMMUTE


# --- propagation ------------------------------------------------------------


def test_propagate_chain_first_step_zero_angle():
    g = generate_chain(3, [0.0] * 3)
    sched = compile_stepwise(g, chain_gflow(3))
    fr = propagate(initial_frame(g, chain_gflow(3)), sched.steps[0])
    x_l, z_l = fr.pairs[0]
    assert x_l == rop(single(3, 1, "Z"))  # X_L -> Z2
    assert z_l == rop(PauliString(3, x=0b010, z=0b100))  # Z_L -> X2 Z3


def test_propagate_chain_first_step_halfpi():
    g = generate_chain(3, [0.0, math.pi / 2, 0.0])
    sched = compile_stepwise(g, chain_gflow(3))
    fr = propagate(initial_frame(g, chain_gflow(3)), sched.steps[0])
    _, z_l = fr.pairs[0]
    assert z_l.pauli.letter(1) == "Y" and z_l.pauli.letter(2) == "Z"  # Y2 Z3


def test_propagate_general_angle_one_step_deep():
    theta = math.pi / 5
    g = generate_chain(3, [0.0, theta, 0.0])
    sched = compile_stepwise(g, chain_gflow(3))
    fr = propagate(initial_frame(g, chain_gflow(3)), sched.steps[0])
    _, z_l = fr.pairs[0]
    assert dict(z_l.twist) == {1: pytest.approx(theta)}
    # the second step introduces X2 under the twist: nested exponent refused
    with pytest.raises(NestedExponentError):
        propagate(fr, sched.steps[1])


def test_propagate_full_clifford_schedule_lands_on_outputs():
    for angles in ([0.0, 0.0, 0.0, 0.0], [0.0, math.pi / 2, math.pi, 0.0]):
        g = generate_chain(4, angles)
        sched = compile_stepwise(g, chain_gflow(4))
        fr = propagate_schedule(initial_frame(g, chain_gflow(4)), sched.steps)
        assert all((x_l.support | z_l.support) <= set(g.outputs) for x_l, z_l in fr.pairs)
        x_l, z_l = fr.pairs[0]
        assert commutes(x_l, z_l) is Commutation.ANTICOMMUTE


def test_propagate_preserves_anticommutation_each_step():
    g = generate_cnot_graph()
    gf = find_gflow(g)
    sched = compile_layered(g, gf)
    fr = initial_frame(g, gf)
    for step in sched.steps:
        fr = propagate(fr, step)
        for x_l, z_l in fr.pairs:
            assert commutes(x_l, z_l) is Commutation.ANTICOMMUTE


def test_propagate_cnot_conjugation_table():
    # the realized map: X_A -> X_A, Z_A -> Z_A X_B, X_B -> X_B, Z_B -> X_A Z_B
    # (CNOT conjugation with the control's X/Z axes swapped)
    g = generate_cnot_graph()
    gf = find_gflow(g)
    sched = compile_layered(g, gf)
    fr = propagate_schedule(initial_frame(g, gf), sched.steps)
    (xa, za), (xb, zb) = fr.pairs
    a3, b3 = 2, 5
    assert xa == rop(single(6, a3, "X"))
    assert za == rop(PauliString(6, x=1 << b3, z=1 << a3))  # Z_a3 X_b3
    assert xb == rop(single(6, b3, "X"))
    assert zb == rop(PauliString(6, x=1 << a3, z=1 << b3))  # X_a3 Z_b3


def test_propagate_cnot_matches_dense_conjugation_oracle():
    # brute-force oracle: conjugate each initial logical operator by the
    # exact evolved unitary and compare with the propagated operator
    g = generate_cnot_graph()
    gf = find_gflow(g)
    sched = compile_layered(g, gf)
    fr0 = initial_frame(g, gf)
    fr1 = propagate_schedule(fr0, sched.steps)
    res = evolve(sched, 150.0)
    u_log = frame_unitary(fr1, g)
    for i, (pairs0, pairs1) in enumerate(zip(fr0.pairs, fr1.pairs)):
        for base, img in zip((single(2, i, "X"), single(2, i, "Z")), pairs1):
            want = to_matrix(base)
            got = u_log.conj().T @ _logical_matrix(img, g) @ u_log
            assert np.abs(got - want).max() < 1e-9
    # and the frame unitary agrees with the dense evolution
    assert compare(u_log, res.logical_unitary) < 1e-6


def _logical_matrix(op, graph):
    outs = graph.outputs
    small_x = small_z = 0
    for i, o in enumerate(outs):
        if op.pauli.x >> o & 1:
            small_x |= 1 << i
        if op.pauli.z >> o & 1:
            small_z |= 1 << i
    return to_matrix(PauliString(len(outs), small_x, small_z, op.pauli.phase_exp))


# --- chain unitary ----------------------------------------------------------


def test_chain_unitary_all_zero_angles_is_hadamard_power():
    u = chain_unitary([0.0, 0.0, 0.0])  # n=4: three replacements
    assert compare(u, H) < 1e-12  # H^3 = H


def test_chain_unitary_two_vertices():
    assert compare(chain_unitary([0.0]), H) < 1e-12


def test_chain_unitary_three_vertices_halfpi():
    uz = np.diag([np.exp(-0.25j * math.pi), np.exp(0.25j * math.pi)])
    want = H @ uz @ H
    assert compare(chain_unitary([0.0, math.pi / 2]), want) < 1e-12


def test_chain_unitary_requires_zero_first_angle():
    with pytest.raises(ValueError):
        chain_unitary([0.3, 0.0])


def test_chain_unitary_matches_dense_oracle(rng):
    for n in (3, 4, 5):
        angles = [0.0] + [float(rng.uniform(0, 2 * math.pi)) for _ in range(n - 2)]
        g = generate_chain(n, angles + [0.0])
        res = evolve(compile_stepwise(g, chain_gflow(n)), 120.0)
        assert compare(res.logical_unitary, chain_unitary(angles)) < 1e-4


def test_clifford_propagation_equals_chain_unitary_conjugation():
    angles = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    g = generate_chain(5, angles + [0.0])
    gf = chain_gflow(5)
    sched = compile_stepwise(g, gf)
    fr = propagate_schedule(initial_frame(g, gf), sched.steps)
    u = chain_unitary(angles)
    for base, img in zip((single(1, 0, "X"), single(1, 0, "Z")), fr.pairs[0]):
        want = u @ to_matrix(base) @ u.conj().T
        got = _logical_matrix(img, g)
        assert np.abs(got - want).max() < 1e-12


# --- comparison -------------------------------------------------------------


def test_compare_identical_and_phase():
    u = H @ np.diag([1, 1j])
    assert compare(u, u) < 1e-12
    assert compare(u, np.exp(0.77j) * u) < 1e-10


def test_compare_hadamard_vs_identity():
    # H - e^{i phi} I is normal with eigenvalues +-1 - e^{i phi}; the max
    # modulus is minimized at phi = pi/2 where both evaluate to sqrt(2)
    assert compare(H, np.eye(2)) == pytest.approx(math.sqrt(2.0), abs=1e-6)


def _compare_by_scan(a, b):
    """Phase scan plus golden-section refinement, one 2-norm per phase."""
    phis = np.linspace(-math.pi, math.pi, 256, endpoint=False)
    dists = [np.linalg.norm(a - np.exp(1j * p) * b, 2) for p in phis]
    i0 = int(np.argmin(dists))
    lo = phis[i0] - 2 * math.pi / 256
    hi = phis[i0] + 2 * math.pi / 256
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        m1 = hi - golden * (hi - lo)
        m2 = lo + golden * (hi - lo)
        d1 = np.linalg.norm(a - np.exp(1j * m1) * b, 2)
        d2 = np.linalg.norm(a - np.exp(1j * m2) * b, 2)
        if d1 < d2:
            hi = m2
        else:
            lo = m1
    phi = 0.5 * (lo + hi)
    return float(np.linalg.norm(a - np.exp(1j * phi) * b, 2))


def _frobenius_phase_distance(a, b):
    phi = np.angle(np.trace(b.conj().T @ a))
    return float(np.linalg.norm(a - np.exp(1j * phi) * b, 2))


def _compare_cases():
    rng = np.random.default_rng(2009)
    cases = [(H, np.eye(2))]
    for d in (2, 4, 8):
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            cases.append((np.exp(1j * rng.uniform(0, 2 * math.pi)) * q + 1e-3 * noise, q))
            a, b = (rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d)))
            cases.append((a, b))
    return cases


def test_compare_never_exceeds_the_scan_or_the_frobenius_phase():
    for a, b in _compare_cases():
        got = compare(a, b)
        assert got <= _compare_by_scan(a, b) + 1e-12
        assert got <= _frobenius_phase_distance(a, b) + 1e-14
    assert compare(H, np.eye(2)) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def _svd_inputs(monkeypatch):
    """Record the shape of every array ``np.linalg.svd`` is given; a stack
    of 256 matrices is the phase scan."""
    seen = []
    svd = np.linalg.svd

    def spy(m, *args, **kwargs):
        seen.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


def _agrees_with_scan(a, b, monkeypatch):
    """compare(a, b), checked against the scan to 1e-13; also returns
    whether it ran the scan."""
    want = _compare_by_scan(a, b)
    seen = _svd_inputs(monkeypatch)
    got = compare(a, b)
    monkeypatch.undo()
    assert abs(got - want) < 1e-13
    return got, any(len(shape) == 3 and shape[0] == 256 for shape in seen)


def test_compare_of_a_proportional_pair_is_zero_without_a_scan(monkeypatch):
    rng = np.random.default_rng(5)
    for d in (1, 2, 4, 8):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        got, scanned = _agrees_with_scan(np.exp(2.1j) * q, q, monkeypatch)
        assert got < 1e-15 and not scanned


def test_compare_brackets_near_unitary_overlaps_without_a_scan(monkeypatch):
    near_unitary = _compare_cases()[1::2]
    assert len(near_unitary) == 30
    for a, b in near_unitary:
        assert not _agrees_with_scan(a, b, monkeypatch)[1]


def test_compare_falls_back_on_the_scan_for_general_pairs(monkeypatch):
    # H - e^{i phi} I is normal with a kink at its minimum, and tr(H) = 0
    got, scanned = _agrees_with_scan(H, np.eye(2), monkeypatch)
    assert got == pytest.approx(math.sqrt(2.0), abs=1e-12) and scanned
    general = _compare_cases()[2::2]
    assert len(general) == 30
    for a, b in general:
        assert _agrees_with_scan(a, b, monkeypatch)[1]


@pytest.mark.parametrize(
    "graph, gf, compile_fn",
    [(generate_chain(n, [0.0, *np.linspace(0.4, 2.9, n - 2), 0.0]), chain_gflow(n), compile_stepwise)
     for n in (3, 4, 5)]
    + [(generate_zigzag(u), zigzag_gflow_family(u, u), compile_layered) for u in (2, 3)]
    + [(generate_cluster(2, 2), cluster_gflow(2, 2), fn)
       for fn in (compile_stepwise, compile_layered, compile_one_step)],
)
def test_compare_on_evolved_overlaps_needs_no_scan(graph, gf, compile_fn, monkeypatch):
    res = evolve(compile_fn(graph, gf), 200.0)
    got, scanned = _agrees_with_scan(res.overlap_matrix, mbqc_logical_unitary(graph, gf), monkeypatch)
    assert got < 1e-2 and not scanned


def test_compare_dimension_mismatch():
    with pytest.raises(ValueError):
        compare(np.eye(2), np.eye(4))


def test_frame_unitary_identity_frame():
    g = generate_chain(3, [0.0] * 3)
    fr = final_frame(g)
    u = frame_unitary(fr, g)
    assert compare(u, np.eye(2)) < 1e-9


def _zigzag_frame(n):
    g = generate_zigzag(n)
    gf = zigzag_gflow_family(n, n)
    return propagate_schedule(initial_frame(g, gf), compile_layered(g, gf).steps), g, gf


@pytest.mark.parametrize("n", [3, 4])
def test_frame_unitary_reproduces_the_conjugation_table(n):
    fr, g, _ = _zigzag_frame(n)
    u = frame_unitary(fr, g)
    assert np.abs(u.conj().T @ u - np.eye(1 << n)).max() < 1e-12
    for i, pair in enumerate(fr.pairs):
        for base, img in zip((single(n, i, "X"), single(n, i, "Z")), pair):
            got = u @ to_matrix(base) @ u.conj().T
            assert np.abs(got - _logical_matrix(img, g)).max() < 1e-12


def test_frame_unitary_at_five_logical_qubits_matches_mbqc_in_small_memory():
    fr, g, gf = _zigzag_frame(5)
    tracemalloc.start()
    try:
        u = frame_unitary(fr, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert compare(u, mbqc_logical_unitary(g, gf)) < 1e-12


def _frame(*pairs):
    """Frame on the 4-vertex zig-zag (outputs 2 and 3) from (X_L, Z_L)
    images given as (x, z, phase_exp) triples."""
    return LogicalFrame(tuple(
        tuple(rop(PauliString(4, x, z, ph)) for x, z, ph in pair) for pair in pairs
    ))


_X2, _Z2, _X3, _Z3 = (0b0100, 0, 0), (0, 0b0100, 0), (0b1000, 0, 0), (0, 0b1000, 0)


@pytest.mark.parametrize("frame, error, match", [
    (LogicalFrame(((RotatedPauliOp.from_parts(single(4, 2, "X"), {2: 0.3}), rop(single(4, 2, "Z"))),
                   (rop(single(4, 3, "X")), rop(single(4, 3, "Z"))))),
     NestedExponentError, "not Clifford"),
    (_frame((_X2, (0, 0b0001, 0)), (_X3, _Z3)), ValueError, "not supported on the outputs"),
    (_frame((_X2, _Z2)), ValueError, r"\|inputs\| == \|outputs\|"),
    (_frame((_X2, _X2), (_X3, _Z3)), ValueError, "not a consistent Pauli-map"),
    (_frame(((0b0100, 0, 1), _Z2), (_X3, _Z3)), ValueError, "not a consistent Pauli-map"),
    (_frame((_X2, _Z2), ((0b1000, 0b0100, 0), _Z3)), ValueError, "not a consistent Pauli-map"),
], ids=["twisted", "off-outputs", "k-mismatch", "x-equals-z", "odd-phase", "anticommuting-xs"])
def test_frame_unitary_rejects_frames_that_are_no_pauli_map(frame, error, match):
    with pytest.raises(error, match=match):
        frame_unitary(frame, generate_zigzag(2))
