import math
import tracemalloc

import numpy as np
import pytest

from agqc.compiler import (
    Schedule,
    ScheduleStep,
    compile_layered,
    compile_one_step,
    compile_reordered_fixed,
    compile_reordered_strip,
    compile_stepwise,
    delta1_gap,
    step_gap_analytic,
)
from agqc.gflow import Gflow, find_gflow, zigzag_gflow_family
from agqc.graph import (
    Plane,
    generate_chain,
    generate_cluster,
    generate_cnot_graph,
    generate_zigzag,
    make_graph,
)
from agqc.logical import initial_frame
from agqc.logical import chain_unitary, compare
from agqc import _linalg, budget, sectors, sim
from agqc.budget import SizeCapError
from agqc._linalg import (
    _su2_halve,
    _two_level,
    eigvalsh,
    expmi,
    halving_order,
    ordered_apply,
    su2_class_ramp,
    su2_classes,
    su2_exp,
)
from agqc.pauli import (
    Commutation,
    PauliString,
    RotatedPauliOp,
    _parity,
    apply_op,
    commutes,
    projector_apply,
    single,
    stabilizer_generator,
    stabilizer_set,
    to_matrix,
)
from agqc.sim import (
    conserved_operator_check,
    evolve,
    logical_basis_from_ops,
    mbqc_logical_unitary,
    mbqc_reference_run,
    spectral_scan,
    step_endpoint_matrices,
    _CF4_A1,
    _CF4_A2,
    _CF4_NODE,
    _cf4_weights,
    _is_pair_step,
    _propagate_pair_step,
)
from agqc.sectors import conserved_generators, frame_strings, step_blocks, twist_frame

from conftest import chain_gflow, cluster_gflow, in_span
import dense_oracle
from dense_oracle import assemble, ground_projector, propagate_step


def rop(p):
    return RotatedPauliOp.from_pauli(p)


def _pair_coefficients(gamma, tau, dt_max):
    """The pair coefficients at the substep count that ``dt_max`` gives tau."""
    return sim._pair_coefficients(gamma, tau, _cf4_weights(sim._n_substeps(tau, dt_max)))


def _propagate_blocks(blocks, psi, taus, dt_max):
    """``StepBlocks.propagate`` over each tau of ``taus`` (one per equal share
    of psi's columns) at the substep counts that ``dt_max`` gives them."""
    n_subs = [sim._n_substeps(t, dt_max) for t in taus]
    return blocks.propagate(psi, [t / n for t, n in zip(taus, n_subs)], map(_cf4_weights, n_subs))


# --- assembly ---------------------------------------------------------------


def test_assemble_endpoints_match_term_sums():
    g = generate_chain(4, [0.0] * 4)
    sched = compile_stepwise(g, chain_gflow(4))
    terms = stabilizer_set(g, chain_gflow(4))
    h0 = -sum(to_matrix(t) for t in terms.values())
    assert np.allclose(assemble(sched, 0, 0.0), h0, atol=1e-12)
    h1 = (
        -to_matrix(single(4, 0, "X"))
        - to_matrix(terms[1])
        - to_matrix(terms[2])
    )
    assert np.allclose(assemble(sched, 0, 1.0), h1, atol=1e-12)


def test_assemble_reorder_fixed_matches_kept_terms():
    # H(s) = -T1 - T2 - (1-s) T3 - s X3
    g = generate_chain(4, [0.0] * 4)
    sched, _ = compile_reordered_fixed(g, chain_gflow(4), [2, 0, 1])
    terms = stabilizer_set(g, chain_gflow(4))
    s = 0.3
    want = (
        -to_matrix(terms[0])
        - to_matrix(terms[1])
        - (1 - s) * to_matrix(terms[2])
        - s * to_matrix(single(4, 2, "X"))
    )
    assert np.allclose(assemble(sched, 0, s), want, atol=1e-12)


def test_assemble_respects_gamma():
    g = generate_chain(3, [0.0] * 3)
    a = assemble(compile_stepwise(g, chain_gflow(3), gamma=2.5), 0, 0.4)
    b = assemble(compile_stepwise(g, chain_gflow(3), gamma=1.0), 0, 0.4)
    assert np.allclose(a, 2.5 * b)


def test_assemble_hermitian_random_angles(rng):
    angles = [0.0] + [float(rng.uniform(0, 2 * math.pi)) for _ in range(3)] + [0.0]
    g = generate_chain(5, angles)
    sched = compile_stepwise(g, chain_gflow(5))
    for s in (0.0, 0.37, 1.0):
        h = assemble(sched, 1, s)
        assert np.abs(h - h.conj().T).max() < 1e-12


def test_size_cap_enforced():
    g = generate_zigzag(8)  # 16 qubits
    sched = compile_layered(g, zigzag_gflow_family(8, 8))
    with pytest.raises(SizeCapError):
        assemble(sched, 0, 0.0)


def test_memory_budget_is_checked_before_allocating(monkeypatch):
    g = generate_chain(4, [0.0] * 4)
    fixed, _ = compile_reordered_fixed(g, chain_gflow(4), [2, 0, 1])
    stepwise = compile_stepwise(g, chain_gflow(4))
    # dense: 6 matrices of 16 x 16; blocks: 16-entry sector tables plus one chunk;
    # pair: a few 16-entry state vectors
    monkeypatch.setattr(budget, "MEMORY_BUDGET", 6 * 16 * 256 - 1)
    with pytest.raises(SizeCapError):
        step_endpoint_matrices(fixed, 0)
    monkeypatch.setattr(budget, "MEMORY_BUDGET", 16 * 256)
    with pytest.raises(SizeCapError):
        step_blocks(fixed, 0)
    with pytest.raises(SizeCapError):
        spectral_scan(fixed, 0, [0.0, 1.0])
    with pytest.raises(SizeCapError):
        evolve(fixed, 1.0)
    assert evolve(stepwise, 1.0).leakage >= 0.0
    monkeypatch.setattr(budget, "MEMORY_BUDGET", 16 * 16)
    with pytest.raises(SizeCapError):
        evolve(stepwise, 1.0)
    with pytest.raises(SizeCapError):
        mbqc_reference_run(g, chain_gflow(4), np.array([1.0, 0.0]))


# --- spectra ----------------------------------------------------------------


def test_spectral_scan_matches_analytic_gap():
    g = generate_chain(5, [0.0, 0.8, 2.4, 1.1, 0.0])
    sched = compile_stepwise(g, chain_gflow(5))
    grid = [i / 10 for i in range(11)]
    for k in range(len(sched.steps)):
        scan = spectral_scan(sched, k, grid)
        for i, s in enumerate(grid):
            want = step_gap_analytic(sched.steps[k], 1.0, s)
            assert abs(scan.gap[i] - want) < 1e-9
        assert all(d == 2 for d in scan.ground_degeneracy)


def test_spectral_scan_ladder_spacing_independent_of_u():
    # eigenvalues -|U| g eta, -(|U|-2) g eta, ... for the layered step
    g = generate_zigzag(3)
    sched = compile_layered(g, zigzag_gflow_family(3, 3))
    s = 0.3
    eta = math.hypot(1 - s, s)
    evals = np.linalg.eigvalsh(assemble(sched, 0, s))
    distinct = np.unique(np.round(evals, 9))
    assert np.allclose(distinct, [-3 * eta, -eta, eta, 3 * eta], atol=1e-9)
    scan = spectral_scan(sched, 0, [s])
    assert scan.gap[0] == pytest.approx(2 * eta, abs=1e-9)


def test_spectral_scan_cnot_in_order_degeneracy_four():
    g = generate_cnot_graph()
    sched = compile_stepwise(g, find_gflow(g))
    for k in (0, 3):
        scan = spectral_scan(sched, k, [0.0, 0.5, 1.0])
        assert all(d == 4 for d in scan.ground_degeneracy)  # 2^{|I|}


def test_spectral_scan_reorder_degeneracy_doubles():
    g = generate_chain(4, [0.0] * 4)
    sched, _ = compile_reordered_fixed(g, chain_gflow(4), [2, 0, 1])
    scan = spectral_scan(sched, 0, [0.0, 0.5, 1.0])
    assert scan.ground_degeneracy == (2, 2, 4)
    assert scan.gap[-1] == pytest.approx(0.0, abs=1e-9)
    assert scan.gap_above_degenerate[-1] > 0.5


def test_spectral_scan_delta1_cross_check():
    # untwisted chain with X^theta introduced on the second site
    g = generate_chain(4, [0.0] * 4)
    gf = chain_gflow(4)
    terms = stabilizer_set(g, gf)
    theta = 1.0471975511965976  # pi/3
    intro = RotatedPauliOp.from_parts(single(4, 1, "X"), {1: theta})
    step = ScheduleStep({1: terms[1]}, {1: intro}, (terms[0], terms[2]))
    sched = Schedule((step,), 1.0, g, gf)
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        scan = spectral_scan(sched, 0, [s])
        assert scan.gap[0] == pytest.approx(delta1_gap(theta, s), abs=1e-9)


# --- evolution --------------------------------------------------------------


def test_evolve_constant_hamiltonian_is_identity():
    # removed == introduced: H(s) constant, so the logical map is identity
    g = generate_chain(3, [0.0, 0.6, 0.0])
    gf = chain_gflow(3)
    base = compile_stepwise(g, gf)
    terms = stabilizer_set(g, gf)
    step = ScheduleStep({0: terms[0]}, {0: terms[0]}, base.steps[0].static_terms)
    sched = Schedule((step,), 1.0, g, gf)
    # the "final" Hamiltonian equals H0, whose reference frame is the input frame
    from agqc.logical import initial_frame
    from agqc.sim import logical_basis_from_ops

    res = evolve(sched, 37.0)
    assert res.leakage < 1e-10
    basis0 = logical_basis_from_ops(
        list(step.static_terms) + [terms[0]], initial_frame(g, gf), 3
    )
    overlap = basis0.conj().T @ res.final_states
    assert compare(overlap, np.eye(2)) < 1e-9


def test_evolve_norm_preserved_and_energy_conserved(rng):
    g = generate_chain(4, [0.0, 1.2, 0.4, 0.0])
    sched = compile_stepwise(g, chain_gflow(4))
    a, b = step_endpoint_matrices(sched, 1)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    h_fixed = a + 0.42 * b
    out = propagate_step(h_fixed, np.zeros_like(h_fixed), psi, 50.0, 0.25)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10
    e0 = np.vdot(psi, h_fixed @ psi).real
    e1 = np.vdot(out, h_fixed @ out).real
    assert abs(e0 - e1) < 1e-10


def test_integrator_fourth_order(rng):
    g = generate_chain(4, [0.0, 0.9, 2.1, 0.0])
    a, b = step_endpoint_matrices(compile_stepwise(g, chain_gflow(4)), 1)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    ref = propagate_step(a, b, psi, 5.0, 0.002)
    e1 = np.linalg.norm(propagate_step(a, b, psi, 5.0, 0.4) - ref)
    e2 = np.linalg.norm(propagate_step(a, b, psi, 5.0, 0.2) - ref)
    assert e1 / e2 > 10.0  # ~16 for a 4th-order scheme


def test_evolve_chain_matches_prediction_any_angle():
    theta = 1.234
    g = generate_chain(3, [0.0, theta, 0.0])
    sched = compile_stepwise(g, chain_gflow(3))
    res = evolve(sched, 120.0)
    assert res.leakage < 1e-4
    assert compare(res.logical_unitary, chain_unitary([0.0, theta])) < 1e-3


def test_evolve_tau_list_per_step():
    g = generate_chain(3, [0.0, 0.3, 0.0])
    sched = compile_stepwise(g, chain_gflow(3))
    res = evolve(sched, [60.0, 80.0])
    assert res.tau_used == (60.0, 80.0)


def test_evolve_with_initial_state():
    g = generate_chain(3, [0.0, 0.0, 0.0])
    sched = compile_stepwise(g, chain_gflow(3))
    res = evolve(sched, 80.0)
    # final_states holds the evolved logical basis: a logical state is a
    # combination of its columns, and evolution keeps its norm
    assert res.final_states.shape == (8, 2)
    psi = res.final_states @ np.array([1.0, 0.0])
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-9


def test_evolve_rejects_bad_tau():
    g = generate_chain(3, [0.0] * 3)
    sched = compile_stepwise(g, chain_gflow(3))
    with pytest.raises(ValueError):
        evolve(sched, -1.0)
    with pytest.raises(ValueError):
        evolve(sched, [10.0])


# --- two-level kernel -------------------------------------------------------


def _hermitian_stack(rng, m, scale, dim=2):
    x = rng.standard_normal((m, dim, dim)) + 1j * rng.standard_normal((m, dim, dim))
    return scale * (x + np.swapaxes(x.conj(), -1, -2)) / 2


def _su2_matrix(alpha, beta):
    """The matrices ``[[alpha, -conj(beta)], [beta, conj(alpha)]]`` of a pair stack."""
    return np.stack([np.stack([alpha, -beta.conj()], -1), np.stack([beta, alpha.conj()], -1)], -2)


def test_su2_exp_matches_eigh_form(rng):
    stacks = [_hermitian_stack(rng, 64, scale) for scale in (1e-170, 1e-8, 1.0, 30.0, 1e3)]
    stacks.append(rng.standard_normal((64, 1, 1)) * np.eye(2))  # r = 0
    stacks.append(np.zeros((3, 2, 2)))
    stacks.append(rng.standard_normal((64, 2))[..., None] * np.eye(2))  # diagonal
    stacks.append(1e3 * rng.standard_normal((64, 2))[..., None] * np.eye(2))
    for h in stacks:
        h0, z, h10, _ = _two_level(h)
        alpha, beta = su2_exp(z, h10)
        u = np.exp(-1j * h0)[:, None, None] * _su2_matrix(alpha, beta)
        assert np.all(np.isfinite(u))
        # rounding h itself moves exp(-i h) by ~eps ||h|| in either form
        tol = 1e-14 * np.maximum(1.0, np.linalg.norm(h, 2, axis=(1, 2)))
        assert np.all(np.max(np.abs(u - expmi(h)), axis=(1, 2)) <= tol)
        assert np.max(np.abs(np.abs(alpha) ** 2 + np.abs(beta) ** 2 - 1.0)) < 1e-14
    alpha, beta = su2_exp(np.array([-0.5e-170]), np.array([3e-170 + 0j]))
    assert abs(alpha[0] - 1.0) < 1e-160 and abs(beta[0]) < 1e-160


def test_closed_form_eigvalsh_matches_lapack(rng):
    stacks = [_hermitian_stack(rng, 64, scale) for scale in (1e-8, 1.0, 30.0, 1e3)]
    stacks.append(rng.standard_normal((64, 1, 1)) * np.eye(2))  # degenerate, r = 0
    stacks.append(np.zeros((3, 2, 2)))
    stacks.append(rng.standard_normal((64, 2))[..., None] * np.eye(2))  # diagonal
    stacks.append(_hermitian_stack(rng, 12, 1.0).reshape(3, 4, 2, 2))
    for h in stacks:
        want = np.linalg.eigvalsh(h)
        assert np.max(np.abs(eigvalsh(h) - want)) < 1e-12 * max(1.0, np.abs(h).max())
    h4 = _hermitian_stack(rng, 8, 1.0).reshape(2, 4, 4)
    assert np.array_equal(eigvalsh(h4), np.linalg.eigvalsh(h4))


def su2_ordered(alpha, beta, v):
    """The pair of ``U[..., -1] ... U[..., 0] V`` for the pairs U along the
    last axis of ``(alpha, beta)``, gathered into the halving order."""
    order = halving_order(alpha.shape[-1])
    return _su2_halve(alpha[..., order], beta[..., order], v)


def test_ordered_products_match_sequential_matmul(rng):
    y = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    v = su2_exp(*_two_level(_hermitian_stack(rng, 3, 1.0))[1:3])
    for m in (1, 2, 7, 16):
        u = expmi(_hermitian_stack(rng, 3 * m, 1.0, dim=4).reshape(m, 3, 4, 4))
        _, z, h10, _ = _two_level(_hermitian_stack(rng, 3 * m, 1.0).reshape(m, 3, 2, 2))
        alpha, beta = su2_exp(z, h10)
        want_u, want_su2 = y, _su2_matrix(*v)
        for k in range(m):
            want_u = u[k] @ want_u
            want_su2 = _su2_matrix(alpha[k], beta[k]) @ want_su2
        assert np.max(np.abs(ordered_apply(u, y) - want_u)) < 1e-13, m
        # su2_ordered takes the stack along the last axis
        assert np.max(np.abs(_su2_matrix(*su2_ordered(alpha.T, beta.T, v)) - want_su2)) < 1e-13, m


@pytest.mark.parametrize("kind", ["random", "diagonal", "tiny", "large"])
def test_su2_ramp_matches_products_of_eigh_exponentials(rng, kind):
    n_blocks, dt = 64, 0.3
    a, b = (_hermitian_stack(rng, n_blocks, 1.0) for _ in range(2))
    if kind == "diagonal":
        a, b = (rng.standard_normal((n_blocks, 2))[..., None] * np.eye(2) for _ in range(2))
    scale = {"tiny": 1e-170, "large": 1e3}.get(kind, 1.0)
    a, b = scale * a, scale * b
    per = _linalg.sweep_chunk(n_blocks)
    weights = rng.uniform(0.0, 1.0, 2 * per + 37)  # crosses two chunk boundaries
    phase, alpha, beta = su2_class_ramp(su2_classes(a, b), dt, weights)
    want = np.broadcast_to(np.eye(2), a.shape)
    for w in weights:
        want = expmi(dt * (0.5 * a + w * b)) @ want
    # each eigh exponential is accurate to ~eps max(1, ||dt h||)
    tol = 1e-15 * len(weights) * max(1.0, dt * scale)
    assert np.max(np.abs(phase[:, None, None] * _su2_matrix(alpha, beta) - want)) < tol


def test_su2_ramp_stays_unitary_over_8000_factors(rng):
    a, b = _hermitian_stack(rng, 8, 1.0), _hermitian_stack(rng, 8, 1.0)
    weights = _cf4_weights(4000)
    assert weights.shape == (8000,)
    phase, alpha, beta = su2_class_ramp(su2_classes(a, b), 0.25, weights)
    assert np.max(np.abs(np.abs(alpha) ** 2 + np.abs(beta) ** 2 - 1.0)) <= 1e-13
    assert np.max(np.abs(np.abs(phase) - 1.0)) <= 1e-15


def _su2_ramp_per_block(a, b, dt, weights):
    """Reference: :func:`su2_class_ramp` with every block ramped on its own, as
    ``(phase, alpha, beta)``."""
    a0, az, a10, _ = _two_level(a)
    b0, bz, b10, _ = _two_level(b)
    za, zb, ha, hb = 0.5 * dt * az, dt * bz, 0.5 * dt * a10, dt * b10
    u = np.ones(a0.shape, dtype=complex), np.zeros(a0.shape, dtype=complex)
    per = max(1, budget.CHUNK_BYTES // (32 * a0.size))
    za, zb, ha, hb = (x[:, None] for x in (za, zb, ha, hb))
    for lo in range(0, weights.shape[0], per):
        w = weights[lo:lo + per]  # each block's factors along the last axis
        u = su2_ordered(*su2_exp(za + w * zb, ha + w * hb), u)
    phase = np.exp(-1j * dt * (0.5 * weights.shape[0] * a0 + weights.sum() * b0))
    return (phase, *u)


def _assert_ramp_matches_per_block(a, b, dt, weights, scale=1.0):
    """su2_class_ramp against the per-block reference, within the bound of
    the eigh comparison; returns the number of classes ramped."""
    classes = su2_classes(a, b)
    phase, alpha, beta = su2_class_ramp(classes, dt, weights)
    want = _su2_ramp_per_block(a, b, dt, weights)
    tol = 1e-15 * len(weights) * max(1.0, dt * scale)
    for got, ref in zip((phase, alpha, beta), want):
        assert np.max(np.abs(got - ref)) < tol
    return classes.z.shape[0]


_PAULIS = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]]),
           "Z": np.diag([1.0, -1.0])}


@pytest.mark.parametrize("scale", [1.0, 30.0])
def test_su2_ramp_shares_one_ramp_among_pauli_conjugates(rng, scale):
    # dyadic entries and integer traces, so that shifting a block by its
    # trace leaves its traceless part exact; P h P is exact for a Pauli P
    base_a, base_b = (np.round(1024 * _hermitian_stack(rng, 5, scale)) / 1024 for _ in range(2))
    pick = rng.integers(0, 5, 64)
    paulis = [_PAULIS[p] for p in rng.choice(list("IXYZ"), 64)]
    a, b = (np.stack([p @ base[i] @ p for p, i in zip(paulis, pick)])
            + rng.integers(-3, 4, (64, 1, 1)) * np.eye(2) for base in (base_a, base_b))
    weights = rng.uniform(0.0, 1.0, 301)
    assert _assert_ramp_matches_per_block(a, b, 0.3, weights, scale) == len(set(pick.tolist()))


def test_su2_ramp_groups_signed_zeros_identical_and_distinct_blocks(rng):
    weights = rng.uniform(0.0, 1.0, 97)
    # -0.0 and 0.0 entries, with and without a conjugate among them
    a = np.array([[[1, 0], [0, -1]], [[1, -0.0], [complex(-0.0, -0.0), -1]], [[-1, 0], [0, 1]]],
                 dtype=complex)
    b = np.array([[[0.0, 1.0], [1.0, 0.0]], [[-0.0, 1.0], [1.0, -0.0]], [[0.0, 1.0], [1.0, 0.0]]])
    assert _assert_ramp_matches_per_block(a, b, 0.5, weights) == 1
    zero = np.zeros((4, 2, 2))
    assert _assert_ramp_matches_per_block(zero, -0.0 * zero, 0.5, weights) == 1
    h = _hermitian_stack(rng, 2, 1.0)
    same_a, same_b = np.repeat(h[:1], 40, axis=0), np.repeat(h[1:], 40, axis=0)
    assert _assert_ramp_matches_per_block(same_a, same_b, 0.5, weights) == 1
    a, b = _hermitian_stack(rng, 40, 1.0), _hermitian_stack(rng, 40, 1.0)
    assert _assert_ramp_matches_per_block(a, b, 0.5, weights) == 40


def _su2_exp_reference(z, h10):
    """exp(-i n.sigma) of :func:`su2_exp`'s arguments, by eigh."""
    h = np.stack([np.stack([z + 0j, h10.conj()], -1), np.stack([h10, -z + 0j], -1)], -2)
    return expmi(h)


def test_su2_exp_tan_half_angle_form_matches_eigh_at_the_poles_and_tiny_r(rng):
    directions = rng.standard_normal((16, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    # tan(r/2) has its pole at r = pi and 3 pi, and its zero at 2 pi
    poles = np.array([np.nextafter(k * np.pi, x) for k in (1, 2, 3) for x in (0.0, k * np.pi, 10.0)])
    grid = np.linspace(0.0, 40.0, 4001)
    tiny = np.array([5e-324, 1e-310, 1e-300, 1e-200, 1e-160, 1e-150, 1e-100, 1e-20, 1e-8])
    for r in (poles, grid, tiny):
        n = r[:, None, None] * directions  # (r, direction, xyz)
        z, h10 = n[..., 2], n[..., 0] + 1j * n[..., 1]
        alpha, beta = su2_exp(z, h10)
        # eigh's own error is ~eps max(1, r)
        tol = 1e-14 * np.maximum(1.0, r)[:, None]
        assert np.all(np.max(np.abs(_su2_matrix(alpha, beta) - _su2_exp_reference(z, h10)),
                             axis=(-1, -2)) <= tol)
        assert np.max(np.abs(np.abs(alpha) ** 2 + np.abs(beta) ** 2 - 1.0)) < 2e-15  # a few ulp
    # below r ~ 1e-100 the pair is 1 - i n.sigma exactly, as cos r and
    # sin(r)/r are 1 to within r^2
    small = tiny <= 1e-100
    z, h10 = tiny[small] * directions[:, 2, None], tiny[small] * (directions[:, :1] + 1j * directions[:, 1:2])
    alpha, beta = su2_exp(z, h10)
    assert np.array_equal(alpha, 1.0 - 1j * z) and np.array_equal(beta, -1j * h10)


def _zero_part_stacks(rng):
    """2x2 stacks whose traceless A part, B part or both are exactly zero,
    some with -0.0 entries and scalar parts, beside blocks with both parts."""
    h = _hermitian_stack(rng, 6, 1.0)
    scalar = rng.standard_normal((6, 1, 1)) * np.eye(2)
    signed = np.array([[1.5, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 1.5]])
    a = np.concatenate([scalar[:2], h[:2], scalar[2:4] + 0.0 * h[2:4], [signed], h[4:]])
    b = np.concatenate([h[:2], scalar[:2], -0.0 * h[2:4], [signed * 0.5], h[:2][::-1]])
    return a, b


def test_su2_ramp_takes_classes_with_a_zero_part_in_one_exponential(monkeypatch, rng):
    a, b = _zero_part_stacks(rng)
    classes = _linalg.su2_classes(a, b)
    swept = classes.swept[classes.inverse]
    assert not swept[:7].any() and swept[7:].all()
    calls = []
    exp2 = _linalg.su2_exp

    def su2_exp_recording(z, h10):
        calls.append(z.shape)
        return exp2(z, h10)

    monkeypatch.setattr(_linalg, "su2_exp", su2_exp_recording)
    weights = _cf4_weights(4000)
    for pick in ([0, 1], [2, 3], [4, 5], [6], list(range(9))):  # A = 0, B = 0, both, -0.0, mixed
        calls.clear()
        distinct = _assert_ramp_matches_per_block(a[pick], b[pick], 0.25, weights)
        flat = int((~classes.swept[np.unique(classes.inverse[pick])]).sum())
        # one call for the classes with a zero part, the rest swept in chunks
        chunks = -(-weights.shape[0] // _linalg.sweep_chunk(distinct - flat)) if distinct > flat else 0
        assert [shape for shape in calls if len(shape) == 1] == [(flat,)]
        assert len(calls) == 1 + chunks


def test_near_parallel_nonzero_parts_still_go_through_the_sweep(monkeypatch):
    # A = (z, Re h10) = (1, fl(1/3)) and B = (3, 1): the rounded cross
    # product 1 * 1 - fl(1/3) * 3 is exactly 0, yet they are not parallel, so
    # the ramp's factors do not commute exactly
    third = 1.0 / 3.0
    assert 1.0 * 1.0 - third * 3.0 == 0.0
    x, z = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
    a, b = (z + third * x)[None], (3.0 * z + x)[None]
    assert _linalg.su2_classes(a, b).swept.all()
    ndims = []
    exp2 = _linalg.su2_exp
    monkeypatch.setattr(_linalg, "su2_exp", lambda z, h10: ndims.append(z.ndim) or exp2(z, h10))
    for scale in (1.0, 32.0):
        ndims.clear()
        _assert_ramp_matches_per_block(scale * a, scale * b, 0.25, _cf4_weights(4000), scale)
        assert ndims and set(ndims) == {2}


def _long_double_ramp(a, b, dt, weights):
    """Reference: ``prod_w exp(-i dt (A/2 + w B))`` over ``weights`` in order
    for each pair of the 2x2 Hermitian stacks a and b, each factor in closed
    form and multiplied onto the product one by one, in long double."""
    def parts(h):
        h = h.astype(np.clongdouble)
        return (h[:, 0, 0] + h[:, 1, 1]).real / 2, (h[:, 0, 0] - h[:, 1, 1]).real / 2, h[:, 1, 0]

    (a0, az, a10), (b0, bz, b10) = parts(a), parts(b)
    dt = np.longdouble(dt)
    u = np.broadcast_to(np.eye(2, dtype=np.clongdouble), a.shape).copy()
    for w in weights.astype(np.longdouble):
        h0, z, h10 = (dt * (0.5 * x + w * y) for x, y in ((a0, b0), (az, bz), (a10, b10)))
        r = np.sqrt(z * z + (h10 * h10.conj()).real)
        c, s = np.cos(r), np.sin(r) / np.where(r > 0, r, 1)
        factor = np.stack([np.stack([c - 1j * s * z, -1j * s * h10.conj()], -1),
                           np.stack([-1j * s * h10, c + 1j * s * z], -1)], -2)
        u = np.exp(-1j * h0)[:, None, None] * factor @ u
    return u


def _ramp_error(a, b, dt, weights):
    """Per pair, the largest entry error of :func:`su2_class_ramp` against
    :func:`_long_double_ramp`, and which pairs took one exponential."""
    classes = su2_classes(a, b)
    phase, alpha, beta = su2_class_ramp(classes, dt, weights)
    got = phase[:, None, None] * _su2_matrix(alpha, beta)
    err = np.abs(got - _long_double_ramp(a, b, dt, weights)).astype(float)
    return np.max(err, axis=(1, 2)), ~classes.swept[classes.inverse]


@pytest.mark.parametrize("kind", ["A = 0", "B = -A", "B = 2A"])
def test_one_exponential_classes_match_a_long_double_product_at_tau_1000(rng, kind):
    # exactly parallel traceless parts: the ramp's factors commute, and its
    # product is one exponential of an angle of ~1e3 rad (and a phase of as
    # much), formed in long double and reduced mod 2 pi; rounded to double
    # before the reduction, the angle was off by up to ~5e-14.  Dyadic
    # entries keep each block's scalar and traceless parts exact in double,
    # as on the integer blocks of a schedule step
    h = np.round(1024 * _hermitian_stack(rng, 4, 1.0)) / 1024
    scalar = np.round(1024 * rng.standard_normal((4, 1, 1))) / 1024 * np.eye(2)
    a, b = {"A = 0": (scalar, h), "B = -A": (h, -h), "B = 2A": (h, 2.0 * h)}[kind]
    err, flat = _ramp_error(a, b, 0.25, _cf4_weights(4000))
    assert flat.all()
    assert np.max(err) <= 3e-15, err


def test_chain4_reordered_classes_match_a_long_double_product_at_tau_1000():
    # order 3,1,2: step 1 has a class with A = 0 and step 2 one with B = -A,
    # each beside a swept class
    sched, _ = compile_reordered_fixed(generate_chain(4, [0.0] * 4), chain_gflow(4), [2, 0, 1])
    for k in (0, 1):
        blocks = step_blocks(sched, k)
        err, flat = _ramp_error(blocks.a, blocks.b, 0.25, _cf4_weights(4000))
        assert flat.any() and not flat.all(), k
        assert np.max(err[flat]) <= 3e-15 and np.max(err) <= 1e-14, (k, err)


def _reordered_chain_schedules():
    orders = {4: [2, 0, 1], 5: [1, 3, 0, 2], 10: [1, 0, 3, 2, 5, 4, 7, 6, 8],
              12: [2, 0, 1, 5, 3, 4, 8, 6, 7, 10, 9]}
    for n, order in orders.items():
        g = generate_chain(n, [0.0] * n)
        yield f"chain{n}-fixed", compile_reordered_fixed(g, chain_gflow(n), order)[0]
        yield f"chain{n}-strip", compile_reordered_strip(g, chain_gflow(n), order)


def test_su2_ramp_matches_per_block_on_reordered_chains():
    weights, dt = _cf4_weights(40), 0.25
    for name, sched in _reordered_chain_schedules():
        for k, step in enumerate(sched.steps):
            if _is_pair_step(step):
                continue
            blocks = step_blocks(sched, k)
            assert blocks.dim == 2, (name, k)
            distinct = _assert_ramp_matches_per_block(blocks.a, blocks.b, dt, weights, sched.gamma)
            assert distinct <= 4 < blocks.a.shape[0], (name, k, distinct)


# --- several tau specs in one pass -------------------------------------------

_TAUS = (0.7, 10.0, 100.0, 1000.0)


def _one_pass_schedules():
    seeded = generate_chain(5, [0.0, 0.4, 1.3, 2.2, 0.0])
    cases = [
        ("chain5-stepwise", compile_stepwise(seeded, chain_gflow(5))),
        ("chain5-layered", compile_layered(seeded, chain_gflow(5), gamma=0.7)),
        ("cnot", compile_stepwise(generate_cnot_graph(), find_gflow(generate_cnot_graph()))),
        ("zigzag3", compile_layered(generate_zigzag(3), zigzag_gflow_family(3, 2))),
        ("cluster2x3", compile_layered(generate_cluster(2, 3), cluster_gflow(2, 3))),
        # 2x2 blocks in the first steps, 4x4 ones later
        ("chain5-seeded-fixed", compile_reordered_fixed(seeded, chain_gflow(5), [1, 3, 0, 2])[0]),
    ]
    cases += list(_reordered_chain_schedules())
    return [pytest.param(sched, id=name) for name, sched in cases]


def _assert_same_evolution(got, want, tol=1e-13):
    assert got.tau_used == want.tau_used and got.propagation == want.propagation
    assert np.max(np.abs(got.final_states - want.final_states)) < tol
    assert abs(got.leakage - want.leakage) < tol and abs(got.fidelity - want.fidelity) < tol
    if want.logical_unitary is None:
        assert got.logical_unitary is None and math.isnan(got.unitarity_defect)
    else:
        assert np.max(np.abs(got.logical_unitary - want.logical_unitary)) < tol
        assert abs(got.unitarity_defect - want.unitarity_defect) < tol


@pytest.mark.parametrize("sched", _one_pass_schedules())
def test_one_pass_over_several_taus_matches_one_call_per_tau(monkeypatch, sched):
    ramp = [10.0 * (k + 1) for k in range(len(sched.steps))]  # a spec of one tau per step
    specs = [*_TAUS, ramp]
    for got, spec in zip(sim.evolve_many(sched, specs), specs):
        _assert_same_evolution(got, evolve(sched, spec))
    # each 2x2 block step is classified once for the whole list
    classified = []
    classes = _linalg.su2_classes
    monkeypatch.setattr(sectors, "su2_classes", lambda a, b: classified.append(1) or classes(a, b))
    list(sim.evolve_many(sched, [0.7, 2.0, 3.0]))
    assert len(classified) == sum(
        not _is_pair_step(step) and step_blocks(sched, k).dim == 2
        for k, step in enumerate(sched.steps)
    )


def _pass_schedules():
    g = generate_chain(12, [0.0, 0.3] * 6)
    return {
        "chain12-stepwise": compile_stepwise(g, chain_gflow(12)),
        "chain12-layered": compile_layered(g, chain_gflow(12)),
        "cluster3x4-stepwise": compile_stepwise(generate_cluster(3, 4), cluster_gflow(3, 4)),
    }


def _counts(taus):
    """The distinct substep counts of a list of one-tau specs."""
    return {sim._n_substeps(tau, 0.25) for tau in taus}


def _largest_block(sched):
    """The block charge of the largest block form among the steps that run as blocks."""
    n = sched.n_qubits
    dims = [step_blocks(sched, k).dim for k, step in enumerate(sched.steps) if not _is_pair_step(step)]
    return max((sectors.block_bytes(n, dim) for dim in dims), default=0)


def _recorded_pass_sizes(monkeypatch):
    """A list that each later ``evolve_many`` call extends by its pass sizes."""
    sizes = []
    split = sim.evolve_passes
    monkeypatch.setattr(sim, "evolve_passes",
                        lambda *args: [sizes.append(len(p)) or p for p in split(*args)])
    return sizes


@pytest.mark.parametrize("name", list(_pass_schedules()))
def test_a_tau_list_over_the_pass_budget_runs_in_passes(monkeypatch, name):
    # a pass holds as many taus as its charge admits; where one tau's own
    # pass is over budget the request is refused before any pass runs
    sched = _pass_schedules()[name]
    n, m = sched.n_qubits, 1 << len(sched.graph.inputs)
    want = [evolve(sched, tau) for tau in _TAUS]
    passes = _recorded_pass_sizes(monkeypatch)
    for fit in (1, 2, 3):
        # these pair-step schedules build no block form; every fit taus
        # fit with every count of the list, and fit + 1 with none of them
        monkeypatch.setattr(budget, "MEMORY_BUDGET", budget.pass_bytes(n, fit * m, 0, _counts(_TAUS)))
        passes.clear()
        for got, res in zip(sim.evolve_many(sched, _TAUS), want):
            _assert_same_evolution(got, res)
        assert passes == [fit] * (len(_TAUS) // fit) + [len(_TAUS) % fit] * (len(_TAUS) % fit > 0)
    # the last tau's own pass is one byte over: nothing runs
    ran = []
    one_pass = sim._evolve_pass
    monkeypatch.setattr(sim, "_evolve_pass", lambda *args: ran.append(1) or one_pass(*args))
    monkeypatch.setattr(budget, "MEMORY_BUDGET", budget.pass_bytes(n, m, 0, _counts(_TAUS[-1:])) - 1)
    with pytest.raises(SizeCapError, match="state vectors"):
        next(sim.evolve_many(sched, _TAUS))
    assert not ran


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _traced_schedule(name):
    """A schedule of :func:`_pass_schedules` or :func:`_reordered_chain_schedules`,
    chain 14 stepwise, fixed or strip, or the reversed chain 10 (2x2 to 8x8 blocks)."""
    g, order = generate_chain(14, [0.0] * 14), [2, 0, 1, 5, 3, 4, 8, 6, 7, 11, 9, 10, 12]
    if name == "chain14-stepwise":
        return compile_stepwise(generate_chain(14, [0.0, 0.3] * 7), chain_gflow(14))
    if name == "chain14-fixed":
        return compile_reordered_fixed(g, chain_gflow(14), order)[0]
    if name == "chain14-strip":
        return compile_reordered_strip(g, chain_gflow(14), order)
    if name == "chain10-reversed":
        g = generate_chain(10, [0.0] * 10)
        return compile_reordered_fixed(g, chain_gflow(10), list(range(8, -1, -1)))[0]
    return {**_pass_schedules(), **dict(_reordered_chain_schedules())}[name]


@pytest.mark.parametrize("name, dims", [pytest.param(name, dims, id=name) for name, dims in (
    ("chain12-stepwise", set()), ("chain14-stepwise", set()), ("cluster3x4-stepwise", set()),
    ("chain12-fixed", {2}), ("chain12-strip", {2}), ("chain14-fixed", {2}), ("chain14-strip", {2}),
    ("chain10-reversed", {2, 4, 8}),
)])
def test_an_evolve_call_holds_at_most_its_pass_charge(name, dims):
    # tracemalloc, the results included: the peak of a one-pass call at 1,
    # 3 and 8 taus stays within the pass charge of its columns, its largest
    # block form and its CF4 weights, on pair steps and on 2x2 to 8x8 blocks
    sched = _traced_schedule(name)
    n, m = sched.n_qubits, 1 << len(sched.graph.inputs)
    assert dims == {step_blocks(sched, k).dim for k, step in enumerate(sched.steps)
                    if not _is_pair_step(step)}
    block = _largest_block(sched)
    taus = [2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0]
    list(sim.evolve_many(sched, taus[:1]))  # once untraced, so that every run starts alike
    for count in (1, 3, 8):
        specs = taus[:count]
        charge = budget.pass_bytes(n, count * m, block, _counts(specs))
        assert len(sim.evolve_passes(n, m, block, ([sim._n_substeps(t, 0.25)] for t in specs))) == 1
        peak = _traced_peak(lambda: list(sim.evolve_many(sched, specs)))
        assert peak <= charge, (count, peak / charge)


def test_a_23_qubit_stepwise_chain_is_refused_before_allocating():
    # two 2^23-entry columns are charged (2 * 84 + 64) 2^23 bytes, past the
    # 1 GiB budget, which the pass refuses before any state exists
    sched = compile_stepwise(generate_chain(23, [0.0] * 23), chain_gflow(23))
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="2 23-qubit state vectors"):
            evolve(sched, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("name", ["chain12-stepwise", "cluster3x4-stepwise", "chain12-fixed",
                                  "chain12-strip", "chain8-seeded-fixed"])
def test_each_column_of_a_pass_holds_at_most_its_charge(name):
    # every tau past the first adds its columns and their temporaries, and
    # its weights, which the pass charge covers; pair steps, 2x2 and 4x4
    # block steps alike
    seeded = generate_chain(8, [0.0, 0.4, 1.3, 2.2, 0.9, 2.8, 0.5, 0.0])
    cases = {**_pass_schedules(), **dict(_reordered_chain_schedules()),
             "chain8-seeded-fixed": compile_reordered_fixed(seeded, chain_gflow(8),
                                                            [1, 3, 0, 5, 2, 6, 4])[0]}
    sched, taus = cases[name], (5.0, 10.0, 20.0, 40.0)
    n, m = sched.n_qubits, 1 << len(sched.graph.inputs)
    block = _largest_block(sched)
    list(sim.evolve_many(sched, taus))  # once untraced, so that both runs start alike
    one, several = (_traced_peak(lambda: list(sim.evolve_many(sched, specs)))
                    for specs in (taus[:1], taus))
    added = (budget.pass_bytes(n, len(taus) * m, block, _counts(taus))
             - budget.pass_bytes(n, m, block, _counts(taus[:1])))
    assert several - one <= added


@pytest.mark.parametrize("name, fit", [("chain12-stepwise", 1), ("chain12-fixed", 2)])
def test_a_caller_that_keeps_only_leakage_holds_one_pass(monkeypatch, name, fit):
    # the budget admits fit taus a pass with every count of the list; a
    # 20-tau list consumed for its leakage holds one pass at a time, not
    # the states of every pass
    sched = {**_pass_schedules(), **dict(_reordered_chain_schedules())}[name]
    n, m = sched.n_qubits, 1 << len(sched.graph.inputs)
    taus = [5.0 + k for k in range(20)]
    monkeypatch.setattr(budget, "MEMORY_BUDGET",
                        budget.pass_bytes(n, fit * m, _largest_block(sched), _counts(taus)))
    sizes = _recorded_pass_sizes(monkeypatch)

    def leakage(specs):
        return [res.leakage for res in sim.evolve_many(sched, specs)]

    leakage(taus)  # once untraced, so that both runs start alike
    assert sizes == [fit] * (20 // fit)
    one, many = (_traced_peak(lambda: leakage(specs)) for specs in (taus[:fit], taus))
    assert many <= 1.5 * one


def test_the_cf4_weights_a_pass_holds_are_charged_before_it_runs(monkeypatch):
    # a pass builds the weights of each of its substep counts once and holds
    # them all, which its charge counts at 40 bytes a substep: four taus of
    # ~1,000 distinct substeps fit in one pass, a fifth runs in a pass of its
    # own, and five of one count fit in one; a tau whose own pass is over is
    # refused before the first pass runs
    sched = compile_stepwise(generate_chain(4), chain_gflow(4))
    taus = [250.0 - k for k in range(5)]  # 1,000 down to 984 substeps
    monkeypatch.setattr(budget, "MEMORY_BUDGET", budget.pass_bytes(4, 2 * 4, 0, _counts(taus[:4])))
    sizes = _recorded_pass_sizes(monkeypatch)
    assert len(list(sim.evolve_many(sched, taus))) == 5 and sizes == [4, 1]
    sizes.clear()
    assert len(list(sim.evolve_many(sched, [taus[0]] * 5))) == 5 and sizes == [5]
    monkeypatch.setattr(budget, "MEMORY_BUDGET", budget.pass_bytes(4, 2, 0, _counts(taus[1:2])))
    ran = []
    one_pass = sim._evolve_pass
    monkeypatch.setattr(sim, "_evolve_pass", lambda *args: ran.append(1) or one_pass(*args))
    with pytest.raises(SizeCapError, match="CF4 weights"):
        next(sim.evolve_many(sched, taus))  # the first tau's own pass is over
    with pytest.raises(SizeCapError, match="CF4 weights"):
        next(sim.evolve_many(sched, taus[1:] + taus[:1]))  # the last one's is
    assert not ran
    assert len(list(sim.evolve_many(sched, taus[1:]))) == 4 and ran == [1] * 4


def test_each_fact_is_found_once_a_call_over_several_passes(monkeypatch):
    # the budget admits two taus a pass, so five taus take three passes;
    # each step is classified once, each blocks step's conserved generators
    # are found once, and each (step, tau) counts its substeps once, not
    # once a pass or once more for its propagator
    sched = dict(_reordered_chain_schedules())["chain12-fixed"]
    n, m = sched.n_qubits, 1 << len(sched.graph.inputs)
    taus = [5.0, 10.0, 20.0, 40.0, 80.0]
    monkeypatch.setattr(budget, "MEMORY_BUDGET",
                        budget.pass_bytes(n, 2 * m, _largest_block(sched), _counts(taus)))
    assert any(map(_is_pair_step, sched.steps)) and not all(map(_is_pair_step, sched.steps))
    calls = {"_is_pair_step": [], "_n_substeps": [], "_evolve_pass": []}
    for name, seen in calls.items():
        f = getattr(sim, name)
        monkeypatch.setattr(sim, name, lambda *args, f=f, seen=seen: seen.append(1) or f(*args))
    generators = []
    find = sectors.conserved_generators
    monkeypatch.setattr(sectors, "conserved_generators",
                        lambda *args: generators.append(1) or find(*args))
    assert len(list(sim.evolve_many(sched, taus))) == 5
    assert len(calls["_evolve_pass"]) == 3
    assert len(calls["_is_pair_step"]) == len(sched.steps)
    assert len(calls["_n_substeps"]) == 5 * len(sched.steps)
    # the final terms commute, so the ground projection builds no block form
    assert len(generators) == sum(not _is_pair_step(step) for step in sched.steps)


def test_an_empty_tau_list_yields_nothing():
    pair = compile_stepwise(generate_chain(4), chain_gflow(4))
    blocks = compile_reordered_fixed(generate_chain(4), chain_gflow(4), [2, 0, 1])[0]
    assert _is_pair_step(pair.steps[0]) and not _is_pair_step(blocks.steps[0])
    for sched in (pair, blocks):
        assert list(sim.evolve_many(sched, [])) == []


def test_each_class_of_a_step_is_propagated_once(monkeypatch, rng):
    # (swept, width): a sweep's exponentials hold one row per class, and the
    # one call for the classes whose A or B part is zero is 1-D
    widths = []
    exp2, expn = _linalg.su2_exp, sectors.expmi

    def su2_exp_recording(z, h10):
        widths.append((z.ndim == 2, z.shape[0]))
        return exp2(z, h10)

    def expmi_recording(h, out=None):
        widths.append((True, h.shape[1]))
        return expn(h, out)

    monkeypatch.setattr(_linalg, "su2_exp", su2_exp_recording)
    monkeypatch.setattr(sectors, "expmi", expmi_recording)
    g = generate_chain(6, [0.0] * 6)
    seeded = generate_chain(5, [0.0, 0.4, 1.3, 2.2, 0.0])
    merged = single = shared = False
    for sched in (compile_reordered_fixed(g, chain_gflow(6), [2, 0, 1, 4, 3])[0],
                  compile_reordered_strip(g, chain_gflow(6), [2, 0, 1, 4, 3]),
                  compile_reordered_fixed(seeded, chain_gflow(5), [1, 3, 0, 2])[0]):
        for k, step in enumerate(sched.steps):
            if _is_pair_step(step):
                continue
            blocks = step_blocks(sched, k)
            widths.clear()
            _, distinct = _propagate_blocks(blocks, _random_states(rng, sched.n_qubits), [2.0], 0.25)
            swept = {w for is_swept, w in widths if is_swept}
            flat = [w for is_swept, w in widths if not is_swept]
            assert widths and len(swept) <= 1 and len(flat) <= 1
            assert sum(swept) + sum(flat) == distinct
            single |= bool(flat)
            if blocks.dim == 2:
                merged |= distinct < blocks.a.shape[0]
            else:  # larger blocks are propagated once per byte-distinct (A, B)
                assert distinct == len({(a.tobytes(), b.tobytes()) for a, b in zip(blocks.a, blocks.b)})
                assert not flat
                shared |= distinct < blocks.a.shape[0]
    assert merged and single and shared


def test_unitarity_defect_is_the_2_norm_from_the_singular_values():
    # overlap - W V^dag = W (S - 1) V^dag, so the defect is max |s_i - 1|
    seen = 0
    for param in _one_pass_schedules():
        (sched,) = param.values
        for res in sim.evolve_many(sched, _TAUS):
            if res.logical_unitary is not None:
                want = np.linalg.norm(res.overlap_matrix - res.logical_unitary, 2)
                assert abs(res.unitarity_defect - want) <= 1e-15, (param.id, res.tau_used)
                seen += 1
    assert seen >= 4 * 6


def _traced_propagation(make, psi, weights):
    """``(blocks, distinct, peak)`` of building a block form and propagating psi."""
    tracemalloc.start()
    try:
        blocks = make()
        _, distinct = blocks.propagate(psi, [0.25], [weights])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return blocks, distinct, peak


def _block_charge(n, dim):
    return sectors.block_bytes(n, dim)


def test_block_propagation_fits_the_block_budget_charge(rng):
    # step_blocks charges (160 + 96 dim) 2^n bytes plus two chunks for the
    # sector tables, the blocks and the stacks of propagate; grouping must
    # stay inside it, with a few classes (chain 12) and with every block
    # distinct, and so must blocks of dimension 4 and 8 (seeded chains)
    n = 12
    g = generate_chain(n, [0.0] * n)
    sched, _ = compile_reordered_fixed(g, chain_gflow(n), [2, 0, 1, 5, 3, 4, 8, 6, 7, 10, 9])
    psi, weights = _random_states(rng, n, cols=1), _cf4_weights(40)

    def distinct_blocks():
        pair = (_hermitian_stack(rng, 1 << (n - 1), 1.0) for _ in range(2))
        return sectors.StepBlocks(np.ones(1 << n, dtype=complex), np.arange(1 << n), 0, *pair)

    for make in (lambda: step_blocks(sched, 0), distinct_blocks):
        _, distinct, peak = _traced_propagation(make, psi, weights)
        assert distinct in (2, 1 << (n - 1)) and peak < _block_charge(n, 2), (distinct, peak)

    dims = set()
    for n, angles, order in ((5, [0.0, 0.4, 1.3, 2.2, 0.0], [1, 3, 0, 2]),
                             (6, [0.0, 0.4, 1.3, 2.2, 0.9, 0.0], [1, 3, 0, 4, 2]),
                             (8, [0.0, 0.4, 1.3, 2.2, 0.9, 2.8, 0.5, 0.0], [1, 3, 0, 5, 2, 6, 4])):
        sched, _ = compile_reordered_fixed(generate_chain(n, angles), chain_gflow(n), order)
        psi, weights = _random_states(rng, n, cols=2), _cf4_weights(10)
        for k in range(len(sched.steps)):
            blocks, _, peak = _traced_propagation(lambda: step_blocks(sched, k), psi, weights)
            assert peak < _block_charge(n, blocks.dim), (n, k, blocks.dim, peak)
            dims.add(blocks.dim)
    assert dims == {4, 8}

    # past a quarter chunk per weight, each stack is the size of A
    n, dim = 11, 128
    pair = [_hermitian_stack(rng, (1 << n) // dim, 1.0, dim) for _ in range(2)]

    def large_blocks():
        a, b = (h.copy() for h in pair)
        return sectors.StepBlocks(np.ones(1 << n, dtype=complex), np.arange(1 << n), 0, a, b)

    _, _, peak = _traced_propagation(large_blocks, _random_states(rng, n, cols=2), _cf4_weights(2))
    assert peak < _block_charge(n, dim), peak


def test_shared_larger_blocks_stay_within_the_block_charge(rng):
    # one propagator per byte-distinct (A, B), gathered onto every copy:
    # the distinct stacks, the propagators and the gathered copy stay
    # within step_blocks' charge, at dimension 128 (one weight a stack,
    # each the size of A) and on the reversed 8-chain's 4x4 and 8x8 blocks
    n, dim = 11, 128
    pair = [_hermitian_stack(rng, 3, 1.0, dim) for _ in range(2)]
    pick = np.arange(16) % 3

    def shared_blocks():
        a, b = (h[pick] for h in pair)
        return sectors.StepBlocks(np.ones(1 << n, dtype=complex), np.arange(1 << n), 0, a, b)

    psi, weights = _random_states(rng, n, cols=2), _cf4_weights(2)
    blocks, distinct, peak = _traced_propagation(shared_blocks, psi, weights)
    assert distinct == 3 and peak < _block_charge(n, dim), peak
    # each copy took its own block's product
    got, _ = blocks.propagate(psi, [0.25], [weights])
    coords = blocks.to_blocks(psi)
    for w in weights:
        coords = expmi(0.25 * (0.5 * blocks.a + w * blocks.b)) @ coords
    assert np.max(np.abs(blocks.to_blocks(got) - coords)) < 1e-12

    n = 8
    sched, _ = compile_reordered_fixed(generate_chain(n, [0.0] * n), chain_gflow(n),
                                       list(range(n - 2, -1, -1)))
    psi, weights = _random_states(rng, n, cols=2), _cf4_weights(40)
    dims = set()
    for k in range(len(sched.steps)):
        blocks, distinct, peak = _traced_propagation(lambda: step_blocks(sched, k), psi, weights)
        assert peak < _block_charge(n, blocks.dim), (k, blocks.dim, peak)
        if blocks.dim > 2:
            assert distinct < blocks.a.shape[0], k
            dims.add(blocks.dim)
    assert dims == {4, 8}


def test_chain5_propagates_each_distinct_problem_once_and_matches_dense_at_tau_1000(rng):
    # order 3,2,4,1: two 2x2 steps with a class each of exactly parallel
    # parts, and two steps of 8 4x4 blocks, 4 of them distinct, whose
    # shared propagators match the dense oracle over 8,000 factors
    sched, _ = compile_reordered_fixed(generate_chain(5, [0.0] * 5), chain_gflow(5), [2, 1, 3, 0])
    res = evolve(sched, 1000.0)
    assert [(p.method, p.dim, p.distinct) for p in res.propagation] == [
        ("blocks", 2, 2), ("blocks", 4, 4), ("blocks", 4, 4), ("blocks", 2, 2)]
    for k in (1, 2):
        psi = _random_states(rng, 5)
        got, _ = _propagate_blocks(step_blocks(sched, k), psi, [1000.0], 0.25)
        want = propagate_step(*step_endpoint_matrices(sched, k), psi, 1000.0, 0.25)
        assert np.max(np.abs(got - want)) < 1e-12, k


def _cf4_nodes(n_sub):
    for j in range(n_sub):
        s0 = j / n_sub
        yield s0 + (0.5 - _CF4_NODE) / n_sub, s0 + (0.5 + _CF4_NODE) / n_sub


def test_cf4_weights_are_the_gauss_node_exponents():
    for n_sub in (8, 9, 4000):
        want = [w for s1, s2 in _cf4_nodes(n_sub)
                for w in (_CF4_A1 * s1 + _CF4_A2 * s2, _CF4_A2 * s1 + _CF4_A1 * s2)]
        assert np.max(np.abs(_cf4_weights(n_sub) - want)) < 1e-15


def _pair_coefficients_loop(gamma, tau, dt_max):
    """The sequential product of closed-form substep exponentials."""
    n_sub = sim._n_substeps(tau, dt_max)
    g = gamma * tau / n_sub
    u00, u01, u10, u11 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for s1, s2 in _cf4_nodes(n_sub):
        for w1, w2 in ((_CF4_A1, _CF4_A2), (_CF4_A2, _CF4_A1)):
            a = -g * (w1 * (1.0 - s1) + w2 * (1.0 - s2))
            b = -g * (w1 * s1 + w2 * s2)
            r = math.hypot(a, b)
            k = math.sin(r) / r if r else 1.0
            c = math.cos(r)
            e00, e01, e11 = complex(c, -k * a), complex(0.0, -k * b), complex(c, k * a)
            u00, u01, u10, u11 = (
                e00 * u00 + e01 * u10,
                e00 * u01 + e01 * u11,
                e01 * u00 + e11 * u10,
                e01 * u01 + e11 * u11,
            )
    return u00, u10


@pytest.mark.parametrize("gamma", [1.0, 0.7])
@pytest.mark.parametrize("tau", [5.0, 200.0, 1000.0])
def test_pair_coefficients_match_sequential_loop(gamma, tau):
    got = _pair_coefficients(gamma, tau, 0.25)
    want = _pair_coefficients_loop(gamma, tau, 0.25)
    assert max(abs(x - y) for x, y in zip(got, want)) < 1e-13


# --- per-step propagation method --------------------------------------------


def _random_states(rng, n, cols=3):
    psi = rng.standard_normal((1 << n, cols)) + 1j * rng.standard_normal((1 << n, cols))
    return psi / np.linalg.norm(psi, axis=0)


def _pair_oracle_cases():
    rng = np.random.default_rng(2010)
    cases = []
    for n in range(3, 9):
        angles = [float(a) for a in rng.uniform(0, 2 * math.pi, n)]
        g = generate_chain(n, angles)
        cases += [pytest.param(compile_stepwise(g, chain_gflow(n)), id=f"chain{n}-stepwise"),
                  pytest.param(compile_layered(g, chain_gflow(n), gamma=0.7), id=f"chain{n}-layered")]
        clifford = generate_chain(n, [k * math.pi / 2 for k in rng.integers(0, 4, n)])
        cases.append(pytest.param(compile_one_step(clifford, chain_gflow(n)), id=f"chain{n}-onestep"))
    for u in (2, 3, 4):
        g = generate_zigzag(u)
        for r in (1, u):
            cases.append(pytest.param(compile_layered(g, zigzag_gflow_family(u, r)), id=f"zigzag{u}-r{r}"))
    for name, g, gf in (
        ("cluster2x2", generate_cluster(2, 2), cluster_gflow(2, 2)),
        ("cluster2x3", generate_cluster(2, 3), cluster_gflow(2, 3)),
        ("cnot", generate_cnot_graph(), find_gflow(generate_cnot_graph())),
    ):
        for mode, fn in (("stepwise", compile_stepwise), ("layered", compile_layered),
                         ("onestep", compile_one_step)):
            cases.append(pytest.param(fn(g, gf), id=f"{name}-{mode}"))
    return cases


@pytest.mark.parametrize("sched", _pair_oracle_cases())
def test_pair_propagation_matches_dense_oracle(sched, rng):
    # states in the tracked space: random combinations of the initial
    # logical basis, carried through the earlier steps by the dense oracle
    tau, dt_max = 2.0, 0.25
    coeffs = _pair_coefficients(sched.gamma, tau, dt_max)
    first = sched.steps[0]
    initial = list(first.static_terms) + list(first.removed.values())
    basis = logical_basis_from_ops(initial, initial_frame(sched.graph, sched.gflow), sched.n_qubits)
    mix = rng.standard_normal((basis.shape[1], 3)) + 1j * rng.standard_normal((basis.shape[1], 3))
    psi = basis @ mix
    psi /= np.linalg.norm(psi, axis=0)
    for k, step in enumerate(sched.steps):
        assert _is_pair_step(step)
        # the state is +1 on every initial term not yet removed, which is static
        untracked = [op for op in step.static_terms if not any(op is t for t in initial)]
        a, b = step_endpoint_matrices(sched, k)
        want = propagate_step(a, b, psi, tau, dt_max)
        got = _propagate_pair_step(step, coeffs, sched.gamma * tau, untracked, psi)
        assert np.max(np.abs(got - want)) < 1e-12, k
        psi = want


def _dense_evolution(sched, taus):
    g = sched.graph
    first = sched.steps[0]
    psi = logical_basis_from_ops(
        list(first.static_terms) + list(first.removed.values()), initial_frame(g, sched.gflow), g.n_vertices
    )
    for k, tau in enumerate(taus):
        a, b = step_endpoint_matrices(sched, k)
        psi = propagate_step(a, b, psi, tau, 0.25)
    ground = ground_projector(assemble(sched, len(sched.steps) - 1, 1.0), 1e-7 * sched.gamma)
    return psi, float(1.0 - np.mean(np.linalg.norm(ground.conj().T @ psi, axis=0) ** 2))


def test_evolve_records_pair_method_and_matches_dense():
    g = generate_chain(5, [0.0, 0.4, 1.3, 2.2, 0.0])
    sched = compile_stepwise(g, chain_gflow(5))
    res = evolve(sched, [20.0, 20.0, 7.0, 20.0])
    assert [(p.method, p.n_sub) for p in res.propagation] == [
        ("pair", 80), ("pair", 80), ("pair", 28), ("pair", 80)
    ]
    psi, leakage = _dense_evolution(sched, res.tau_used)
    assert np.max(np.abs(res.final_states - psi)) < 1e-12
    assert abs(res.leakage - leakage) < 1e-12


@pytest.mark.parametrize("tau", [10.0, 100.0, 1000.0])
def test_reorder_fixed_long_sweeps_match_dense_oracle(tau):
    # 8,000 CF4 factors per step at tau = 1000; the SU(2) products stay
    # within the same 1e-12 of the dense oracle as at tau <= 100 (measured:
    # 7e-14 in state entries, 1.5e-14 in leakage)
    g = generate_chain(4, [0.0] * 4)
    sched, _ = compile_reordered_fixed(g, chain_gflow(4), [2, 0, 1])
    res = evolve(sched, tau)
    assert [(p.method, p.dim) for p in res.propagation] == [("blocks", 2), ("blocks", 2), ("pair", 2)]
    psi, leakage = _dense_evolution(sched, res.tau_used)
    assert np.max(np.abs(res.final_states - psi)) < 1e-12
    assert abs(res.leakage - leakage) < 1e-12


def test_two_dimensional_blocks_form_no_matrix_stack_and_call_no_eigh(monkeypatch):
    g = generate_chain(4, [0.0] * 4)
    fixed, _ = compile_reordered_fixed(g, chain_gflow(4), [2, 0, 1])
    strip = compile_reordered_strip(g, chain_gflow(4), [2, 0, 1])
    want = [evolve(sched, 100.0) for sched in (fixed, strip)]

    def refuse(*args, **kwargs):
        raise AssertionError("a 2-dimensional block went through a matrix path")

    for module, name in ((np.linalg, "eigh"), (_linalg, "expmi"), (sectors, "expmi"),
                         (sectors.StepBlocks, "_stacks")):
        monkeypatch.setattr(module, name, refuse)
    for sched, res in zip((fixed, strip), want):
        got = evolve(sched, 100.0)
        assert {p.dim for p in got.propagation} == {2}
        assert np.array_equal(got.final_states, res.final_states)


def test_frustrated_and_strip_steps_stay_dense():
    g = generate_chain(4, [0.0] * 4)
    fixed, _ = compile_reordered_fixed(g, chain_gflow(4), [2, 0, 1])
    strip = compile_reordered_strip(g, chain_gflow(4), [2, 0, 1])
    # the last fixed step is an ordinary commuting replacement
    for sched, methods in (
        (fixed, [("blocks", 2), ("blocks", 2), ("pair", 2)]),
        (strip, [("blocks", 2)] * 3),
    ):
        res = evolve(sched, 30.0)
        assert [(p.method, p.dim) for p in res.propagation] == methods
        psi, leakage = _dense_evolution(sched, res.tau_used)
        assert np.max(np.abs(res.final_states - psi)) < 1e-12
        assert abs(res.leakage - leakage) < 1e-12


def test_anticommuting_introduced_terms_take_the_dense_path():
    n = 2
    g = make_graph(n, [(0, 1)], inputs=[], outputs=[1], angles={0: 0.0})
    gf = Gflow({0: frozenset({1})}, {0: 0})
    step = ScheduleStep(
        {0: rop(single(n, 0, "Z")), 1: rop(single(n, 1, "Z"))},
        {0: rop(single(n, 0, "X")), 1: rop(single(n, 0, "Z").mul(single(n, 1, "X")))},
        (),
    )
    sched = Schedule((step,), 1.0, g, gf)
    assert not _is_pair_step(step)
    res = evolve(sched, 5.0)
    assert [(p.method, p.dim) for p in res.propagation] == [("blocks", 4)]
    psi, leakage = _dense_evolution(sched, res.tau_used)
    assert np.max(np.abs(res.final_states - psi)) < 1e-12
    assert abs(res.leakage - leakage) < 1e-12
    # the two-level factorization would be wrong on this step
    psi0 = _random_states(np.random.default_rng(7), n)
    a, b = step_endpoint_matrices(sched, 0)
    pair = _propagate_pair_step(step, _pair_coefficients(1.0, 5.0, 0.25), 5.0, (), psi0)
    assert np.max(np.abs(pair - propagate_step(a, b, psi0, 5.0, 0.25))) > 1e-3


@pytest.mark.parametrize("tau", [2.0, 20.0])
def test_a_pair_step_on_a_term_the_state_left_runs_as_blocks(tau):
    # both steps are pair steps, but after the first the state is +1 on Z2,
    # not on the second step's removed X2: only the general path is exact
    n = 2
    g = make_graph(n, [(0, 1)], inputs=[], outputs=[1])
    gf = Gflow({0: frozenset({1})}, {0: 0})
    z1, x1, z2, x2 = (rop(single(n, v, p)) for v, p in ((0, "Z"), (0, "X"), (1, "Z"), (1, "X")))
    steps = (ScheduleStep({0: z1}, {0: x1}, (z2,)), ScheduleStep({1: x2}, {1: z2}, (x1,)))
    assert all(_is_pair_step(step) for step in steps)
    sched = Schedule(steps, 1.0, g, gf)
    res = evolve(sched, tau)
    assert [p.method for p in res.propagation] == ["pair", "blocks"]
    psi, leakage = _dense_evolution(sched, res.tau_used)
    assert np.max(np.abs(res.final_states - psi)) < 1e-12
    assert abs(res.leakage - leakage) < 1e-12


def _block_oracle_cases():
    rng = np.random.default_rng(2013)
    cases = []
    for n in (4, 5, 6):
        for kind in ("clifford", "seeded"):
            angles = [0.0] * n
            if kind == "seeded":
                angles[1:-1] = [float(a) for a in rng.uniform(0, 2 * math.pi, n - 2)]
            g = generate_chain(n, angles)
            order = [int(v) for v in rng.permutation(g.non_outputs)]
            cases += [
                pytest.param(compile_reordered_fixed(g, chain_gflow(n), order)[0], id=f"chain{n}-{kind}-fixed"),
                pytest.param(compile_reordered_strip(g, chain_gflow(n), order), id=f"chain{n}-{kind}-strip"),
            ]
    for name, g, gf in (
        ("cluster2x3", generate_cluster(2, 3), cluster_gflow(2, 3)),
        ("cnot", generate_cnot_graph(), find_gflow(generate_cnot_graph())),
    ):
        order = [int(v) for v in rng.permutation(g.non_outputs)]
        cases += [
            pytest.param(compile_reordered_fixed(g, gf, order)[0], id=f"{name}-fixed"),
            pytest.param(compile_reordered_strip(g, gf, order), id=f"{name}-strip"),
        ]
    # twists that conflict at a site: terms neither commuting nor anticommuting
    for n in (7, 8):
        angles = [0.0] + [float(a) for a in rng.uniform(0, 2 * math.pi, n - 2)] + [0.0]
        order = [int(v) for v in rng.permutation(n - 1)]
        g = generate_chain(n, angles)
        cases.append(pytest.param(compile_reordered_fixed(g, chain_gflow(n), order)[0], id=f"chain{n}-seeded-fixed"))
    for name, theta in (("pi6", math.pi / 6), ("pi3", math.pi / 3)):
        cases.append(pytest.param(_second_site_schedule(theta), id=f"second-site-{name}"))
    return cases


def _second_site_schedule(theta):
    """The chain's second-site replacement ``T2 -> X2^theta`` with T1, T3 static."""
    g = generate_chain(4, [0.0] * 4)
    gf = chain_gflow(4)
    terms = stabilizer_set(g, gf)
    intro = RotatedPauliOp.from_parts(single(4, 1, "X"), {1: theta})
    step = ScheduleStep({1: terms[1]}, {1: intro}, (terms[0], terms[2]))
    return Schedule((step,), 1.0, g, gf)


@pytest.mark.parametrize("sched", _block_oracle_cases())
def test_block_propagation_matches_dense_oracle(sched, rng):
    dt_max = 0.25
    for k in range(len(sched.steps)):
        blocks = step_blocks(sched, k)
        psi = _random_states(rng, sched.n_qubits)
        a, b = step_endpoint_matrices(sched, k)
        # each dense exponential costs ~4^n: the longer ramp only up to n = 6
        for tau in (2.0, 10.0) if sched.n_qubits <= 6 else (2.0,):
            want = propagate_step(a, b, psi, tau, dt_max)
            got, _ = _propagate_blocks(blocks, psi, [tau], dt_max)
            assert np.max(np.abs(got - want)) < 1e-12, (k, tau)


def _chunked_basis_blocks(schedule, step_index):
    """Reference block form from an explicit ``2^n x 2^n`` block basis, built
    in chunks of block columns with Pauli actions: ``(basis, a, b)``."""
    step = schedule.steps[step_index]
    n = schedule.n_qubits
    theta = twist_frame(step.all_terms())
    strings = [(wa * c, wb * c, p) for op, wa, wb in step.endpoint_weights(schedule.gamma)
               for c, p in frame_strings(op, theta)]
    xgens, zgens, pivots = conserved_generators([p for _, _, p in strings], n)
    k = len(xgens)
    dim, d = 1 << (n - k - len(zgens)), 1 << n
    n_blocks = d // dim
    per = max(1, budget.CHUNK_BYTES // (64 * d * dim))

    idx = np.arange(d, dtype=np.int64)
    reps = idx[(idx & pivots) == 0]
    zlabel = np.zeros_like(reps)
    for j, z in enumerate(zgens):
        zlabel |= _parity(reps & (z >> n)) << j
    col_rep = np.repeat(reps, 1 << k)
    col_sign = np.tile(np.arange(1 << k), reps.shape[0])
    order = np.argsort(col_sign | np.repeat(zlabel, 1 << k) << k, kind="stable")
    col_rep, col_sign = col_rep[order], col_sign[order]

    mask = d - 1
    xpaulis = [PauliString(n, v & mask, v >> n) for v in xgens]
    angle = np.zeros(d)
    for v, a in theta.items():
        angle += a * (1.0 - 2.0 * (idx >> v & 1))
    frame = np.exp(-0.5j * angle)
    basis = np.empty((d, d), dtype=complex)
    a_blk = np.zeros((n_blocks, dim, dim), dtype=complex)
    b_blk = np.zeros_like(a_blk)
    for lo in range(0, n_blocks, per):
        cols = slice(lo * dim, min(n_blocks, lo + per) * dim)
        q = np.zeros((d, cols.stop - cols.start), dtype=complex)
        q[col_rep[cols], np.arange(q.shape[1])] = 2.0 ** (k / 2)
        for i, gi in enumerate(xpaulis):
            q = 0.5 * (q + (1.0 - 2.0 * (col_sign[cols] >> i & 1)) * apply_op(gi, q))
        qh = q.T.conj().reshape(-1, dim, d)
        for wa, wb, p in strings:
            blk = qh @ apply_op(p, q).reshape(d, -1, dim).transpose(1, 0, 2)
            a_blk[lo:lo + qh.shape[0]] += wa * blk
            b_blk[lo:lo + qh.shape[0]] += wb * blk
        basis[:, cols] = frame[:, None] * q
    return basis, a_blk, b_blk


@pytest.mark.parametrize("sched", _block_oracle_cases())
def test_sector_tables_match_chunked_basis(sched, rng):
    for k in range(len(sched.steps)):
        blocks = step_blocks(sched, k)
        basis, a, b = _chunked_basis_blocks(sched, k)
        assert np.max(np.abs(blocks.a - a)) < 1e-13, k
        assert np.max(np.abs(blocks.b - b)) < 1e-13, k
        psi = _random_states(rng, sched.n_qubits)
        coords = (basis.conj().T @ psi).reshape(blocks.a.shape[0], blocks.dim, -1)
        assert np.max(np.abs(blocks.to_blocks(psi) - coords)) < 1e-13, k


@pytest.mark.parametrize("sched", _block_oracle_cases())
def test_string_groups_of_one_build_the_same_blocks(sched, monkeypatch):
    # at n <= 8 all of a step's strings fit one group; a one-byte chunk
    # scatters them one group each, in the same order
    whole = [step_blocks(sched, k) for k in range(len(sched.steps))]
    monkeypatch.setattr(sectors, "CHUNK_BYTES", 1)
    for k, want in enumerate(whole):
        got = step_blocks(sched, k)
        for field in ("a", "b", "phase", "dest"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (k, field)


@pytest.mark.parametrize("sched", _block_oracle_cases())
def test_sector_transform_round_trips(sched, rng):
    for k in range(len(sched.steps)):
        blocks = step_blocks(sched, k)
        psi = _random_states(rng, sched.n_qubits, cols=4)
        coords = blocks.to_blocks(psi)
        assert np.max(np.abs(blocks.from_blocks(coords) - psi)) < 1e-13, k
        norms = np.linalg.norm(coords.reshape(-1, psi.shape[1]), axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-13, k


def test_block_form_at_16_qubits_matches_closed_forms(rng):
    n = 16
    angles = [0.0] + [float(a) for a in rng.uniform(0, 2 * math.pi, n - 2)] + [0.0]
    untwisted = generate_chain(n, [0.0] * n)
    strip = compile_reordered_strip(untwisted, chain_gflow(n), list(range(n - 2, -1, -1)))
    assert step_blocks(strip, 1).dim == 2

    sched = compile_stepwise(generate_chain(n, angles), chain_gflow(n), gamma=1.5)
    k = 7
    step = sched.steps[k]
    assert _is_pair_step(step)
    blocks = step_blocks(sched, k)
    assert blocks.dim == 2
    grid = [0.0, 0.3, 0.5, 1.0]
    scan = spectral_scan(sched, k, grid, n_levels=4)
    want = [step_gap_analytic(step, sched.gamma, s) for s in grid]
    assert np.max(np.abs(scan.gap - want)) < 1e-12
    hdot = math.sqrt(2) * step.u_size * sched.gamma
    assert blocks.hdot_norm() == pytest.approx(hdot, abs=1e-12)
    # the state on the +1 space of the terms the pair path tracks: the
    # removed term and the static T's (the X's of earlier steps are not)
    untracked = step.static_terms[:k]
    psi = projector_apply([*step.removed.values(), *step.static_terms[k:]],
                          _random_states(rng, n, cols=2))
    psi /= np.linalg.norm(psi, axis=0)
    tau, dt_max = 3.0, 0.25
    coeffs = _pair_coefficients(sched.gamma, tau, dt_max)
    want_psi = _propagate_pair_step(step, coeffs, sched.gamma * tau, untracked, psi)
    got, _ = _propagate_blocks(blocks, psi, [tau], dt_max)
    assert np.max(np.abs(got - want_psi)) < 1e-12


def _twisted_stepwise_cases():
    rng = np.random.default_rng(2009)
    cases = []
    for n in range(5, 9):
        angles = [0.0] + [float(a) for a in rng.uniform(0, 2 * math.pi, n - 2)] + [0.0]
        cases.append(pytest.param(compile_stepwise(generate_chain(n, angles), chain_gflow(n)), id=f"chain{n}-stepwise"))
    return cases


@pytest.mark.parametrize("sched", _block_oracle_cases() + _twisted_stepwise_cases())
def test_block_spectra_match_dense_eigvalsh(sched):
    grid = [0.0, 0.3, 0.5, 0.8, 1.0]
    for k in range(len(sched.steps)):
        scan = spectral_scan(sched, k, grid)
        a, b = step_endpoint_matrices(sched, k)
        want = np.array([np.linalg.eigvalsh(a + s * b) for s in grid])
        assert np.max(np.abs(scan.energies - want)) < 1e-12, k
        logical_dim = 1 << len(sched.graph.inputs)
        assert np.max(np.abs(scan.gap - (want[:, logical_dim] - want[:, 0]))) < 1e-12, k


@pytest.mark.parametrize("sched", _block_oracle_cases() + _twisted_stepwise_cases())
def test_conserved_generators_are_a_maximal_commuting_set(sched):
    n = sched.n_qubits
    for k, step in enumerate(sched.steps):
        theta = twist_frame(step.all_terms())
        strings = [p for op in step.all_terms() for _, p in frame_strings(op, theta)]
        xgens, zgens, _ = conserved_generators(strings, n)
        gens = xgens + zgens
        ops = [
            RotatedPauliOp.from_parts(
                PauliString(n, v & ((1 << n) - 1), v >> n),
                {w: a for w, a in theta.items() if v >> w & 1},
            )
            for v in gens
        ]
        for c in ops:
            assert all(commutes(c, t) is Commutation.COMMUTE for t in step.all_terms())
            assert all(commutes(c, other) is Commutation.COMMUTE for other in ops)
        for i, v in enumerate(gens):
            assert not in_span(gens[:i] + gens[i + 1:], v)
        assert len(gens) == n - int(math.log2(step_blocks(sched, k).dim))


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 3])
def test_twisted_second_site_step_runs_in_blocks(theta):
    sched = _second_site_schedule(theta)
    res = evolve(sched, 5.0)
    assert [(p.method, p.dim) for p in res.propagation] == [("blocks", 4)]
    psi, leakage = _dense_evolution(sched, res.tau_used)
    assert np.max(np.abs(res.final_states - psi)) < 1e-12
    assert abs(res.leakage - leakage) < 1e-12


@pytest.mark.parametrize("sched", _block_oracle_cases())
def test_block_evolution_matches_dense_oracle(sched):
    res = evolve(sched, 2.0)
    psi, leakage = _dense_evolution(sched, res.tau_used)
    assert np.max(np.abs(res.final_states - psi)) < 1e-12
    assert abs(res.leakage - leakage) < 1e-12


def test_every_step_of_every_mode_has_an_exact_small_method():
    params = _pair_oracle_cases() + _block_oracle_cases() + _twisted_stepwise_cases()
    scheds = [p.values[0] for p in params]
    cnot = generate_cnot_graph()
    for g, gf in ((generate_cluster(2, 3), cluster_gflow(2, 3)), (cnot, find_gflow(cnot))):
        order = list(reversed(g.non_outputs))
        scheds += [compile_reordered_fixed(g, gf, order)[0], compile_reordered_strip(g, gf, order)]
    for sched in scheds:
        res = evolve(sched, 1.0)
        assert {p.method for p in res.propagation} <= {"pair", "blocks"}
        assert all(p.dim < 1 << sched.n_qubits for p in res.propagation)


def test_commuting_final_terms_skip_the_dense_ground_projector(monkeypatch):
    g = generate_chain(4, [0.0, 0.9, 0.3, 0.0])
    sched = compile_stepwise(g, chain_gflow(4))
    psi, leakage = _dense_evolution(sched, [15.0] * 3)

    def refuse(*args):
        raise AssertionError("block ground path called")

    monkeypatch.setattr(sim, "step_blocks", refuse)
    res = evolve(sched, 15.0)
    assert abs(res.leakage - leakage) < 1e-12


def test_twist_frame_keeps_only_agreeing_sites():
    n, a, b = 2, 0.4, 1.1
    x0 = RotatedPauliOp.from_parts(single(n, 0, "X"), {0: a})
    x0x1 = RotatedPauliOp.from_parts(single(n, 0, "X").mul(single(n, 1, "X")), {0: a, 1: b})
    terms = [x0, x0x1, rop(single(n, 1, "X"))]
    theta = twist_frame(terms)
    assert theta == {0: a}
    r = np.diag(np.exp(-0.5j * a * (1.0 - 2.0 * (np.arange(1 << n) & 1))))
    for op in terms:
        got = sum(c * to_matrix(p) for c, p in frame_strings(op, theta))
        assert np.max(np.abs(got - r.conj().T @ to_matrix(op) @ r)) < 1e-14
    assert len(frame_strings(x0x1, theta)) == 2


def test_twist_frame_rejects_non_hermitian_terms():
    with pytest.raises(ValueError):
        twist_frame([rop(PauliString(2, 1, 0, 1))])  # i X1
    with pytest.raises(ValueError):
        twist_frame([RotatedPauliOp.from_parts(single(2, 0, "Z"), {0: 0.3})])


# --- conserved operators ----------------------------------------------------


def test_conserved_t1t3_in_reordered_step():
    g = generate_chain(4, [0.0] * 4)
    sched, _ = compile_reordered_fixed(g, chain_gflow(4), [2, 0, 1])
    t1t3 = rop(stabilizer_generator(g, 1).mul(stabilizer_generator(g, 3)))
    first = conserved_operator_check(sched, 0, [t1t3])[0]
    assert first.symbolic and first.conserved
    second = conserved_operator_check(sched, 1, [t1t3])[0]
    assert not second.symbolic and not second.conserved
    assert second.max_commutator_norm > 1.0


def test_conserved_identity_trivially():
    g = generate_chain(4, [0.0] * 4)
    sched = compile_stepwise(g, chain_gflow(4))
    ident = rop(PauliString(4))
    assert conserved_operator_check(sched, 0, [ident])[0].conserved


def _conserved_oracle_cases():
    rng = np.random.default_rng(2014)
    graphs = []
    for n in range(4, 8):
        g = generate_chain(n, [float(a) for a in rng.uniform(0, 2 * math.pi, n)])
        graphs.append((f"chain{n}", g, chain_gflow(n)))
    cnot = generate_cnot_graph()
    graphs += [("cluster2x3", generate_cluster(2, 3), cluster_gflow(2, 3)), ("cnot", cnot, find_gflow(cnot))]
    cases = []
    for name, g, gf in graphs:
        order = [int(v) for v in rng.permutation(g.non_outputs)]
        scheds = [compile_stepwise(g, gf), compile_layered(g, gf),
                  compile_reordered_fixed(g, gf, order)[0], compile_reordered_strip(g, gf, order)]
        cases.append(pytest.param(scheds, id=name))
    return cases


@pytest.mark.parametrize("scheds", _conserved_oracle_cases())
def test_conserved_check_matches_dense_oracle(scheds):
    # Each dense commutator norm costs ~8^n, so the 7-qubit chain takes only
    # the T_v, not their products.
    g = scheds[0].graph
    cands = list(stabilizer_set(g, scheds[0].gflow).values())
    if g.n_vertices <= 6:
        cands += [a.mul(b) for i, a in enumerate(cands) for b in cands[i + 1:]]
    grid = (0.0, 0.5, 1.0)
    for sched in scheds:
        for k in range(len(sched.steps)):
            got = conserved_operator_check(sched, k, cands, grid)
            want = dense_oracle.conserved_operator_check(sched, k, cands, grid)
            for c, w in zip(got, want):
                assert (c.symbolic, c.conserved) == (w.symbolic, w.conserved), (k, c.operator.render())
                assert abs(c.max_commutator_norm - w.max_commutator_norm) < 1e-12, (k, c.operator.render())


def test_conserved_check_forms_no_dense_matrix_at_14_qubits(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense matrix formed")

    g = generate_chain(14, [0.0] * 14)
    sched, _ = compile_reordered_fixed(g, chain_gflow(14), [2, 0, 1] + list(range(3, 13)))
    monkeypatch.setattr(sim, "to_matrix", refuse)
    # the dense step matrices are refused before any of them is allocated
    with pytest.raises(SizeCapError, match="dense 14-qubit"):
        sim.step_endpoint_matrices(sched, 0)
    monkeypatch.setattr(sim, "step_endpoint_matrices", refuse)
    t1t3 = rop(stabilizer_generator(g, 1).mul(stabilizer_generator(g, 3)))
    first = conserved_operator_check(sched, 0, [t1t3])[0]
    assert first.symbolic and first.conserved and first.max_commutator_norm == 0.0
    second = conserved_operator_check(sched, 1, [t1t3])[0]
    assert not second.symbolic and not second.conserved
    assert abs(second.max_commutator_norm - 2.0) < 1e-12


def test_conserved_check_rejects_non_hermitian_candidates():
    g = generate_chain(4, [0.0] * 4)
    sched = compile_stepwise(g, chain_gflow(4))
    for cand in (rop(PauliString(4, 1, 0, 1)), RotatedPauliOp.from_parts(single(4, 0, "Z"), {0: 0.3})):
        with pytest.raises(ValueError):
            conserved_operator_check(sched, 0, [cand])


# --- leakage ----------------------------------------------------------------


def test_leakage_decreases_in_order():
    g = generate_chain(4, [0.0, 0.9, 0.3, 0.0])
    sched = compile_stepwise(g, chain_gflow(4))
    rows = [evolve(sched, tau) for tau in (15.0, 150.0)]
    assert rows[0].leakage > rows[1].leakage
    assert rows[1].leakage < 1e-3
    for res in rows:
        assert res.fidelity == pytest.approx(1.0 - res.leakage)


def test_leakage_plateau_for_unprotected_reordering():
    g = generate_chain(4, [0.0] * 4)
    sched, _ = compile_reordered_fixed(g, chain_gflow(4), [2, 0, 1])
    assert all(evolve(sched, tau).leakage > 0.05 for tau in (30.0, 300.0))


def test_leakage_vanishes_for_strip_reordering():
    g = generate_chain(4, [0.0] * 4)
    sched = compile_reordered_strip(g, chain_gflow(4), [2, 0, 1])
    assert evolve(sched, 150.0).leakage < 1e-3


# --- MBQC reference ---------------------------------------------------------


def test_mbqc_two_qubit_rule_both_outcomes():
    theta = 0.9
    g = generate_chain(2, [theta, 0.0])
    phi = np.array([0.6, 0.8j])
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    uz = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    want = h @ uz @ phi
    for oc in ([0], [1]):
        run = mbqc_reference_run(g, chain_gflow(2), phi, oc)
        phase = np.exp(1j * np.angle(np.vdot(want, run.output_state)))
        assert np.abs(run.output_state - phase * want).max() < 1e-10


def test_mbqc_outcome_independent(rng):
    g = generate_chain(4, [0.0, 1.1, 2.2, 0.0])
    inp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    inp /= np.linalg.norm(inp)
    base = mbqc_reference_run(g, chain_gflow(4), inp, "zeros")
    for bits in range(8):
        run = mbqc_reference_run(g, chain_gflow(4), inp, [bits >> i & 1 for i in range(3)])
        assert abs(np.vdot(base.output_state, run.output_state)) > 1 - 1e-10


def test_mbqc_random_outcomes_seeded():
    g = generate_chain(4, [0.0, 0.5, 0.25, 0.0])
    a = mbqc_reference_run(g, chain_gflow(4), np.array([1.0, 0.0]), "random", seed=7)
    b = mbqc_reference_run(g, chain_gflow(4), np.array([1.0, 0.0]), "random", seed=7)
    assert a.outcomes == b.outcomes
    assert np.allclose(a.output_state, b.output_state)


def test_mbqc_matches_chain_prediction(rng):
    angles = [0.0, float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 2 * math.pi)), 0.0]
    g = generate_chain(4, angles)
    u = mbqc_logical_unitary(g, chain_gflow(4))
    assert compare(u, chain_unitary(angles[:3])) < 1e-10


def test_mbqc_cnot_graph_realizes_x_controlled_not():
    # the 6-qubit two-row graph implements CNOT conjugated by H on the first
    # (control) wire, deterministically
    g = generate_cnot_graph()
    gf = find_gflow(g)
    u = mbqc_logical_unitary(g, gf)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    dressed = np.kron(h, np.eye(2)) @ cnot @ np.kron(h, np.eye(2))
    assert compare(u, dressed) < 1e-10


def test_mbqc_nontrivial_gflow_family_deterministic(rng):
    # g^2 corrects with two-member sets; the general angles make an X
    # byproduct flip the adapted angle's sign
    zigzag = generate_zigzag(3)
    gf = zigzag_gflow_family(3, 2)
    inp = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    inp /= np.linalg.norm(inp)
    for g in (zigzag, make_graph(6, zigzag.edges, range(3), range(3, 6), {0: 0.3, 1: 0.9, 2: 1.7})):
        base = mbqc_reference_run(g, gf, inp, "zeros")
        for bits in range(8):
            run = mbqc_reference_run(g, gf, inp, [bits >> i & 1 for i in range(3)])
            assert abs(np.vdot(base.output_state, run.output_state)) > 1 - 1e-10


def _crossed_rows(outputs):
    """Rows 1-2-3 and 4-5-6 joined by the rung 2-5, inputs [1, 4] (at angle
    0, the chains' convention), general angles on 2 and 5, and the two
    outputs listed in the given order."""
    g = make_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (1, 4)], [0, 3], outputs, {1: 0.8, 4: 0.5})
    return g, find_gflow(g)


def _mbqc_test_graphs():
    """Every (graph, gflow) the MBQC tests run, with outputs listed out of
    vertex order in the second to last, and more outputs than inputs in
    the last."""
    return [
        *((generate_chain(n, [0.0, *np.linspace(0.9, 2.2, n - 2), 0.0]), chain_gflow(n))
          for n in (2, 3, 4, 5)),
        (generate_cnot_graph(), find_gflow(generate_cnot_graph())),
        *((generate_zigzag(u), zigzag_gflow_family(u, r)) for u, r in ((2, 2), (3, 2), (3, 3), (5, 5))),
        (generate_cluster(2, 2), cluster_gflow(2, 2)),
        _crossed_rows([5, 2]),
        (make_graph(3, [(0, 1), (1, 2)], [0], [1, 2], {0: 0.7}), Gflow({0: frozenset({1})}, {0: 0})),
    ]


def test_mbqc_and_evolve_read_outputs_in_list_order():
    # bit i of both logical bases is outputs[i], here [6, 3]
    g, gf = _crossed_rows([5, 2])
    res = evolve(compile_stepwise(g, gf), 100.0)
    for outcomes in ("zeros", "random"):
        assert compare(res.logical_unitary, mbqc_logical_unitary(g, gf, outcomes, seed=5)) < 1e-6
    # listing the outputs the other way round swaps the two output bits
    swap = np.eye(4)[[0, 2, 1, 3]]
    ascending = mbqc_logical_unitary(*_crossed_rows([2, 5]))
    assert np.abs(swap @ ascending - mbqc_logical_unitary(g, gf)).max() < 1e-12


@pytest.mark.parametrize("graph, gf", _mbqc_test_graphs())
def test_mbqc_columns_run_as_one_pass(graph, gf):
    rng = np.random.default_rng(31)
    k = len(graph.inputs)
    inputs = rng.standard_normal((1 << k, 3)) + 1j * rng.standard_normal((1 << k, 3))
    explicit = [int(b) for b in rng.integers(0, 2, size=len(gf.measurement_order()))]
    for outcomes in ("zeros", "random", explicit):
        batch = mbqc_reference_run(graph, gf, inputs, outcomes, seed=11)
        assert batch.output_state.shape == (1 << len(graph.outputs), 3)
        for j in range(3):
            one = mbqc_reference_run(graph, gf, inputs[:, j], outcomes, seed=11)
            assert one.output_state.ndim == 1 and one.outcomes == batch.outcomes
            assert np.abs(batch.output_state[:, j] - one.output_state).max() < 1e-12
    if len(graph.outputs) == k:
        for outcomes in ("zeros", "random"):
            columns = [mbqc_reference_run(graph, gf, e, outcomes, seed=11).output_state
                       for e in np.eye(1 << k)]
            u = mbqc_logical_unitary(graph, gf, outcomes, seed=11)
            assert np.abs(u - np.stack(columns, axis=1)).max() < 1e-12


def test_mbqc_checks_each_column_for_a_zero_weight_branch():
    g = generate_chain(3, [0.0, 0.4, 0.0])
    with pytest.raises(RuntimeError, match="zero weight"):
        mbqc_reference_run(g, chain_gflow(3), np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_mbqc_columns_are_charged_before_allocating(monkeypatch):
    # one column of chain:4 fits in 2,048 bytes; four do not
    g = generate_chain(4, [0.0] * 4)
    monkeypatch.setattr(budget, "MEMORY_BUDGET", 2048)
    assert mbqc_reference_run(g, chain_gflow(4), np.eye(2)[:, :1]).output_state.shape == (2, 1)
    with pytest.raises(SizeCapError):
        mbqc_reference_run(g, chain_gflow(4), np.ones((2, 4)))
    monkeypatch.undo()
    # at the real budget, four columns of 22 qubits are refused before the
    # first 2^22-entry array exists
    g = generate_chain(22, [0.0] * 22)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError):
            mbqc_reference_run(g, chain_gflow(22), np.ones((2, 4)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("graph, gf", [
    pytest.param(generate_zigzag(r), zigzag_gflow_family(r, 1), id=f"zigzag{r}") for r in (5, 6, 7)
] + [pytest.param(generate_cluster(4, 3), cluster_gflow(4, 3), id="cluster4x3")])
def test_mbqc_holds_at_most_its_charge(monkeypatch, graph, gf):
    # every input basis state as a column (16 to 128): tracemalloc reads 3
    # vectors a column plus 4 to 12 against a charge of 4 a column plus 4,
    # so a budget one byte under the peak refuses the run
    m = 1 << len(graph.inputs)
    columns = np.eye(m)
    mbqc_reference_run(graph, gf, columns)  # once untraced, so that the traced run starts warm
    peak = _traced_peak(lambda: mbqc_reference_run(graph, gf, columns))
    monkeypatch.setattr(budget, "MEMORY_BUDGET", peak - 1)
    with pytest.raises(SizeCapError, match=f"{2 * m} {graph.n_vertices}-qubit state vectors"):
        mbqc_reference_run(graph, gf, columns)


def test_mbqc_input_dimension_check():
    g = generate_chain(3, [0.0] * 3)
    with pytest.raises(ValueError):
        mbqc_reference_run(g, chain_gflow(3), np.array([1.0, 0.0, 0.0]))


_CHAIN3 = [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "graph,gf,message",
    [
        # the zig-zag g^1 of a 4-vertex graph leaves two non-outputs without g(v)
        (generate_chain(5), zigzag_gflow_family(2, 1), r"missing \[3, 4\]"),
        (
            generate_chain(3, [0.0, 0.7, 0.0]),
            Gflow({0: frozenset({1}), 1: frozenset({2})}, {0: 1, 1: 0}),
            r"G1: 2 in g\(1\) is not in the future of 1",
        ),
        (
            make_graph(3, _CHAIN3, [0], [2], {1: 0.3}, {1: Plane.XZ}),
            Gflow({0: frozenset({1}), 1: frozenset({1, 2})}, {0: 0, 1: 1}),
            r"vertex 2 is XZ",
        ),
        (
            make_graph(3, _CHAIN3, [0, 1], [2]),
            Gflow({0: frozenset({1}), 1: frozenset({2})}, {0: 0, 1: 1}),
            r"g\(1\) holds input 2",
        ),
    ],
    ids=["structure", "G1", "XZ-plane", "input"],
)
def test_mbqc_refuses_a_gflow_that_compile_refuses(graph, gf, message):
    """Without the check each of these measured a wrong pattern and
    returned a state, or refused only under some outcomes."""
    with pytest.raises(ValueError, match=message):
        compile_stepwise(graph, gf)
    for outcomes in ("zeros", "random"):
        with pytest.raises(ValueError, match=message):
            mbqc_reference_run(graph, gf, np.eye(1 << len(graph.inputs))[0], outcomes, seed=1)


def test_more_outputs_than_inputs_supported():
    # one input, two outputs: evolution reports leakage but no square unitary
    from agqc.gflow import Gflow
    from agqc.graph import make_graph

    g = make_graph(3, [(0, 1), (1, 2)], [0], [1, 2], {0: 0.0})
    gf = Gflow({0: frozenset({1})}, {0: 0})
    sched = compile_stepwise(g, gf)
    res = evolve(sched, 60.0)
    assert res.logical_unitary is None
    assert res.leakage < 1e-4
    run = mbqc_reference_run(g, gf, np.array([1.0, 0.0]))
    assert run.output_state.shape == (4,)


# --- model equivalence ------------------------------------------------------


def test_agqc_equals_mbqc_random_angles(rng):
    for n in (3, 4):
        angles = [0.0] + [float(rng.uniform(0, 2 * math.pi)) for _ in range(n - 2)] + [0.0]
        g = generate_chain(n, angles)
        gf = chain_gflow(n)
        u_mbqc = mbqc_logical_unitary(g, gf)
        res = evolve(compile_stepwise(g, gf), 100.0)
        assert compare(res.overlap_matrix, u_mbqc) < 1e-3
        assert compare(res.logical_unitary, u_mbqc) < 1e-6


def test_one_step_equals_stepwise_on_cnot():
    g = generate_cnot_graph()
    gf = find_gflow(g)
    res_sw = evolve(compile_stepwise(g, gf), 60.0)
    res_os = evolve(compile_one_step(g, gf), 240.0)
    assert compare(res_os.logical_unitary, res_sw.logical_unitary) < 1e-3


def test_spectra_are_charged_before_allocating():
    class Points:  # a grid that would take ~1 GB as floats
        def __len__(self):
            return 1 << 27

        def __iter__(self):
            raise AssertionError("the grid was read before the charge")

    sched, _ = compile_reordered_fixed(generate_chain(4, [0.0] * 4), chain_gflow(4), [2, 0, 1])
    with pytest.raises(SizeCapError, match="spectra at 1.34e"):
        step_blocks(sched, 0).spectra(Points())
