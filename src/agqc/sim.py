"""Desk-scale exact numerics for schedules: step Hamiltonians, spectral
scans, Schrodinger evolution with logical-unitary extraction, conserved
operator certification, and an MBQC reference simulation.

Everything here is deterministic.  :func:`evolve` picks a propagator per
step from the step's algebra, the smaller of two exact ones:

* ``"pair"``: a commuting replacement of Hermitian involutions with
  pairwise commuting static terms, on a state +1 on its removed terms, is
  one two-level system per replaced vertex, ``alpha + beta I_v``; a static
  term is a phase, or a Pauli action where the state may not be +1 on it;
* ``"blocks"``: every other step.  A maximal set of ``m`` commuting Pauli
  operators that commute with its terms (see :mod:`agqc.sectors`) splits
  ``H(s) = A + sB`` exactly into ``2^m`` blocks of dimension ``2^(n-m)``,
  which are propagated once per distinct problem (2x2 blocks once per
  class, and a class whose traceless A and B parts are exactly parallel in
  one exponential, see :func:`~agqc._linalg.su2_class_ramp`; larger blocks
  once per byte-distinct (A, B)), and diagonalized in :func:`spectral_scan`
  and the ground projection, block by block.

Both use the same CF4 weight grid, so they agree to roundoff.  Every 2x2
propagator is an ordered product of SU(2) pairs, each from ``tan(r/2)``,
times one phase, and every 2x2 spectrum is taken in closed form; larger
ones use ``eigh``.  :func:`evolve_many` runs a list of tau specs as extra
state columns, in as many passes over the schedule as one charge requires
(:func:`~agqc.budget.pass_bytes`: the state columns, the largest block form
and the CF4 weights of a pass), and yields the results pass by pass, so
that a caller that keeps only leakage holds one pass.  Sizes are limited by
the byte budget of :mod:`agqc.budget`, checked before allocating.  Bit v of
a state index is the computational basis state of vertex v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._linalg import su2_sweep
from .budget import check_bytes, check_vectors, evolve_passes
from .compiler import DEGENERACY_TOL, Schedule, ScheduleStep, _require_valid_gflow
from .gflow import Gflow
from .graph import OpenGraph, stabilizer_product
from .logical import _seeded_vector, final_frame, initial_frame, logical_basis_from_ops
from .pauli import (
    PauliString,
    RotatedPauliOp,
    apply_op,
    commutation_masks,
    projector_apply,
    to_matrix,
)
from .sectors import (
    StepBlocks, block_bytes, frame_strings, pauli_sum_blocks, step_blocks, step_form, twist_frame,
)

# Fourth-order commutator-free Magnus coefficients (two exponentials per
# substep, Gauss nodes).  Verified by an order-of-accuracy test.
_CF4_NODE = math.sqrt(3.0) / 6.0
_CF4_A1 = 0.25 + _CF4_NODE
_CF4_A2 = 0.25 - _CF4_NODE


def step_endpoint_matrices(
    schedule: Schedule, step_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense (A, B) with H(s) = A + s B for the given step, including -gamma:
    the input of the tests' dense oracle, which no library path calls.  Six
    ``2^n x 2^n`` complex matrices are alive at once."""
    n = schedule.n_qubits
    check_bytes(6 * 16 << 2 * n, f"dense {n}-qubit matrices")
    a = np.zeros((1 << n,) * 2, dtype=complex)
    b = np.zeros_like(a)
    for op, wa, wb in schedule.steps[step_index].endpoint_weights(schedule.gamma):
        m = to_matrix(op)
        a += wa * m
        b += wb * m
    return a, b


@dataclass(frozen=True)
class SpectralScan:
    """Exact spectra of one step across an s-grid.

    ``gap`` is the energy above the protected subspace,
    ``E[2^{|I|}] - E[0]``; ``gap_above_degenerate`` is the first gap above
    the measured ground degeneracy, which differs exactly at the degenerate
    crossings of reordered schedules.
    """

    s_grid: tuple[float, ...]
    energies: np.ndarray
    gap: np.ndarray
    gap_above_degenerate: np.ndarray
    ground_degeneracy: tuple[int, ...]


def spectral_scan(
    schedule: Schedule,
    step_index: int,
    s_grid: Sequence[float],
    n_levels: int | None = None,
    blocks: StepBlocks | None = None,
) -> SpectralScan:
    """Diagonalize the step Hamiltonian on a grid of interpolation points,
    block by block; ``blocks`` is the step's block form when the caller
    already holds it."""
    blocks = blocks or step_blocks(schedule, step_index)
    spectra = blocks.spectra(s_grid)
    dim = spectra.shape[1]
    logical_dim = 1 << len(schedule.graph.inputs)
    keep = dim if n_levels is None else min(n_levels, dim)
    ground = spectra[:, :1]
    deg = np.sum(spectra - ground < DEGENERACY_TOL * schedule.gamma, axis=1)
    above = np.take_along_axis(spectra, np.minimum(deg, dim - 1)[:, None], axis=1)
    gaps_deg = np.where(deg < dim, (above - ground)[:, 0], 0.0)
    gaps = spectra[:, logical_dim] - ground[:, 0] if logical_dim < dim else np.zeros(len(deg))
    return SpectralScan(
        tuple(float(s) for s in s_grid), spectra[:, :keep].copy(), gaps, gaps_deg,
        tuple(deg.tolist()),
    )


def _ground_components(
    schedule: Schedule, finals: list[RotatedPauliOp], commuting: bool, psi: np.ndarray
) -> np.ndarray:
    """``psi`` in the ground space of the final Hamiltonian, column by column
    (as ground-space coordinates or as projected vectors: same norms).

    When the final terms are commuting involutions and their joint +1 space
    holds the projected seeded vector, that space is the ground space and
    ``prod (1 + t)/2`` projects onto it; otherwise every block of the last
    step at s = 1 is diagonalized, and the eigenvectors within ``1e-7 gamma``
    of the lowest eigenvalue of all blocks span the ground space.
    """
    if commuting and all(op.mul(op).is_identity() for op in finals):
        seeded = projector_apply(finals, _seeded_vector(1 << schedule.n_qubits))
        if np.linalg.norm(seeded) >= 1e-9:
            return projector_apply(finals, psi)
    blocks = step_blocks(schedule, len(schedule.steps) - 1)
    evals, evecs = np.linalg.eigh(blocks.a + blocks.b)
    coords = np.swapaxes(evecs.conj(), -1, -2) @ blocks.to_blocks(psi)
    return coords[evals - evals.min() < 1e-7 * schedule.gamma]


def _terms_commute(terms: Sequence[RotatedPauliOp]) -> bool:
    return not any(any(commutation_masks(terms[i + 1:], a)) for i, a in enumerate(terms))


@dataclass(frozen=True)
class StepPropagation:
    """How :func:`evolve` integrated one step: ``method`` is ``"pair"`` or
    ``"blocks"`` (the module docstring; :func:`evolve_many` for the choice),
    ``n_sub`` the number of CF4 substeps, ``dim`` the dimension of the
    matrices exponentiated: 2, or the block dimension (``2^n`` for a step
    with one block), and ``distinct`` the number of problems propagated: 1
    for ``"pair"``, the classes of 2x2 blocks, swept or not, and the
    byte-distinct (A, B) of larger blocks."""

    method: str
    n_sub: int
    dim: int
    distinct: int


@dataclass(frozen=True)
class EvolutionResult:
    """Outcome of integrating a schedule.

    ``final_states`` holds the evolved logical basis as columns.
    ``overlap_matrix`` is the raw overlap of the evolved basis with the
    reference final basis; its deviation from unitarity carries the
    adiabatic error, so distances computed from it decrease with tau.
    ``logical_unitary`` is its polar-unitary part (None when the final
    Hamiltonian terms do not commute, in which case only leakage is
    meaningful).  ``leakage`` is the mean weight outside the final ground
    subspace and ``fidelity`` its complement.  ``unitarity_defect`` is the
    2-norm distance between the overlap matrix and its unitary part, the
    largest ``|s_i - 1|`` over its singular values.
    ``propagation`` records the method of each step, in schedule order.
    """

    final_states: np.ndarray
    overlap_matrix: np.ndarray | None
    logical_unitary: np.ndarray | None
    leakage: float
    fidelity: float
    tau_used: tuple[float, ...]
    unitarity_defect: float
    propagation: tuple[StepPropagation, ...]


def _n_substeps(tau: float, dt_max: float) -> int:
    """At least 8 CF4 substeps of at most ``dt_max``, their weights checked
    at the pass charge's 40 bytes a substep while still a float (``tau /
    dt_max`` may overflow to inf)."""
    n_sub = max(8.0, float(np.ceil(tau / dt_max)))
    check_bytes(40 * n_sub, f"{n_sub:.3g} CF4 substeps")
    return int(n_sub)


def _cf4_weights(n_sub: int) -> np.ndarray:
    """The ``2 n_sub`` weights w, in order, of the CF4 exponentials
    ``exp(-i dt (A/2 + w B))`` over ``n_sub`` equal substeps of [0, 1]: per
    substep with Gauss nodes s1 < s2, ``A1 s1 + A2 s2`` then
    ``A2 s1 + A1 s2`` (``dt (A1 h(s1) + A2 h(s2))`` with A1 + A2 = 1/2)."""
    s0 = np.arange(n_sub) / n_sub
    nodes = np.stack([s0 + (0.5 - _CF4_NODE) / n_sub, s0 + (0.5 + _CF4_NODE) / n_sub], axis=1)
    return (nodes @ np.array([[_CF4_A1, _CF4_A2], [_CF4_A2, _CF4_A1]])).reshape(-1)


def _is_pair_step(step: ScheduleStep) -> bool:
    """A commuting replacement of Hermitian involutions whose static terms
    commute pairwise: each (removed, introduced) pair spans its own copy of
    the Pauli algebra of (sigma_z, sigma_x), and the static part is a
    product of commuting phases; ``"pair"`` needs a state +1 on each R_v."""
    return (
        step.is_commuting_replacement()
        and all(op.mul(op).is_identity() for op in step.all_terms())
        and _terms_commute(step.static_terms)
    )


def _pair_coefficients(gamma: float, tau: float, weights: np.ndarray) -> tuple[complex, complex]:
    """The pair ``(alpha, beta)`` of the CF4 propagator of ``h(s) = -gamma
    [(1-s) sz + s sx]`` over tau on the :func:`_cf4_weights` ``weights``:
    the :func:`~agqc._linalg.su2_sweep` of ``dt (A/2 + w B)`` with ``A =
    -gamma sz`` (``z = -gamma``, ``h10 = 0``) and ``B = -gamma (sx - sz)``
    (``z = gamma``, ``h10 = -gamma``), both traceless."""
    dt = 2.0 * tau / weights.shape[0]
    (alpha,), (beta,) = su2_sweep(np.array([0.5 * dt * -gamma]), np.array([dt * gamma]),
                                  np.zeros(1), np.array([dt * -gamma]), weights)
    return complex(alpha), complex(beta)


def _propagate_pair_step(
    step: ScheduleStep, pair: Sequence[complex | np.ndarray], gamma_tau: float | np.ndarray,
    untracked: Sequence[RotatedPauliOp], psi: np.ndarray,
) -> np.ndarray:
    """Propagate a state that is +1 on every removed term and every static
    term but ``untracked``: ``alpha + beta I_v`` for each replaced vertex,
    ``cos(gamma tau) + i sin(gamma tau) S`` for each untracked static S and
    ``e^{i gamma tau}`` for each other one; each a number or one a column."""
    alpha, beta = pair
    for v in sorted(step.removed):
        psi = alpha * psi + beta * apply_op(step.introduced[v], psi)
    cos, isin = np.cos(gamma_tau), 1j * np.sin(gamma_tau)
    for st in untracked:
        psi = cos * psi + isin * apply_op(st, psi)
    return psi * np.exp(1j * gamma_tau) ** (len(step.static_terms) - len(untracked))


def _tau_list(schedule: Schedule, tau_per_step: float | Sequence[float]) -> list[float]:
    """One positive tau per step of the schedule, from a tau or a list."""
    taus = (
        [float(tau_per_step)] * len(schedule.steps)
        if isinstance(tau_per_step, (int, float))
        else [float(t) for t in tau_per_step]
    )
    if len(taus) != len(schedule.steps):
        raise ValueError("need one tau per step")
    if min(taus) <= 0:
        raise ValueError("tau must be positive")
    return taus


def evolve(
    schedule: Schedule,
    tau_per_step: float | Sequence[float],
    dt_max: float = 0.25,
) -> EvolutionResult:
    """Integrate the schedule and extract the logical transformation.

    The full initial ground subspace is tracked: an orthonormal logical
    basis is prepared from the initial Hamiltonian's terms and the input
    logical frame, every column is evolved through each step with a linear
    ramp, and the overlap with the reference final basis is polar-corrected
    into a unitary, ``W V^dagger`` from its SVD ``W S V^dagger``.

    Requires ``|inputs| == |outputs|`` for unitary extraction.  The
    one-spec call of :func:`evolve_many`.
    """
    return next(evolve_many(schedule, [tau_per_step], dt_max))


def evolve_many(
    schedule: Schedule,
    tau_specs: Sequence[float | Sequence[float]],
    dt_max: float = 0.25,
) -> Iterator[EvolutionResult]:
    """:func:`evolve` for each of ``tau_specs`` (a tau, or one per step),
    yielded pass by pass.  :func:`~agqc.budget.evolve_passes` sizes the
    passes and refuses, before the first runs, a request whose one-spec pass
    is over budget: for its state columns and largest block form, then for
    each spec's substeps.  A pass's block forms and states are freed when it
    returns, so a caller that keeps only leakage holds one pass.  Each step's
    method and block generators and the final terms' commutation are found
    once a call.  A step runs as ``"pair"`` when :func:`_is_pair_step` holds
    and its removed terms are tracked: the state is +1 on step 0's static
    and removed terms, and after each step on those of its terms (the same
    objects) that commute with all its terms, on a pair step the static ones."""
    if not schedule.steps:
        raise ValueError("empty schedule")
    specs = [_tau_list(schedule, spec) for spec in tau_specs]
    n, m = schedule.n_qubits, 1 << len(schedule.graph.inputs)
    first = schedule.steps[0]
    tracked = {id(op) for op in (*first.static_terms, *first.removed.values())}
    pair_steps: list[list[RotatedPauliOp] | None] = []
    for step in schedule.steps:
        pair = _is_pair_step(step) and tracked.issuperset(map(id, step.removed.values()))
        pair_steps.append([op for op in step.static_terms if id(op) not in tracked] if pair else None)
        terms = step.all_terms()
        kept = step.static_terms if pair else [
            op for op in terms if id(op) in tracked and not any(commutation_masks(terms, op))]
        tracked &= set(map(id, kept))
    forms = {k: step_form(schedule, k) for k, pair in enumerate(pair_steps) if pair is None}
    dims = [1 << n - len(xgens) - len(zgens) for *_, (xgens, zgens, _) in forms.values()]
    block = block_bytes(n, max(dims)) if dims else 0  # the largest block form of the call
    passes = evolve_passes(n, m, block, ([_n_substeps(t, dt_max) for t in taus] for taus in specs))
    last = schedule.steps[-1]
    finals = list(last.static_terms) + list(last.introduced.values())
    commuting = _terms_commute(finals)
    for subs in passes:
        group, specs = specs[:len(subs)], specs[len(subs):]
        yield from _evolve_pass(schedule, group, subs, pair_steps, forms, finals, commuting)


def _evolve_pass(
    schedule: Schedule, specs: list[list[float]], n_subs: list[list[int]],
    pair_steps: list[list[RotatedPauliOp] | None], forms: dict[int, tuple],
    finals: list[RotatedPauliOp], commuting: bool,
) -> list[EvolutionResult]:
    """One pass of :func:`evolve_many`, each spec's logical basis a share of
    the state's columns.  Block forms, 2x2 classes, both logical bases and
    the ground projection are built once a pass, and the CF4 weights once
    for each substep count; pair coefficients or class sweeps and polar
    extraction are each spec's own."""
    graph, n, m = schedule.graph, schedule.n_qubits, 1 << len(schedule.graph.inputs)
    first = schedule.steps[0]
    initial_terms = list(first.static_terms) + list(first.removed.values())
    psi = np.tile(logical_basis_from_ops(initial_terms, initial_frame(graph, schedule.gflow), n),
                  len(specs))
    shares = [slice(j * m, (j + 1) * m) for j in range(len(specs))]
    cf4 = {s: _cf4_weights(s) for s in set().union(*map(set, n_subs))}
    pair_coeffs: dict[tuple[float, ...], tuple[np.ndarray, np.ndarray]] = {}
    methods = []
    for k, (step, untracked) in enumerate(zip(schedule.steps, pair_steps)):
        taus = tuple(spec[k] for spec in specs)
        subs = [n_sub[k] for n_sub in n_subs]
        if untracked is not None:
            if taus not in pair_coeffs:  # one coefficient for each column
                coeffs = [_pair_coefficients(schedule.gamma, tau, cf4[s])
                          for tau, s in zip(taus, subs)]
                pair_coeffs[taus] = (np.repeat(coeffs, m, axis=0).T,
                                     schedule.gamma * np.repeat(taus, m))
            psi = _propagate_pair_step(step, *pair_coeffs[taus], untracked, psi)
            methods.append(("pair", 2, 1))
        else:
            blocks = pauli_sum_blocks(*forms[k])
            psi, distinct = blocks.propagate(psi, [t / s for t, s in zip(taus, subs)],
                                             [cf4[s] for s in subs])
            methods.append(("blocks", blocks.dim, distinct))
            del blocks  # the next step's block form is built without this one

    weights = np.linalg.norm(_ground_components(schedule, finals, commuting, psi), axis=0) ** 2
    ref = None
    if commuting and len(graph.inputs) == len(graph.outputs):
        ref = logical_basis_from_ops(finals, final_frame(graph), n).conj().T
    results = []
    for share, taus, n_sub in zip(shares, specs, n_subs):
        leakage = float(1.0 - np.mean(weights[share]))
        overlap = logical_unitary = None
        defect = math.nan
        if ref is not None:
            overlap = ref @ psi[:, share]
            w, sigma, vh = np.linalg.svd(overlap)
            logical_unitary = w @ vh
            defect = float(np.max(np.abs(sigma - 1.0)))  # overlap - W V^dag = W (S - 1) V^dag
        results.append(EvolutionResult(
            final_states=psi[:, share],
            overlap_matrix=overlap,
            logical_unitary=logical_unitary,
            leakage=leakage,
            fidelity=1.0 - leakage,
            tau_used=tuple(taus),
            unitarity_defect=defect,
            propagation=tuple(StepPropagation(method, s, dim, distinct)
                              for (method, dim, distinct), s in zip(methods, n_sub)),
        ))
    return results


# ---------------------------------------------------------------------------
# conserved operators


@dataclass(frozen=True)
class ConservedCheck:
    operator: RotatedPauliOp
    symbolic: bool
    max_commutator_norm: float
    conserved: bool


def conserved_operator_check(
    schedule: Schedule,
    step_index: int,
    candidates: Sequence[RotatedPauliOp],
    s_grid: Sequence[float] = tuple(i / 10 for i in range(11)),
) -> list[ConservedCheck]:
    """Certify candidate conserved operators for one step.

    Symbolic: the candidate commutes with every term of the interpolation
    (term-by-term, which covers both endpoints and all s).  Numeric: the
    spectral norm of ``[C, H(s)]`` on the grid, the largest |eigenvalue| of
    the Hermitian ``i[C, H(s)]``: with all twists expanded into Pauli
    strings, each string q of C and p of a term whose products ``q p`` and
    ``p q`` differ in phase add ``2i q p``, and the sum is diagonalized in
    blocks (:func:`~agqc.sectors.pauli_sum_blocks`, within its block
    estimate of the memory budget).  A non-Hermitian candidate raises
    ValueError.
    """
    weights = schedule.steps[step_index].endpoint_weights(schedule.gamma)
    terms = [op for op, _, _ in weights]
    strings = [(wa * c, wb * c, p) for op, wa, wb in weights for c, p in frame_strings(op, {})]
    tol = 1e-9 * schedule.gamma * max(1, len(weights))
    out = []
    for cand in candidates:
        twist_frame([cand])  # raises ValueError for a non-Hermitian candidate
        symbolic = not any(commutation_masks(terms, cand))
        commutator = [
            (2j * d * wa, 2j * d * wb, q.mul(p))
            for d, q in frame_strings(cand, {})
            for wa, wb, p in strings
            if q.mul(p) != p.mul(q)
        ]
        worst = 0.0
        if commutator:
            spectra = pauli_sum_blocks(commutator, schedule.n_qubits, {}).spectra(s_grid)
            worst = float(np.max(np.abs(spectra)))
        out.append(ConservedCheck(cand, symbolic, worst, worst < tol))
    return out


# ---------------------------------------------------------------------------
# MBQC reference simulation


@dataclass(frozen=True)
class MbqcRun:
    """Output of one measurement-pattern simulation.

    ``output_state`` is indexed over the output vertices in output-list
    order (bit i of the index = outputs[i]).
    """

    output_state: np.ndarray
    outcomes: tuple[int, ...]


def mbqc_reference_run(
    graph: OpenGraph,
    gf: Gflow,
    input_state: np.ndarray,
    outcomes: str | Sequence[int] = "zeros",
    seed: int | None = None,
) -> MbqcRun:
    """Measure the open graph state qubit-by-qubit with gflow corrections.

    The input state (dimension ``2^{|inputs|}``, bit i = inputs[i]) is
    entangled into the graph, every non-output is measured in layer order
    at its adapted angle, outcome 1 at v XORs the X and Z masks of
    :func:`agqc.graph.stabilizer_product` over g(v) into the byproduct (its
    sign, a global phase, is dropped), and the surviving output state is
    returned with final corrections applied.  The gflow is first checked
    as ``compile`` checks it (``ValueError`` on failure), which is what
    makes the result independent of the outcomes: "zeros", "random", or an
    explicit bit sequence.  A ``(2^{|inputs|}, m)`` input runs its m columns
    in one pass, under one outcome sequence, each column normalized and
    checked for a zero-weight branch on its own; ``output_state`` is then
    ``(2^{|outputs|}, m)``.
    """
    _require_valid_gflow(graph, gf)
    n = graph.n_vertices
    inputs = graph.inputs
    given = np.asarray(input_state, dtype=complex)
    if given.ndim not in (1, 2) or given.shape[0] != 1 << len(inputs):
        raise ValueError(f"input state must have dimension 2**{len(inputs)} (or that many rows)")
    columns = given.reshape(given.shape[0], -1)
    m = columns.shape[1]
    check_vectors(n, 2 * m)
    dim = 1 << n

    idx = np.arange(dim, dtype=np.int64)
    in_bits = np.zeros(dim, dtype=np.int64)
    for i, v in enumerate(inputs):
        in_bits |= ((idx >> v) & 1) << i
    parity = np.zeros(dim, dtype=np.int64)  # CZ signs: parity of the edges inside each index
    for a, b in graph.edges:
        parity ^= (idx >> a) & (idx >> b) & 1
    state = columns[in_bits] * ((1 - 2 * parity) * 2.0 ** (-0.5 * (n - len(inputs))))[:, None]

    order = gf.measurement_order()
    if isinstance(outcomes, str):
        if outcomes == "zeros":
            planned = [0] * len(order)
        elif outcomes == "random":
            planned = np.random.default_rng(seed).integers(0, 2, size=len(order)).tolist()
        else:
            raise ValueError(f"unknown outcome mode {outcomes!r}")
    else:
        planned = [int(b) for b in outcomes]
        if len(planned) != len(order):
            raise ValueError(f"need {len(order)} outcomes, got {len(planned)}")

    bx = bz = 0  # the byproduct's X and Z masks
    for v, r_obs in zip(order, planned):
        theta = graph.angles[v]
        if bx >> v & 1:
            theta = -theta
        if bz >> v & 1:
            theta += math.pi
        # Measurement basis |±_theta> = (|0> ± e^{-i theta}|1>)/sqrt(2): the
        # phase sign that makes one measured qubit implement H exp(-i theta Z/2),
        # matching the rotated-generator Hamiltonian picture exactly.
        # halves[:, b] holds the amplitudes with bit v = b
        halves = state.reshape(dim >> (v + 1), 2, 1 << v, m)
        sign = -1.0 if r_obs else 1.0
        halves[:, 0] = (halves[:, 0] + sign * np.exp(1j * theta) * halves[:, 1]) / math.sqrt(2.0)
        halves[:, 1] = 0.0
        norm = np.linalg.norm(state, axis=0)
        if np.any(norm < 1e-12):
            raise RuntimeError("measurement branch has zero weight")
        state /= norm
        # Adapted basis vectors are byproduct * (ideal basis), so the observed
        # outcome already labels the ideal branch; no relabeling.
        if r_obs:
            cx, cz, _ = stabilizer_product(graph, gf.g[v])
            bx ^= cx
            bz ^= cz

    # every non-output was measured into bit 0: output index j, whose bit i
    # is the state of outputs[i], is gathered from the full index src[j]
    out_idx = np.arange(1 << len(graph.outputs), dtype=np.int64)
    src = np.zeros_like(out_idx)
    out_mask = 0
    for i, v in enumerate(graph.outputs):
        out_mask |= 1 << v
        src |= (out_idx >> i & 1) << v
    final_fix = PauliString(n, bx & out_mask, bz & out_mask)
    output_state = apply_op(final_fix, state)[src]
    output_state = output_state / np.linalg.norm(output_state, axis=0)
    return MbqcRun(output_state if given.ndim == 2 else output_state[:, 0], tuple(planned))


def mbqc_logical_unitary(
    graph: OpenGraph, gf: Gflow, outcomes: str | Sequence[int] = "zeros", seed: int | None = None
) -> np.ndarray:
    """Columns = MBQC outputs for computational-basis inputs (|I| == |O|)."""
    k = len(graph.inputs)
    if len(graph.outputs) != k:
        raise ValueError("logical unitary needs |inputs| == |outputs|")
    return mbqc_reference_run(graph, gf, np.eye(1 << k), outcomes, seed).output_state
