"""Symbolic tracking of encoded information: logical operator frames,
Heisenberg updates through replacement steps, the logical basis a frame
defines, and the predicted net unitary for 1D chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .budget import check_vectors
from .compiler import ScheduleStep
from .gflow import Gflow
from .graph import OpenGraph, stabilizer_product
from .pauli import (
    Commutation,
    PauliString,
    RotatedPauliOp,
    apply_op,
    commutation_masks,
    commutes,
    projector_apply,
    single,
)

#: Fixed seed of the reference vector used to pin logical basis states.
_BASIS_SEED = 2010


class NestedExponentError(ValueError):
    """Propagation would need exp(-i theta Z T) bookkeeping; use the
    numerical extraction in :mod:`agqc.sim` instead."""


@dataclass(frozen=True)
class LogicalFrame:
    """One (X_L, Z_L) pair per encoded qubit; Y_L is derived as i Z_L X_L."""

    pairs: tuple[tuple[RotatedPauliOp, RotatedPauliOp], ...]


def initial_frame(graph: OpenGraph, gf: Gflow) -> LogicalFrame:
    """Input-site logical operators: X_L(i) = X_i prod_{w~i} Z_w, Z_L(i) = Z_i.

    The X_L take the shape of the (absent) input stabilizer generator, which
    is what makes them commute with every Hamiltonian term T_v.
    """
    n = graph.n_vertices
    pairs = []
    for i in graph.inputs:
        x, z, _ = stabilizer_product(graph, (i,))
        x_l = RotatedPauliOp.from_pauli(PauliString(n, x, z))
        z_l = RotatedPauliOp.from_pauli(single(n, i, "Z"))
        pairs.append((x_l, z_l))
    return LogicalFrame(tuple(pairs))


def final_frame(graph: OpenGraph) -> LogicalFrame:
    """Bare output-site frame: X_L(i) = X at outputs[i], Z_L(i) = Z there."""
    n = graph.n_vertices
    pairs = tuple(
        (
            RotatedPauliOp.from_pauli(single(n, o, "X")),
            RotatedPauliOp.from_pauli(single(n, o, "Z")),
        )
        for o in graph.outputs
    )
    return LogicalFrame(pairs)


# ---------------------------------------------------------------------------
# reference logical bases


def _seeded_vector(dim: int) -> np.ndarray:
    rng = np.random.default_rng(_BASIS_SEED)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v


def logical_basis_from_ops(
    stabilizing: Sequence[RotatedPauliOp | PauliString],
    frame: LogicalFrame,
    n: int,
) -> np.ndarray:
    """Columns |b>_L of the joint +1 eigenspace of ``stabilizing``, labelled
    by the frame: |0...0>_L is the +1 eigenstate of every Z_L, and X_L
    products generate the rest, fixing all relative phases.
    """
    k = len(frame.pairs)
    check_vectors(n, 1 << k)
    dim = 1 << n
    v = _seeded_vector(dim)
    v = projector_apply(stabilizing, v)
    v = projector_apply([z for _, z in frame.pairs], v)
    norm = np.linalg.norm(v)
    if norm < 1e-9:
        raise ValueError("reference vector annihilated; stabilizing set inconsistent?")
    v = v / norm
    basis = np.empty((dim, 1 << k), dtype=complex)
    for b in range(1 << k):
        col = v
        for i in range(k):
            if b >> i & 1:
                col = apply_op(frame.pairs[i][0], col)
        basis[:, b] = col
    return basis


# ---------------------------------------------------------------------------
# Heisenberg propagation


def _commute_out(op: RotatedPauliOp, step: ScheduleStep) -> RotatedPauliOp:
    for v in sorted(step.introduced):
        x_v = step.introduced[v]
        rel = commutes(op, x_v)
        if rel is Commutation.COMMUTE:
            continue
        if any(site == v for site, _ in op.twist):
            raise NestedExponentError(
                f"logical operator carries a twist at replaced vertex {v + 1}; "
                "symbolic propagation would need a nested exponent "
                "(exp(-i theta Z T) form) - extract the unitary numerically"
            )
        if rel is Commutation.NEITHER:
            raise NestedExponentError(
                f"logical operator neither commutes nor anticommutes with the "
                f"replacement at vertex {v + 1}"
            )
        op = op.mul(step.removed[v])
        if commutes(op, x_v) is not Commutation.COMMUTE:
            raise NestedExponentError(
                f"multiplying by the removed term at vertex {v + 1} did not "
                "restore commutation; the step is not gflow-ordered"
            )
    return op


def _erase_introduced(op: RotatedPauliOp, step: ScheduleStep) -> RotatedPauliOp:
    mask = 0
    for v in step.introduced:
        mask |= 1 << v
    p = op.pauli
    if p.z & mask or any(site_bit & mask for site_bit in (1 << s for s, _ in op.twist)):
        raise NestedExponentError(
            "cannot set a replaced vertex to identity: residual Z/twist present"
        )
    return RotatedPauliOp(PauliString(p.n, p.x & ~mask, p.z, p.phase_exp), op.twist)


def propagate(frame: LogicalFrame, step: ScheduleStep) -> LogicalFrame:
    """Heisenberg update of the frame through one replacement step.

    Each logical operator is multiplied by removed terms until it commutes
    with every introduced X_v, then the X_v themselves are set to identity
    (the evolved state is their +1 eigenstate).  Exact for Clifford angles;
    at general angles it works as long as no twist lands on a replaced
    vertex (one substitution deep), otherwise it raises
    :class:`NestedExponentError`.
    """
    new_pairs = []
    for x_l, z_l in frame.pairs:
        x_new = _erase_introduced(_commute_out(x_l, step), step)
        z_new = _erase_introduced(_commute_out(z_l, step), step)
        new_pairs.append((x_new, z_new))
    return LogicalFrame(tuple(new_pairs))


def propagate_schedule(frame: LogicalFrame, steps: Sequence[ScheduleStep]) -> LogicalFrame:
    """Fold :func:`propagate` over a whole schedule."""
    for step in steps:
        frame = propagate(frame, step)
    return frame


# ---------------------------------------------------------------------------
# chain prediction and comparisons

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)


def _u_z(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def chain_unitary(angles: Sequence[float]) -> np.ndarray:
    """Net logical unitary of an in-order chain computation.

    ``angles`` are the measurement angles of the non-output vertices in
    measurement order (length n-1 for an n-vertex chain); the first must be
    0 by convention.  Each replacement contributes one H Uz(theta) factor,
    composed in measurement order; validated against the dense simulation
    rather than any printed index range.
    """
    if len(angles) < 1:
        raise ValueError("a chain has at least one measured vertex")
    if abs(math.remainder(angles[0], 2 * math.pi)) > 1e-12:
        raise ValueError("the first chain angle must be 0 (convention)")
    u = np.eye(2, dtype=complex)
    for theta in angles:
        u = _HADAMARD @ _u_z(theta) @ u
    return u


#: Points of the phase scan that ``compare`` falls back on.
_SCAN_POINTS = 256

#: Width of the phase bracket at which ``compare`` stops refining.
_PHASE_TOL = 1e-14


def _bracket_half_width(a: np.ndarray, b: np.ndarray, t: complex, d_f: np.ndarray) -> float:
    """Half-width of the phase interval around phi_F = arg t that holds the
    minimum of ``||A - e^{i phi} B||_2``, padded by its rounding bound: 0 when
    ``||d_f||_2`` is already within ``||B||_F * _PHASE_TOL`` of the minimum,
    inf when no interval narrower than the circle is certain."""
    eps = np.finfo(float).eps
    norm_a, norm_b = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    u = a.size * eps  # relative rounding of a sum over the entries
    err_t = u * norm_a * norm_b  # of t
    if abs(t) <= 2 * err_t:
        return math.inf
    eta = 2 * err_t / abs(t)  # bounds |phi_F - arg of the exact t|
    err_d = 4 * eps * (norm_a + norm_b)  # of d_f, entry by entry
    rank = min(a.shape)
    f_hi = float(np.linalg.svd(d_f, compute_uv=False)[0]) * (1 + u) + err_d
    frob_lo = max(float(np.linalg.norm(d_f)) * (1 - u) - err_d, 0.0)
    # the minimum is at least min_phi ||D(phi)||_F / sqrt(rank)
    floor = math.sqrt(max(frob_lo**2 - 2 * abs(t) * eta**2, 0.0) / rank)
    if f_hi - floor <= norm_b * _PHASE_TOL:
        return 0.0
    s2 = (rank * f_hi**2 - frob_lo**2) / (4 * (abs(t) - err_t)) + (eta / 2) ** 2
    return 2 * math.asin(math.sqrt(s2)) + eta if s2 < 1 else math.inf


def compare(candidate: np.ndarray, target: np.ndarray) -> float:
    """Phase-quotiented operator-2-norm distance min_phi ||A - e^{i phi} B||.

    With t = tr(B^dag A), phi_F = arg t and D(phi) = A - e^{i phi} B,
    ``||D(phi)||_F^2 = ||D(phi_F)||_F^2 + 4|t| sin^2((phi - phi_F)/2)``
    exactly, and ``||D||_F^2 <= r ||D||_2^2`` at rank r.  So every phase
    that beats ``||D(phi_F)||_2`` lies in a bracket around phi_F, and the
    minimum is at least ``||D(phi_F)||_F / sqrt(r)``.  When that bracket is
    wider than one cell of a 256-point scan, the scan's best cell replaces
    it.  Golden-section steps refine the bracket; the result is the smaller
    2-norm at its midpoint and at phi_F.
    """
    a = np.atleast_2d(np.asarray(candidate, dtype=complex))
    b = np.atleast_2d(np.asarray(target, dtype=complex))
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch {a.shape} vs {b.shape}")

    def dists(phis) -> np.ndarray:
        """``||A - e^{i phi} B||_2`` for each phi, as one stacked SVD."""
        diff = a - np.exp(1j * np.asarray(phis))[:, None, None] * b
        return np.linalg.svd(diff, compute_uv=False)[:, 0]

    t = complex(np.vdot(b, a))
    phi_f = float(np.angle(t))
    half = _bracket_half_width(a, b, t, a - np.exp(1j * phi_f) * b)
    cell = 2 * math.pi / _SCAN_POINTS
    if 2 * half <= cell:
        lo, hi = phi_f - half, phi_f + half
    else:
        phis = np.linspace(-math.pi, math.pi, _SCAN_POINTS, endpoint=False)
        i0 = int(np.argmin(dists(phis)))
        lo, hi = phis[i0] - cell, phis[i0] + cell
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > _PHASE_TOL:
        m1 = hi - golden * (hi - lo)
        m2 = lo + golden * (hi - lo)
        d1, d2 = dists([m1, m2])
        if d1 < d2:
            hi = m2
        else:
            lo = m1
    return float(np.min(dists([0.5 * (lo + hi), phi_f])))


def frame_unitary(frame: LogicalFrame, graph: OpenGraph) -> np.ndarray:
    """Unitary (up to phase) whose conjugation realises a propagated frame.

    The frame's operators must be supported on the outputs and twist-free
    (Clifford).  Restricted to the outputs, the images must obey the Pauli
    relations: each is Hermitian, ``X~_i`` anticommutes with ``Z~_j``
    exactly when i = j, and the ``X~`` commute, as do the ``Z~``.  The
    ``Z~`` are then independent, their joint +1 space is one state
    |0>_L, and the columns ``X~^b |0>_L`` of the returned U satisfy
    U sigma U+ = image for every logical X/Z.
    """
    k = len(frame.pairs)
    outs = graph.outputs
    if len(outs) != k:
        raise ValueError("frame-to-unitary needs |inputs| == |outputs|")
    out_index = {o: i for i, o in enumerate(outs)}

    def restrict(op: RotatedPauliOp) -> RotatedPauliOp:
        if op.twist:
            raise NestedExponentError("frame is not Clifford; no Pauli conjugation table")
        if not op.support <= set(outs):
            raise ValueError("frame operator not supported on the outputs")
        small_x = 0
        small_z = 0
        for o in outs:
            if op.pauli.x >> o & 1:
                small_x |= 1 << out_index[o]
            if op.pauli.z >> o & 1:
                small_z |= 1 << out_index[o]
        return RotatedPauliOp.from_pauli(PauliString(k, small_x, small_z, op.pauli.phase_exp))

    pairs = tuple((restrict(x), restrict(z)) for x, z in frame.pairs)
    xs = [x for x, _ in pairs]
    zs = [z for _, z in pairs]
    consistent = all(op.pauli.phase_exp % 2 == 0 for op in xs + zs) and all(
        commutation_masks(zs, x) == (1 << i, 0)
        and commutation_masks(xs, x) == (0, 0)
        and commutation_masks(zs, z) == (0, 0)
        for i, (x, z) in enumerate(pairs)
    )
    if not consistent:
        raise ValueError("frame images are not a consistent Pauli-map; no unitary")
    return logical_basis_from_ops([], LogicalFrame(pairs), k)
