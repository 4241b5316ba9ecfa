"""Block form of a schedule step in the sectors of its conserved Pauli
operators.

When every term of a step is a Pauli string conjugated by one per-site
Z-rotation frame, the Pauli strings that commute with every term form a
GF(2) centralizer.  A maximal commuting set of ``m`` of them has ``2^m``
joint eigenspaces of dimension ``2^(n-m)``.  Each is invariant under
``H(s) = A + sB`` for every s, so the step splits exactly into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _gf2
from ._linalg import expmi, ordered_apply
from .budget import CHUNK_BYTES, check_bytes
from .compiler import Schedule
from .graph import CLIFFORD_TOL
from .pauli import PauliString, RotatedPauliOp, _parity, apply_op


def twist_frame(terms: Sequence[RotatedPauliOp]) -> dict[int, float] | None:
    """Angles ``theta_v`` with every term equal to ``R P R^dag``, where P is
    the term's Hermitian Pauli part and ``R = prod_v exp(-i theta_v Z_v / 2)``.

    Such a frame exists when every term with an X or Y letter at a site
    carries the same twist there and no term twists a Z or I letter; None
    otherwise (or for a non-Hermitian phase).
    """
    theta: dict[int, float] = {}
    for op in terms:
        p, twist = op.pauli, op.twist_map
        if p.phase_exp % 2 or any(not p.x >> v & 1 for v in twist):
            return None
        x = p.x
        while x:
            v = (x & -x).bit_length() - 1
            x &= x - 1
            a = twist.get(v, 0.0)
            if abs(theta.setdefault(v, a) - a) > CLIFFORD_TOL:
                return None
    return theta


def conserved_generators(
    terms: Sequence[RotatedPauliOp], n: int
) -> tuple[list[int], list[int], int]:
    """A maximal commuting set of Pauli strings ``x | z << n`` that commute
    with the Pauli part of every term, as ``(xgens, zgens, pivots)``.

    The ``xgens`` have independent X parts in reduced echelon form on the
    bits of ``pivots`` (each pivot bit is set in exactly one of them); the
    ``zgens`` have no X part.  Both generate the same group as the maximal
    isotropic basis of the centralizer.
    """
    centralizer = [1 << i for i in range(2 * n)]
    for op in terms:
        centralizer = _gf2.kernel_filter(centralizer, op.pauli.z | op.pauli.x << n)
    gens = _gf2.maximal_isotropic(centralizer, n)
    pivots = 0
    row = 0
    for bit in range(n):
        pick = next((i for i in range(row, len(gens)) if gens[i] >> bit & 1), None)
        if pick is None:
            continue
        gens[row], gens[pick] = gens[pick], gens[row]
        for i in range(len(gens)):
            if i != row and gens[i] >> bit & 1:
                gens[i] ^= gens[row]
        pivots |= 1 << bit
        row += 1
    return gens[:row], gens[row:], pivots


@dataclass(frozen=True, eq=False)
class StepBlocks:
    """``H(s) = A + sB`` of one step restricted to the joint eigenspaces of a
    maximal commuting set of Pauli operators that commute with every term.

    Column block j of ``basis`` (shape ``(2^n, n_blocks, dim)``) is an
    orthonormal basis of one joint eigenspace; ``a[j]`` and ``b[j]`` are A
    and B in it.  The blocks together span the whole space, so the spectrum
    of H(s) is the union of the block spectra.
    """

    basis: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def _per_chunk(self) -> int:
        """How many stacked copies of the block matrices one chunk holds."""
        return max(1, CHUNK_BYTES // (64 * self.a.size))

    def hdot_norm(self) -> float:
        """``||B||_2``, the largest block norm."""
        return float(np.max(np.linalg.norm(self.b, 2, axis=(1, 2))))

    def spectra(self, s_grid: Sequence[float]) -> np.ndarray:
        """Sorted eigenvalues of ``A + sB``, one row per grid point: the
        union of the block spectra."""
        s = np.asarray(s_grid, dtype=float)
        per = self._per_chunk()
        rows = [
            np.linalg.eigvalsh(self.a + s[lo:lo + per, None, None, None] * self.b)
            for lo in range(0, s.shape[0], per)
        ]
        return np.sort(np.concatenate(rows).reshape(s.shape[0], -1), axis=1)

    def propagate(self, psi: np.ndarray, dt: float, weights: np.ndarray) -> np.ndarray:
        """Apply ``exp(-i dt (A/2 + w B))`` for each w of ``weights`` in turn,
        block by block, with the exponentials stacked over (w x block) in
        chunks of ``CHUNK_BYTES`` and multiplied in order by
        :func:`~agqc._linalg.ordered_apply`."""
        d, n_blocks, dim = self.basis.shape
        basis = self.basis.reshape(d, d)
        c = (psi.conj().T @ basis).conj().T.reshape(n_blocks, dim, -1)
        per = self._per_chunk()
        for lo in range(0, weights.shape[0], per):
            u = expmi(dt * (0.5 * self.a + weights[lo:lo + per, None, None, None] * self.b))
            c = ordered_apply(u, c)
        return (basis @ c.reshape(d, -1)).reshape(psi.shape)


def step_blocks(schedule: Schedule, step_index: int) -> StepBlocks | None:
    """The block form of one step, or None when its terms admit no common
    Z-rotation frame (see :func:`twist_frame`).

    In the untwisted frame block columns are ``prod_i (1 +- g_i)/2 |b>``,
    normalized, over the X-type generators ``g_i`` and computational states
    ``|b>`` with every pivot bit 0; the Z-type generators take a definite
    value on each ``|b>``.  The basis is built once, in chunks of blocks,
    and the block Hamiltonians come from Pauli actions on those columns;
    no ``2^n x 2^n`` Hamiltonian is formed.
    """
    step = schedule.steps[step_index]
    n = schedule.n_qubits
    terms = step.all_terms()
    theta = twist_frame(terms)
    if theta is None:
        return None
    xgens, zgens, pivots = conserved_generators(terms, n)
    k = len(xgens)
    dim, d = 1 << (n - k - len(zgens)), 1 << n
    n_blocks = d // dim
    per = max(1, CHUNK_BYTES // (64 * d * dim))
    check_bytes((16 << 2 * n) + 64 * d * dim * per, f"{n}-qubit block basis and chunk")

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
        for op, wa, wb in step.endpoint_weights(schedule.gamma):
            blk = qh @ apply_op(op.pauli, q).reshape(d, -1, dim).transpose(1, 0, 2)
            a_blk[lo:lo + qh.shape[0]] += wa * blk
            b_blk[lo:lo + qh.shape[0]] += wb * blk
        basis[:, cols] = frame[:, None] * q
    return StepBlocks(basis.reshape(d, n_blocks, dim), a_blk, b_blk)
