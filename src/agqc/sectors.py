"""Block form of a Pauli sum, such as a schedule step, in the sectors of its
conserved Pauli operators.

In one per-site Z-rotation frame, with twists expanded where they conflict,
every term of a step is a sum of Pauli strings.  The Pauli strings that
commute with all of them form a GF(2) centralizer.  A maximal commuting set
of ``m`` of them has ``2^m`` joint eigenspaces of dimension ``2^(n-m)``.
Each is invariant under ``H(s) = A + sB``, so the step splits exactly into
blocks (one when ``m = 0``), given by ``2^n``-entry sector tables rather
than a ``2^n x 2^n`` basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _gf2
from ._linalg import (
    distinct_blocks, eigvalsh, expmi, ordered_apply, su2_class_ramp, su2_classes,
)
from .budget import CHUNK_BYTES, approx, check_bytes
from .compiler import Schedule
from .graph import CLIFFORD_TOL
from .pauli import PauliString, RotatedPauliOp, _parity


def twist_frame(terms: Sequence[RotatedPauliOp]) -> dict[int, float]:
    """Angles ``theta_v`` of ``R = prod_v exp(-i theta_v Z_v / 2)`` at the X/Y
    sites where every term with an X or Y letter carries the same twist,
    which makes each term ``R P R^dag`` there; sites whose twists conflict
    are left to :func:`frame_strings`.  A non-Hermitian term (odd phase, or
    a twist on a Z or I letter) raises ValueError.
    """
    theta: dict[int, float] = {}
    conflict = set()
    for op in terms:
        p, twist = op.pauli, op.twist_map
        if p.phase_exp % 2 or any(not p.x >> v & 1 for v in twist):
            raise ValueError(f"non-Hermitian term {op.render()}")
        for v in range(p.n):
            a = twist.get(v, 0.0)
            if p.x >> v & 1 and abs(theta.setdefault(v, a) - a) > CLIFFORD_TOL:
                conflict.add(v)
    return {v: a for v, a in theta.items() if v not in conflict}


def frame_strings(op: RotatedPauliOp, theta: dict[int, float]) -> list[tuple[complex, PauliString]]:
    """``R^dag op R`` in the frame of :func:`twist_frame` as ``[(coefficient,
    Pauli string)]``: each twist ``exp(-i a Z_v)`` at a site outside the frame
    expands into ``cos a`` and ``-i sin a Z_v``."""
    strings = [(1.0 + 0j, op.pauli)]
    for v, a in op.twist:
        if v not in theta:
            z = PauliString(op.n, 0, 1 << v)
            strings = [(c * f, q) for c, p in strings
                       for f, q in ((math.cos(a), p), (-1j * math.sin(a), z.mul(p)))]
    return strings


def conserved_generators(
    strings: Sequence[PauliString], n: int
) -> tuple[list[int], list[int], int]:
    """A maximal commuting set of Pauli strings ``x | z << n`` that commute
    with every string of ``strings``, as ``(xgens, zgens, pivots)``.

    The ``xgens`` have independent X parts in reduced echelon form on the
    bits of ``pivots`` (each pivot bit is set in exactly one of them); the
    ``zgens`` have no X part.  Both generate the same group as the maximal
    isotropic basis of the centralizer.
    """
    centralizer = [1 << i for i in range(2 * n)]
    for p in strings:
        centralizer = _gf2.kernel_filter(centralizer, p.z | p.x << n)
    gens = _gf2.maximal_isotropic(centralizer, n)
    pivots = row = 0
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

    ``a[j]`` and ``b[j]`` are A and B in block j.  Basis index i is entry
    ``dest[i]``, with phase ``phase[i]``, of the sector array ``(Z label, S,
    representative)``, S labelling products of the ``k`` X-type generators;
    a Walsh-Hadamard transform over S gives block coordinates.
    """

    phase: np.ndarray
    dest: np.ndarray
    k: int
    a: np.ndarray
    b: np.ndarray

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    @staticmethod
    def _stacks(a: np.ndarray, b: np.ndarray, wa: float, wb: np.ndarray):
        """``wa A + w B`` of the block stacks a and b for each w of ``wb``, in
        stacks of ~``CHUNK_BYTES``."""
        per = max(1, CHUNK_BYTES // (64 * a.size))
        for lo in range(0, wb.shape[0], per):
            yield wa * a + wb[lo:lo + per, None, None, None] * b

    def _walsh(self, f: np.ndarray) -> np.ndarray:
        """The normalized, self-inverse Walsh-Hadamard transform over S, in k passes."""
        f = f.reshape(self.a.shape[0] >> self.k, 1 << self.k, -1) * 2.0 ** (-0.5 * self.k)
        for i in range(self.k):
            lo, hi = f.reshape(f.shape[0], -1, 2, 1 << i, f.shape[2]).swapaxes(0, 2)
            lo[...], hi[...] = lo + hi, lo - hi
        return f

    def to_blocks(self, psi: np.ndarray) -> np.ndarray:
        """Block coordinates ``(n_blocks, dim, columns)`` of the columns of psi."""
        f = np.empty((psi.shape[0], psi.size // psi.shape[0]), dtype=complex)
        f[self.dest] = self.phase.conj()[:, None] * psi.reshape(f.shape)
        return self._walsh(f).reshape(self.a.shape[0], self.dim, -1)

    def from_blocks(self, c: np.ndarray) -> np.ndarray:
        """The inverse of :meth:`to_blocks`, as ``(2^n, columns)``."""
        return self.phase[:, None] * self._walsh(c).reshape(self.dest.shape[0], -1)[self.dest]

    def hdot_norm(self) -> float:
        """``||B||_2``, the largest block norm."""
        return float(np.max(np.linalg.norm(self.b, 2, axis=(1, 2))))

    def spectra(self, s_grid: Sequence[float]) -> np.ndarray:
        """Sorted eigenvalues of ``A + sB`` (the union of the block spectra), one row per s."""
        # four (points, 2^n) float arrays: the eigenvalues, their sort and the scan's two
        n_points = len(s_grid)
        check_bytes(32 * n_points * self.dest.shape[0], f"spectra at {approx(n_points)} points")
        s = np.asarray(s_grid, dtype=float)
        rows = np.concatenate([eigvalsh(h) for h in self._stacks(self.a, self.b, 1.0, s)])
        return np.sort(rows.reshape(s.shape[0], -1), axis=1)

    def propagate(
        self, psi: np.ndarray, dt: Sequence[float], weights: Iterable[np.ndarray]
    ) -> tuple[np.ndarray, int]:
        """Apply ``exp(-i dt_j (A/2 + w B))`` for each w of ``weights_j`` in
        turn to the j-th equal share of psi's columns, block by block, for
        each ``(dt_j, weights_j)`` of ``dt`` and ``weights``, and count the
        distinct problems propagated.

        Each distinct problem is propagated once and applied to every block
        that shares it.  Two-dimensional blocks take the product as an SU(2)
        pair and a phase, one pair per class of blocks whose traceless parts
        agree up to a Pauli conjugation (:func:`~agqc._linalg.su2_class_ramp`;
        classes are found once for every ramp).  Larger blocks are grouped
        by byte-equal (A, B) (:func:`~agqc._linalg.distinct_blocks`); each
        group's propagator is the ordered product of its exponentials,
        stacked over (w x group) and multiplied by
        :func:`~agqc._linalg.ordered_apply`.  When every block is distinct,
        A, B and the propagators are used without a gathered copy, which
        keeps the peak within the charge of :func:`pauli_sum_blocks`."""
        c = self.to_blocks(psi)
        m = c.shape[2] // len(dt)
        shares = [c[..., j * m:(j + 1) * m] for j in range(len(dt))]  # views
        if self.dim == 2:
            classes = su2_classes(self.a, self.b)
            for share, step, w in zip(shares, dt, weights):
                phase, alpha, beta = su2_class_ramp(classes, step, w)
                phase, alpha, beta = phase[:, None, None], alpha[:, None], beta[:, None]
                c0, c1 = share[:, 0], share[:, 1]
                np.multiply(phase, np.stack([alpha * c0 - beta.conj() * c1,
                                             beta * c0 + alpha.conj() * c1], axis=1), out=share)
            distinct = classes.z.shape[0]
        else:
            first, inverse = distinct_blocks(self.a, self.b)
            distinct = first.shape[0]
            whole = distinct == self.a.shape[0]
            a, b = (self.a, self.b) if whole else (self.a[first], self.b[first])
            for share, step, w in zip(shares, dt, weights):
                u = None
                for h in self._stacks(a, b, 0.5, w):
                    h *= step  # in place, to hold one stack fewer
                    u = ordered_apply(expmi(h, out=h), u)
                    del h  # the next stack is built without this one
                share[...] = (u if whole else u[inverse]) @ share
        return self.from_blocks(c).reshape(psi.shape), distinct


def step_form(schedule: Schedule, step_index: int) -> tuple:
    """The arguments of :func:`pauli_sum_blocks` for one step: its terms
    written out by :func:`frame_strings`, and their conserved generators."""
    weights = schedule.steps[step_index].endpoint_weights(schedule.gamma)
    theta = twist_frame([op for op, _, _ in weights])
    strings = [(wa * c, wb * c, p) for op, wa, wb in weights for c, p in frame_strings(op, theta)]
    n = schedule.n_qubits
    return strings, n, theta, conserved_generators([p for _, _, p in strings], n)


def step_blocks(schedule: Schedule, step_index: int) -> StepBlocks:
    """The block form of one step."""
    return pauli_sum_blocks(*step_form(schedule, step_index))


def block_bytes(n: int, dim: int) -> int:
    """The charge of a block form in blocks of dimension ``dim``: per basis
    index, 160 bytes of sector tables and 16 dim for each of A, B and the four
    stacks that :meth:`StepBlocks.propagate` holds at once (the weighted sum,
    which takes the product in place, eigh's vectors, their phased copy and
    the propagators so far), each the size of A or at most a quarter chunk,
    which two chunks cover; distinct blocks' copies of A and B, propagators
    and stacks together stay below those of all blocks."""
    return ((160 + 96 * dim) << n) + 2 * CHUNK_BYTES


def pauli_sum_blocks(
    strings: Sequence[tuple[complex, complex, PauliString]], n: int, theta: dict[int, float],
    gens: tuple[list[int], list[int], int] | None = None,
) -> StepBlocks:
    """The block form of ``A + sB = sum (wa + s wb) P`` over ``(wa, wb, P)``
    in ``strings``, in the frame ``R = prod_v exp(-i theta_v Z_v / 2)``.

    The block basis is ``|c(r, sigma)> = 2^(-k/2) sum_S (-1)^|sigma & S|
    g_S |r>`` over the X-type generators ``g_i`` of
    :func:`conserved_generators` and the ``|r>`` with pivot bits 0.  Each
    ``g_i = i^|x_i & z_i| X^x_i Z^z_i`` flips only its own pivot bit among
    the pivots, so one walk over them in order gives each index j its S(j)
    (its pivot bits), r(j) and ``omega(j)`` with ``g_S(j)|r(j)> =
    omega(j)|j>``: where j has pivot bit i, the walk adds ``|x_i & z_i| + 2
    |r & z_i|`` to an exponent e and flips ``x_i`` in r, and then
    ``conj(omega(j)) = i^(e & 3)``.  A Pauli string with ``P|r> = coef
    |j'>`` is the phased permutation ``P|c(r, sigma)> = coef conj(omega(j'))
    (-1)^|sigma & S(j')| |c(r(j'), sigma)>``, where ``S(j') = S(x_P)`` since
    r has no pivot bits, built for all ``2^n`` pairs (r, sigma) of a group of
    strings at once and scattered string by string, in order.  Blocks run by
    Z label, then sigma; representatives ascend within a block.  ``gens``
    are the strings' :func:`conserved_generators`, when the caller holds them.
    """
    xgens, zgens, pivots = gens or conserved_generators([p for _, _, p in strings], n)
    k = len(xgens)
    dim, d = 1 << (n - k - len(zgens)), 1 << n
    check_bytes(block_bytes(n, dim), f"{n}-qubit sector tables and blocks")
    idx = np.arange(d, dtype=np.int64)
    rep, expo, label, zlabel = idx.copy(), 0 * idx, 0 * idx, 0 * idx
    for i, g in enumerate(xgens):
        x, z = g & (d - 1), g >> n
        on = idx >> (x & -x).bit_length() - 1 & 1  # the pivot is x's lowest bit
        expo += on * ((x & z).bit_count() + 2 * _parity(rep & z))
        rep ^= on * x
        label |= on << i
    omega_c = np.array([1, 1j, -1, -1j])[expo & 3]
    for i, z in enumerate(zgens):
        zlabel |= _parity(idx & (z >> n)) << i
    reps = idx[(idx & pivots) == 0]
    pos = np.empty(d, dtype=np.int64)
    pos[reps[np.argsort(zlabel[reps], kind="stable")]] = np.arange(reps.shape[0]) % dim
    dest = (zlabel << k | label) * dim + pos[rep]
    sigma = np.arange(1 << k)
    base = (dest[reps] - pos[reps]) * dim + pos[reps]
    a_blk, b_blk = np.zeros((2, d // dim, dim, dim), dtype=complex)
    a_flat, b_flat = a_blk.reshape(-1), b_blk.reshape(-1)
    # a group's int64 indices and complex values, 24 bytes for each of its
    # strings' 2^n entries, stay within a quarter chunk
    per = max(1, CHUNK_BYTES // (96 << n))
    for lo in range(0, len(strings), per):
        group = strings[lo:lo + per]
        xs = np.array([p.x for _, _, p in group])[:, None]
        zs = np.array([p.z for _, _, p in group])[:, None]
        c0 = np.array([p.phase * (1j) ** (p.x & p.z).bit_count() for _, _, p in group])[:, None]
        to = reps ^ xs
        coeff = c0 * (1.0 - 2.0 * _parity(reps & zs))
        flat = (base + dest[to] % dim * dim)[:, :, None] + sigma * dim * dim
        sign = 1.0 - 2.0 * _parity(label[xs] & sigma)
        val = (coeff * omega_c[to])[:, :, None] * sign[:, None, :]
        for (wa, wb, _), f, v in zip(group, flat, val):
            a_flat[f] += wa * v
            b_flat[f] += wb * v
    angle = sum((a * (1.0 - 2.0 * (idx >> v & 1)) for v, a in theta.items() if a), np.zeros(d))
    return StepBlocks(np.exp(-0.5j * angle) * omega_c.conj(), dest, k, a_blk, b_blk)
