"""Dense linear algebra shared by the propagators."""

from __future__ import annotations

import numpy as np

from .budget import CHUNK_BYTES


def _two_level(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(h0, z, h10, r)`` of a 2x2 Hermitian stack: ``h = h0 + n.sigma`` with
    ``n = (Re h10, Im h10, z)`` and ``r = |n|``, elementwise."""
    h00, h11, h10 = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 1, 0]
    h0, z = 0.5 * (h00 + h11), 0.5 * (h00 - h11)
    return h0, z, h10, np.hypot(z, np.abs(h10))


def eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Hermitian h (or a stack of them); for 2x2
    matrices in closed form, ``h0 -+ r``."""
    if h.shape[-1] != 2:
        return np.linalg.eigvalsh(h)
    h0, _, _, r = _two_level(h)
    return np.stack([h0 - r, h0 + r], axis=-1)


def expmi(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for Hermitian h (or a stack of them), by diagonalization;
    unitary to roundoff."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def ordered_apply(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``u[-1] ... u[1] u[0] c`` for a stack ``u`` of square factors, by
    pairwise halving of the stack."""
    while u.shape[0] > 1:
        if u.shape[0] % 2:
            c, u = u[0] @ c, u[1:]
        u = u[1::2] @ u[::2]
    return u[0] @ c


# SU(2) elements as pairs: (alpha, beta) is [[alpha, -conj(beta)], [beta, conj(alpha)]].


def su2_exp(z: np.ndarray, h10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exp(-i n.sigma)`` with ``n = (Re h10, Im h10, z)`` as a pair,
    elementwise: ``(cos r - i sin(r)/r z, -i sin(r)/r h10)`` with ``r = |n|``."""
    r = np.hypot(z, np.abs(h10))
    safe = np.where(r > 0, r, 1.0)
    sinc = np.where(r > 0, np.sin(safe) / safe, 1.0)
    return np.cos(r) - 1j * sinc * z, -1j * sinc * h10


def su2_mul(
    a1: np.ndarray, b1: np.ndarray, a0: np.ndarray, b0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pair of the product ``U1 U0`` of the pairs ``(a1, b1)`` and ``(a0, b0)``."""
    return a1 * a0 - b1.conj() * b0, b1 * a0 + a1.conj() * b0


def su2_ordered(
    alpha: np.ndarray, beta: np.ndarray, v: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The pair of ``U[-1] ... U[1] U[0] V`` for the pairs U along axis 0 of
    ``(alpha, beta)`` and the pair ``v``, by pairwise halving of the stack."""
    while alpha.shape[0] > 1:
        if alpha.shape[0] % 2:
            v, alpha, beta = su2_mul(alpha[0], beta[0], *v), alpha[1:], beta[1:]
        alpha, beta = su2_mul(alpha[1::2], beta[1::2], alpha[::2], beta[::2])
    return su2_mul(alpha[0], beta[0], *v)


def su2_ramp(
    a: np.ndarray, b: np.ndarray, dt: float, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``prod_w exp(-i dt (A/2 + w B))`` over ``weights`` in order, for each
    2x2 Hermitian pair of the stacks ``a`` and ``b``, as ``(phase, alpha,
    beta)``: the product is ``phase`` times the pair.

    ``h0``, ``z`` and ``h10`` of ``A/2 + w B`` are linear in w, so no matrix
    is formed; the scalar parts commute with everything and add up to one
    phase, ``exp(-i dt (W a0/2 + b0 sum w))`` for W weights.  Chunks of
    weights keep alpha and beta within ``CHUNK_BYTES``.
    """
    a0, az, a10, _ = _two_level(a)
    b0, bz, b10, _ = _two_level(b)
    za, zb, ha, hb = 0.5 * dt * az, dt * bz, 0.5 * dt * a10, dt * b10
    u = np.ones(a0.shape, dtype=complex), np.zeros(a0.shape, dtype=complex)
    per = max(1, CHUNK_BYTES // (32 * a0.size))
    for lo in range(0, weights.shape[0], per):
        w = weights[lo:lo + per, None]
        u = su2_ordered(*su2_exp(za + w * zb, ha + w * hb), u)
    phase = np.exp(-1j * dt * (0.5 * weights.shape[0] * a0 + weights.sum() * b0))
    return (phase, *u)
