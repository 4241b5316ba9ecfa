"""Dense linear algebra shared by the propagators."""

from __future__ import annotations

import numpy as np


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
    """exp(-i h) for Hermitian h (or a stack of them), unitary to roundoff.

    2x2 matrices take the closed form: with ``h = h0 + n.sigma`` and
    ``r = |n|``, ``exp(-i h) = e^{-i h0} (cos r - i sin(r)/r (h - h0))``,
    elementwise over the stack.  Larger matrices are diagonalized.
    """
    if h.shape[-1] != 2:
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    h0, z, h10, r = _two_level(h)
    safe = np.where(r > 0, r, 1.0)
    sinc = np.where(r > 0, np.sin(safe) / safe, 1.0)
    phase = np.exp(-1j * h0)
    cos, k = phase * np.cos(r), -1j * phase * sinc
    out = np.empty(h.shape, dtype=complex)
    out[..., 0, 0] = cos + k * z
    out[..., 1, 1] = cos - k * z
    out[..., 1, 0] = k * h10
    out[..., 0, 1] = k * h10.conj()
    return out


def matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y``; for 2x2 factors ``x``, elementwise on the two rows of ``y``."""
    if x.shape[-1] != 2:
        return x @ y
    return x[..., :, 0, None] * y[..., None, 0, :] + x[..., :, 1, None] * y[..., None, 1, :]


def ordered_apply(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``u[-1] ... u[1] u[0] c`` for a stack ``u`` of square factors, by
    pairwise halving of the stack."""
    while u.shape[0] > 1:
        if u.shape[0] % 2:
            c, u = matmul(u[0], c), u[1:]
        u = matmul(u[1::2], u[::2])
    return matmul(u[0], c)
