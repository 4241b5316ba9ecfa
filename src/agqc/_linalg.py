"""Dense linear algebra shared by the propagators."""

from __future__ import annotations

import numpy as np


def expmi(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for Hermitian h (or a stack of them), unitary to roundoff."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
