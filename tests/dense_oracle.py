"""Dense ``2^n x 2^n`` reference numerics, the oracle for the simulator's
pair and block paths at small n."""

import numpy as np

from agqc._linalg import expmi
from agqc.sim import _cf4_weights, _n_substeps, step_endpoint_matrices


def assemble(schedule, step_index, s):
    """Dense ``H(s) = -gamma [sum static + (1-s) sum removed + s sum introduced]``."""
    a, b = step_endpoint_matrices(schedule, step_index)
    return a + s * b


def propagate_step(a, b, psi, tau, dt_max):
    """CF4 Magnus integration of H(s) = A + sB, s ramping 0 -> 1 over tau,
    one dense exponential per weight."""
    n_sub = _n_substeps(tau, dt_max)
    dt = tau / n_sub
    for w in _cf4_weights(n_sub):
        psi = expmi(dt * (0.5 * a + w * b)) @ psi
    return psi


def ground_projector(h, tol):
    """Orthonormal columns spanning the eigenvectors of h within tol of its
    lowest eigenvalue."""
    evals, evecs = np.linalg.eigh(h)
    return evecs[:, evals - evals[0] < tol]
