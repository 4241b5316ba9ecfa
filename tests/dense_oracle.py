"""Dense ``2^n x 2^n`` reference numerics, the oracle for the simulator's
pair and block paths and its conserved-operator check at small n."""

import numpy as np

from agqc._linalg import expmi
from agqc.pauli import Commutation, commutes, to_matrix
from agqc.sim import ConservedCheck, _cf4_weights, _n_substeps, step_endpoint_matrices


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


def conserved_operator_check(schedule, step_index, candidates, s_grid):
    """:func:`agqc.sim.conserved_operator_check` with the dense spectral norm
    of ``C H(s) - H(s) C`` at every s of the grid."""
    terms = schedule.steps[step_index].all_terms()
    a, b = step_endpoint_matrices(schedule, step_index)
    tol = 1e-9 * schedule.gamma * max(1, len(terms))
    out = []
    for cand in candidates:
        symbolic = all(commutes(cand, t) is Commutation.COMMUTE for t in terms)
        c = to_matrix(cand)
        worst = max(float(np.linalg.norm(c @ h - h @ c, 2)) for h in (a + s * b for s in s_grid))
        out.append(ConservedCheck(cand, symbolic, worst, worst < tol))
    return out
