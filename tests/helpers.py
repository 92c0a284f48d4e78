"""Helpers shared by several test modules."""

import numpy as np

from quncert.correlations import OptimizerConfig
from quncert.entropy import ProjectiveMeasurement, branch_entropies, branch_matrix, branch_spectra, entropies
from quncert.linalg import validate_density

FAST = OptimizerConfig(grid_points=48)


def rand_unitary(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def pauli_measurement(sigma):
    _, v = np.linalg.eigh(sigma)
    return ProjectiveMeasurement.from_basis(v)


def measured_conditional_entropy(rho, meas: ProjectiveMeasurement) -> float:
    """S(post-measurement state) - S(B) of a rank-1 measurement on A, from the stacked kernels."""
    s_post, _ = branch_entropies(branch_spectra(branch_matrix(rho.mat, rho.dims), meas.projectors))
    return float(s_post - entropies(rho.mat, rho.dims, "B"))


def random_bell_triple(rng):
    while True:
        c = rng.uniform(-1, 1, size=3)
        lams = [
            (1 + c[0] - c[1] + c[2]) / 4,
            (1 - c[0] + c[1] + c[2]) / 4,
            (1 + c[0] + c[1] - c[2]) / 4,
            (1 - c[0] - c[1] - c[2]) / 4,
        ]
        if min(lams) >= 0:
            return tuple(c)


def random_x_state(rng):
    d = rng.dirichlet(np.ones(4))
    m = np.diag(d).astype(complex)
    r14 = np.sqrt(d[0] * d[3]) * rng.random() * np.exp(2j * np.pi * rng.random())
    r23 = np.sqrt(d[1] * d[2]) * rng.random() * np.exp(2j * np.pi * rng.random())
    m[0, 3], m[3, 0] = r14, r14.conjugate()
    m[1, 2], m[2, 1] = r23, r23.conjugate()
    return validate_density(m, (2, 2))


def xlog2(v):
    return v * np.log2(v) if v > 0 else 0.0
