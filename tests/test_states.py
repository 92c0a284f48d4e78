import numpy as np
import pytest

from quncert.correlations import concurrence
from quncert.entropy import von_neumann
from quncert.linalg import PAULIS, kron, validate_density
from quncert.states import (
    bell_diagonal,
    bell_like,
    bell_mixture,
    isotropic,
    qubit_qudit,
    werner,
)

np_rng = np.random.default_rng(20240805)


def pauli_triple(rho):
    return tuple(float(np.trace(rho.mat @ kron(s, s)).real) for s in PAULIS)


def test_werner_f0_is_maximally_mixed():
    assert np.abs(werner(2, 0.0).mat - np.eye(4) / 4).max() < 1e-14


def test_werner_f1_is_singlet():
    psi_m = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    assert np.abs(werner(2, 1.0).mat - np.outer(psi_m, psi_m)).max() < 1e-14


def test_werner_qutrit_antisymmetric_limit():
    rho = werner(3, 1.0)
    assert abs(von_neumann(rho) - np.log2(3)) < 1e-12
    w = np.linalg.eigvalsh(rho.mat)
    assert np.sum(w > 1e-12) == 3


def test_werner_rejects_out_of_range():
    with pytest.raises(ValueError):
        werner(2, 1.2)
    with pytest.raises(ValueError):
        werner(4, 0.5)


def test_isotropic_uniform_point():
    assert np.abs(isotropic(2, 0.25).mat - np.eye(4) / 4).max() < 1e-14


def test_isotropic_pure_limit():
    rho = isotropic(2, 1.0)
    assert abs(von_neumann(rho)) < 1e-12
    assert abs(concurrence(rho) - 1.0) < 1e-10


def test_isotropic_spectrum_entropy():
    # spectrum: f once and (1-f)/(d^2-1) on the complement
    f = 0.9
    expected = -(1 - f) * np.log2((1 - f) / 3) - f * np.log2(f)
    assert abs(von_neumann(isotropic(2, f)) - expected) < 1e-12


def test_bell_diagonal_trivial_points():
    assert np.abs(bell_diagonal(0, 0, 0).mat - np.eye(4) / 4).max() < 1e-14
    assert np.abs(bell_diagonal(-1, -1, -1).mat - werner(2, 1.0).mat).max() < 1e-14


def test_bell_diagonal_spectrum():
    w = np.sort(np.linalg.eigvalsh(bell_diagonal(-0.8, -0.8, -0.8).mat))
    assert np.abs(w - [0.05, 0.05, 0.05, 0.85]).max() < 1e-12


def test_bell_diagonal_equals_werner():
    f = 0.8
    assert np.abs(bell_diagonal(-f, -f, -f).mat - werner(2, f).mat).max() < 1e-12


def test_bell_diagonal_rejects_invalid_triple():
    with pytest.raises(ValueError, match="triple"):
        bell_diagonal(1.0, 1.0, -1.0 + 1e-6)


def test_qubit_qutrit_beta_from_normalization():
    rho = qubit_qudit(0.25, 0.1, kind="qutrit")
    assert rho.dims == (2, 3)
    assert abs(np.trace(rho.mat) - 1) < 1e-12
    # recover beta from a diagonal entry: <00|rho|00> = beta * 2 / 2 = beta
    beta = (1 - 0.5 - 0.1) / 3
    assert abs(rho.mat[0, 0].real - beta) < 1e-12


def test_qubit_ququart_beta_from_normalization():
    rho = qubit_qudit(0.1, 0.3, kind="ququart")
    assert rho.dims == (2, 4)
    beta = (1 - 0.4 - 0.3) / 3
    assert abs(rho.mat[0, 0].real - beta) < 1e-12


def test_qubit_qudit_singlet_limit():
    # alpha=0, gamma=1 leaves only psi- embedded at levels (0, 1) of the qutrit
    rho = qubit_qudit(0.0, 1.0, kind="qutrit")
    v = np.zeros(6, dtype=complex)
    v[1] = 1 / np.sqrt(2)   # |0,1>
    v[3] = -1 / np.sqrt(2)  # |1,0>
    assert np.abs(rho.mat - np.outer(v, v.conj())).max() < 1e-12


def test_qubit_qudit_rejects_bad_weights():
    with pytest.raises(ValueError, match="negative"):
        qubit_qudit(0.5, 0.3, kind="qutrit")


def test_bell_like_plus_state():
    rho = bell_like(1 / np.sqrt(2))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    assert np.abs(rho.mat - expected).max() < 1e-12


def test_bell_like_product_limit():
    rho = bell_like(1.0)
    assert abs(rho.mat[0, 0] - 1.0) < 1e-14


def test_bell_like_concurrence():
    alpha = 1 / np.sqrt(10)
    assert abs(concurrence(bell_like(alpha)) - 0.6) < 1e-10


def test_bell_mixture_pure_component():
    rho = bell_mixture(1.0, 0.0, 0.0, 0.0)
    assert abs(concurrence(rho) - 1.0) < 1e-10
    assert abs(von_neumann(rho)) < 1e-12


def test_bell_mixture_uniform():
    assert np.abs(bell_mixture(0.25, 0.25, 0.25, 0.25).mat - np.eye(4) / 4).max() < 1e-14


def test_bell_mixture_figure_weights():
    rho = bell_mixture(0.9, 0.1, 0.0, 0.0)
    w = np.sort(np.linalg.eigvalsh(rho.mat))
    assert np.abs(w - [0.0, 0.0, 0.1, 0.9]).max() < 1e-12


def test_bell_mixture_correlation_coordinates():
    # the Bell weights map linearly onto the correlation triple
    for _ in range(10):
        w1p, w1m, w2p, w2m = np_rng.dirichlet(np.ones(4))
        rho = bell_mixture(w1p, w1m, w2p, w2m)
        c1, c2, c3 = pauli_triple(rho)
        assert abs(c1 - (w1p - w1m + w2p - w2m)) < 1e-12
        assert abs(c2 - (w1p - w1m - w2p + w2m)) < 1e-12
        assert abs(c3 - (w2p + w2m - w1p - w1m)) < 1e-12
        rebuilt = bell_diagonal(c1, c2, c3)
        assert np.abs(rebuilt.mat - rho.mat).max() < 1e-12


def test_constructors_validate_strictly():
    # every constructor output revalidates at 1e-12
    states = [
        werner(2, 0.37),
        werner(3, 0.8),
        isotropic(2, 0.6),
        isotropic(3, 0.31),
        bell_diagonal(0.2, -0.4, 0.6),
        qubit_qudit(0.25, 0.1, "qutrit"),
        qubit_qudit(0.1, 0.3, "ququart"),
        bell_like(0.77),
        bell_mixture(0.49, 0.09, 0.21, 0.21),
    ]
    for rho in states:
        validate_density(rho.mat, rho.dims, tol=1e-12)
