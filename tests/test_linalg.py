import numpy as np
import pytest

from quncert.linalg import (
    PAULI_Z,
    DensityMatrix,
    StateError,
    kron,
    ptrace_mat,
    validate_density,
)
from quncert.bounds import Observable
from quncert.states import bell_diagonal, werner

from oracles import ad_closed_form, partial_trace

np_rng = np.random.default_rng(20240801)


def rand_hermitian(n, rng=np_rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def test_kron_identity():
    assert np.abs(kron(np.eye(2), np.eye(2)) - np.eye(4)).max() == 0


def test_kron_pauli_z():
    assert np.abs(kron(PAULI_Z, PAULI_Z) - np.diag([1, -1, -1, 1])).max() == 0


def test_kron_damping_factors():
    k0 = np.diag([1.0, np.sqrt(1 - 0.36)])
    out = kron(k0, k0)
    assert np.abs(out - np.diag([1.0, 0.8, 0.8, 0.64])).max() < 1e-15


def test_kron_index_convention():
    a = np_rng.normal(size=(2, 3)) + 1j * np_rng.normal(size=(2, 3))
    b = np_rng.normal(size=(4, 2)) + 1j * np_rng.normal(size=(4, 2))
    out = kron(a, b)
    for i in range(2):
        for j in range(3):
            for k in range(4):
                for l in range(2):
                    assert abs(out[i * 4 + k, j * 2 + l] - a[i, j] * b[k, l]) < 1e-12


def test_kron_broadcasts_leading_axes_bit_for_bit():
    a = np_rng.normal(size=(5, 2, 3)) + 1j * np_rng.normal(size=(5, 2, 3))
    b = np_rng.normal(size=(4, 2)) + 1j * np_rng.normal(size=(4, 2))
    out = kron(a, b)
    assert out.shape == (5, 8, 6)
    for i in range(5):
        assert out[i].tobytes() == np.kron(a[i], b).tobytes()
    u, v = np_rng.normal(size=3) + 1j * np_rng.normal(size=3), np_rng.normal(size=2)
    assert kron(u, v).tobytes() == np.kron(u, v.astype(complex)).tobytes()


def test_partial_trace_singlet():
    red = partial_trace(werner(2, 1.0), "B")
    assert np.abs(red.mat - np.eye(2) / 2).max() < 1e-12
    assert red.dims == (2, 1)


def test_partial_trace_product_state():
    a = rand_hermitian(2)
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = rand_hermitian(3)
    b = b @ b.conj().T
    b /= np.trace(b).real
    rho = validate_density(kron(a, b), (2, 3), tol=1e-9)
    assert np.abs(partial_trace(rho, "A").mat - a).max() < 1e-12
    assert np.abs(partial_trace(rho, "B").mat - b).max() < 1e-12


def test_partial_trace_damped_bell_diagonal():
    # after amplitude damping at p, the memory marginal is diag((1+p)/2, (1-p)/2)
    p = 0.37
    rho = ad_closed_form(-0.8, -0.8, -0.8, p)
    red = partial_trace(rho, "B")
    assert np.abs(red.mat - np.diag([(1 + p) / 2, (1 - p) / 2])).max() < 1e-12


def test_partial_trace_preserves_trace():
    for _ in range(20):
        g = np_rng.normal(size=(6, 6)) + 1j * np_rng.normal(size=(6, 6))
        m = g @ g.conj().T
        rho = validate_density(m / np.trace(m).real, (2, 3), tol=1e-9)
        assert abs(np.trace(partial_trace(rho, "A").mat) - 1) < 1e-12
        assert abs(np.trace(partial_trace(rho, "B").mat) - 1) < 1e-12


@pytest.mark.parametrize("keep", ["A", "B"])
@pytest.mark.parametrize("dims", [(2, 1), (2, 4), (3, 3)])
def test_stacked_ptrace_equals_one_state_ptrace(dims, keep):
    side = dims[0] * dims[1]
    stack = np.stack([rand_hermitian(side) for _ in range(6)]).reshape(3, 2, side, side)
    got = ptrace_mat(stack, dims, keep)
    assert got.shape == (3, 2) + ptrace_mat(stack[0, 0], dims, keep).shape
    for i, j in np.ndindex(3, 2):
        assert np.array_equal(got[i, j], ptrace_mat(stack[i, j], dims, keep))


def test_eig_pauli_z():
    obs = Observable(PAULI_Z)
    assert np.allclose(obs.values, [-1.0, 1.0])


def test_eig_reference_matrix_trace():
    # eigenvalues must sum to the trace and solve the characteristic polynomial
    x = np.array(
        [[0.272007, 0.0483473 + 0.584816j], [0.0483473 - 0.584816j, 0.246297]]
    )
    obs = Observable(x)
    assert abs(obs.values.sum() - 0.518304) < 1e-12
    assert np.abs(obs.values - [-0.32779984325316674, 0.8461038432531667]).max() < 1e-12


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_large_side():
    with pytest.raises(ValueError, match="side"):
        Observable(np.eye(17))


def test_eig_reconstruction_property():
    for n in range(2, 10):
        m = rand_hermitian(n)
        obs = Observable(m)
        rebuilt = (obs.basis * obs.values) @ obs.basis.conj().T
        assert np.abs(rebuilt - m).max() <= 1e-10
        gram = obs.basis.conj().T @ obs.basis
        assert np.abs(gram - np.eye(n)).max() < 1e-12
        assert np.all(np.diff(obs.values) >= 0)


def test_validate_accepts_maximally_mixed():
    rho = validate_density(np.eye(4) / 4, (2, 2))
    assert isinstance(rho, DensityMatrix)
    assert rho.dims == (2, 2)


def test_validate_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_density(np.diag([0.5, 0.6, 0.0, -0.1]), (2, 2))


def test_validate_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        validate_density(np.eye(4) / 2, (2, 2))


def test_validate_rejects_non_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density(m, (2, 2))


def test_validate_clips_roundoff_negatives():
    m = np.diag([0.6, 0.4, 0.0, -1e-13]).astype(complex)
    rho = validate_density(m, (2, 2))
    w = np.linalg.eigvalsh(rho.mat)
    assert w.min() >= 0
    assert abs(np.trace(rho.mat) - 1) < 1e-12


def test_validate_rank_deficient_spectrum():
    rho = bell_diagonal(1.0, -0.6, 0.6)
    w = np.sort(np.linalg.eigvalsh(rho.mat))
    assert np.abs(w - [0.0, 0.0, 0.2, 0.8]).max() < 1e-12


def _near_singular(rng, d, rank):
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_validate_stack_equals_each_state_alone():
    # rank-deficient states put roundoff-negative eigenvalues through the clip branch
    rng = np.random.default_rng(11)
    mats = np.array([_near_singular(rng, 6, 1 + k % 5) for k in range(40)])
    states = validate_density(mats, (2, 3), tol=1e-9)
    assert isinstance(states, list) and len(states) == 40
    clipped = 0
    for m, rho in zip(mats, states):
        alone = validate_density(m, (2, 3), tol=1e-9)
        assert rho.dims == alone.dims and rho.mat.tobytes() == alone.mat.tobytes()
        clipped += np.linalg.eigvalsh(m)[0] < 0.0
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.0
    assert 0 < clipped < 40


@pytest.mark.parametrize("at, spoil, message", [
    (2, lambda m: m * 1.5, "trace deviates from 1 by 5.000e-01 (tol 1e-09)"),
    (3, lambda m: m + np.triu(np.full((4, 4), 0.1), 1),
     "not Hermitian within 1e-09 (deviation 1.000e-01)"),
    (1, lambda m: np.diag([0.5, 0.6, 0.0, -0.1]), "negative eigenvalue -1.000e-01 below -1e-09"),
])
def test_validate_stack_names_first_failing_state(at, spoil, message):
    mats = np.array([np.eye(4) / 4] * 5, dtype=complex)
    mats[at] = spoil(mats[at])
    mats[4] = np.diag([1.1, 0.0, 0.0, -0.1])  # a later state fails too
    with pytest.raises(StateError) as info:
        validate_density(mats, (2, 2))
    assert info.value.index == at and str(info.value) == message
    with pytest.raises(StateError) as alone:
        validate_density(mats[at], (2, 2))
    assert alone.value.index == 0 and str(alone.value) == message


def test_density_matrix_immutable():
    rho = validate_density(np.eye(4) / 4, (2, 2))
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 0.3
