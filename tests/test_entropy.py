import numpy as np
import pytest

from quncert.correlations import holevo_quantity
from quncert.entropy import (
    ProjectiveMeasurement,
    _spectrum_2x2,
    branch_entropies,
    branch_matrix,
    branch_spectra,
    conditional_entropy,
    entropies,
    mutual_information,
    spectrum_entropies,
    von_neumann,
    xlog2x,
)
from quncert.linalg import PAULI_X, PAULI_Z, kron, ptrace_mat, validate_density
from quncert.states import bell_diagonal, werner
from quncert.scenarios import random_density

from helpers import measured_conditional_entropy, pauli_measurement
from oracles import measure_on_A, partial_trace, shannon

np_rng = np.random.default_rng(20240802)


def three_term_form(rho, meas):
    """S(X|B) as avg conditional entropy + outcome entropy - memory entropy."""
    out = measure_on_A(rho, meas)
    s_b = von_neumann(ptrace_mat(rho.mat, rho.dims, "B"))
    avg = sum(p * von_neumann(c) for p, c in zip(out.probs, out.conditional_states))
    return avg + shannon(out.probs) - s_b


def test_xlog2x_matches_masked_definition():
    # p*log2(p) on the positive entries only; entries <= 0 contribute 0
    def masked(p):
        out = np.zeros_like(p)
        pos = p > 0.0
        out[pos] = p[pos] * np.log2(p[pos])
        return out

    p = np.array([0.0, 1e-300, 0.5, 1.0, -1e-17])
    got = xlog2x(p)
    assert got[:4].tobytes() == masked(p)[:4].tobytes()
    assert got[4] == 0.0
    q = np.random.default_rng(20241018).random((50, 3, 4)) ** 8
    q[q < 1e-3] = 0.0
    assert xlog2x(q).tobytes() == masked(q).tobytes()


@pytest.mark.parametrize("width", [1, 2, 4, 12])
def test_spectrum_entropies_equal_entropy_of_spectrum_row_by_row(width):
    # rows of several lengths, including roundoff-negative entries, an all-zero
    # row and a pure spectrum; every row must give the bits it gives alone
    w = np.random.default_rng((20261018, width)).dirichlet(np.ones(width), size=(4, 5))
    w[0, :, 0] = [-1e-17, -3e-16, -0.0, 0.0, 1e-300]
    w[1, 0] = 0.0
    w[1, 1] = np.eye(width)[0]
    got = spectrum_entropies(w)
    assert got.shape == (4, 5)
    want = np.array([[float(spectrum_entropies(row)) for row in rows] for rows in w])
    assert got.tobytes() == want.tobytes()


def test_shannon_uniform():
    assert shannon([0.5, 0.5]) == 1.0


def test_shannon_deterministic():
    assert shannon([1.0, 0.0]) == 0.0


def test_shannon_skewed():
    assert abs(shannon([0.25, 0.75]) - 0.8112781244591328) < 1e-14


def test_shannon_rejects_bad_distribution():
    with pytest.raises(ValueError):
        shannon([0.5, 0.6])
    with pytest.raises(ValueError):
        shannon([1.2, -0.2])
    with pytest.raises(ValueError):
        shannon([np.nan, 1.0])


def test_von_neumann_maximally_mixed():
    assert abs(von_neumann(np.eye(2) / 2) - 1.0) < 1e-14


def test_von_neumann_pure():
    v = np_rng.normal(size=4) + 1j * np_rng.normal(size=4)
    v /= np.linalg.norm(v)
    assert von_neumann(np.outer(v, v.conj())) < 1e-12


def test_von_neumann_werner():
    f = 0.8
    expected = -3 * (1 - f) / 4 * np.log2((1 - f) / 4) - (1 + 3 * f) / 4 * np.log2((1 + 3 * f) / 4)
    assert abs(von_neumann(werner(2, f)) - expected) < 1e-12
    assert abs(expected - 0.847584679824574) < 1e-12


def test_conditional_entropy_singlet():
    assert abs(conditional_entropy(werner(2, 1.0)) - (-1.0)) < 1e-12


def test_conditional_entropy_maximally_mixed():
    rho = validate_density(np.eye(4) / 4, (2, 2))
    assert abs(conditional_entropy(rho) - 1.0) < 1e-12


def test_conditional_entropy_werner():
    assert abs(conditional_entropy(werner(2, 0.8)) - (0.847584679824574 - 1.0)) < 1e-12


def test_measurement_requires_completeness():
    p0 = np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match="complete"):
        ProjectiveMeasurement([p0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    with pytest.raises(ValueError):
        # completes to the identity but the elements are not true projectors
        ProjectiveMeasurement([p0, np.outer(plus, plus), np.eye(2) - p0 - np.outer(plus, plus)])


@pytest.mark.parametrize("vectors, message", [
    (np.array([[1.0, 1.0], [0.0, 1.0]]), "not complete"),
    (np.linalg.qr(np.random.default_rng(20261019).normal(size=(3, 2)))[0], "not complete"),
    (np.sqrt(2 / 3) * np.array([[1.0, -0.5, -0.5], [0.0, 0.75 ** 0.5, -0.75 ** 0.5]]),
     "not idempotent"),
], ids=["not-orthonormal", "partial", "trine-frame"])
def test_from_basis_rejects_a_bad_basis(vectors, message):
    # the trine columns complete to the identity, so only idempotency catches them
    with pytest.raises(ValueError, match=message):
        ProjectiveMeasurement.from_basis(vectors)


def test_measure_maximally_mixed():
    rho = validate_density(np.eye(4) / 4, (2, 2))
    out = measure_on_A(rho, pauli_measurement(PAULI_Z))
    assert np.abs(out.probs - 0.5).max() < 1e-12
    for cond in out.conditional_states:
        assert np.abs(cond.mat - np.eye(2) / 2).max() < 1e-12


def test_measure_singlet_anticorrelated():
    out = measure_on_A(werner(2, 1.0), pauli_measurement(PAULI_Z))
    assert np.abs(out.probs - 0.5).max() < 1e-12
    # eigh orders sigma_z eigenvectors as |1>, |0>; outcome on |1> leaves B in |0>
    conds = [c.mat for c in out.conditional_states]
    assert np.abs(conds[0] - np.diag([1.0, 0.0])).max() < 1e-12
    assert np.abs(conds[1] - np.diag([0.0, 1.0])).max() < 1e-12


def test_measure_werner_conditional_bloch():
    out = measure_on_A(werner(2, 0.8), pauli_measurement(PAULI_X))
    assert np.abs(out.probs - 0.5).max() < 1e-12
    xs = [float(np.trace(c.mat @ PAULI_X).real) for c in out.conditional_states]
    assert sorted(np.round(xs, 10)) == [-0.8, 0.8]


def test_measure_post_state_decomposition():
    rho = random_density(np_rng, (2, 3))
    meas = pauli_measurement(PAULI_X)
    out = measure_on_A(rho, meas)
    rebuilt = sum(
        p * kron(proj, c.mat)
        for p, proj, c in zip(out.probs, meas.projectors, out.conditional_states)
    )
    assert np.abs(rebuilt - out.post_state.mat).max() < 1e-10


def test_measured_entropy_trivial_memory_is_outcome_entropy():
    # dB = 1 embedding
    rho_a = random_density(np_rng, (2, 1))
    meas = pauli_measurement(PAULI_X)
    probs = [float(np.trace(p @ rho_a.mat).real) for p in meas.projectors]
    assert abs(measured_conditional_entropy(rho_a, meas) - shannon(probs)) < 1e-12
    # uncorrelated memory
    rho = validate_density(kron(rho_a.mat, np.eye(3) / 3), (2, 3))
    assert abs(measured_conditional_entropy(rho, meas) - shannon(probs)) < 1e-12


def test_measured_entropy_singlet_x():
    # maximal entanglement: the memory predicts any outcome perfectly, so the
    # post-measurement state is a two-outcome classical mixture with one bit
    # of entropy and the conditional entropy vanishes
    meas = pauli_measurement(PAULI_X)
    out = measure_on_A(werner(2, 1.0), meas)
    assert abs(von_neumann(out.post_state) - 1.0) < 1e-12
    for cond in out.conditional_states:
        assert von_neumann(cond) < 1e-12
    assert abs(measured_conditional_entropy(werner(2, 1.0), meas)) < 1e-12


def test_measured_entropy_werner_x():
    f = 0.8
    assert (
        abs(
            measured_conditional_entropy(werner(2, f), pauli_measurement(PAULI_X))
            - 0.4689955935892811
        )
        < 1e-12
    )


def test_mutual_information_product():
    rho = validate_density(kron(np.diag([0.7, 0.3]), np.eye(2) / 2), (2, 2))
    assert abs(mutual_information(rho)) < 1e-12


def test_mutual_information_singlet():
    assert abs(mutual_information(werner(2, 1.0)) - 2.0) < 1e-12


def test_mutual_information_bell_diagonal():
    assert abs(mutual_information(bell_diagonal(-0.8, -0.8, -0.8)) - 1.1524153201754261) < 1e-12


ALL_DIMS = [(d_a, d_b) for d_a in (2, 3) for d_b in (1, 2, 3, 4)]


@pytest.mark.parametrize("dims", ALL_DIMS)
def test_entropies_equal_von_neumann_state_by_state(dims):
    # the stacked S pipeline against the scalar one, bit for bit, on mixed and pure states
    rng = np.random.default_rng((20261019,) + dims)
    rhos = [random_density(rng, dims) for _ in range(10)]
    v = rng.normal(size=dims[0] * dims[1]) + 1j * rng.normal(size=dims[0] * dims[1])
    rhos.append(validate_density(np.outer(v, v.conj()) / np.vdot(v, v).real, dims))
    stack = np.array([r.mat for r in rhos])
    for part in ("AB", "A", "B"):
        mats = [r.mat if part == "AB" else ptrace_mat(r.mat, dims, part) for r in rhos]
        assert entropies(stack, dims, part).tolist() == [von_neumann(m) for m in mats]


def test_branch_entropies_read_the_post_state_and_the_outcomes():
    # S(post) and H(X) against measure_on_A's explicit post-measurement state and probabilities
    rng = np.random.default_rng(20261020)
    for dims in ALL_DIMS * 5:
        rho = random_density(rng, dims)
        g = rng.normal(size=(dims[0], dims[0])) + 1j * rng.normal(size=(dims[0], dims[0]))
        meas = ProjectiveMeasurement.from_basis(np.linalg.qr(g)[0])
        out = measure_on_A(rho, meas)
        s_post, h = branch_entropies(branch_spectra(branch_matrix(rho.mat, dims), meas.projectors))
        assert abs(s_post - von_neumann(out.post_state)) <= 1e-12
        assert abs(h - shannon(out.probs)) <= 1e-12


def random_measurement(d):
    g = np_rng.normal(size=(d, d)) + 1j * np_rng.normal(size=(d, d))
    _, v = np.linalg.eigh((g + g.conj().T) / 2)
    return ProjectiveMeasurement.from_basis(v)


def test_dual_form_identity():
    for dims in ALL_DIMS * 50:
        rho = random_density(np_rng, dims)
        meas = random_measurement(dims[0])
        lhs = measured_conditional_entropy(rho, meas)
        assert abs(lhs - three_term_form(rho, meas)) <= 1e-9


def test_holevo_plus_measured_entropy_is_outcome_entropy():
    # chi + S(X|B) = H(P): the J side and the U side read the same branches
    for dims in ALL_DIMS * 50:
        rho = random_density(np_rng, dims)
        meas = random_measurement(dims[0])
        rho_a = ptrace_mat(rho.mat, dims, "A")
        probs = [float(np.trace(p @ rho_a).real) for p in meas.projectors]
        total = holevo_quantity(rho, meas) + measured_conditional_entropy(rho, meas)
        assert abs(total - shannon(probs)) <= 1e-12


def test_closed_form_2x2_spectrum_matches_eigvalsh():
    rng = np.random.default_rng(20241019)
    g = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    v = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    t = rng.random((50, 1, 1))
    branches = np.concatenate([
        g @ np.swapaxes(g.conj(), -1, -2),                         # full rank
        v[:, :, None] * v.conj()[:, None, :],                      # rank 1
        np.zeros((1, 2, 2)),
        np.apply_along_axis(np.diag, 1, rng.random((50, 2))),      # diagonal
        t * np.eye(2) + 1e-12 * np.array([[1.0, 1j], [-1j, -1.0]]),  # near-degenerate
    ])
    scales = 10.0 ** rng.uniform(-300, 0, size=(len(branches), 1, 1))
    branches = branches / np.trace(branches, axis1=-2, axis2=-1).real.clip(1.0)[:, None, None]
    for stack in (branches, branches * scales):
        trace = np.trace(stack, axis1=-2, axis2=-1).real
        gap = np.abs(_spectrum_2x2(stack) - np.linalg.eigvalsh(stack)).max(axis=-1)
        assert np.all(gap <= 1e-15 * np.maximum(1.0, trace))
        # relative to the trace too, so a 1e-300 branch cannot lose its spread to underflow
        assert np.all(gap <= 1e-15 * trace)


@pytest.mark.parametrize("dims", [(d_a, d_b) for d_a in (2, 3) for d_b in (1, 2, 3, 4)])
def test_branch_spectra_stack_equals_one_state_calls(dims):
    rng = np.random.default_rng((20241019,) + dims)
    rhos = [random_density(rng, dims) for _ in range(5)]
    g = rng.normal(size=(5, 3, dims[0], dims[0])) + 1j * rng.normal(size=(5, 3, dims[0], dims[0]))
    _, v = np.linalg.eigh(g + np.swapaxes(g.conj(), -1, -2))
    cols = np.swapaxes(v, -1, -2)
    projectors = cols[..., :, :, None] * cols.conj()[..., :, None, :]  # (5, 3, dA, dA, dA)
    stacked = branch_spectra(branch_matrix(np.array([r.mat for r in rhos]), dims), projectors)
    assert stacked.shape == (5, 3, dims[0], dims[1])
    for i, rho in enumerate(rhos):
        one = branch_spectra(branch_matrix(rho.mat, dims), projectors[i])
        assert stacked[i].tobytes() == one.tobytes()


def test_measurement_never_decreases_entropy():
    for _ in range(100):
        rho = random_density(np_rng, (2, 2))
        g = np_rng.normal(size=(2, 2)) + 1j * np_rng.normal(size=(2, 2))
        _, v = np.linalg.eigh((g + g.conj().T) / 2)
        out = measure_on_A(rho, ProjectiveMeasurement.from_basis(v))
        assert von_neumann(out.post_state) >= von_neumann(rho) - 1e-9


def test_mutual_information_bounds():
    for _ in range(100):
        rho = random_density(np_rng, (2, 3))
        i = mutual_information(rho)
        assert -1e-12 <= i <= 2.0 + 1e-9


def test_outcome_distribution_depends_only_on_marginal():
    rho = random_density(np_rng, (2, 2))
    rho_a = partial_trace(rho, "A")
    rho_b = partial_trace(rho, "B")
    product = validate_density(kron(rho_a.mat, rho_b.mat), (2, 2))
    meas = pauli_measurement(PAULI_X)
    p1 = measure_on_A(rho, meas).probs
    p2 = measure_on_A(product, meas).probs
    assert np.abs(p1 - p2).max() < 1e-12
