import re
from dataclasses import fields

import numpy as np
import pytest

from quncert import bounds
from quncert.bounds import (
    STACK_STATES,
    BoundReport,
    Observable,
    ObservableDimensionError,
    complementarity,
    evaluate_bounds,
    evaluate_bounds_many,
    uncertainty_sum,
)
from quncert.correlations import classical_correlation, classical_correlations, concurrence
from quncert.entropy import ProjectiveMeasurement, basis_projectors, von_neumann
from quncert.linalg import PAULI_X, PAULI_Y, PAULI_Z, kron, ptrace_mat
from quncert.linalg import validate_density
from quncert.observables import bundled_observable, pauli_observable, su3_pair
from quncert.scenarios import random_density, random_observable
from quncert.states import bell_diagonal, werner

from helpers import FAST, rand_unitary
from oracles import observable_measurement, partial_trace, single_system_bound

np_rng = np.random.default_rng(20240804)

SX = Observable(PAULI_X)
SY = Observable(PAULI_Y)
SZ = Observable(PAULI_Z)


def test_observable_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        Observable(np.eye(2))


@pytest.mark.parametrize("mat, message", [
    (np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)"),
    (np.zeros((2, 2, 2)), "expected a square matrix, got shape (2, 2, 2)"),
    (np.zeros((0, 0)), "expected a nonempty matrix, got shape (0, 0)"),
    (np.diag(np.arange(17.0)), "side 17 exceeds supported maximum 16"),
    (np.triu(np.ones((17, 17))), "side 17 exceeds supported maximum 16"),
    ([[0, 1], [0, 0]], "matrix is not Hermitian within 1e-09 (deviation 1.000e+00)"),
    (np.eye(2), "degenerate observable: eigenvalue gap 0.000e+00 <= 1e-09"),
], ids=["2x3", "2x2x2", "0x0", "side-17", "side-17-not-hermitian", "not-hermitian", "degenerate"])
def test_observable_checks_run_in_order(mat, message):
    # shape, size, side, Hermiticity, gap: the 17x17 triangle is not Hermitian but reports its side
    with pytest.raises(ValueError) as info:
        Observable(mat)
    assert str(info.value) == message


def test_observable_measurement_sigma_z():
    meas = observable_measurement(SZ)
    assert len(meas) == 2
    projs = sorted(meas.projectors, key=lambda p: p[0, 0].real)
    assert np.abs(projs[0] - np.diag([0.0, 1.0])).max() < 1e-12
    assert np.abs(projs[1] - np.diag([1.0, 0.0])).max() < 1e-12


def test_observable_measurement_sigma_x():
    meas = observable_measurement(SX)
    plus = np.array([1, 1]) / np.sqrt(2)
    assert any(np.abs(p - np.outer(plus, plus)).max() < 1e-12 for p in meas.projectors)


def test_observable_measurement_reference_matrix():
    meas = observable_measurement(bundled_observable("x1"))
    p0, p1 = meas.projectors
    assert np.abs(p0 @ p1).max() < 1e-12
    assert np.abs(p0 + p1 - np.eye(2)).max() < 1e-12


def build_observables():
    return [pauli_observable(1), pauli_observable(2), pauli_observable(3),
            bundled_observable("x2"), *su3_pair()]


def test_observable_construction_builds_no_measurement(monkeypatch):
    calls = []
    init = ProjectiveMeasurement.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProjectiveMeasurement, "__init__", counting_init)
    observables = build_observables()
    assert calls == []
    observable_measurement(observables[-1])
    assert calls == [1]


def test_observable_measurement_is_the_reports_projectors():
    # the oracle and the stacked report take the same projectors, bit for bit
    rng = np.random.default_rng(5)
    observables = build_observables() + [random_observable(rng, d) for d in (2, 3)]
    for obs in observables:
        want = basis_projectors(obs.basis)
        assert observable_measurement(obs).projectors.tobytes() == want.tobytes()


def test_complementarity_mutually_unbiased_qubit():
    assert abs(complementarity(SX, SZ) - 0.5) < 1e-12


def test_complementarity_shared_basis():
    assert abs(complementarity(SZ, SZ) - 1.0) < 1e-12


def test_complementarity_fourier_qutrit():
    comp = Observable(np.diag([1.0, 2.0, 3.0]))
    w = np.exp(2j * np.pi / 3)
    fourier = np.array([[1, 1, 1], [1, w, w ** 2], [1, w ** 2, w]]) / np.sqrt(3)
    fz = Observable(fourier @ np.diag([1.0, 2.0, 3.0]) @ fourier.conj().T)
    assert abs(complementarity(comp, fz) - 1 / 3) < 1e-12


def test_complementarity_rejects_observables_of_different_dimensions():
    with pytest.raises(ValueError, match="observable dimensions differ: 2 vs 3"):
        complementarity(SX, random_observable(np_rng, 3))


def test_complementarity_range():
    for _ in range(50):
        x = random_observable(np_rng, 3)
        z = random_observable(np_rng, 3)
        c = complementarity(x, z)
        assert 1 / 3 - 1e-12 <= c <= 1.0 + 1e-12


def test_single_system_bound_projective_mixed():
    rho = validate_density(np.eye(2) / 2, (2, 1))
    mx = observable_measurement(SX)
    mz = observable_measurement(SZ)
    assert abs(single_system_bound(rho, mx, mz) - 2.0) < 1e-12


def test_single_system_bound_projective_pure():
    rho = validate_density(np.diag([1.0, 0.0]), (2, 1))
    assert abs(single_system_bound(rho, observable_measurement(SX), observable_measurement(SZ))) < 1e-12


def test_single_system_bound_rank_two_element():
    # one rank-2 element makes c(X) = 2; with Z rank-1 on I/3 the bound is
    # -1 + 0 + 2*log2(3)
    rho = validate_density(np.eye(3) / 3, (3, 1))
    x_povm = [np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
    z_povm = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
    assert abs(single_system_bound(rho, x_povm, z_povm) - 2.169925001442312) < 1e-12


def test_single_system_bound_rejects_incomplete_povm():
    rho = validate_density(np.eye(2) / 2, (2, 1))
    with pytest.raises(ValueError, match="identity"):
        single_system_bound(rho, [np.diag([1.0, 0.0])], [np.eye(2)])


@pytest.mark.parametrize("povm, message", [
    (observable_measurement(bundled_observable("x2")), "POVM element is 3x3, state has d=2"),
    ([np.eye(3)], "POVM element is 3x3, state has d=2"),
    ([np.ones(2) / 2, np.ones(2) / 2], "POVM element is 2, state has d=2"),
    ([], "POVM has no elements"),
], ids=["qutrit-projectors", "qutrit-identity", "vectors", "empty"])
def test_single_system_bound_rejects_povm_not_on_the_state(povm, message):
    rho = validate_density(np.eye(2) / 2, (2, 1))
    for args in ((povm, observable_measurement(SZ)), (observable_measurement(SZ), povm)):
        with pytest.raises(ValueError, match=message):
            single_system_bound(rho, *args)


def test_uncertainty_singlet():
    assert abs(uncertainty_sum(werner(2, 1.0), SX, SZ)) < 1e-10


def test_uncertainty_maximally_mixed():
    rho = validate_density(np.eye(4) / 4, (2, 2))
    assert abs(uncertainty_sum(rho, SX, SZ) - 2.0) < 1e-12


def test_uncertainty_werner_closed_form():
    for f in (0.1, 0.5, 0.9):
        expected = 2 - (1 - f) * np.log2(1 - f) - (1 + f) * np.log2(1 + f)
        assert abs(uncertainty_sum(werner(2, f), SX, SZ) - expected) < 1e-10


def test_evaluate_bounds_singlet():
    rep = evaluate_bounds(werner(2, 1.0), SX, SZ, FAST)
    assert abs(rep.U) < 1e-8
    assert abs(rep.U_b1) < 1e-8
    assert abs(rep.U_b2) < 1e-8
    assert abs(rep.U_b3) < 1e-8
    assert abs(rep.discord - 1.0) < 1e-8
    assert abs(rep.classical - 1.0) < 1e-8
    assert rep.violations() == []


def test_evaluate_bounds_maximally_mixed():
    rho = validate_density(np.eye(4) / 4, (2, 2))
    rep = evaluate_bounds(rho, SX, SZ, FAST)
    for value in (rep.U, rep.U_b1, rep.U_b2, rep.U_b3):
        assert abs(value - 2.0) < 1e-8
    assert rep.concurrence == 0.0


def test_evaluate_bounds_werner_tightness():
    rep = evaluate_bounds(werner(2, 0.8), SX, SZ)
    assert abs(rep.U_b3 - rep.U) <= 1e-4
    assert "U_b3" in rep.tightest()
    assert rep.violations() == []


def test_bound_inequalities_two_qubits():
    for _ in range(60):
        rho = random_density(np_rng, (2, 2))
        x = random_observable(np_rng, 2)
        z = random_observable(np_rng, 2)
        rep = evaluate_bounds(rho, x, z, FAST)
        assert rep.U >= rep.U_b1 - 1e-9
        assert rep.U >= rep.U_b2 - 1e-4
        assert rep.U >= rep.U_b3 - 1e-4


def test_bound_inequalities_qubit_qutrit():
    for _ in range(25):
        rho = random_density(np_rng, (2, 3))
        x = random_observable(np_rng, 2)
        z = random_observable(np_rng, 2)
        rep = evaluate_bounds(rho, x, z, FAST)
        assert rep.U >= rep.U_b1 - 1e-9
        assert rep.U >= rep.U_b2 - 1e-4
        assert rep.U >= rep.U_b3 - 1e-4
        assert rep.concurrence is None


def test_basis_change_covariance():
    rho = random_density(np_rng, (2, 2))
    x = random_observable(np_rng, 2)
    z = random_observable(np_rng, 2)
    u = rand_unitary(2, np_rng)
    rho_rot = validate_density(
        kron(u, np.eye(2)) @ rho.mat @ kron(u, np.eye(2)).conj().T, (2, 2)
    )
    x_rot = Observable(u @ x.mat @ u.conj().T)
    z_rot = Observable(u @ z.mat @ u.conj().T)
    a = evaluate_bounds(rho, x, z)
    b = evaluate_bounds(rho_rot, x_rot, z_rot)
    for name in ("U", "U_b1", "U_b2", "U_b3", "c", "S_AB", "S_B", "S_cond",
                 "mutual", "classical", "discord", "concurrence"):
        assert abs(getattr(a, name) - getattr(b, name)) <= 1e-5


def test_bell_diagonal_pauli_complementarity_exact():
    # any two distinct Pauli observables are mutually unbiased
    for a, b in ((SX, SY), (SX, SZ), (SY, SZ)):
        assert abs(complementarity(a, b) - 0.5) < 1e-12
    rep = evaluate_bounds(bell_diagonal(0.3, -0.2, 0.5), SX, SZ, FAST)
    assert abs(rep.c - 0.5) < 1e-12


def test_single_system_bound_fuzz_reduced_states():
    for _ in range(100):
        d = 2 if np_rng.random() < 0.5 else 3
        rho = random_density(np_rng, (d, d))
        rho_a = partial_trace(rho, "A")
        x = random_observable(np_rng, d)
        z = random_observable(np_rng, d)
        h_sum = 0.0
        for obs in (x, z):
            probs = np.array([
                float(np.trace(p @ rho_a.mat).real)
                for p in observable_measurement(obs).projectors
            ])
            h_sum += float(-np.sum(probs[probs > 0] * np.log2(probs[probs > 0])))
        bound = single_system_bound(rho_a, observable_measurement(x), observable_measurement(z))
        assert h_sum >= bound - 1e-9


@pytest.mark.parametrize("dims", [(2, 1), (2, 3), (3, 2)])
def test_evaluate_bounds_many_takes_each_states_observables(dims):
    rng = np.random.default_rng((20241025,) + dims)
    rhos = [random_density(rng, dims) for _ in range(4)]
    xs = [random_observable(rng, dims[0]) for _ in rhos]
    zs = [random_observable(rng, dims[0]) for _ in rhos]
    reports = evaluate_bounds_many(rhos, xs, zs)
    assert [repr(r) for r in reports] == [repr(evaluate_bounds(*a)) for a in zip(rhos, xs, zs)]


def test_evaluate_bounds_many_stacks_each_chunk_once(monkeypatch):
    # one stack per chunk, shared by the chunk's J search and its reports
    rng = np.random.default_rng(20261019)
    rhos = [random_density(rng, (2, 2)) for _ in range(STACK_STATES + 5)]
    xs = [random_observable(rng, 2) for _ in rhos]
    zs = [random_observable(rng, 2) for _ in rhos]
    seen = {"J": [], "reports": []}
    search, reports = bounds.classical_correlations, bounds._reports

    def searched(mats, dims, cfg=None):
        seen["J"].append(mats)
        return search(mats, dims, cfg)

    def reported(mats, *args):
        seen["reports"].append(mats)
        return reports(mats, *args)

    monkeypatch.setattr(bounds, "classical_correlations", searched)
    monkeypatch.setattr(bounds, "_reports", reported)
    assert len(evaluate_bounds_many(rhos, xs, zs)) == len(rhos)
    assert [len(m) for m in seen["J"]] == [len(m) for m in seen["reports"]] == [STACK_STATES, 5]
    assert all(a is b for a, b in zip(seen["J"], seen["reports"]))
    # one state is passed as a view of its own matrix, not stacked
    evaluate_bounds(rhos[0], xs[0], zs[0])
    assert np.shares_memory(seen["reports"][-1], rhos[0].mat)


@pytest.mark.parametrize("counts", [(STACK_STATES, 5), (STACK_STATES - 1, 5), (2, 3)])
def test_evaluate_bounds_many_rejects_mixed_dims(monkeypatch, counts):
    # wherever the chunk cut falls, mixed dims fail before any J search
    rng = np.random.default_rng(20261020)
    rhos = [random_density(rng, dims) for dims, n in zip([(2, 2), (2, 3)], counts) for _ in range(n)]

    def searched(*args):
        raise AssertionError("a J search ran before the dims check")

    monkeypatch.setattr(bounds, "classical_correlations", searched)
    with pytest.raises(ValueError, match=re.escape("a state stack needs one dims, got [(2, 2), (2, 3)]")):
        evaluate_bounds_many(rhos, [SX] * len(rhos), [SZ] * len(rhos))


def test_evaluate_bounds_many_checks_every_states_observables():
    rhos = [random_density(np_rng, (2, 2)) for _ in range(3)]
    xs, zs = [SX, SX, bundled_observable("x2")], [SZ] * 3
    with pytest.raises(ObservableDimensionError, match="dimensions 3 and 2"):
        evaluate_bounds_many(rhos, xs, zs)
    with pytest.raises(ObservableDimensionError, match="dimensions 3 and 2"):
        uncertainty_sum(rhos[2], xs[2], zs[2])


@pytest.mark.parametrize("counts", [(3, 2, 3), (3, 3, 2), (2, 3, 3)])
def test_evaluate_bounds_many_rejects_unequal_lengths(counts):
    n_rho, n_x, n_z = counts
    rhos = [random_density(np_rng, (2, 2)) for _ in range(n_rho)]
    with pytest.raises(ValueError, match=f"{n_rho} states, {n_x} X and {n_z} Z"):
        evaluate_bounds_many(rhos, [SX] * n_x, [SZ] * n_z)


def test_empty_stack_gives_empty_results():
    # the J search cannot score an empty stack, so both entry points return before it
    j = classical_correlations(np.empty((0, 4, 4), complex), (2, 2))
    assert j.dtype == float and j.shape == (0,)
    assert evaluate_bounds_many([], [], []) == []


def pure_and_product(rng, dims):
    dA, dB = dims
    v = rng.normal(size=dA * dB) + 1j * rng.normal(size=dA * dB)
    v /= np.linalg.norm(v)
    a, b = random_density(rng, (dA, 1)), random_density(rng, (dB, 1))
    pure, product = np.outer(v, v.conj()), kron(a.mat, b.mat)
    return [validate_density(pure, dims), validate_density(product, dims)]


@pytest.mark.parametrize("dims", [(2, 1), (2, 2), (2, 4), (3, 1), (3, 3)])
def test_evaluate_bounds_many_matches_scalar_oracles(dims):
    # the stacked report against the scalar functions, state by state
    rng = np.random.default_rng((20261018,) + dims)
    rhos = [random_density(rng, dims) for _ in range(6)] + pure_and_product(rng, dims)
    xs = [random_observable(rng, dims[0]) for _ in rhos]
    zs = [random_observable(rng, dims[0]) for _ in rhos]
    for rho, x, z, rep in zip(rhos, xs, zs, evaluate_bounds_many(rhos, xs, zs, FAST)):
        s_ab, s_b = von_neumann(rho), von_neumann(ptrace_mat(rho.mat, dims, "B"))
        s_a = von_neumann(partial_trace(rho, "A"))
        s_cond, mutual, c = s_ab - s_b, s_a + s_b - s_ab, complementarity(x, z)
        j = classical_correlation(rho, FAST)
        disc = max(0.0, mutual - j)
        want = dict(
            U=uncertainty_sum(rho, x, z), U_b1=np.log2(1.0 / c) + s_cond,
            U_b2=np.log2(1.0 / c) + s_cond + max(0.0, disc - j), U_b3=2.0 * (s_cond + disc),
            c=c, S_AB=s_ab, S_B=s_b, S_cond=s_cond, mutual=mutual, classical=j, discord=disc,
            S_A=s_a,
            U_A=uncertainty_sum(partial_trace(rho, "A"), x, z),
            concurrence=concurrence(rho) if dims == (2, 2) else None,
        )
        for f in fields(BoundReport):
            got = getattr(rep, f.name)
            if want[f.name] is None:
                assert got is None
            else:
                assert type(got) is float and abs(got - want[f.name]) <= 1e-12, f.name
