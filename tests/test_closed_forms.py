"""Cross-checks of the numeric pipeline against independently derived closed
forms for each published state family. The numeric route is authoritative;
these expressions were re-derived from the spectra and verified before being
frozen here.
"""

import numpy as np

from quncert.bounds import evaluate_bounds
from quncert.correlations import OptimizerConfig
from quncert.observables import bundled_observable, pauli_observable, su3_pair
from quncert.states import isotropic, qubit_qudit, werner

from helpers import xlog2

SX = pauli_observable(1)
SZ = pauli_observable(3)

QUTRIT_CFG = OptimizerConfig(restarts=8)


def test_werner_qutrit_uncertainty_closed_form():
    x3, z3 = su3_pair()
    for f in (0.3, 0.7, 0.95):
        rep = evaluate_bounds(werner(3, f), x3, z3, QUTRIT_CFG)
        expected = f + 3 - xlog2(1 - f) - xlog2(1 + f)
        assert abs(rep.U - expected) < 1e-10
        # the observable-independent bound is tight on this family
        assert abs(rep.U_b3 - rep.U) < 1e-4


def test_werner_qutrit_discord_closed_form():
    f = 0.7
    rho = werner(3, f)
    expected = (
        2
        + f * np.log2(f / 2)
        + (1 - f) * np.log2((1 - f) / 4)
        - (1 - f) / 2 * np.log2(1 - f)
        - (1 + f) / 2 * np.log2((1 + f) / 2)
    )
    x3, z3 = su3_pair()
    rep = evaluate_bounds(rho, x3, z3, QUTRIT_CFG)
    assert abs(rep.discord - expected) < 1e-4
    assert rep.discord >= expected - 1e-12  # optimizer can only overestimate


def test_werner_qutrit_corrected_bound_closed_form():
    # both printed variants of the discord-corrected bound agree with the
    # numeric pipeline once the max{0, .} clamp is kept
    x3, z3 = su3_pair()
    for f in (0.4, 0.7, 0.9):
        rep = evaluate_bounds(werner(3, f), x3, z3, QUTRIT_CFG)
        s_cond = 1 - f - (1 - f) * np.log2(1 - f) - f * np.log2(f)
        correction = max(
            0.0,
            2 * f + f * np.log2(f) - np.log2(3 * (1 + f) / 4) - f * np.log2(1 + f),
        )
        assert abs(rep.U_b1 - s_cond) < 1e-10
        assert abs(rep.U_b2 - (s_cond + correction)) < 1e-4


def test_isotropic_d2_closed_forms():
    for f in (0.6, 0.9):
        rep = evaluate_bounds(isotropic(2, f), SX, SZ)
        u_expected = -2.0 / 3.0 * (
            -2 * f
            + 2 * (1 - f) * np.log2(1 - f)
            + np.log2(4 * (1 + 2 * f) / 27)
            + 2 * f * np.log2(1 + 2 * f)
        )
        d_expected = (
            (1 - f) / 3 * np.log2((1 - f) / 3)
            + f * np.log2(f)
            - (1 + 2 * f) / 3 * np.log2((1 + 2 * f) / 6)
        )
        s_expected = -(1 - f) * np.log2((1 - f) / 3) - f * np.log2(f)
        assert abs(rep.U - u_expected) < 1e-10
        assert abs(rep.discord - d_expected) < 1e-6
        assert abs(rep.S_AB - s_expected) < 1e-10
        assert abs(rep.U_b3 - rep.U) < 1e-4


def test_isotropic_d3_closed_forms():
    f = 0.9
    x3, z3 = su3_pair()
    rep = evaluate_bounds(isotropic(3, f), x3, z3, QUTRIT_CFG)
    u_expected = -0.5 * (
        3 * (1 - f) * np.log2((1 - f) / 8)
        + np.log2(27 * (1 + 3 * f) / 4)
        + 3 * f * np.log2((1 + 3 * f) / 12)
    )
    d_expected = (
        (1 - f) / 4 * np.log2((1 - f) / 8)
        + f * np.log2(f)
        - (1 + 3 * f) / 4 * np.log2((1 + 3 * f) / 12)
    )
    assert abs(rep.U - u_expected) < 1e-10
    assert abs(rep.discord - d_expected) < 1e-4
    assert abs(rep.U_b3 - rep.U) < 1e-4


def test_isotropic_d3_reference_observables_tightest():
    rep = evaluate_bounds(
        isotropic(3, 0.9), bundled_observable("x2"), bundled_observable("z2"), QUTRIT_CFG
    )
    assert rep.tightest().startswith("U_b3")
    assert rep.U_b3 > rep.U_b1 + 0.5


def test_qubit_qutrit_closed_forms():
    alpha, gamma = 0.25, 0.1
    beta = (1 - 2 * alpha - gamma) / 3
    rep = evaluate_bounds(qubit_qudit(alpha, gamma, "qutrit"), SX, SZ)
    u_expected = (
        4 * alpha
        - 4 * beta
        - 4 * beta * np.log2(beta)
        - 2 * (beta + gamma) * np.log2(beta + gamma)
        + 2 * (3 * beta + gamma) * np.log2(3 * beta + gamma)
    )
    ub1_expected = (
        4 * alpha
        - 3 * beta * np.log2(beta)
        - gamma * np.log2(gamma)
        + (3 * beta + gamma) * np.log2(3 * beta + gamma)
    )
    assert abs(rep.U - u_expected) < 1e-10
    assert abs(rep.U_b1 - ub1_expected) < 1e-10
    assert abs(rep.U_b3 - rep.U) < 1e-4
    assert abs(rep.U_b2 - rep.U) < 1e-4


def test_qubit_ququart_closed_forms():
    alpha, gamma = 0.1, 0.3
    beta = (1 - 4 * alpha - gamma) / 3
    rep = evaluate_bounds(qubit_qudit(alpha, gamma, "ququart"), SX, SZ)
    u_expected = (
        8 * alpha
        - 4 * beta
        - 4 * beta * np.log2(beta)
        - 2 * (beta + gamma) * np.log2(beta + gamma)
        + 2 * (3 * beta + gamma) * np.log2(3 * beta + gamma)
    )
    ub1_expected = (
        8 * alpha
        - 3 * beta * np.log2(beta)
        - gamma * np.log2(gamma)
        + (3 * beta + gamma) * np.log2(3 * beta + gamma)
    )
    assert abs(rep.U - u_expected) < 1e-10
    assert abs(rep.U_b1 - ub1_expected) < 1e-10
    assert abs(rep.U_b3 - rep.U) < 1e-4


def test_holevo_landscape_flat_on_padded_families():
    # the Bell block of the qubit-qudit family has equal correlation weights,
    # so every measurement direction extracts the same information; this is
    # what makes the closed forms exact
    rho = qubit_qudit(0.25, 0.1, "qutrit")
    from quncert.correlations import holevo_quantity
    from quncert.entropy import ProjectiveMeasurement

    rng = np.random.default_rng(11)
    values = []
    for _ in range(10):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        _, v = np.linalg.eigh((g + g.conj().T) / 2)
        values.append(holevo_quantity(rho, ProjectiveMeasurement.from_basis(v)))
    assert np.ptp(values) < 1e-12
