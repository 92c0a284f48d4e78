import numpy as np
import pytest

from quncert.channels import (
    KrausChannel,
    apply_kraus,
    jc_state,
    jc_survival,
    local_channel,
    dephased_bell_diagonal,
    random_field_state,
)
from quncert.correlations import classical_correlation, clamp_discord, concurrence
from quncert.entropy import mutual_information
from quncert.linalg import PAULIS, kron, validate_density
from quncert.states import bell_diagonal, bell_like, bell_mixture

from helpers import FAST, random_bell_triple
from oracles import ad_closed_form, pd_closed_form

np_rng = np.random.default_rng(20240806)


def pauli_triple(mat):
    return tuple(float(np.trace(mat @ kron(s, s)).real) for s in PAULIS)


def test_kraus_completeness_enforced():
    bad = [np.diag([1.0, 0.5])]
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel(ops=tuple(bad))


def test_identity_channel():
    ch = KrausChannel(ops=(np.eye(4, dtype=complex),))
    rho = bell_diagonal(0.3, -0.2, 0.5)
    assert np.abs(apply_kraus(rho, ch).mat - rho.mat).max() < 1e-14


def test_full_amplitude_damping_reaches_ground():
    rho = bell_diagonal(0.3, -0.2, 0.5)
    out = apply_kraus(rho, local_channel("amplitude", 1.0, 1.0))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(out.mat - expected).max() < 1e-12


def test_amplitude_closed_form_matches_kraus():
    for p in np.linspace(0, 1, 11):
        for _ in range(5):
            c1, c2, c3 = random_bell_triple(np_rng)
            via_kraus = apply_kraus(
                bell_diagonal(c1, c2, c3), local_channel("amplitude", p, p)
            )
            closed = ad_closed_form(c1, c2, c3, p)
            assert np.abs(via_kraus.mat - closed.mat).max() <= 1e-10


def test_phase_closed_form_matches_kraus():
    for p in np.linspace(0, 1, 11):
        for _ in range(5):
            c1, c2, c3 = random_bell_triple(np_rng)
            via_kraus = apply_kraus(bell_diagonal(c1, c2, c3), local_channel("phase", p, p))
            closed = pd_closed_form(c1, c2, c3, p)
            assert np.abs(via_kraus.mat - closed.mat).max() <= 1e-10


def test_phase_damping_scales_transverse_correlations():
    p = 0.4
    c1, c2, c3 = 1.0, -0.6, 0.6
    out = apply_kraus(bell_diagonal(c1, c2, c3), local_channel("phase", p, p))
    t1, t2, t3 = pauli_triple(out.mat)
    assert abs(t1 - c1 * (1 - p)) < 1e-12
    assert abs(t2 - c2 * (1 - p)) < 1e-12
    assert abs(t3 - c3) < 1e-12


def test_one_sided_phase_damping_scales_coherences_by_sqrt():
    p = 0.51
    c1, c2, c3 = 0.5, -0.3, 0.4
    rho0 = bell_diagonal(c1, c2, c3)
    out = apply_kraus(rho0, local_channel("phase", p, 0.0))
    s = np.sqrt(1 - p)
    assert abs(out.mat[0, 3] - s * rho0.mat[0, 3]) < 1e-12
    assert abs(out.mat[1, 2] - s * rho0.mat[1, 2]) < 1e-12
    assert np.abs(np.diag(out.mat) - np.diag(rho0.mat)).max() < 1e-12


def test_ad_closed_form_endpoints():
    c1, c2, c3 = random_bell_triple(np_rng)
    assert np.abs(ad_closed_form(c1, c2, c3, 0.0).mat - bell_diagonal(c1, c2, c3).mat).max() < 1e-12
    assert abs(ad_closed_form(c1, c2, c3, 1.0).mat[0, 0] - 1.0) < 1e-12


def test_ad_closed_form_equal_transverse_kills_outer_coherence():
    out = ad_closed_form(-0.8, -0.8, -0.8, 0.5)
    assert abs(out.mat[0, 3]) < 1e-14


def test_pd_closed_form_endpoints():
    c1, c2, c3 = random_bell_triple(np_rng)
    assert np.abs(pd_closed_form(c1, c2, c3, 0.0).mat - bell_diagonal(c1, c2, c3).mat).max() < 1e-12
    final = pd_closed_form(c1, c2, c3, 1.0)
    off = np.abs(final.mat - np.diag(np.diag(final.mat))).max()
    assert off < 1e-14
    assert clamp_discord(mutual_information(final) - classical_correlation(final, FAST)) < 1e-9


def test_jc_survival_starts_at_one():
    assert jc_survival(0.0, 1.0, 0.01) == 1.0


def test_jc_survival_envelope_bound():
    tau = 0.01
    delta = np.sqrt(2 * tau - tau ** 2)
    for t in np.linspace(0, 30, 200):
        p_t = jc_survival(t, 1.0, tau)
        assert p_t <= np.exp(-tau * t) * (1 + tau ** 2 / delta ** 2) + 1e-12
        assert 0.0 <= p_t <= 1.0


def test_jc_survival_first_zero():
    tau = 0.01
    delta = np.sqrt(2 * tau - tau ** 2)
    t_zero = 2 * (np.pi - np.arctan(delta / tau)) / delta
    assert jc_survival(t_zero, 1.0, tau) < 1e-12
    # strictly positive before the first zero
    for t in np.linspace(0.0, 0.95 * t_zero, 50):
        assert jc_survival(t, 1.0, tau) > 1e-12


def test_jc_survival_rejects_weak_coupling():
    with pytest.raises(ValueError, match="coupling"):
        jc_survival(1.0, 0.005, 0.011)


def test_jc_state_survival_one_is_initial():
    alpha = 1 / np.sqrt(10)
    assert np.abs(jc_state(alpha, 1.0).mat - bell_like(alpha).mat).max() < 1e-12


def test_jc_state_survival_zero_is_ground():
    out = jc_state(0.7, 0.0)
    assert abs(out.mat[0, 0] - 1.0) < 1e-12
    assert abs(mutual_information(out)) < 1e-10
    assert concurrence(out) < 1e-9


def test_jc_state_mutual_information_closed_form():
    # spectrum route: the decaying branch weight pairs with the survival
    # probability, so the closed form takes a^2 = 1 - alpha^2
    alpha = 1 / np.sqrt(10)
    a2 = 1 - alpha ** 2
    for p_t in (0.25, 0.5, 0.8):
        rho = jc_state(alpha, p_t)
        disc = np.sqrt(1 - 4 * a2 * (1 - p_t) * p_t)
        lam = [
            a2 * p_t * (1 - p_t),
            a2 * p_t * (1 - p_t),
            -a2 * p_t * (1 - p_t) + (1 - disc) / 2,
            -a2 * p_t * (1 - p_t) + (1 + disc) / 2,
        ]
        s_ab = float(-sum(x * np.log2(x) for x in lam if x > 0))
        marg = a2 * p_t
        s_marg = float(-marg * np.log2(marg) - (1 - marg) * np.log2(1 - marg))
        expected = 2 * s_marg - s_ab
        assert abs(mutual_information(rho) - expected) <= 1e-6


def test_random_field_identity_at_zero():
    rho0 = bell_mixture(0.9, 0.1, 0.0, 0.0)
    assert np.abs(random_field_state(rho0, 0.0, 0.025).mat - rho0.mat).max() < 1e-12


def test_random_field_period_pi():
    rho0 = bell_mixture(0.9, 0.1, 0.0, 0.0)
    for gt in (0.3, 1.1, 2.4):
        a = random_field_state(rho0, gt, 0.025)
        b = random_field_state(rho0, gt + np.pi, 0.025)
        assert np.abs(a.mat - b.mat).max() < 1e-12
    assert np.abs(random_field_state(rho0, np.pi, 0.025).mat - rho0.mat).max() < 1e-12


def test_random_field_unital():
    rho0 = validate_density(np.eye(4) / 4, (2, 2))
    out = random_field_state(rho0, 0.83, 0.3)
    assert np.abs(out.mat - np.eye(4) / 4).max() < 1e-12


def test_random_field_preserves_maximally_mixed_marginals():
    # mixtures of local unitaries keep both marginals maximally mixed for any
    # field-phase weight; that is the class the map acts within
    rho0 = bell_mixture(0.9, 0.1, 0.0, 0.0)
    eye = np.eye(2) / 2
    for p1 in (0.025, 0.08, 0.3):
        for gt in np.linspace(0, np.pi, 7):
            out = random_field_state(rho0, gt, p1)
            r = out.mat.reshape(2, 2, 2, 2)
            assert np.abs(np.trace(r, axis1=1, axis2=3) - eye).max() <= 1e-10
            assert np.abs(np.trace(r, axis1=0, axis2=2) - eye).max() <= 1e-10


def test_random_field_uniform_weights_keep_x_form():
    # at p1 = 1/2 the two opposite rotations balance and the correlation
    # tensor stays diagonal
    rho0 = bell_mixture(0.9, 0.1, 0.0, 0.0)
    for gt in np.linspace(0, np.pi, 13):
        out = random_field_state(rho0, gt, 0.5)
        c1, c2, c3 = pauli_triple(out.mat)
        rebuilt = bell_diagonal(c1, c2, c3)
        assert np.abs(out.mat - rebuilt.mat).max() <= 1e-10


def test_dephasing_initial_and_asymptotic():
    c1, c2, c3 = 1.0, -0.6, 0.6
    assert np.abs(dephased_bell_diagonal(c1, c2, c3, 1.0, 0.0).mat - bell_diagonal(c1, c2, c3).mat).max() < 1e-12
    late = dephased_bell_diagonal(c1, c2, c3, 1.0, 40.0)
    assert np.abs(late.mat - bell_diagonal(0.0, 0.0, c3).mat).max() < 1e-12
    assert clamp_discord(mutual_information(late) - classical_correlation(late, FAST)) < 1e-9


def test_dephasing_plateau_switch_time():
    # transverse correlation falls below |c3| at t* = ln(1/0.6)/(2 gamma)
    gamma = 1.0
    t_star = np.log(1 / 0.6) / (2 * gamma)
    before = pauli_triple(dephased_bell_diagonal(1.0, -0.6, 0.6, gamma, 0.9 * t_star).mat)
    after = pauli_triple(dephased_bell_diagonal(1.0, -0.6, 0.6, gamma, 1.1 * t_star).mat)
    assert abs(before[0]) > abs(before[2])
    assert abs(after[0]) < abs(after[2])


def test_channel_outputs_validate():
    for _ in range(10):
        c1, c2, c3 = random_bell_triple(np_rng)
        p = float(np_rng.uniform(0, 1))
        for kind in ("amplitude", "phase"):
            out = apply_kraus(bell_diagonal(c1, c2, c3), local_channel(kind, p, p))
            validate_density(out.mat, out.dims, tol=1e-9)
