"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured margin. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np

from quncert.bounds import Observable, evaluate_bounds
from quncert.channels import apply_kraus, local_channel
from quncert.cli import main
from quncert.correlations import concurrence
from quncert.entropy import measured_conditional_entropy, von_neumann
from quncert.linalg import PAULI_X, PAULI_Z, ptrace_mat
from quncert.scenarios import (
    ScenarioSpec,
    random_density,
    random_observable,
    run_scenario,
    verify,
)
from quncert.states import bell_diagonal, isotropic, qubit_qudit, werner

from helpers import random_bell_triple, random_x_state, xlog2
from oracles import (
    ad_closed_form,
    concurrence_x,
    measure_on_A,
    observable_measurement,
    pd_closed_form,
    shannon,
    single_system_bound,
)

SX = Observable(PAULI_X)
SZ = Observable(PAULI_Z)


def report(label: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_criterion_1_inequality_fuzzing():
    t0 = time.time()
    res_22 = verify(2000, (2, 2), seed=7)
    res_23 = verify(500, (2, 3), seed=7)
    elapsed = time.time() - t0
    ok = res_22.ok and res_23.ok and elapsed <= 300.0
    detail = (
        f"2000x(2,2) min slacks {res_22.min_slacks['U_b1']:.2e}/"
        f"{res_22.min_slacks['U_b2']:.2e}/{res_22.min_slacks['U_b3']:.2e}, "
        f"500x(2,3) min slacks {res_23.min_slacks['U_b1']:.2e}/"
        f"{res_23.min_slacks['U_b2']:.2e}/{res_23.min_slacks['U_b3']:.2e}, "
        f"{elapsed:.0f}s"
    )
    report("1 inequality fuzzing", ok, detail)


def test_criterion_2_single_system_bound():
    worst = np.inf
    for d in (2, 3):
        for index in range(2000):
            rng = np.random.default_rng((1311, d, index))
            rho = random_density(rng, (d, 1))
            h_sum = 0.0
            povms = []
            for _ in range(2):
                obs = random_observable(rng, d)
                meas = observable_measurement(obs)
                povms.append(meas)
                probs = np.array(
                    [float(np.trace(p @ rho.mat).real) for p in meas.projectors]
                )
                h_sum += shannon(probs / probs.sum())
            worst = min(worst, h_sum - single_system_bound(rho, povms[0], povms[1]))
    ok = worst >= -1e-9
    report("2 single-system bound", ok, f"min slack {worst:.3e} over 2x2000 states")


def test_criterion_3_werner_closed_forms():
    max_u = max_b3 = max_b1 = 0.0
    for f in np.linspace(0, 1, 21):
        rep = evaluate_bounds(werner(2, float(f)), SX, SZ)
        u_closed = 2 - xlog2(1 - f) - xlog2(1 + f)
        ub1_closed = 2 - (1 + 3 * f) / 4 * (np.log2(1 + 3 * f) if f > 0 else 0.0) \
            - 3 * (1 - f) / 4 * (np.log2(1 - f) if f < 1 else 0.0)
        max_u = max(max_u, abs(rep.U - u_closed))
        max_b3 = max(max_b3, abs(rep.U_b3 - rep.U))
        max_b1 = max(max_b1, abs(rep.U_b1 - ub1_closed))
    ok = max_u <= 1e-8 and max_b3 <= 1e-4 and max_b1 <= 1e-8
    report(
        "3 werner closed forms", ok,
        f"|U-closed| {max_u:.2e}, |Ub3-U| {max_b3:.2e}, |Ub1-closed| {max_b1:.2e}",
    )


def test_criterion_4_tightness_table():
    families = {
        "werner-d2": [werner(2, float(f)) for f in np.linspace(0, 1, 101)],
        "isotropic-d2": [isotropic(2, float(f)) for f in np.linspace(0, 1, 101)],
        "qubit-qutrit": [
            qubit_qudit(0.25, float(g), "qutrit") for g in np.linspace(0, 0.5, 101)
        ],
        "qubit-ququart": [
            qubit_qudit(0.1, float(g), "ququart") for g in np.linspace(0, 0.6, 101)
        ],
    }
    details = []
    ok = True
    for name, states in families.items():
        gap_b3 = 0.0
        ub1_gap = 0.0
        for rho in states:
            rep = evaluate_bounds(rho, SX, SZ)
            gap_b3 = max(gap_b3, abs(rep.U_b3 - rep.U))
            ub1_gap = max(ub1_gap, rep.U_b3 - rep.U_b1)
        ok = ok and gap_b3 <= 1e-4 and ub1_gap > 0.01
        details.append(f"{name}: |Ub3-U| {gap_b3:.2e}, max Ub3-Ub1 {ub1_gap:.3f}")
    report("4 tightness table", ok, "; ".join(details))


def test_criterion_5_channel_oracles():
    rng = np.random.default_rng(5)
    triples = [random_bell_triple(rng) for _ in range(20)]
    worst = 0.0
    for p in np.linspace(0, 1, 101):
        for c1, c2, c3 in triples:
            rho0 = bell_diagonal(c1, c2, c3)
            ad = apply_kraus(rho0, local_channel("amplitude", p, p))
            worst = max(worst, np.abs(ad.mat - ad_closed_form(c1, c2, c3, p).mat).max())
            pd = apply_kraus(rho0, local_channel("phase", p, p))
            worst = max(worst, np.abs(pd.mat - pd_closed_form(c1, c2, c3, p).mat).max())
    ok = worst <= 1e-10
    report("5 channel oracles", ok, f"max entry error {worst:.2e} over 101x20x2")


def test_criterion_6_conditional_entropy_identity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for index in range(1000):
        dims = (2, 2) if index % 2 == 0 else (2, 3)
        rho = random_density(rng, dims)
        obs = random_observable(rng, 2)
        meas = observable_measurement(obs)
        lhs = measured_conditional_entropy(rho, meas)
        out = measure_on_A(rho, meas)
        s_b = von_neumann(ptrace_mat(rho.mat, rho.dims, "B"))
        rhs = (
            sum(p * von_neumann(c) for p, c in zip(out.probs, out.conditional_states))
            + shannon(out.probs)
            - s_b
        )
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9
    report("6 conditional-entropy identity", ok, f"max |lhs-rhs| {worst:.2e} over 1000")


def test_criterion_7_concurrence_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        rho = random_x_state(rng)
        worst = max(worst, abs(concurrence(rho) - concurrence_x(rho)))
    ok = worst <= 1e-9
    report("7 concurrence oracle", ok, f"max deviation {worst:.2e} over 500 X-states")


def test_criterion_8_phase_damping_profile():
    rows = run_scenario(ScenarioSpec(name="pd-markov"))
    u = np.array([r.report.U for r in rows])
    ub1 = np.array([r.report.U_b1 for r in rows])
    ub2 = np.array([r.report.U_b2 for r in rows])
    ub3 = np.array([r.report.U_b3 for r in rows])
    cls = np.array([r.report.classical for r in rows])
    ok = (
        ub3.std() <= 1e-4
        and cls.std() <= 1e-4
        and np.all(np.diff(u) >= -1e-6)
        and np.all(np.diff(ub1) >= -1e-6)
        and np.all(np.diff(ub2) >= -1e-6)
    )
    report(
        "8 phase-damping profile", ok,
        f"std(Ub3) {ub3.std():.2e}, std(C) {cls.std():.2e}, monotone U/Ub1/Ub2",
    )


def test_criterion_9_sudden_transition():
    rows = run_scenario(ScenarioSpec(name="sudden-transition"))
    x = np.array([r.x for r in rows])
    d = np.array([r.report.discord for r in rows])
    c = np.array([r.report.classical for r in rows])
    t_star = np.log(1 / 0.6) / 2.0
    step = x[1] - x[0]
    pre = x[1:] <= t_star - step
    post = x[:-1] >= t_star + step
    dd = np.abs(np.diff(d))
    dc = np.abs(np.diff(c))
    switch_idx = int(np.argmax(dd > 1e-3))
    ok = (
        dd[pre].max() <= 1e-3
        and dc[post].max() <= 1e-3
        and abs(x[switch_idx] - t_star) <= step
    )
    report(
        "9 sudden transition", ok,
        f"max|dD| pre {dd[pre].max():.2e}, max|dC| post {dc[post].max():.2e}, "
        f"switch at {x[switch_idx]:.4f} vs t*={t_star:.4f} (step {step:.4f})",
    )


def test_criterion_10_random_field_periodicity():
    # grid chosen so that a pi shift is exactly 100 steps
    rows = run_scenario(ScenarioSpec(name="random-field", sweep=(0.0, 4 * np.pi, 401)))
    cols = np.array(
        [
            [
                r.report.U, r.report.U_b1, r.report.U_b2, r.report.U_b3,
                r.report.concurrence, r.report.discord, r.report.classical,
                r.report.mutual,
            ]
            for r in rows
        ]
    )
    dev = np.abs(cols[100:] - cols[:-100]).max()
    ok = dev <= 1e-6
    report("10 random-field periodicity", ok, f"max |row(gt+pi)-row(gt)| {dev:.2e}")


def test_criterion_11_determinism(tmp_path):
    args = [
        "scenario", "werner-qubit", "--sweep", "0:1:11", "--grid", "48",
        "--seed", "123",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    ok = out_a.read_bytes() == out_b.read_bytes()
    report("11 determinism", ok, f"{out_a.stat().st_size} bytes, identical reruns")
