import warnings
from pathlib import Path

import numpy as np
import pytest

import quncert
from quncert import cli, scenarios
from quncert.bounds import STACK_STATES, evaluate_bounds, evaluate_bounds_many
from quncert.channels import (
    apply_kraus,
    dephased_bell_diagonal,
    jc_state,
    jc_survival,
    local_channel,
    random_field_state,
)
from quncert.bounds import uncertainty_sum
from quncert.cli import main
from quncert.correlations import OptimizerConfig
from quncert.linalg import require
from quncert.scenarios import (
    SCENARIO_NAMES,
    ScenarioError,
    ScenarioSpec,
    StateSpecError,
    parse_state_spec,
    run_scenario,
    scenario_defaults,
)
from quncert.states import bell_diagonal, bell_mixture, isotropic, qubit_qudit, werner

from oracles import observable_measurement, partial_trace, single_system_bound


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scenario_endpoints(capsys):
    code, out, err = run_cli(
        capsys, "scenario", "werner-qubit", "--sweep", "0:1:3", "--grid", "32"
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "x,U,Ub1,Ub2,Ub3,Con,D,C,I"
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    # f=0: everything saturates at 2 bits; f=1: uncertainty vanishes
    assert first[0] == 0.0
    assert all(abs(v - 2.0) < 1e-8 for v in first[1:5])
    assert last[0] == 1.0
    assert abs(last[1]) < 1e-8 and abs(last[4]) < 1e-8


def test_scenario_deterministic_output(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["scenario", "pd-markov", "--sweep", "0:1:7", "--grid", "32", "--seed", "11"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_scenario_unwritable_out_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "scenario", "werner-qubit", "--sweep", "0:1:2",
                             "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith(f"usage error: cannot write {target}: ") and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("target", ["missing/x.csv", "."])
def test_scenario_unwritable_out_fails_before_the_sweep(capsys, tmp_path, monkeypatch, target):
    def no_sweep(*args, **kwargs):
        raise AssertionError("run_scenario called")

    monkeypatch.setattr(cli, "run_scenario", no_sweep)
    code, out, err = run_cli(capsys, "scenario", "werner-qubit", "--out", str(tmp_path / target))
    assert code == 1 and out == "" and err.startswith("usage error: cannot write ")


def test_scenario_numerical_failure_leaves_no_out_file(capsys, tmp_path, monkeypatch):
    def failing_sweep(*args, **kwargs):
        raise RuntimeError("discord estimate below noise floor")

    monkeypatch.setattr(cli, "run_scenario", failing_sweep)
    target = tmp_path / "x.csv"
    code, out, err = run_cli(capsys, "scenario", "werner-qubit", "--out", str(target))
    assert code == 3 and err.startswith("numerical failure:")
    assert not target.exists()
    # an existing file is left as it was
    target.write_text("kept\n")
    assert run_cli(capsys, "scenario", "werner-qubit", "--out", str(target))[0] == 3
    assert target.read_text() == "kept\n"


def test_scenario_metadata_header(tmp_path):
    out = tmp_path / "c.csv"
    assert main(
        ["scenario", "one-sided-pd", "--sweep", "0:1:3", "--grid", "24", "--out", str(out)]
    ) == 0
    text = out.read_text()
    assert text.startswith("# quncert")
    assert "# scenario: one-sided-pd" in text
    assert "# seed: 0" in text
    assert "# note:" in text


def test_scenario_param_override(capsys):
    code, out, _ = run_cli(
        capsys, "scenario", "sudden-transition", "--sweep", "0:0.1:2",
        "--param", "gamma=2.0", "--grid", "24",
    )
    assert code == 0
    assert "gamma=2" in out


def test_scenario_rejects_unknown_param(capsys):
    code, _, err = run_cli(
        capsys, "scenario", "werner-qubit", "--param", "nope=1", "--sweep", "0:1:2"
    )
    assert code == 1
    assert "no parameter" in err


def test_scenario_rejects_bad_sweep(capsys):
    code, _, err = run_cli(capsys, "scenario", "werner-qubit", "--sweep", "0:1")
    assert code == 1
    assert "sweep" in err


def test_scenario_rejects_sweep_above_step_ceiling(capsys):
    # rejected before any state is built, so the test allocates nothing
    code, out, err = run_cli(capsys, "scenario", "werner-qubit", "--sweep", "0:1:100001")
    assert code == 1
    assert err.startswith("usage error:") and "100001" in err and out == ""


@pytest.mark.parametrize(
    "name",
    [
        "werner-qubit", "werner-qutrit", "isotropic-d2", "isotropic-d3",
        "ad-markov", "pd-markov", "one-sided-pd",
    ],
)
def test_scenario_rejects_sweep_outside_unit_interval(capsys, name):
    code, _, err = run_cli(capsys, "scenario", name, "--sweep", "0:2:3", "--grid", "8")
    assert code == 1
    assert name in err


def test_scenario_obs_override(capsys):
    code, out, _ = run_cli(
        capsys, "scenario", "werner-qubit", "--sweep", "0.5:0.5:1",
        "--obs", "builtin:1,2", "--grid", "32",
    )
    assert code == 0
    assert "builtin:1,2" in out


@pytest.mark.parametrize("command", [["scenario", "pd-markov"],
                                     ["info", "--state", "werner:d=2,f=0.8"]],
                         ids=["scenario", "info"])
@pytest.mark.parametrize("spec", ["", " "], ids=["empty", "blank"])
def test_empty_obs_is_usage_error(capsys, command, spec):
    # an empty --obs must not fall back to default observables
    code, out, err = run_cli(capsys, *command, "--obs", spec)
    assert code == 1 and out == ""
    assert err == "usage error: --obs expects builtin:i,j, got ''\n"


def test_scenario_obs_file(capsys, tmp_path):
    x = tmp_path / "x.txt"
    z = tmp_path / "z.txt"
    x.write_text("0 1\n1 0\n")
    z.write_text("1 0\n0 -1\n")
    code, out, _ = run_cli(
        capsys, "scenario", "werner-qubit", "--sweep", "0.8:0.8:1",
        "--obs-file", str(x), str(z), "--grid", "32",
    )
    assert code == 0
    row = [float(v) for v in out.splitlines()[-1].split(",")]
    f = 0.8
    expected = 2 - (1 - f) * np.log2(1 - f) - (1 + f) * np.log2(1 + f)
    assert abs(row[1] - expected) < 1e-8


@pytest.mark.parametrize("text, message", [
    ("0 1\n1 oops", "line 2, column 3: cannot parse complex token 'oops'"),
    ("0 1e400\n1e400 0", "line 1, column 3: complex token '1e400' is not finite"),
    ("0 1\n0 0", "matrix is not Hermitian within 1e-09 (deviation 1.000e+00)"),
    ("\n".join(" ".join("1" if i == j else "0" for j in range(17)) for i in range(17)),
     "side 17 exceeds supported maximum 16"),
    ("1 0\n0 1", "degenerate observable: eigenvalue gap 0.000e+00 <= 1e-09"),
    ("\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["format", "non-finite", "not-hermitian", "side-17", "degenerate", "not-utf-8"])
def test_bad_obs_file_is_named_in_its_usage_error(capsys, tmp_path, text, message):
    x, z = tmp_path / "x.txt", tmp_path / "z.txt"
    x.write_text("0 1\n1 0\n")
    z.write_bytes(text.encode("latin-1"))
    code, out, err = run_cli(capsys, "info", "--state", "werner:d=2,f=0.8", "--obs-file", str(x), str(z))
    assert code == 1 and out == ""
    assert err == f"usage error: {z}: {message}\n"


def test_verify_small_run(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "20", "--dims", "2,2", "--seed", "3", "--grid", "32"
    )
    assert code == 0
    assert "no violations" in out
    assert "min slack" in out


def test_verify_rejects_bad_dims(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "5", "--dims", "5,2")
    assert code == 1
    code, _, err = run_cli(capsys, "verify", "--n", "5", "--dims", "2,0")
    assert code == 1
    assert "dB=0" in err
    code, out, err = run_cli(capsys, "verify", "--n", "-5")
    assert code == 1
    assert "n_states" in err and "min slack" not in out


@pytest.mark.parametrize("command", ["scenario", "verify", "info"])
@pytest.mark.parametrize("flag", [("--grid", "1"), ("--restarts", "0"), ("--seed", "-1"),
                                  ("--grid", "1000000"), ("--restarts", "1000000")])
def test_bad_optimizer_flags_are_usage_errors(capsys, command, flag):
    target = {
        "scenario": ["werner-qubit", "--sweep", "0:1:2"],
        "verify": ["--n", "1"],
        "info": ["--state", "werner:d=2,f=0.8"],
    }[command]
    code, out, err = run_cli(capsys, command, *target, *flag)
    assert code == 1
    assert err.startswith("usage error:") and out == ""


@pytest.mark.parametrize("params, message", [
    (["c1=0.1", "c1=0.2"], "'c1' given twice"),
    (["c1=inf"], "'c1' must be finite"),
    (["c2=nan"], "'c2' must be finite"),
])
def test_bad_param_values_are_usage_errors(capsys, params, message):
    argv = ["scenario", "sudden-transition", "--sweep", "0:1:2"]
    for p in params:
        argv += ["--param", p]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("usage error:") and message in err and out == ""


def test_info_werner(capsys):
    code, out, _ = run_cli(
        capsys, "info", "--state", "werner:d=2,f=0.8", "--obs", "builtin:1,3",
        "--grid", "32",
    )
    assert code == 0
    assert "tightest bound: U_b2 (ties with U_b3)" in out
    assert "concurrence 0.7" in out


def test_info_maximally_mixed(capsys):
    code, out, _ = run_cli(
        capsys, "info", "--state", "bell-diagonal:c1=0,c2=0,c3=0", "--grid", "24"
    )
    assert code == 0
    for token in ("U          2.0", "U_b1       2.0", "U_b3       2.0"):
        assert token in out


def test_info_parse_error_position(capsys):
    code, _, err = run_cli(capsys, "info", "--state", "werner:d=2,f=oops")
    assert code == 1
    assert "column" in err


def test_info_unknown_family(capsys):
    code, _, err = run_cli(capsys, "info", "--state", "ghz:n=3")
    assert code == 1
    assert "unknown state family" in err


def test_info_dimension_mismatch(capsys):
    code, _, err = run_cli(
        capsys, "info", "--state", "werner:d=3,f=0.5", "--obs", "builtin:1,3"
    )
    assert code == 1
    assert "dimension" in err


def test_parse_state_spec_families():
    assert parse_state_spec("werner:d=2,f=0.8").dims == (2, 2)
    assert parse_state_spec("isotropic:d=3,f=0.4").dims == (3, 3)
    assert parse_state_spec("qubit-qutrit:alpha=0.25,gamma=0.1").dims == (2, 3)
    assert parse_state_spec("qubit-ququart:alpha=0.1,gamma=0.3").dims == (2, 4)
    assert parse_state_spec("bell-like:alpha=0.5").dims == (2, 2)
    assert parse_state_spec("bell-mixture:w1p=0.9,w1m=0.1,w2p=0,w2m=0").dims == (2, 2)


def test_parse_state_spec_missing_params():
    with pytest.raises(StateSpecError, match="missing"):
        parse_state_spec("werner:d=2")


@pytest.mark.parametrize("text, column, message", [
    ("isotropic:d=3.99,f=0.5", 13, "integer"),
    ("werner:d=2.9,f=0.5", 10, "integer"),
    ("werner:d=2,f=0.8,f=0.1", 18, "twice"),
    ("qubit-qutrit:alpha=nan,gamma=0.1", 20, "alpha must be finite, got 'nan'"),
    ("bell-mixture:w1p=nan,w1m=0.1,w2p=0,w2m=0", 18, "w1p must be finite"),
    ("bell-diagonal:c1=inf,c2=0,c3=0", 18, "c1 must be finite, got 'inf'"),
    ("werner:d=2,f=-inf", 14, "f must be finite"),
    ("werner:d=inf,f=0.5", 10, "d must be finite"),
])
def test_parse_state_spec_rejects_rewritten_values(text, column, message):
    with pytest.raises(StateSpecError, match=f"column {column}: .*{message}"):
        parse_state_spec(text)


@pytest.mark.parametrize("argv, dims", [
    (["info", "--state", "werner:d=2,f=0.8", "--obs-file", "x1.txt", "x2.txt"],
     "dimensions 2 and 3; the state has dA=2"),
    (["scenario", "werner-qubit", "--sweep", "0:1:2", "--obs-file", "x2.txt", "z2.txt"],
     "dimensions 3 and 3; the state has dA=2"),
    (["scenario", "werner-qutrit", "--sweep", "0:1:2", "--obs", "builtin:1,3"],
     "dimensions 2 and 2; the state has dA=3"),
], ids=["info", "scenario-qubit", "scenario-qutrit"])
def test_observable_dimension_mismatch_is_usage_error(capsys, argv, dims):
    data = Path(quncert.__file__).parent / "data"
    argv = [str(data / a) if a.endswith(".txt") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("usage error:") and dims in err


@pytest.mark.parametrize("argv", [["scenario", "werner-qubit", "--sweep", "0:1:2"],
                                  ["info", "--state", "werner:d=2,f=0.8"]],
                         ids=["scenario", "info"])
def test_obs_and_obs_file_exclude_each_other(capsys, argv):
    # both observable sources at once is a usage error, not one of them silently dropped
    data = Path(quncert.__file__).parent / "data"
    code, out, err = run_cli(capsys, *argv, "--obs", "builtin:1,2",
                             "--obs-file", str(data / "x1.txt"), str(data / "z1.txt"))
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and "not allowed with argument --obs" in err


def test_run_scenario_rows_ordered():
    rows = run_scenario(ScenarioSpec(name="werner-qubit", sweep=(0.0, 1.0, 5)))
    xs = [r.x for r in rows]
    assert xs == sorted(xs)
    assert len(rows) == 5


def _one_sided_state(x, p):
    b, r, d = p["b"], p["r"], p["d"]
    rho0 = bell_mixture(b * r, d * (1.0 - r), d * r, b * (1.0 - r))
    return apply_kraus(rho0, local_channel("phase", x, 0.0))


# Each scenario's state at one x, from the public scalar constructors alone.
SCALAR_STATE = {
    "werner-qubit": lambda x, p: werner(2, x),
    "werner-qutrit": lambda x, p: werner(3, x),
    "isotropic-d2": lambda x, p: isotropic(2, x),
    "isotropic-d3": lambda x, p: isotropic(3, x),
    "qubit-qutrit": lambda x, p: qubit_qudit(p["alpha"], x, kind="qutrit"),
    "qubit-ququart": lambda x, p: qubit_qudit(p["alpha"], x, kind="ququart"),
    "ad-markov": lambda x, p: apply_kraus(
        bell_diagonal(p["c1"], p["c2"], p["c3"]), local_channel("amplitude", x, x)),
    "pd-markov": lambda x, p: apply_kraus(
        bell_diagonal(p["c1"], p["c2"], p["c3"]), local_channel("phase", x, x)),
    "jc-nonmarkov": lambda x, p: jc_state(p["alpha"], jc_survival(x, gamma0=1.0, tau=p["tau"])),
    "random-field": lambda x, p: random_field_state(
        bell_mixture(p["w1p"], p["w1m"], p["w2p"], p["w2m"]), x, p["p1"]),
    "sudden-transition": lambda x, p: dephased_bell_diagonal(
        p["c1"], p["c2"], p["c3"], p["gamma"], x),
    "one-sided-pd": _one_sided_state,
}


def test_every_scenario_has_a_scalar_oracle():
    assert sorted(SCALAR_STATE) == sorted(SCENARIO_NAMES)


@pytest.mark.parametrize("length", ["default", "one"])
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_stacked_build_equals_scalar_constructors(name, length):
    # a sweep's one stacked build gives every x the bytes its scalar constructors give alone
    sc = scenarios._REGISTRY[name]
    start, stop, steps = sc.sweep
    xs = np.linspace(start, stop, steps if length == "default" else 1)
    states = sc.build(xs, dict(sc.params))
    assert len(states) == len(xs)
    for x, rho in zip(xs, states):
        alone = SCALAR_STATE[name](float(x), sc.params)
        assert rho.dims == alone.dims and rho.tol == alone.tol
        assert rho.mat.tobytes() == alone.mat.tobytes(), f"{name} at x={x}"


@pytest.mark.parametrize("name, steps", [
    ("pd-markov", 7), ("qubit-ququart", 5), ("werner-qutrit", 5),
    ("jc-nonmarkov", STACK_STATES + 5),
])
def test_run_scenario_rows_equal_per_row_evaluation(name, steps):
    # the sweep's one stacked J search must give every row the report of its state alone
    start, stop, _ = scenario_defaults(name)[0]
    rows = run_scenario(ScenarioSpec(name=name, sweep=(start, stop, steps)))
    sc = scenarios._REGISTRY[name]
    x_obs, z_obs = sc.default_obs()
    assert len(rows) == steps
    for row in rows:
        alone = evaluate_bounds(SCALAR_STATE[name](row.x, sc.params), x_obs, z_obs)
        assert repr(row.report) == repr(alone)


@pytest.mark.parametrize("argv, line", [
    (["pd-markov", "--sweep", "0:1.5:4"],
     "pd-markov at p=1.5: damping probability 1.5 outside [0, 1]"),
    (["ad-markov", "--sweep", "0.5:1.2:3"],
     "ad-markov at p=1.2: damping probability 1.2 outside [0, 1]"),
    (["jc-nonmarkov", "--param", "tau=5"],
     "jc-nonmarkov at gamma0*t=0: weak coupling (gamma0=1.0 <= tau/2=2.5) not supported"),
    (["jc-nonmarkov", "--sweep=-1:0:2"], "jc-nonmarkov at gamma0*t=-1: negative time t=-1.0"),
    (["sudden-transition", "--param", "c1=2"],
     "sudden-transition at gamma*t=0: invalid correlation triple (2.0, -0.6, 0.6):"
     " negative eigenvalue -2.500e-01 below -1e-12"),
    (["sudden-transition", "--param", "gamma=-1"],
     "sudden-transition at gamma*t=0: gamma and t must be nonnegative"),
    (["random-field", "--sweep", "0:1:3", "--param", "p1=1.5"],
     "random-field at g*t=0: p1=1.5 outside [0, 1]"),
    (["werner-qubit", "--sweep", "0:2:3"], "werner-qubit at f=2: f=2.0 outside [0, 1]"),
    (["qubit-qutrit", "--param", "alpha=0.6"],
     "qubit-qutrit at gamma=0: negative weight among alpha=0.6, beta=-0.06666666666666665,"
     " gamma=0.0"),
    (["one-sided-pd", "--param", "b=0.5"],
     "one-sided-pd at p=0: weights b=0.5 and d=0.3 must sum to 1"),
])
def test_sweep_errors_name_the_first_failing_x(capsys, argv, line):
    code, out, err = run_cli(capsys, "scenario", *argv)
    assert (code, out, err) == (1, "", f"usage error: {line}\n")


def test_sweep_error_is_the_first_x_to_fail_any_check():
    # the first check fails from x=0.75 on; x=0.5 passes it but fails the second check
    def build(xs, p):
        require(xs < 0.7, "first check at {}", xs)
        require(xs < 0.3, "second check at {}", xs)
        return []

    sc = scenarios._Scenario(sweep=(0.0, 1.0, 5), params={}, build=build, default_obs=None)
    with pytest.raises(ScenarioError) as info:
        scenarios._build("toy", sc, np.linspace(0.0, 1.0, 5), {})
    assert str(info.value) == "toy at x=0.5: second check at 0.5"


def test_cached_parser_is_reentrant(capsys):
    # one parser serves every call in a process; nothing parsed in one call reaches the next
    argv = ["scenario", "pd-markov", "--sweep", "0:1:2", "--grid", "8"]
    code, out, _ = run_cli(capsys, *argv, "--param", "c1=-0.7")
    assert code == 0 and "# params: c1=-0.7 c2=-0.8 c3=-0.8\n" in out
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "# params: c1=-0.8 c2=-0.8 c3=-0.8\n" in out
    assert "# seed: 0 grid: 8 restarts: 8\n" in out
    code, out, err = run_cli(capsys, "scenario", "pd-markov", "--sweep", "0:1.5:4")
    assert (code, out) == (1, "") and err.startswith("usage error: pd-markov at p=1.5")
    code, out, _ = run_cli(capsys, "scenario", "pd-markov", "--sweep", "0:1:2")
    assert code == 0 and "# seed: 0 grid: 16 restarts: 8\n" in out
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_scenario_runs_and_respects_bounds(name):
    _, _, _, _ = scenario_defaults(name)
    start, stop, _ = scenario_defaults(name)[0]
    cfg = OptimizerConfig(grid_points=32, restarts=4)
    rows = run_scenario(ScenarioSpec(name=name, sweep=(start, stop, 3)), cfg)
    assert len(rows) == 3
    two_qubit = name not in ("werner-qutrit", "isotropic-d3", "qubit-qutrit", "qubit-ququart")
    for row in rows:
        assert row.report.violations() == []
        assert (row.report.concurrence is not None) == two_qubit


def test_verify_qutrit_side():
    from quncert.scenarios import verify

    res = verify(10, (3, 3), seed=5, cfg=OptimizerConfig(restarts=8))
    assert res.ok
    assert res.tolerances["U_b2"] == 1e-3


def evaluate_one_by_one(rhos, xs, zs, cfg=None):
    return [evaluate_bounds(rho, x, z, cfg) for rho, x, z in zip(rhos, xs, zs)]


@pytest.mark.parametrize("dims, n, stack", [((2, 2), STACK_STATES + 3, STACK_STATES),
                                            ((3, 2), 8, 3)])
def test_verify_chunks_equal_per_state_evaluation(monkeypatch, dims, n, stack):
    # verify's chunks cross a boundary at each dims and must give the result of
    # evaluating its states one at a time; a negative U_b1 and single tolerance makes
    # most states violations, so the violation list and worst state are compared too
    monkeypatch.setattr(scenarios, "STACK_STATES", stack)
    monkeypatch.setattr(scenarios, "BOUND_TOL", -1.0)
    stacked = scenarios.verify(n, dims, seed=3)
    monkeypatch.setattr(scenarios, "evaluate_bounds_many", evaluate_one_by_one)
    alone = scenarios.verify(n, dims, seed=3)
    assert stacked.min_slacks == alone.min_slacks
    assert stacked.violations == alone.violations
    assert any(v.startswith(f"state {n - 1}:") for v in stacked.violations)
    assert np.array_equal(stacked.worst_state, alone.worst_state)


@pytest.mark.parametrize("dims", [(2, 1), (2, 4), (3, 1), (3, 3)])
def test_verify_single_slack_is_the_scalar_single_system_route(dims):
    # verify reads its single slack as U_A - 2 S_A from the stacked reports; on
    # verify's own (seed, index) streams each must be H(X) + H(Z) - 2 S(A) of rho_A
    # up to roundoff, which is why the minima agree to 1e-12 and not bit for bit
    n, seed = 8, 7
    rngs = [np.random.default_rng((seed, index)) for index in range(n)]
    rhos = [scenarios.random_density(rng, dims) for rng in rngs]
    xs = [scenarios.random_observable(rng, dims[0]) for rng in rngs]
    zs = [scenarios.random_observable(rng, dims[0]) for rng in rngs]
    stacked, scalar = [], []
    for rho, x, z, r in zip(rhos, xs, zs, evaluate_bounds_many(rhos, xs, zs)):
        rho_a = partial_trace(rho, "A")
        stacked.append(r.U_A - 2.0 * r.S_A)
        scalar.append(uncertainty_sum(rho_a, x, z) - single_system_bound(
            rho_a, observable_measurement(x), observable_measurement(z)))
        assert abs(stacked[-1] - scalar[-1]) <= 1e-12
    single = scenarios.verify(n, dims, seed=seed).min_slacks["single"]
    assert single == min(stacked) and abs(single - min(scalar)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_random_observable_draws_one_candidate(monkeypatch, d):
    # verify's (seed, index) streams and the zero-discord inputs rest on one draw per observable
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    for seed in range(20):
        rng, fresh = np.random.default_rng((seed, d)), np.random.default_rng((seed, d))
        obs = scenarios.random_observable(rng, d)
        g = fresh.normal(size=(d, d)) + 1j * fresh.normal(size=(d, d))
        assert np.array_equal(obs.mat, (g + g.conj().T) / 2.0)
        assert rng.bit_generator.state == fresh.bit_generator.state
    assert calls == {"eigh": 20, "eigvalsh": 0}


def test_ad_markov_at_zero_matches_static_state():
    from quncert.bounds import evaluate_bounds
    from quncert.observables import pauli_observable
    from quncert.states import bell_diagonal

    rows = run_scenario(ScenarioSpec(name="ad-markov", sweep=(0.0, 0.0, 1)))
    static = evaluate_bounds(
        bell_diagonal(-0.8, -0.8, -0.8), pauli_observable(1), pauli_observable(2)
    )
    row = rows[0].report
    for name in ("U", "U_b1", "U_b2", "U_b3", "mutual", "classical", "discord"):
        assert abs(getattr(row, name) - getattr(static, name)) < 1e-8
