"""Named parameter sweeps reproducing the published figure data, a randomized
inequality verifier, and a small state-spec grammar for the inspector.

Every sweep row is a full bound evaluation; rows are deterministic for a
fixed seed and are checked against the bound inequalities before they are
emitted. A sweep builds all of its states as one stack, in one call of its
state family or channel on the array of x, and then evaluates them with one
:func:`quncert.bounds.evaluate_bounds_many` call, whose lock-step J search and
stacked report give every row the values its state gets alone. The
verifier draws its states and their own observables in chunks of
``STACK_STATES`` and evaluates each chunk with one such call, whose reports
carry all four of its slacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import (
    BOUND_TOL,
    BOUND_TOL_OPT,
    STACK_STATES,
    BoundReport,
    Observable,
    evaluate_bounds_many,
)
from .channels import (
    apply_kraus,
    jc_survival,
    jc_state,
    local_channel,
    dephased_bell_diagonal,
    random_field_state,
)
from .correlations import OptimizerConfig
from .linalg import DensityMatrix, validate_density
from .observables import bundled_observable, pauli_observable, su3_pair
from .states import (
    bell_diagonal,
    bell_like,
    bell_mixture,
    isotropic,
    qubit_qudit,
    werner,
)


# A sweep holds every state before it evaluates any, so its length bounds memory;
# the longest default sweep has 600 steps.
MAX_SWEEP_STEPS = 100_000


class ScenarioError(ValueError):
    """Invalid scenario name, sweep, or parameter."""


@dataclass(frozen=True)
class ScenarioSpec:
    """A named sweep with optional parameter and observable overrides."""

    name: str
    sweep: tuple[float, float, int] | None = None
    params: dict[str, float] = field(default_factory=dict)
    observables: tuple[Observable, Observable] | None = None


@dataclass(frozen=True)
class TimeSeriesRow:
    x: float
    report: BoundReport


@dataclass(frozen=True)
class _Scenario:
    sweep: tuple[float, float, int]
    params: dict[str, float]
    build: Callable[[np.ndarray, dict[str, float]], list[DensityMatrix]]
    default_obs: Callable[[], tuple[Observable, Observable]]
    sweep_label: str = "x"
    notes: tuple[str, ...] = ()


def _build_damped(kind: str):
    """The builder of a Bell-diagonal state under two-sided damping of one kind."""
    return lambda x, p: apply_kraus(bell_diagonal(p["c1"], p["c2"], p["c3"]),
                                    local_channel(kind, x, x))


def _build_one_sided_pd(x, p):
    b, r, d = p["b"], p["r"], p["d"]
    if abs(b + d - 1.0) > 1e-9:
        raise ScenarioError(f"weights b={b} and d={d} must sum to 1")
    rho0 = bell_mixture(b * r, d * (1.0 - r), d * r, b * (1.0 - r))
    return apply_kraus(rho0, local_channel("phase", x, 0.0))


_PD_COHERENCE_NOTE = "phase damping scales each coherence by (1-p); derived from the Kraus product channel"
_FIELD_WEIGHTS_NOTE = "random-field map uses product weights p_j*p_k (uniform 1/4 only at p1=1/2)"
_ONE_SIDED_STATE_NOTE = "initial Bell weights read as (b*R, d*(1-R), d*R, b*(1-R)) to give unit trace"

_REGISTRY: dict[str, _Scenario] = {
    "werner-qubit": _Scenario(
        sweep=(0.0, 1.0, 101),
        params={},
        build=lambda x, p: werner(2, x),
        default_obs=lambda: (pauli_observable(1), pauli_observable(3)),
        sweep_label="f",
    ),
    "werner-qutrit": _Scenario(
        sweep=(0.0, 1.0, 101),
        params={},
        build=lambda x, p: werner(3, x),
        default_obs=su3_pair,
        sweep_label="f",
    ),
    "isotropic-d2": _Scenario(
        sweep=(0.0, 1.0, 101),
        params={},
        build=lambda x, p: isotropic(2, x),
        default_obs=lambda: (bundled_observable("x1"), bundled_observable("z1")),
        sweep_label="f",
    ),
    "isotropic-d3": _Scenario(
        sweep=(0.0, 1.0, 101),
        params={},
        build=lambda x, p: isotropic(3, x),
        default_obs=lambda: (bundled_observable("x2"), bundled_observable("z2")),
        sweep_label="f",
    ),
    "qubit-qutrit": _Scenario(
        sweep=(0.0, 0.5, 101),
        params={"alpha": 0.25},
        build=lambda x, p: qubit_qudit(p["alpha"], x, kind="qutrit"),
        default_obs=lambda: (bundled_observable("x3"), bundled_observable("z3")),
        sweep_label="gamma",
    ),
    "qubit-ququart": _Scenario(
        sweep=(0.0, 0.6, 101),
        params={"alpha": 0.1},
        build=lambda x, p: qubit_qudit(p["alpha"], x, kind="ququart"),
        default_obs=lambda: (bundled_observable("x4"), bundled_observable("z4")),
        sweep_label="gamma",
    ),
    "ad-markov": _Scenario(
        sweep=(0.0, 1.0, 201),
        params={"c1": -0.8, "c2": -0.8, "c3": -0.8},
        build=_build_damped("amplitude"),
        default_obs=lambda: (pauli_observable(1), pauli_observable(2)),
        sweep_label="p",
    ),
    "pd-markov": _Scenario(
        sweep=(0.0, 1.0, 201),
        params={"c1": -0.8, "c2": -0.8, "c3": -0.8},
        build=_build_damped("phase"),
        default_obs=lambda: (pauli_observable(1), pauli_observable(3)),
        sweep_label="p",
        notes=(_PD_COHERENCE_NOTE,),
    ),
    "jc-nonmarkov": _Scenario(
        sweep=(0.0, 30.0, 600),
        params={"alpha": 1.0 / math.sqrt(10.0), "tau": 0.01},
        build=lambda x, p: jc_state(p["alpha"], jc_survival(x, gamma0=1.0, tau=p["tau"])),
        default_obs=lambda: (pauli_observable(1), pauli_observable(3)),
        sweep_label="gamma0*t",
    ),
    "random-field": _Scenario(
        sweep=(0.0, 4.0 * math.pi, 400),
        params={"w1p": 0.9, "w1m": 0.1, "w2p": 0.0, "w2m": 0.0, "p1": 0.025},
        build=lambda x, p: random_field_state(
            bell_mixture(p["w1p"], p["w1m"], p["w2p"], p["w2m"]), x, p["p1"]),
        default_obs=lambda: (pauli_observable(1), pauli_observable(3)),
        sweep_label="g*t",
        notes=(_FIELD_WEIGHTS_NOTE,),
    ),
    "sudden-transition": _Scenario(
        sweep=(0.0, 1.5, 300),
        params={"c1": 1.0, "c2": -0.6, "c3": 0.6, "gamma": 1.0},
        build=lambda x, p: dephased_bell_diagonal(p["c1"], p["c2"], p["c3"], p["gamma"], x),
        default_obs=lambda: (pauli_observable(1), pauli_observable(3)),
        sweep_label="gamma*t",
        notes=(_PD_COHERENCE_NOTE,),
    ),
    "one-sided-pd": _Scenario(
        sweep=(0.0, 1.0, 201),
        params={"b": 0.7, "r": 0.7, "d": 0.3},
        build=_build_one_sided_pd,
        default_obs=lambda: (pauli_observable(1), pauli_observable(3)),
        sweep_label="p",
        notes=(_PD_COHERENCE_NOTE, _ONE_SIDED_STATE_NOTE),
    ),
}

SCENARIO_NAMES = tuple(_REGISTRY)


def _scenario(name: str) -> _Scenario:
    if name not in _REGISTRY:
        raise ScenarioError(f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}")
    return _REGISTRY[name]


def scenario_defaults(name: str) -> tuple[tuple[float, float, int], dict[str, float], tuple[str, ...], str]:
    sc = _scenario(name)
    return sc.sweep, dict(sc.params), sc.notes, sc.sweep_label


def run_scenario(spec: ScenarioSpec, cfg: OptimizerConfig | None = None) -> list[TimeSeriesRow]:
    """Evaluate the named scenario over its sweep; rows come back ordered by x."""
    sc = _scenario(spec.name)
    params = dict(sc.params)
    for key, value in spec.params.items():
        if key not in params:
            raise ScenarioError(f"scenario {spec.name!r} takes no parameter {key!r}")
        params[key] = value
    start, stop, steps = spec.sweep or sc.sweep
    if steps < 1 or not (math.isfinite(start) and math.isfinite(stop)) or stop < start:
        raise ScenarioError(f"invalid sweep ({start}, {stop}, {steps})")
    if steps > MAX_SWEEP_STEPS:
        raise ScenarioError(f"sweep of {steps} steps; need at most {MAX_SWEEP_STEPS}")
    obs = spec.observables or sc.default_obs()
    xs = np.linspace(start, stop, steps)
    states = _build(spec.name, sc, xs, params)
    reports = evaluate_bounds_many(states, [obs[0]] * steps, [obs[1]] * steps, cfg)
    return [TimeSeriesRow(x=float(x), report=report) for x, report in zip(xs, reports)]


def _build(name: str, sc: _Scenario, xs: np.ndarray, params: dict) -> list[DensityMatrix]:
    """The sweep's states, or the error of the first x whose state fails a check alone."""
    try:
        return sc.build(xs, params)
    except ValueError as exc:
        at = getattr(exc, "index", 0)
        if at:  # each check runs over the whole stack first: an earlier x may fail a later one
            _build(name, sc, xs[:at], params)
        raise ScenarioError(f"{name} at {sc.sweep_label}={xs[at]:g}: {exc}") from None


# ---------------------------------------------------------------------------
# randomized verifier

def random_density(rng: np.random.Generator, dims: tuple[int, int]) -> DensityMatrix:
    """Hilbert-Schmidt-distributed random state via a normalized Gaussian square."""
    d = dims[0] * dims[1]
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = g @ g.conj().T
    return validate_density(mat / np.trace(mat).real, dims, tol=1e-9)


def random_observable(rng: np.random.Generator, d: int) -> Observable:
    """Random Hermitian (g + g^+)/2 of one complex Gaussian g; a degenerate draw raises ValueError."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return Observable((g + g.conj().T) / 2.0)


@dataclass(frozen=True)
class VerifyResult:
    n_states: int
    dims: tuple[int, int]
    seed: int
    min_slacks: dict[str, float]
    tolerances: dict[str, float]
    violations: list[str]
    worst_state: np.ndarray | None

    @property
    def ok(self) -> bool:
        return not self.violations


def verify(
    n_states: int,
    dims: tuple[int, int],
    seed: int = 0,
    cfg: OptimizerConfig | None = None,
) -> VerifyResult:
    """Fuzz the three memory-assisted bounds and the single-system bound.

    Random states are paired with random non-degenerate observables; per-state
    RNG streams derive from (seed, index) so any evaluation order gives the
    same result. The states go in chunks of STACK_STATES, one
    evaluate_bounds_many call each, whose reports give all four slacks. The
    single-system check is U_A = H(X) + H(Z) >= 2*S(A): an observable's
    eigenprojectors have rank 1, so c(X) = c(Z) = 1 in the bound
    single_system_bound of tests/oracles.py.
    """
    dA, dB = dims
    if dA not in (2, 3):
        raise ScenarioError(f"unsupported measured-side dimension dA={dA}")
    if not 1 <= dB <= 4:
        raise ScenarioError(f"unsupported memory dimension dB={dB}")
    if n_states < 0:
        raise ScenarioError(f"n_states must be non-negative, got {n_states}")
    opt_tol = BOUND_TOL_OPT if dA == 2 else 1e-3
    tolerances = {"U_b1": BOUND_TOL, "U_b2": opt_tol, "U_b3": opt_tol, "single": BOUND_TOL}
    slacks = {k: np.inf for k in tolerances}
    violations: list[str] = []
    worst: np.ndarray | None = None
    worst_slack = np.inf
    for lo in range(0, n_states, STACK_STATES):
        chunk = range(lo, min(lo + STACK_STATES, n_states))
        rngs = [np.random.default_rng((seed, index)) for index in chunk]
        rhos = [random_density(rng, dims) for rng in rngs]
        xs = [random_observable(rng, dA) for rng in rngs]
        zs = [random_observable(rng, dA) for rng in rngs]
        reports = evaluate_bounds_many(rhos, xs, zs, cfg)
        for index, rho, r in zip(chunk, rhos, reports):
            here = {"U_b1": r.U - r.U_b1, "U_b2": r.U - r.U_b2, "U_b3": r.U - r.U_b3,
                    "single": r.U_A - 2.0 * r.S_A}
            for key, slack in here.items():
                slacks[key] = min(slacks[key], slack)
                if slack < -tolerances[key]:
                    violations.append(f"state {index}: {key} violated by {-slack:.3e}")
                    if slack < worst_slack:
                        worst_slack = slack
                        worst = rho.mat
    return VerifyResult(n_states=n_states, dims=dims, seed=seed, min_slacks=slacks,
                        tolerances=tolerances, violations=violations, worst_state=worst)


# ---------------------------------------------------------------------------
# state-spec grammar:  name:key=value,key=value

_STATE_BUILDERS: dict[str, tuple[tuple[str, ...], Callable[..., DensityMatrix]]] = {
    "werner": (("d", "f"), lambda d, f: werner(int(d), f)),
    "isotropic": (("d", "f"), lambda d, f: isotropic(int(d), f)),
    "bell-diagonal": (("c1", "c2", "c3"), bell_diagonal),
    "bell-like": (("alpha",), bell_like),
    "bell-mixture": (("w1p", "w1m", "w2p", "w2m"), bell_mixture),
    "qubit-qutrit": (("alpha", "gamma"), lambda alpha, gamma: qubit_qudit(alpha, gamma, "qutrit")),
    "qubit-ququart": (("alpha", "gamma"), lambda alpha, gamma: qubit_qudit(alpha, gamma, "ququart")),
}


class StateSpecError(ValueError):
    """Raised with a 1-based column pointing at the offending text."""


def parse_state_spec(text: str) -> DensityMatrix:
    """Build a state from a spec like ``werner:d=2,f=0.8``."""
    head, sep, rest = text.partition(":")
    name = head.strip()
    if name not in _STATE_BUILDERS:
        raise StateSpecError(
            f"column 1: unknown state family {name!r}; choose from {', '.join(_STATE_BUILDERS)}"
        )
    keys, builder = _STATE_BUILDERS[name]
    if not sep:
        raise StateSpecError(f"column {len(text) + 1}: expected ':' and parameters after {name!r}")
    values: dict[str, float] = {}
    cursor = len(head) + 1
    for chunk in rest.split(","):
        key, eq, val = chunk.partition("=")
        key = key.strip()
        if not eq or not key:
            raise StateSpecError(f"column {cursor + 1}: expected key=value, got {chunk!r}")
        if key not in keys:
            raise StateSpecError(
                f"column {cursor + 1}: unknown parameter {key!r} for {name} (takes {', '.join(keys)})"
            )
        if key in values:
            raise StateSpecError(f"column {cursor + 1}: parameter {key!r} given twice")
        col = cursor + len(key) + 2
        try:
            values[key] = float(val)
        except ValueError:
            raise StateSpecError(f"column {col}: cannot parse number {val.strip()!r}") from None
        if not math.isfinite(values[key]):
            raise StateSpecError(f"column {col}: {key} must be finite, got {val.strip()!r}")
        if key == "d" and not values[key].is_integer():
            raise StateSpecError(f"column {col}: {key} must be an integer, got {val.strip()!r}")
        cursor += len(chunk) + 1
    missing = [k for k in keys if k not in values]
    if missing:
        raise StateSpecError(f"column {len(text) + 1}: missing parameters {', '.join(missing)}")
    try:
        return builder(**values)
    except ValueError as exc:
        raise StateSpecError(f"column 1: {exc}") from None
