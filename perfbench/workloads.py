"""The seeded workloads and the checks on their outputs.

Unit k of a workload always gets the same inputs for the same seed, drawn from
``numpy.random.default_rng((seed, k))``. The program sees only those inputs:
CLI arguments, or states and observables. Each unit returns its timed program
calls, with the failures its checks found, and the states it evaluated that
have an exact classical-correlation reference.

The program is called through module attributes (``cli.main``,
``bounds.evaluate_bounds``) so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import math
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from measure import Call, Ref, min_samples, reference_agrees
from quncert import bounds, cli, scenarios
from quncert.channels import apply_kraus, dephased_bell_diagonal, local_channel
from quncert.correlations import bell_diagonal_classical_closed, holevo_quantity
from quncert.entropy import ProjectiveMeasurement, mutual_information
from quncert.linalg import PAULIS, kron, validate_density
from quncert.states import bell_diagonal

# Documented accuracy of the optimizer on Bell-diagonal states
# (correlations.bell_diagonal_classical_closed).
BELL_J_TOL = 1e-5
# J is a maximum over measurements, so it cannot exceed I(A:B) beyond roundoff.
ABOVE_REF_TOL = 1e-10
EXIT_KINDS = {2: "bound", 3: "numerical"}


def no_span(states: int):
    return nullcontext()


def j_tolerance() -> dict[int, float]:
    """The package's own allowance for a J shortfall, per measured side dA.

    It is the U_b2 tolerance of ``scenarios.verify``, read with zero states so
    that nothing is evaluated.
    """
    return {d: scenarios.verify(0, (d, 2)).tolerances["U_b2"] for d in (2, 3)}


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng((seed, k))


def _run_cli(argv: list[str], states: int, span) -> Call:
    with span(states):
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        ms = (perf_counter() - t0) * 1e3
    call = Call(ms=ms, states=states)
    if code:
        call.failures.append(f"{EXIT_KINDS.get(code, 'exit')}: quncert {' '.join(argv)} exited {code}")
    return call


def _bell_triple(rng: np.random.Generator) -> tuple[float, float, float]:
    """Correlation triple of a random mixture of the four Bell states."""
    w = rng.dirichlet(np.ones(4))
    # rows: Phi+, Phi-, Psi+, Psi- as (<XX>, <YY>, <ZZ>)
    signs = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])
    return tuple(float(c) for c in w @ signs)


def _correlation_triple(mat: np.ndarray) -> tuple[float, float, float]:
    return tuple(float(np.trace(mat @ kron(s, s)).real) for s in PAULIS)


class SweepQubit:
    """`quncert scenario` sweeps of the paper's two-qubit X-state dynamics.

    Each unit runs one short sweep twice; the rerun must write the same bytes.
    Rows of the Bell-diagonal scenarios are checked against the closed-form J,
    with the triple read back from the evolved state.
    """

    name = "sweep-qubit"
    SCENARIOS = ("pd-markov", "sudden-transition", "jc-nonmarkov")
    ROWS = 6
    cycle = len(SCENARIOS)
    corpus_units = cycle * math.ceil(min_samples(90) / (2 * cycle))
    trace_units = 3

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.out = (scratch / "sweep-a.csv", scratch / "sweep-b.csv")

    def inputs(self, k: int) -> tuple[str, dict[str, float]]:
        rng = _rng(self.seed, k)
        name = self.SCENARIOS[k % self.cycle]
        if name == "jc-nonmarkov":
            return name, {"alpha": float(rng.uniform(0.0, 1.0))}
        params = dict(zip(("c1", "c2", "c3"), _bell_triple(rng)))
        if name == "sudden-transition":
            params["gamma"] = float(rng.uniform(0.5, 2.0))
        return name, params

    def _state(self, name, params, x):
        c = (params["c1"], params["c2"], params["c3"])
        if name == "pd-markov":
            return apply_kraus(bell_diagonal(*c), local_channel("phase", x, x))
        return dephased_bell_diagonal(*c, params["gamma"], x)

    def run_unit(self, k: int, span=no_span) -> tuple[list[Call], list[Ref]]:
        name, params = self.inputs(k)
        start, stop, _ = scenarios.scenario_defaults(name)[0]
        argv = ["scenario", name, "--sweep", f"{start!r}:{stop!r}:{self.ROWS}"]
        for key, value in params.items():
            argv += ["--param", f"{key}={value!r}"]
        first = _run_cli(argv + ["--out", str(self.out[0])], self.ROWS, span)
        rerun = _run_cli(argv + ["--out", str(self.out[1])], self.ROWS, span)
        if first.failures or rerun.failures:
            return [first, rerun], []
        text = self.out[0].read_text(encoding="utf-8")
        if text != self.out[1].read_text(encoding="utf-8"):
            rerun.failures.append(f"rerun: CSV of unit {k} ({name}) differs on rerun")
        if name == "jc-nonmarkov":
            return [first, rerun], []
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#") and not line.startswith("x,")]
        if len(rows) != self.ROWS:
            first.failures.append(f"rows: unit {k} wrote {len(rows)} rows, expected {self.ROWS}")
            return [first, rerun], []
        refs = []
        for x, row in zip(np.linspace(start, stop, self.ROWS), rows):
            mat = self._state(name, params, float(x)).mat
            ref = Ref((2, 2), bell_diagonal_classical_closed(*_correlation_triple(mat)), float(row[7]))
            if abs(ref.shortfall) > BELL_J_TOL:
                first.failures.append(
                    f"closed-form: {name} x={x:.6g} J={ref.j:.9g} vs closed form {ref.j_ref:.9g}"
                )
            refs.append(ref)
        return [first, rerun], refs


class Verify:
    """`quncert verify` calls that cycle through a fixed list of dims (traced round only)."""

    def __init__(self, name: str, seed: int, dims: tuple[tuple[int, int], ...], n: int):
        self.name, self.seed, self.dims, self.n = name, seed, dims, n
        self.cycle = len(dims)
        self.trace_units = 2 * self.cycle

    def inputs(self, k: int) -> list[str]:
        d_a, d_b = self.dims[k % self.cycle]
        verify_seed = int(_rng(self.seed, k).integers(2**31))
        return ["verify", "--n", str(self.n), "--dims", f"{d_a},{d_b}", "--seed", str(verify_seed)]

    def run_unit(self, k: int, span=no_span) -> tuple[list[Call], list[Ref]]:
        return [_run_cli(self.inputs(k), self.n, span)], []


class ZeroDiscord:
    """One `evaluate_bounds` call per classical-quantum state.

    rho = sum_k p_k |e_k><e_k| (x) sigma_k with a Haar-random basis {e_k} of A,
    Dirichlet weights p and Hilbert-Schmidt-random sigma_k. Measuring A in
    {e_k} attains I(A:B), so J_ref = I(A:B), and this is checked per state.
    """

    name = "zero-discord"
    QUTRIT = ((3, 2), (3, 3), (3, 4))
    # Latency grows with dims: (2,2) < (2,3) < (2,4) << qutrit A. In a cycle of
    # 18 states, (2,4) makes up the middle third of the latencies and qutrit A
    # the top third, so p50 lies in the middle of the (2,4) cluster and p90
    # inside the qutrit-A cluster, never on a gap between two clusters.
    DIMS = 3 * ((2, 2), (2, 3), (2, 4), (2, 4)) + 2 * QUTRIT
    cycle = len(DIMS)
    corpus_units = 8 * cycle  # 16 states of each qutrit-A dims
    trace_units = corpus_units

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, k: int):
        d_a, d_b = self.DIMS[k % self.cycle]
        rng = _rng(self.seed, k)
        g = rng.normal(size=(d_a, d_a)) + 1j * rng.normal(size=(d_a, d_a))
        q, r = np.linalg.qr(g)
        basis = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        p = rng.dirichlet(np.ones(d_a))
        mat = sum(
            p[i] * kron(np.outer(basis[:, i], basis[:, i].conj()),
                        scenarios.random_density(rng, (d_b, 1)).mat)
            for i in range(d_a)
        )
        rho = validate_density(mat, (d_a, d_b))
        x = scenarios.random_observable(rng, d_a)
        z = scenarios.random_observable(rng, d_a)
        return rho, basis, x, z

    def run_unit(self, k: int, span=no_span) -> tuple[list[Call], list[Ref]]:
        rho, basis, x, z = self.inputs(k)
        j_ref = mutual_information(rho)
        call = Call(ms=0.0, states=1)
        in_basis = holevo_quantity(rho, ProjectiveMeasurement.from_basis(basis))
        if not reference_agrees(in_basis, j_ref):
            call.failures.append(f"reference: state {k} basis gives {in_basis!r}, I = {j_ref!r}")
        with span(1):
            t0 = perf_counter()
            try:
                report = bounds.evaluate_bounds(rho, x, z)
            except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
                report = None
                call.failures.append(f"numerical: state {k}: {exc}")
            call.ms = (perf_counter() - t0) * 1e3
        if report is None:
            return [call], []
        call.failures.extend(f"bound: state {k}: {v}" for v in report.violations())
        ref = Ref(rho.dims, j_ref, report.classical)
        if ref.shortfall < -ABOVE_REF_TOL:
            call.failures.append(f"above-reference: state {k} J exceeds I by {-ref.shortfall:.3e}")
        return [call], [ref]


def make(name: str, seed: int, scratch: Path):
    if name == "sweep-qubit":
        return SweepQubit(seed, scratch)
    if name == "verify-qubit":
        return Verify(name, seed, ((2, 2), (2, 3), (2, 4)), n=4)
    if name == "verify-qutrit":
        return Verify(name, seed, ((3, 3), (3, 4)), n=1)
    if name == "zero-discord":
        return ZeroDiscord(seed)
    raise ValueError(f"unknown workload {name!r}")
