"""Independent references that the test suite holds the program against.

None of these is called by the package. Each builds its result by a route
separate from the stacked kernels of :mod:`quncert.entropy` and
:mod:`quncert.correlations`: :func:`measure_on_A` forms every branch and the
post-measurement state explicitly, :func:`shannon` checks and sums one
distribution, :func:`concurrence_x` reads the X-state closed form, and the two
damping maps are written out entry by entry. ``tests/test_package.py`` keeps
them off the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quncert.bounds import Observable
from quncert.channels import CHANNEL_TOL
from quncert.correlations import _check_two_qubit
from quncert.entropy import PROB_TOL, ProjectiveMeasurement, spectrum_entropies, von_neumann
from quncert.linalg import DensityMatrix, kron, ptrace_mat, validate_density

NEGLIGIBLE_OUTCOME = 1e-14
X_FORM_TOL = 1e-10


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Reduced state on the kept subsystem, returned with a trivial dB = 1 split."""
    red = ptrace_mat(rho.mat, rho.dims, keep)
    d = rho.dA if keep == "A" else rho.dB
    return validate_density(red, (d, 1), tol=max(rho.tol, 1e-12))


def shannon(probs, tol: float = PROB_TOL) -> float:
    """Shannon entropy in bits of a probability distribution; NaN entries are rejected."""
    p = np.asarray(probs, dtype=float)
    # negated, so that a NaN, which fails every comparison, fails the check
    if not (p.min(initial=0.0) >= -tol and p.max(initial=0.0) <= 1.0 + tol):
        raise ValueError(f"probabilities outside [0, 1]: {p}")
    if not abs(p.sum() - 1.0) <= tol:
        raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
    return float(spectrum_entropies(p))


@dataclass(frozen=True)
class MeasurementOutcome:
    """Outcome probabilities, conditional memory states, and the post-measurement state."""

    probs: np.ndarray
    conditional_states: tuple[DensityMatrix, ...]
    post_state: DensityMatrix


def measure_on_A(rho: DensityMatrix, meas: ProjectiveMeasurement) -> MeasurementOutcome:
    """Apply a projective measurement to subsystem A without reading the result.

    Outcomes with probability below 1e-14 get the maximally mixed conditional
    state by convention; their weight in any entropy average is negligible.
    Each branch is built and validated explicitly, so the test suite uses this
    as the independent reference for :func:`branch_spectra`.
    """
    dA, dB = rho.dims
    if meas.dim != dA:
        raise ValueError(f"measurement acts on dimension {meas.dim}, state has dA={dA}")
    eye_b = np.eye(dB, dtype=complex)
    probs = np.empty(len(meas))
    conditionals = []
    post = np.zeros_like(rho.mat)
    for i, proj in enumerate(meas.projectors):
        op = kron(proj, eye_b)
        branch = op @ rho.mat @ op
        post = post + branch
        b = ptrace_mat(branch, rho.dims, "B")
        p = float(np.trace(b).real)
        probs[i] = p
        if p < NEGLIGIBLE_OUTCOME:
            cond = validate_density(eye_b / dB, (dB, 1), tol=1e-12)
        else:
            cond = validate_density(b / p, (dB, 1), tol=max(rho.tol, 1e-12))
        conditionals.append(cond)
    probs.setflags(write=False)
    post_state = validate_density(post, rho.dims, tol=max(rho.tol, 1e-12))
    return MeasurementOutcome(
        probs=probs, conditional_states=tuple(conditionals), post_state=post_state
    )


def observable_measurement(obs: Observable) -> ProjectiveMeasurement:
    """Rank-1 eigenprojectors of a non-degenerate observable, built and checked per call."""
    return ProjectiveMeasurement.from_basis(obs.basis)


def _max_element_trace(povm, d: int, tol: float = 1e-9) -> float:
    """The largest element trace of a POVM on dimension d, after checking that it is one."""
    if isinstance(povm, ProjectiveMeasurement):
        povm = povm.projectors
    elements = [np.asarray(e, dtype=complex) for e in povm]
    if not elements:
        raise ValueError("POVM has no elements")
    traces = []
    for e in elements:
        if e.shape != (d, d):
            raise ValueError(f"POVM element is {'x'.join(map(str, e.shape))}, state has d={d}")
        if np.abs(e - e.conj().T).max() > tol:
            raise ValueError("POVM element is not Hermitian")
        if np.linalg.eigvalsh(e).min() < -tol:
            raise ValueError("POVM element is not positive semidefinite")
        traces.append(float(np.trace(e).real))
    if np.abs(sum(elements) - np.eye(d)).max() > tol:
        raise ValueError("POVM elements do not sum to the identity")
    return max(traces)


def single_system_bound(rho_a: DensityMatrix, x_povm, z_povm) -> float:
    """Single-system bound log2(1/c(X)) + log2(1/c(Z)) + 2*S(A).

    c(X) is the largest element trace; with rank-1 projective inputs it is 1
    and the bound reduces to 2*S(A).
    """
    if 1 not in rho_a.dims:
        raise ValueError(f"expected a single-system state, got dims {rho_a.dims}")
    d = rho_a.mat.shape[0]
    c_x = _max_element_trace(x_povm, d)
    c_z = _max_element_trace(z_povm, d)
    return float(-np.log2(c_x) - np.log2(c_z) + 2.0 * von_neumann(rho_a))


def ad_closed_form(c1: float, c2: float, c3: float, p: float) -> DensityMatrix:
    """Bell-diagonal initial state after two-sided amplitude damping, explicitly."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    q = 1.0 - p
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = (1.0 + p) ** 2 + q * q * c3
    mat[1, 1] = mat[2, 2] = ((1.0 - c3) + (1.0 + c3) * p) * q
    mat[3, 3] = q * q * (1.0 + c3)
    mat[0, 3] = mat[3, 0] = q * (c1 - c2)
    mat[1, 2] = mat[2, 1] = q * (c1 + c2)
    return validate_density(mat / 4.0, (2, 2), tol=CHANNEL_TOL)


def pd_closed_form(c1: float, c2: float, c3: float, p: float) -> DensityMatrix:
    """Bell-diagonal initial state after two-sided phase damping.

    Populations are untouched; both coherences pick up one factor (1 - p),
    i.e. the correlation triple becomes (c1*(1-p), c2*(1-p), c3).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    q = 1.0 - p
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[3, 3] = 1.0 + c3
    mat[1, 1] = mat[2, 2] = 1.0 - c3
    mat[0, 3] = mat[3, 0] = q * (c1 - c2)
    mat[1, 2] = mat[2, 1] = q * (c1 + c2)
    return validate_density(mat / 4.0, (2, 2), tol=CHANNEL_TOL)


def concurrence_x(rho: DensityMatrix) -> float:
    """Concurrence of an X-form state: 2*max{0, |r14|-sqrt(r22 r33), |r23|-sqrt(r11 r44)}."""
    _check_two_qubit(rho)
    m = rho.mat
    off = np.abs(m).copy()
    off[np.arange(4), np.arange(4)] = 0.0
    off[0, 3] = off[3, 0] = off[1, 2] = off[2, 1] = 0.0
    if off.max() > X_FORM_TOL:
        raise ValueError(f"state is not in X form (off-pattern entry {off.max():.3e})")
    d = m.diagonal().real
    lam1 = abs(m[0, 3]) - np.sqrt(max(d[1] * d[2], 0.0))
    lam2 = abs(m[1, 2]) - np.sqrt(max(d[0] * d[3], 0.0))
    return float(2.0 * max(0.0, lam1, lam2))
