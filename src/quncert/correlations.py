"""Classical correlation via optimization over local projective measurements,
quantum discord, and two-qubit concurrence.

The classical correlation is the maximum Holevo quantity over rank-1
projective measurements on subsystem A. One search serves qubit and qutrit A:
it scores every start with one :func:`quncert.entropy.branch_spectra` call and
refines the best of them with one coordinate-wise golden-section routine, in
which the refined starts advance in lock-step: each golden-section step
evaluates one new point per start in one kernel call. For a qubit A the starts
are a Bloch-angle grid that lists each measurement once (n and -n are the same
measurement, so theta covers only the first half of its range, and the pole
theta = 0 appears once, at phi = 0) and only the best grid point is refined;
for a qutrit A the basis is parameterized by eight rotation-generator
coefficients and every seeded start is refined, since that landscape is not
convex. The returned value is a certified lower estimate of the projective
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import ProjectiveMeasurement, branch_spectra, entropy_of_spectrum
from .entropy import mutual_information, xlog2x
from .linalg import PAULI_Y, PAULIS, DensityMatrix, kron, ptrace_mat

GOLDEN = float((np.sqrt(5.0) - 1.0) / 2.0)
DISCORD_NOISE = 1e-6
X_FORM_TOL = 1e-10

# Generators of 3x3 special-unitary rotations (traceless Hermitian basis).
_GELL_MANN = []
for _i, _j in ((0, 1), (0, 2), (1, 2)):
    _m = np.zeros((3, 3), dtype=complex)
    _m[_i, _j] = _m[_j, _i] = 1
    _GELL_MANN.append(_m)
    _m = np.zeros((3, 3), dtype=complex)
    _m[_i, _j] = -1j
    _m[_j, _i] = 1j
    _GELL_MANN.append(_m)
_GELL_MANN.append(np.diag([1.0, -1.0, 0.0]).astype(complex))
_GELL_MANN.append(np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(3.0))
_GELL_MANN = np.array(_GELL_MANN)

# Stacked Paulis, so n.sigma is one matmul, and the two halves of (1 +- n.sigma)/2.
_PAULI_ROWS = np.array(PAULIS).reshape(3, 4)
_HALF_EYE = np.eye(2) / 2.0
_HALF_SIGNS = np.array([0.5, -0.5])[:, None, None]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the classical-correlation search; defaults favor accuracy."""

    grid_points: int = 64
    refine_iters: int = 200
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.grid_points < 2 or self.refine_iters < 1 or self.restarts < 1:
            raise ValueError(f"need grid_points >= 2, refine_iters >= 1, restarts >= 1: {self}")


def _memory_entropy(rho: DensityMatrix) -> float:
    return entropy_of_spectrum(np.linalg.eigvalsh(ptrace_mat(rho.mat, rho.dims, "B")))


def _holevo(s_b: float, mu: np.ndarray):
    """S(B) - sum_k p_k S(rho_B|k) from branch spectra mu of shape (..., K, dB).

    Uses the unnormalised-spectrum identity p S(rho_B|k) = -sum mu log2 mu + p log2 p.
    """
    return s_b + xlog2x(mu).sum(axis=(-2, -1)) - xlog2x(mu.sum(axis=-1)).sum(axis=-1)


def holevo_quantity(rho: DensityMatrix, meas: ProjectiveMeasurement) -> float:
    """S(rho_B) - sum_j p_j S(rho_B|j) for a measurement on A."""
    return float(_holevo(_memory_entropy(rho), branch_spectra(rho, meas.projectors)))


def _golden_max(f, lo, hi, iters: int):
    """Golden-section maximization on the intervals [lo[l], hi[l]], all lanes in lock-step.

    f maps an array holding one point per lane to their values; it is called
    once per step for all lanes. Each lane makes the same comparisons and
    updates as a search of its own. The brackets are Python floats, which for
    the few lanes of a search cost less than array bookkeeping. Returns the
    best point and value of each lane as two lists.
    """
    a, b = list(lo), list(hi)
    x1 = [bl - GOLDEN * (bl - al) for al, bl in zip(a, b)]
    x2 = [al + GOLDEN * (bl - al) for al, bl in zip(a, b)]
    f1, f2 = f(np.array(x1)).tolist(), f(np.array(x2)).tolist()
    lanes = range(len(a))
    for _ in range(iters):
        up = [f1[l] < f2[l] for l in lanes]
        for l in lanes:
            if up[l]:
                a[l], x1[l], f1[l] = x1[l], x2[l], f2[l]
                x2[l] = a[l] + GOLDEN * (b[l] - a[l])
            else:
                b[l], x2[l], f2[l] = x2[l], x1[l], f1[l]
                x1[l] = b[l] - GOLDEN * (b[l] - a[l])
        fresh = f(np.array([x2[l] if up[l] else x1[l] for l in lanes])).tolist()
        for l in lanes:
            if up[l]:
                f2[l] = fresh[l]
            else:
                f1[l] = fresh[l]
    best = [(x1[l], f1[l]) if f1[l] >= f2[l] else (x2[l], f2[l]) for l in lanes]
    return [t for t, _ in best], [v for _, v in best]


def _coordinate_ascent(f, x, fx, windows, sweeps: int, iters: int, shrink: float = 1.0):
    """Coordinate-wise golden-section ascent of f from the L rows of x, where fx = f(x).

    Each sweep searches every coordinate k in turn over x[l, k] +- windows[k],
    the others held at their current values, and lane l moves only on
    improvement; the windows then scale by shrink. All lanes advance in
    lock-step through _golden_max. Returns the best value of each lane.
    """
    x = np.array(x, dtype=float)
    fx = [float(v) for v in fx]
    windows = np.array(windows, dtype=float)
    for _ in range(sweeps):
        for k in range(x.shape[1]):
            def along(t, k=k):
                xt = x.copy()
                xt[:, k] = t
                return f(xt)

            t_best, f_best = _golden_max(along, x[:, k] - windows[k], x[:, k] + windows[k], iters)
            for l, (t, v) in enumerate(zip(t_best, f_best)):
                if v > fx[l]:
                    fx[l] = v
                    x[l, k] = t
        windows = windows * shrink
    return fx


def _search(rho: DensityMatrix, projectors, starts: np.ndarray, keep: int, windows, sweeps: int,
            iters: int, shrink: float = 1.0) -> float:
    """Maximize the Holevo quantity over the measurements projectors(x).

    projectors maps parameters (..., P) to rank-1 projectors (..., K, dA, dA).
    All starts (N, P) are scored in one kernel call; the best keep of them are
    refined together by _coordinate_ascent, one kernel call per golden-section
    step, and the best refined value is returned.
    """
    s_b = _memory_entropy(rho)

    def value(x):
        return _holevo(s_b, branch_spectra(rho, projectors(x)))

    scores = value(starts)
    best = np.argsort(-scores, kind="stable")[:keep]
    return max(_coordinate_ascent(value, starts[best], scores[best], windows, sweeps, iters, shrink))


def _qubit_projectors(angles: np.ndarray) -> np.ndarray:
    """Projectors (1 +- n.sigma)/2 for Bloch angles (theta, phi) on the last axis."""
    theta, phi = angles[..., 0], angles[..., 1]
    s = np.sin(theta)
    n = np.stack([s * np.cos(phi), s * np.sin(phi), np.cos(theta)], axis=-1)
    n_sigma = (n @ _PAULI_ROWS).reshape(n.shape[:-1] + (1, 2, 2))
    return _HALF_EYE + _HALF_SIGNS * n_sigma


def _qutrit_projectors(coeffs: np.ndarray) -> np.ndarray:
    """Projectors onto the columns of exp(i * sum c_k G_k) for coefficients c on the last axis."""
    h = (coeffs @ _GELL_MANN.reshape(8, 9)).reshape(coeffs.shape[:-1] + (3, 3))
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    cols = np.swapaxes(u, -1, -2)  # row k is column k of u
    return cols[..., :, :, None] * cols.conj()[..., :, None, :]


def _search_plan(rho: DensityMatrix, cfg: OptimizerConfig) -> dict:
    """The keyword arguments of _search for rho's A side: projector map, starts, schedule."""
    if rho.dA == 2:
        # n and -n give the same measurement, so theta stops at the first half of its
        # grid; the pole theta = 0 is one measurement for every phi and is kept once
        g = cfg.grid_points
        thetas = np.linspace(0.0, np.pi, g)[: (g + 1) // 2]
        phis = np.linspace(0.0, 2.0 * np.pi, g, endpoint=False)
        grid = np.stack(np.meshgrid(thetas, phis, indexing="ij"), axis=-1).reshape(-1, 2)
        return dict(projectors=_qubit_projectors, starts=np.delete(grid, np.s_[1:g], axis=0),
                    keep=1, windows=(np.pi / (g - 1), 2.0 * np.pi / g), sweeps=3,
                    iters=max(4, cfg.refine_iters // 6))
    if rho.dA == 3:
        # the computational-basis start hits the symmetric optima exactly
        rng = np.random.default_rng(cfg.seed)
        starts = np.vstack([np.zeros(8), rng.uniform(-np.pi, np.pi, size=(cfg.restarts - 1, 8))])
        return dict(projectors=_qutrit_projectors, starts=starts, keep=len(starts),
                    windows=[np.pi / 2] * 8, sweeps=3, iters=max(6, cfg.refine_iters // 24),
                    shrink=0.3)
    raise ValueError(f"unsupported measured-side dimension dA={rho.dA}; need 2 or 3")


def classical_correlation(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> float:
    """Maximum Holevo information extractable by a projective measurement on A."""
    return _search(rho, **_search_plan(rho, cfg or OptimizerConfig()))


def bell_diagonal_classical_closed(c1: float, c2: float, c3: float) -> float:
    """Closed form for Bell-diagonal states: the largest |c_i| decides the optimum.

    Value is sum over +- of (1 +- c)/2 * log2(1 +- c) with c = max |c_i|; the
    optimizer must reproduce it within 1e-5 on this family.
    """
    for v in (c1, c2, c3):
        if abs(v) > 1.0 + 1e-12:
            raise ValueError(f"Bell-diagonal coefficient {v} outside [-1, 1]")
    c = max(abs(c1), abs(c2), abs(c3))
    return float(xlog2x(np.array([(1 - c) / 2, (1 + c) / 2])).sum()) + 1.0


def discord(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> float:
    """A-side quantum discord: mutual information minus classical correlation."""
    return clamp_discord(mutual_information(rho) - classical_correlation(rho, cfg))


def clamp_discord(value: float) -> float:
    """Zero a discord estimate within DISCORD_NOISE below zero; fail further below."""
    if value < 0.0:
        if value < -DISCORD_NOISE:
            raise RuntimeError(f"discord estimate {value:.3e} below noise floor")
        value = 0.0
    return value


# ---------------------------------------------------------------------------
# concurrence

def _check_two_qubit(rho: DensityMatrix):
    if rho.dims != (2, 2):
        raise ValueError(f"concurrence needs a two-qubit state, got dims {rho.dims}")


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence from the spin-flipped-spectrum construction."""
    _check_two_qubit(rho)
    yy = kron(PAULI_Y, PAULI_Y)
    m = rho.mat @ yy @ rho.mat.conj() @ yy
    ev = np.sort(np.linalg.eigvals(m).real)[::-1]
    # the spectrum is nonnegative in exact arithmetic; suppress roundoff noise
    # so that rank-deficient states do not leak spurious square roots
    ev = np.where(ev > ev[0] * 1e-12, ev, 0.0)
    mus = np.sqrt(ev)
    return float(max(0.0, mus[0] - mus[1] - mus[2] - mus[3]))


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
