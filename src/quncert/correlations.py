"""Classical correlation via optimization over local projective measurements,
quantum discord, and two-qubit concurrence.

The classical correlation is the maximum Holevo quantity over rank-1
projective measurements on subsystem A. One search serves qubit and qutrit A,
and one stack of states of one dims at a time: each state scores every start
with one :func:`quncert.entropy.branch_spectra` call, and the best starts of
all states are refined together by one cyclic compass search (the coordinate
pattern search of Kolda, Lewis & Torczon, SIAM Review 45:385, 2003). The
refined starts advance in lock-step: each step tries +- one step length along
one coordinate for every start of every state, all in one kernel call, and a
start that does not improve halves its step along that coordinate. A state's
value is the same in any stack, so :func:`classical_correlations` over a sweep
equals :func:`classical_correlation` state by state. For a qubit A the starts
are a Bloch-angle grid that lists each measurement once (n and -n are the same
measurement, so theta covers only the first half of its range, and the pole
theta = 0 appears once, at phi = 0), only the best grid point is refined, and
the first steps are half the grid spacing; for a qutrit A the basis is
parameterized by eight rotation-generator coefficients and every seeded start
is refined, since that landscape is not convex. The returned value is a
certified lower estimate of the projective optimum."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import ProjectiveMeasurement, branch_matrix, branch_spectra
from .entropy import mutual_information, xlog2x
from .linalg import PAULI_Y, PAULIS, DensityMatrix, kron, ptrace_mat

DISCORD_NOISE = 1e-6
X_FORM_TOL = 1e-10
# Most states searched in one lock-step stack; it bounds the lane arrays of long sweeps.
STACK_STATES = 128

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


def _memory_entropies(rhos) -> np.ndarray:
    """S(B) of each state of a sequence."""
    w = np.linalg.eigvalsh(np.stack([ptrace_mat(r.mat, r.dims, "B") for r in rhos]))
    return -xlog2x(np.maximum(w, 0.0)).sum(axis=-1)


def _holevo(s_b, mu: np.ndarray):
    """S(B) - sum_k p_k S(rho_B|k) from branch spectra mu of shape (..., K, dB).

    s_b is S(B), a float or an array that broadcasts against mu's leading axes.

    Uses the unnormalised-spectrum identity p S(rho_B|k) = -sum mu log2 mu + p log2 p.
    """
    return s_b + xlog2x(mu).sum(axis=(-2, -1)) - xlog2x(mu.sum(axis=-1)).sum(axis=-1)


def holevo_quantity(rho: DensityMatrix, meas: ProjectiveMeasurement) -> float:
    """S(rho_B) - sum_j p_j S(rho_B|j) for a measurement on A."""
    mu = branch_spectra(branch_matrix(rho), meas.projectors)
    return float(_holevo(_memory_entropies([rho])[0], mu))


def _pattern_search(f, x, fx, step, steps_per_coord: int):
    """Cyclic compass search for the maxima of f from the L rows of x, where fx = f(x).

    Step s works on coordinate k = s mod P: every lane l tries x[l] +- h[l, k] e_k,
    all 2L trials in one f call on a (2, L, P) array. A lane moves to its better
    trial only if that strictly improves on fx[l] (on a tie the + trial wins);
    otherwise it halves h[l, k]. h starts at step for every lane. Each lane makes
    the same moves as a search of its own. Returns the best value of each lane.
    """
    x = np.array(x, dtype=float)
    fx = np.array(fx, dtype=float)
    n_lanes, n_coords = x.shape
    h = np.full(x.shape, step, dtype=float)
    lanes = np.arange(n_lanes)
    signs = np.array([1.0, -1.0])[:, None, None]
    axes = np.eye(n_coords)
    for s in range(steps_per_coord * n_coords):
        k = s % n_coords
        trial = x + signs * (h[:, k, None] * axes[k])
        f_trial = f(trial)
        pick = f_trial.argmax(axis=0)
        best = f_trial[pick, lanes]
        up = best > fx
        x = np.where(up[:, None], trial[pick, lanes], x)
        fx = np.where(up, best, fx)
        h[~up, k] *= 0.5
    return fx


def _search(rhos, projectors, starts: np.ndarray, keep: int, step,
            steps_per_coord: int) -> np.ndarray:
    """Maximize the Holevo quantity over the measurements projectors(x) for N states of one dims.

    projectors maps parameters (..., P) to rank-1 projectors (..., K, dA, dA).
    The projectors of the starts (S, P) are built once, and each state scores
    them with one kernel call. The best keep starts of every state become the
    N * keep lanes of one _pattern_search, so each step is one kernel call for
    all states. Every state's gemms have the same shapes whatever N is, so a
    state's value does not depend on its stack. Returns each state's best value.
    """
    n = len(rhos)
    m = branch_matrix(rhos)
    s_b = _memory_entropies(rhos)
    start_projectors = projectors(starts)
    scores = np.array([_holevo(s, branch_spectra(mi, start_projectors)) for s, mi in zip(s_b, m)])
    best = np.argsort(-scores, axis=1, kind="stable")[:, :keep]

    def value(x):
        # lanes (2, N * keep, P) are state-major; the kernel wants the state axis first
        x = x.reshape(2, n, keep, -1).swapaxes(0, 1)
        chi = _holevo(s_b[:, None, None], branch_spectra(m, projectors(x)))
        return chi.swapaxes(0, 1).reshape(2, n * keep)

    x0 = starts[best].reshape(n * keep, -1)
    fx0 = np.take_along_axis(scores, best, axis=1).reshape(-1)
    return _pattern_search(value, x0, fx0, step, steps_per_coord).reshape(n, keep).max(axis=1)


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


def _search_plan(dA: int, cfg: OptimizerConfig) -> dict:
    """The keyword arguments of _search for an A side of dimension dA: projectors, starts, steps."""
    if dA == 2:
        # n and -n give the same measurement, so theta stops at the first half of its
        # grid; the pole theta = 0 is one measurement for every phi and is kept once
        g = cfg.grid_points
        thetas = np.linspace(0.0, np.pi, g)[: (g + 1) // 2]
        phis = np.linspace(0.0, 2.0 * np.pi, g, endpoint=False)
        grid = np.stack(np.meshgrid(thetas, phis, indexing="ij"), axis=-1).reshape(-1, 2)
        return dict(projectors=_qubit_projectors, starts=np.delete(grid, np.s_[1:g], axis=0),
                    keep=1, step=(np.pi / (g - 1) / 2, np.pi / g),
                    steps_per_coord=max(4, cfg.refine_iters // 6))
    if dA == 3:
        # the computational-basis start hits the symmetric optima exactly
        rng = np.random.default_rng(cfg.seed)
        starts = np.vstack([np.zeros(8), rng.uniform(-np.pi, np.pi, size=(cfg.restarts - 1, 8))])
        return dict(projectors=_qutrit_projectors, starts=starts, keep=len(starts),
                    step=np.pi / 2, steps_per_coord=max(6, cfg.refine_iters // 11))
    raise ValueError(f"unsupported measured-side dimension dA={dA}; need 2 or 3")


def classical_correlations(rhos, cfg: OptimizerConfig | None = None) -> np.ndarray:
    """classical_correlation of each state of a sequence of one dims, searched in lock-step.

    The states are searched in stacks of at most STACK_STATES. A state's value
    does not depend on its stack, so the cap only bounds memory.
    """
    if not rhos:
        return np.empty(0)
    plan = _search_plan(rhos[0].dA, cfg or OptimizerConfig())
    return np.concatenate([_search(rhos[lo:lo + STACK_STATES], **plan)
                           for lo in range(0, len(rhos), STACK_STATES)])


def classical_correlation(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> float:
    """Maximum Holevo information extractable by a projective measurement on A."""
    return float(classical_correlations([rho], cfg)[0])


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
