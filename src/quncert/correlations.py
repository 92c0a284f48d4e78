"""Classical correlation via optimization over local projective measurements,
quantum discord, and two-qubit concurrence.

The classical correlation is the maximum Holevo quantity over rank-1
projective measurements on subsystem A, each given by a basis U of A measured
along its columns. One search serves qubit and qutrit A, and one stack of
states of one dims at a time: each state scores every start with one
:func:`quncert.entropy.branch_spectra` call, and the same function then climbs
from the best bases of all states together, by one Newton loop in the moving
frame U exp(i sum c_k T_k), where the T_k are the dA(dA-1) off-diagonal Hermitian
generators, the directions that change the measurement (a retraction on U(d);
Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008;
Abrudan, Eriksson & Koivunen, IEEE TSP 56:1134, 2008). Each Newton iteration
is two calls for the bases still searching, of all states: the exact gradient
and Hessian in the frame, from one gemm and one ``eigh`` per branch
(eigenvalue perturbation and the Daleckii-Krein formula), then a backtracking
line search of the kernel along the shifted Newton step. A basis moves only
on strict improvement, so the value never falls below its start, and every
value is the kernel's value at the basis returned. :func:`classical_correlations`
searches a stack (N, side, side) of one dims, which its callers bound; a state's
value is the same in any stack, so it equals :func:`classical_correlation`.

For a qubit A the starts are the frame moves c = theta/2 (sin phi, -cos phi)
of a Bloch-angle grid that lists each measurement once (n and -n are the same
measurement, so theta covers only the first half of its range, and the pole
theta = 0 appears once, at phi = 0), and the best 3 are polished: an X-state
landscape can hold competing maxima at the poles and on the equator (Ali, Rau
& Alber, PRA 81, 042105, 2010). For a qutrit A the landscape is not convex:
the computational basis and seeded random bases are scored, and the best three
are polished. The returned value is a certified lower estimate of the
projective optimum: the search also finds the basis that attains it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .entropy import ProjectiveMeasurement, basis_projectors, branch_entropies, branch_matrix
from .entropy import branch_spectra, entropies, mutual_information, xlog2x
from .linalg import PAULI_Y, DensityMatrix, adjoint, kron

DISCORD_NOISE = 1e-6
_SPIN_FLIP = kron(PAULI_Y, PAULI_Y)
# The Newton loop of _search: line-search fractions of the step, longest step,
# and the least gain in bits a step must promise; below it only roundoff is left.
LINE_STEPS = np.array([1.0, 0.25, 0.0625, 0.015625])
MAX_MOVE = 0.25
MIN_GAIN = 1e-15
# Each state polishes its best KEEP starts for at most NEWTON_ITERS[dA] iterations;
# lanes that converge stop on their own, so the qubit cap binds only on flat ridges.
KEEP = 3
NEWTON_ITERS = {2: 66, 3: 25}
# The derivatives floor each branch's eigenvalues at this share of its largest,
# so that a rank-deficient branch gives a large but finite curvature.
EIG_FLOOR = 1e-10


def _off_diagonal_generators(d: int) -> np.ndarray:
    """The d(d-1) Hermitian generators E_ij + E_ji and -i E_ij + i E_ji, i < j."""
    out = []
    for i, j in itertools.combinations(range(d), 2):
        for a in (1.0, -1j):
            t = np.zeros((d, d), dtype=complex)
            t[i, j], t[j, i] = a, np.conj(a)
            out.append(t)
    return np.array(out)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the classical-correlation search; defaults favor accuracy."""

    grid_points: int = 16
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        # the ceilings bound memory: one (2, 4) J on a 1024-point grid peaks near 0.5 GB
        limits = {"grid_points": (2, 1024), "restarts": (1, 4096), "seed": (0, math.inf)}
        for k in limits:
            v = getattr(self, k)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{k} must be an integer, got {v!r}")
        bad = [f"{k}={getattr(self, k)}" for k, (lo, hi) in limits.items()
               if not lo <= getattr(self, k) <= hi]
        if bad:
            raise ValueError(f"need 2 <= grid_points <= 1024, 1 <= restarts <= 4096,"
                             f" seed >= 0; got {', '.join(bad)}")


def _holevo(s_b, mu: np.ndarray):
    """S(B) - sum_k p_k S(rho_B|k) = S(B) - S(post) + H(X) from branch spectra mu (..., K, dB).

    s_b is S(B), a float or an array that broadcasts against mu's leading axes.
    """
    s_post, h = branch_entropies(mu)
    return s_b - s_post + h


def holevo_quantity(rho: DensityMatrix, meas: ProjectiveMeasurement) -> float:
    """S(rho_B) - sum_j p_j S(rho_B|j) for a measurement on A."""
    mu = branch_spectra(branch_matrix(rho.mat, rho.dims), meas.projectors)
    return float(_holevo(entropies(rho.mat, rho.dims, "B"), mu))


class _Frame:
    """Moves U -> U exp(i sum c_k T_k) of a basis U of C^d along P = d(d-1) generators T_k.

    The generators are the off-diagonal ones, the directions that change the
    measurement; the diagonal ones only rephase its columns. Along c the
    projector U E_kk U^+ moves as U X U^+, with X = E_kk at c = 0, first
    derivatives X = i[T_a, E_kk] and second derivatives
    X = -([T_a, [T_b, E_kk]] + [T_b, [T_a, E_kk]]) / 2 for a <= b. The frame
    keeps these d (1 + P + P(P+1)/2) operators X as rows of the branch kernel
    (84 for a qutrit, 12 for a qubit), so one matrix product gives every
    branch and its derivatives.
    """

    def __init__(self, d: int):
        self.generators = t = _off_diagonal_generators(d)
        p = len(t)
        e = np.zeros((d, d, d))
        e[range(d), range(d), range(d)] = 1.0  # E_kk

        def comm(x, y):
            return x @ y - y @ x

        first = comm(t[:, None], e)  # (P, d, d, d): [T_a, E_kk]
        a, b = np.triu_indices(p)
        second = -0.5 * (comm(t[a, None], first[b]) + comm(t[b, None], first[a]))
        ops = np.swapaxes(np.concatenate([e[None], 1j * first, second]), 0, 1)
        # row X.T, flattened, gives Tr_A[(X x 1) rho] against a branch matrix (branch_spectra)
        self.rows = np.swapaxes(ops, -1, -2).reshape(-1, d * d)
        # spreads the Hessian's entries a <= b over the full (P, P) matrix
        sym = np.zeros((len(a), p, p))
        sym[range(len(a)), a, b] = sym[range(len(a)), b, a] = 1.0
        self.sym = sym.reshape(len(a), p * p)

    def moves(self, c: np.ndarray, scales: np.ndarray | None = None) -> np.ndarray:
        """exp(i sum c_k T_k) (N, d, d) for frame coordinates c (N, P).

        With scales (S,), exp(i s sum c_k T_k) (N, S, d, d) for every s, from
        one eigendecomposition per row of c.
        """
        d = self.generators.shape[-1]
        h = (c @ self.generators.reshape(len(self.generators), d * d)).reshape(len(c), d, d)
        w, v = np.linalg.eigh(h)
        if scales is not None:
            w, v = scales[:, None] * w[:, None, :], v[:, None]
        return (v * np.exp(1j * w)[..., None, :]) @ adjoint(v)

    def derivatives(self, m: np.ndarray, u: np.ndarray):
        """Gradient (L, P) and Hessian (L, P, P) of the Holevo quantity in c at c = 0.

        u (L, d, d) are the lanes' bases and m (L, d*d, dB*dB) the branch
        matrices of their states. conj(U) x U rotates m to U's frame, one gemm
        per lane, and the rows give every branch s_k and its derivatives. With
        s_k = V diag(w) V^+ (its eigenvalues floored at EIG_FLOOR of its
        largest), p_k = Tr s_k and phi(x) = x log2 x, the Holevo quantity is
        S(B) + sum_k Tr phi(s_k) - phi(p_k). First-order perturbation gives
        g_a = sum_k Tr[log2(s_k / p_k) d_a s_k], and the Daleckii-Krein formula
        (Bhatia, Matrix Analysis, 1997, ch. V) the Hessian
        sum_k Tr[log2(s_k / p_k) d_ab s_k] + sum_ij G_ij Re(conj(A_a) A_b)_ij,
        with G_ij the divided differences of phi' = log2 + 1/ln 2 on the w and
        A_a = V^+ (d_a s_k - s_k d_a p_k / p_k) V; the second term of A_a is
        the -phi''(p_k) d_a p_k d_b p_k of the outcome entropy.
        """
        n, d = u.shape[:2]
        p, db = len(self.generators), math.isqrt(m.shape[-1])
        ut = u.swapaxes(1, 2)
        wt = kron(ut.conj(), ut)
        rows = (self.rows @ (wt @ m)).reshape(n, d, -1, db * db)
        lam, v = np.linalg.eigh(rows[:, :, 0].reshape(n, d, db, db))
        # the states have unit trace, so an empty branch is floored at EIG_FLOOR ** 2
        lam = np.maximum(lam, EIG_FLOOR * np.maximum(lam[..., -1:], EIG_FLOOR))
        prob = lam.sum(axis=-1, keepdims=True)
        # the derivative rows in the eigenbasis of their branch: V^+ X V, flattened
        hat = rows[:, :, 1:] @ kron(v.conj(), v)
        diag = hat[..., :: db + 1].real
        traced = (diag @ np.log2(lam / prob)[..., None]).sum(axis=1)[..., 0]
        grad, curve = traced[:, :p], traced[:, p:] @ self.sym
        # A_a: s_k d_a p_k / p_k is diagonal in V, so it comes off the diagonal of V^+ d_a s_k V
        first = hat[:, :, :p]
        dprob = diag[:, :, :p].sum(axis=-1)
        first.real[..., :: db + 1] -= (dprob / prob)[..., None] * lam[:, :, None]
        # G_ij = (log2 w_i - log2 w_j) / (w_i - w_j) = 2 atanh(t) / (t (w_i + w_j) ln 2) with
        # t = (w_i - w_j) / (w_i + w_j), which stays exact as w_i -> w_j
        total = lam[..., :, None] + lam[..., None, :]
        t = (lam[..., :, None] - lam[..., None, :]) / total
        atanh_ratio = np.divide(np.arctanh(t), t, out=np.ones_like(t), where=t != 0.0)
        scale = np.sqrt(atanh_ratio * (2.0 / math.log(2.0)) / total).reshape(n, 1, d, -1)
        spread = (scale * first.swapaxes(1, 2)).reshape(n, p, -1)
        spread = np.concatenate([spread.real, spread.imag], axis=-1)
        return grad, curve.reshape(n, p, p) + spread @ spread.swapaxes(1, 2)

    @staticmethod
    def newton_step(g: np.ndarray, hess: np.ndarray):
        """The shifted Newton step s (L, P) for gradient g and Hessian hess, and its promised gain.

        In the eigenbasis of hess, s moves along each curvature w by
        g / max(|mu - w|, 1e-8 of the widest curvature + 1e-12), cut to MAX_MOVE long:
        mu = 0 where the top curvature is below 1e-4 of the widest, so that a
        weakly curved ridge gets its full Newton step and a nearly flat upward
        curvature is climbed, not descended; elsewhere mu shifts every
        curvature to at most -1e-3 of the widest. The gain is the quadratic
        model's g.s + s.H.s / 2.
        """
        w, v = np.linalg.eigh(hess)
        top, widest = w[:, -1:], np.abs(w).max(axis=-1, keepdims=True)
        mu = np.where(top < 1e-4 * widest, 0.0, top + 1e-3 * widest + 1e-12)
        g = (g[:, None, :] @ v)[:, 0]  # eigenbasis components
        s = g / np.maximum(np.abs(mu - w), 1e-8 * widest + 1e-12)
        s *= MAX_MOVE / np.maximum(np.sqrt((s * s).sum(axis=-1, keepdims=True)), MAX_MOVE)
        return (v @ s[..., None])[..., 0], (s * (g + 0.5 * w * s)).sum(axis=-1)


_FRAMES = {d: _Frame(d) for d in (2, 3)}


def _search(mats: np.ndarray, dims, starts: np.ndarray, keep: int, iters: int):
    """Maximize the Holevo quantity over measurement bases for a stack (N, side, side) of dims.

    The start bases (S, dA, dA) are measured along their columns, and each
    state scores them with one kernel call. The best min(keep, S) starts of
    every state are the lanes of one Newton search in the frame of _Frame,
    each lane holding its state's branch matrix and S(B). Each iteration makes
    one derivatives call and one kernel call for the lanes still searching: a
    backtracking line search at LINE_STEPS of the Newton step. A lane moves to
    its best line point only if that strictly improves on its value, so every
    value is the kernel's value at the basis returned. A lane stops for good,
    and leaves both calls, when it does not improve or when its step promises
    less than MIN_GAIN (from the same point it would take the same step again;
    on a flat landscape, such as a product state's, the derivatives are
    roundoff and so is the gain). The search ends when every lane has stopped,
    or after iters iterations. Each lane's gemm and small LAPACK calls have the
    same shapes whatever the other lanes are, so each lane makes the same moves
    as a search of its own and a state's result does not depend on its stack.
    Returns each state's best value and its basis.
    """
    n = len(mats)
    m, s_b = branch_matrix(mats, dims), entropies(mats, dims, "B")
    start_projectors = basis_projectors(starts)
    # state by state for memory: at grid 1024 one (2, 4) state's branches take ~268 MB
    scores = np.array([_holevo(s, branch_spectra(mi, start_projectors)) for s, mi in zip(s_b, m)])
    kept = np.argsort(-scores, axis=1, kind="stable")[:, :keep]
    state = np.repeat(np.arange(n), kept.shape[1])
    m, s_b = m[state], s_b[state]  # one row per lane from here on
    u, fu = starts[kept.ravel()], np.take_along_axis(scores, kept, axis=1).ravel()
    frame = _FRAMES[starts.shape[-1]]
    live = np.arange(len(fu))
    for _ in range(iters):
        step, gain = frame.newton_step(*frame.derivatives(m[live], u[live]))
        go = gain >= MIN_GAIN
        live, step = live[go], step[go]
        if not live.size:
            break
        trial = u[live, None] @ frame.moves(step, LINE_STEPS)
        f_trial = _holevo(s_b[live, None], branch_spectra(m[live], basis_projectors(trial)))
        pick = f_trial.argmax(axis=-1)
        best = f_trial[np.arange(len(live)), pick]
        up = best > fu[live]
        live = live[up]
        u[live], fu[live] = trial[up, pick[up]], best[up]
        if not live.size:
            break
    fu, u = fu.reshape(n, -1), u.reshape(n, -1, *starts.shape[1:])
    top = fu.argmax(axis=1)
    return fu[np.arange(n), top], u[np.arange(n), top]


@functools.lru_cache(maxsize=4)
def _starts(dA: int, cfg: OptimizerConfig) -> np.ndarray:
    """The read-only start bases (S, dA, dA) of an A side of dimension dA, built once per cfg."""
    if dA == 2:
        # n and -n give the same measurement, so theta stops at the first half of its
        # grid; the pole theta = 0 is one measurement for every phi and is kept once
        g = cfg.grid_points
        thetas = np.linspace(0.0, np.pi, g)[: (g + 1) // 2]
        phis = np.linspace(0.0, 2.0 * np.pi, g, endpoint=False)
        theta, phi = np.meshgrid(thetas, phis, indexing="ij")
        c = 0.5 * np.stack([theta * np.sin(phi), -theta * np.cos(phi)], axis=-1).reshape(-1, 2)
        starts = _FRAMES[2].moves(np.delete(c, np.s_[1:g], axis=0))
    elif dA == 3:
        # the computational-basis start hits the symmetric optima exactly
        rng = np.random.default_rng(cfg.seed)
        moved = _FRAMES[3].moves(rng.uniform(-np.pi, np.pi, size=(cfg.restarts - 1, 6)))
        starts = np.concatenate([np.eye(3, dtype=complex)[None], moved])
    else:
        raise ValueError(f"unsupported measured-side dimension dA={dA}; need 2 or 3")
    starts.setflags(write=False)
    return starts


def classical_correlations(mats: np.ndarray, dims, cfg: OptimizerConfig | None = None) -> np.ndarray:
    """classical_correlation of each state of a stack (N, side, side) of dims, in lock-step.

    The lane arrays grow with the stack, so callers bound it. A state's value
    does not depend on its stack.
    """
    if not len(mats):
        return np.empty(0)
    dA = dims[0]
    return _search(mats, dims, _starts(dA, cfg or OptimizerConfig()), KEEP, NEWTON_ITERS[dA])[0]


def classical_correlation(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> float:
    """Maximum Holevo information extractable by a projective measurement on A."""
    return float(classical_correlations(rho.mat[None], rho.dims, cfg)[0])


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
    return float(concurrences(rho.mat[None])[0])


def concurrences(mats: np.ndarray) -> np.ndarray:
    """concurrence of each matrix of a two-qubit stack (N, 4, 4), with one stacked ``eigvals``."""
    m = mats @ _SPIN_FLIP @ mats.conj() @ _SPIN_FLIP
    ev = np.sort(np.linalg.eigvals(m).real, axis=-1)[:, ::-1]
    # the spectrum is nonnegative in exact arithmetic; suppress roundoff noise
    # so that rank-deficient states do not leak spurious square roots
    ev = np.where(ev > ev[:, :1] * 1e-12, ev, 0.0)
    mus = np.sqrt(ev)
    gap = mus[:, 0] - mus[:, 1] - mus[:, 2] - mus[:, 3]
    return np.where(gap > 0.0, gap, 0.0)
