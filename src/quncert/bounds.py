"""The measured uncertainty sum and its three lower bounds.

For non-degenerate Hermitian observables X, Z on subsystem A and a bipartite
state with memory B, the quantity U = S(X|B) + S(Z|B) is bounded below by

* U_b1 = log2(1/c) + S(A|B)                    (complementarity + conditional entropy)
* U_b2 = U_b1 + max{0, D_A - J_A}              (discord-corrected form)
* U_b3 = 2*S(A|B) + 2*D_A                      (observable-independent form)

where c is the maximal squared eigenvector overlap, J_A the classical
correlation and D_A the A-side discord.

evaluate_bounds_many checks one dims for all its states and stacks each chunk
of at most STACK_STATES once, for the J search and the one report path, which
passes the stack to every kernel: S(AB), S(A) and S(B) from entropy.entropies,
U and U_A = H(X) + H(Z) from one entropy.branch_spectra call over every
state's X and Z eigenprojectors, read by entropy.branch_entropies, c from one
stacked overlap product of the eigenbases, and the two-qubit concurrence from
one stacked ``eigvals``. complementarity, concurrence, uncertainty_sum and the
scalar entropies are the N = 1 case of those formulas. The independent
oracles the tests hold them against are in tests/oracles.py: measure_on_A,
which builds each branch explicitly, the Shannon entropy of its outcome
probabilities, concurrence_x and single_system_bound; closed forms complete them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import OptimizerConfig, clamp_discord, concurrences
from .correlations import classical_correlation, classical_correlations
from .entropy import basis_projectors, branch_entropies, branch_matrix, branch_spectra, entropies
from .linalg import DEFAULT_TOL, DensityMatrix, adjoint, shared_dims

MAX_SIDE = 16
DEGENERACY_GAP = 1e-9
BOUND_TOL = 1e-9
BOUND_TOL_OPT = 1e-4
TIE_TOL = 1e-9
# Most states evaluated in one stack; it bounds the J search's lane arrays on long sweeps.
STACK_STATES = 128


class ObservableDimensionError(ValueError):
    """The observables do not act on subsystem A of the state."""


class Observable:
    """A non-degenerate Hermitian observable of side <= MAX_SIDE; U and c read only its eigenbasis.

    Holds the matrix ``mat``, its eigenvalues ``values`` in ascending order
    and the matching orthonormal eigenvectors as the columns of ``basis``.
    """

    def __init__(self, mat: np.ndarray):
        m = np.asarray(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not m.size:
            raise ValueError(f"expected a nonempty matrix, got shape {m.shape}")
        if m.shape[0] > MAX_SIDE:
            raise ValueError(f"side {m.shape[0]} exceeds supported maximum {MAX_SIDE}")
        dev = np.abs(m - adjoint(m)).max()
        if not dev <= DEFAULT_TOL:
            raise ValueError(f"matrix is not Hermitian within {DEFAULT_TOL:g} (deviation {dev:.3e})")
        values, basis = np.linalg.eigh(m)
        gaps = np.diff(values)
        gap = float(gaps.min()) if gaps.size else np.inf
        if gap <= DEGENERACY_GAP:
            raise ValueError(f"degenerate observable: eigenvalue gap {gap:.3e} <= {DEGENERACY_GAP:g}")
        self.mat, self.values, self.basis = m, values, basis

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _complementarities(bases: np.ndarray) -> np.ndarray:
    """c = max_(i,j) |<x_i|z_j>|^2 of each pair of eigenbases (N, 2, d, d)."""
    return (np.abs(adjoint(bases[:, 0]) @ bases[:, 1]) ** 2).max(axis=(-2, -1))


def complementarity(x: Observable, z: Observable) -> float:
    """c = max_(i,j) |<x_i|z_j>|^2; lies in [1/d, 1]."""
    if x.dim != z.dim:
        raise ValueError(f"observable dimensions differ: {x.dim} vs {z.dim}")
    return float(_complementarities(np.array([[x.basis, z.basis]]))[0])


@dataclass(frozen=True)
class BoundReport:
    """One full evaluation: the uncertainty, all bounds, and every ingredient."""

    U: float
    U_b1: float
    U_b2: float
    U_b3: float
    c: float
    S_AB: float
    S_B: float
    S_cond: float
    mutual: float
    classical: float
    discord: float
    S_A: float
    U_A: float
    concurrence: float | None

    def violations(self) -> list[str]:
        """Names of any bound inequalities the report fails to satisfy.

        U_b1 is checked within BOUND_TOL. The optimizer can only underestimate
        the classical correlation, which overestimates the discord and can
        over-tighten U_b2 and U_b3; those two get the looser BOUND_TOL_OPT.
        """
        out = []
        if self.U < self.U_b1 - BOUND_TOL:
            out.append(f"U_b1 exceeds U by {self.U_b1 - self.U:.3e}")
        if self.U < self.U_b2 - BOUND_TOL_OPT:
            out.append(f"U_b2 exceeds U by {self.U_b2 - self.U:.3e}")
        if self.U < self.U_b3 - BOUND_TOL_OPT:
            out.append(f"U_b3 exceeds U by {self.U_b3 - self.U:.3e}")
        return out

    def tightest(self) -> str:
        """Which lower bound comes closest to U, with ties within TIE_TOL reported."""
        bounds = {"U_b1": self.U_b1, "U_b2": self.U_b2, "U_b3": self.U_b3}
        best = max(bounds.values())
        names = [k for k, v in bounds.items() if v >= best - TIE_TOL]
        if len(names) == 1:
            return names[0]
        return f"{names[0]} (ties with {', '.join(names[1:])})"


def _check_observables(dA: int, x: Observable, z: Observable):
    if x.dim != dA or z.dim != dA:
        raise ObservableDimensionError(
            f"observables X and Z act on dimensions {x.dim} and {z.dim}; the state has dA={dA}"
        )


def _uncertainties(mats: np.ndarray, dims, bases: np.ndarray, s_b: np.ndarray):
    """U and U_A = H(X) + H(Z) of each state, its X and Z eigenbases (N, 2, dA, dA) and S(B)."""
    mu = branch_spectra(branch_matrix(mats, dims), basis_projectors(bases))  # (N, 2, K, dB)
    s_post, h = branch_entropies(mu)
    return (s_post[:, 0] - s_b) + (s_post[:, 1] - s_b), h.sum(axis=-1)


def uncertainty_sum(rho: DensityMatrix, x: Observable, z: Observable) -> float:
    """U = S(X|B) + S(Z|B) for measurements on subsystem A."""
    _check_observables(rho.dA, x, z)
    s_b = entropies(rho.mat[None], rho.dims, "B")
    return float(_uncertainties(rho.mat[None], rho.dims, np.array([[x.basis, z.basis]]), s_b)[0][0])


def _reports(mats: np.ndarray, dims, xs, zs, classical) -> list[BoundReport]:
    """The reports of a stack (N, side, side) of dims, given their classical correlations.

    The one report path of the module. U_b2 reuses the classical-correlation
    estimate that enters the discord, so D - J = I - 2J stays internally consistent.
    """
    s_ab, s_a, s_b = (entropies(mats, dims, part) for part in ("AB", "A", "B"))
    bases = np.array([[x.basis, z.basis] for x, z in zip(xs, zs)])
    u, u_a = _uncertainties(mats, dims, bases, s_b)
    s_cond, mutual = s_ab - s_b, s_a + s_b - s_ab
    cs = _complementarities(bases).tolist()
    con = concurrences(mats).tolist() if dims == (2, 2) else [None] * len(mats)
    reports = []
    for i, c in enumerate(cs):
        j, s = float(classical[i]), float(s_cond[i])
        disc = clamp_discord(float(mutual[i]) - j)
        u_b1 = float(np.log2(1.0 / c) + s)
        reports.append(BoundReport(
            U=float(u[i]), U_b1=u_b1, U_b2=u_b1 + max(0.0, disc - j), U_b3=2.0 * s + 2.0 * disc,
            c=c, S_AB=float(s_ab[i]), S_B=float(s_b[i]), S_cond=s, mutual=float(mutual[i]),
            classical=j, discord=disc, S_A=float(s_a[i]), U_A=float(u_a[i]), concurrence=con[i]))
    return reports


def evaluate_bounds(rho: DensityMatrix, x: Observable, z: Observable,
                    cfg: OptimizerConfig | None = None) -> BoundReport:
    """Compute U, the three bounds, and the correlation measures in one pass."""
    _check_observables(rho.dA, x, z)
    return _reports(rho.mat[None], rho.dims, [x], [z], [classical_correlation(rho, cfg)])[0]


def evaluate_bounds_many(rhos, xs, zs, cfg: OptimizerConfig | None = None) -> list[BoundReport]:
    """evaluate_bounds for each state of a sequence and its own observables xs[i], zs[i].

    The states share one dims and go in chunks of at most STACK_STATES, each
    stacked once for one lock-step J search and its reports. Each report
    equals the one evaluate_bounds gives for its state and observables.
    """
    if not len(rhos) == len(xs) == len(zs):
        raise ValueError(f"need one X and one Z per state; got {len(rhos)} states,"
                         f" {len(xs)} X and {len(zs)} Z observables")
    if not len(rhos):
        return []
    dims = shared_dims(rhos)
    for x, z in zip(xs, zs):
        _check_observables(dims[0], x, z)
    cuts = [slice(lo, lo + STACK_STATES) for lo in range(0, len(rhos), STACK_STATES)]
    chunks = ((np.stack([rho.mat for rho in rhos[c]]), xs[c], zs[c]) for c in cuts)
    return [r for m, x, z in chunks for r in _reports(m, dims, x, z, classical_correlations(m, dims, cfg))]
