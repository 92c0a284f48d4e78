"""Shannon and von Neumann entropies, projective measurements on subsystem A,
and the conditional entropies built from them. All logarithms are base 2.

Each entropy has one path, and its kernels take arrays: a stack of matrices
and their dims, formed once per chunk of states. :func:`entropies` gives
S(AB), S(A) or S(B) of each from one ``eigvalsh``. :func:`branch_spectra` is
the one kernel that forms the memory branches Tr_A[(P_k x 1) rho] of a
measurement on A, one ``matmul`` for a stack of projectors of one state or of
a stack of states; a qubit memory's 2x2 branch spectra are taken in closed
form, larger ones with ``eigvalsh``. :func:`branch_entropies` reads S(post)
and H(X) off them for U, U_A and the Holevo quantity.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DensityMatrix, ptrace_mat

PROJECTOR_TOL = 1e-9


def xlog2x(p):
    """Entrywise p*log2(p) with the 0*log0 := 0 convention.

    Finite entries <= 0 give a zero (-0.0 for negative ones), so they add
    nothing to a sum. A NaN entry gives NaN, and so does -inf.
    """
    p = np.asarray(p, dtype=float)
    return p * np.log2(np.where(p > 0.0, p, 1.0))


def spectrum_entropies(w) -> np.ndarray:
    """-sum w log2 w over the last axis after clipping roundoff-negative values to zero."""
    w = np.asarray(w, dtype=float)
    return -np.sum(xlog2x(np.where(w < 0.0, 0.0, w)), axis=-1)


def von_neumann(rho) -> float:
    """Von Neumann entropy in bits; zero for pure states."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return float(spectrum_entropies(np.linalg.eigvalsh(mat)))


def entropies(mats: np.ndarray, dims, part: str) -> np.ndarray:
    """S of each matrix (..., side, side) of dims, or of its part "A" or "B", from one ``eigvalsh``."""
    return spectrum_entropies(np.linalg.eigvalsh(mats if part == "AB" else ptrace_mat(mats, dims, part)))


def conditional_entropy(rho: DensityMatrix) -> float:
    """S(AB) - S(B); negative values witness entanglement."""
    return float(entropies(rho.mat, rho.dims, "AB") - entropies(rho.mat, rho.dims, "B"))


def mutual_information(rho: DensityMatrix) -> float:
    """Total correlations S(A) + S(B) - S(AB) between the two subsystems."""
    s_a, s_b, s_ab = (entropies(rho.mat, rho.dims, part) for part in ("A", "B", "AB"))
    return float(s_a + s_b - s_ab)


class ProjectiveMeasurement:
    """A complete family of mutually orthogonal projectors on subsystem A."""

    def __init__(self, projectors):
        ps = np.array([np.asarray(p, dtype=complex) for p in projectors])
        d = ps.shape[-1]
        if ps.ndim != 3 or ps.shape[-2] != d:
            raise ValueError("projectors must be a sequence of equal square matrices")
        if np.abs(ps.sum(axis=0) - np.eye(d)).max() > PROJECTOR_TOL:
            raise ValueError("projector family is not complete")
        for i, p in enumerate(ps):
            if np.abs(p - p.conj().T).max() > PROJECTOR_TOL:
                raise ValueError(f"projector {i} is not Hermitian")
            if np.abs(p @ p - p).max() > PROJECTOR_TOL:
                raise ValueError(f"projector {i} is not idempotent")
            for j in range(i):
                if np.abs(ps[j] @ p).max() > PROJECTOR_TOL:
                    raise ValueError(f"projectors {j} and {i} are not orthogonal")
        ps.setflags(write=False)
        self.projectors = ps
        self.dim = d

    def __len__(self) -> int:
        return self.projectors.shape[0]

    @classmethod
    def from_basis(cls, vectors: np.ndarray) -> "ProjectiveMeasurement":
        """Rank-1 projectors onto the columns of an orthonormal matrix."""
        return cls(basis_projectors(np.asarray(vectors, dtype=complex)))


def basis_projectors(u: np.ndarray) -> np.ndarray:
    """Projectors (..., K, d, d) onto the K columns of the bases u (..., d, K)."""
    cols = np.swapaxes(u, -1, -2)  # row k is column k of u
    return cols[..., :, :, None] * cols.conj()[..., :, None, :]


def branch_matrix(mats: np.ndarray, dims) -> np.ndarray:
    """Each matrix rho (..., side, side) of dims as M[(a, b), (i, j)] = rho[(a, i), (b, j)].

    Then Tr_A[(P x 1) rho] is P.T.reshape(dA*dA) @ M, reshaped to dB x dB; the
    result has shape (..., dA*dA, dB*dB).
    """
    dA, dB = dims
    lead = mats.shape[:-2]
    t = np.swapaxes(mats.reshape(lead + (dA, dB, dA, dB)), -2, -3)
    return t.reshape(lead + (dA * dA, dB * dB))


def _spectrum_2x2(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Hermitian 2x2 matrices (..., 2, 2) in closed form.

    t -+ hypot((a - d)/2, |b|) with t = (a + d)/2, read from the diagonal and the
    lower off-diagonal entry, as ``eigvalsh`` reads them.
    """
    a, d, b = m[..., 0, 0].real, m[..., 1, 1].real, m[..., 1, 0]
    t = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), np.hypot(b.real, b.imag))
    return np.stack([t - r, t + r], axis=-1)


def branch_spectra(m: np.ndarray, projectors) -> np.ndarray:
    """Eigenvalues of the unnormalised memory branches Tr_A[(P_k x 1) rho].

    The one kernel behind U, the Holevo quantity and the J search. m is
    branch_matrix of rho. For one state, projectors is a stack of A-side
    projectors of shape (..., K, dA, dA) and the result has shape (..., K, dB).
    For a stack of N states, the projectors' leading axis indexes the states:
    (N, ..., K, dA, dA) gives (N, ..., K, dB); a leading axis of 1 serves every
    state with the same projectors. All branches are one ``matmul``, one gemm
    per state. Spectra are clipped at zero; branch k's eigenvalues sum to the
    outcome probability p_k and are p_k times the spectrum of rho_B|k.
    """
    dA, dB = math.isqrt(m.shape[-2]), math.isqrt(m.shape[-1])
    projectors = np.asarray(projectors)
    if projectors.shape[-2:] != (dA, dA):
        d = projectors.shape[-1]
        raise ValueError(f"measurement acts on dimension {d}, state has dA={dA}")
    flat = np.swapaxes(projectors, -1, -2).reshape(projectors.shape[: m.ndim - 2] + (-1, dA * dA))
    prod = flat @ m
    branches = prod.reshape(prod.shape[:-2] + projectors.shape[m.ndim - 2 : -2] + (dB, dB))
    spectra = _spectrum_2x2(branches) if dB == 2 else np.linalg.eigvalsh(branches)
    return np.maximum(spectra, 0.0)


def branch_entropies(mu: np.ndarray):
    """S(post) = -sum mu log2 mu and H(X) = -sum p log2 p of branch spectra mu (..., K, dB).

    p_k is row k's sum. Rank-1 projectors make mu the spectrum of the post-measurement state.
    """
    return -xlog2x(mu).sum(axis=(-2, -1)), -xlog2x(mu.sum(axis=-1)).sum(axis=-1)

