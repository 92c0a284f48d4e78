"""Dense complex-matrix kernel: tensor products, partial traces, Hermitian
eigendecomposition, and density-matrix validation.

Everything operates on plain ``numpy`` arrays; states carry their bipartite
split (dA, dB) in a small immutable :class:`DensityMatrix` wrapper. A
single-system state is represented with dB = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

MAX_SIDE = 16
DEFAULT_TOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


class EigenSystem(NamedTuple):
    """Eigenvalues in ascending order and the matching orthonormal column vectors."""

    values: np.ndarray
    vectors: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """A validated bipartite state: Hermitian, unit trace, positive within tol.

    Construct through :func:`validate_density`; the fields are immutable and
    safe to share across threads.
    """

    mat: np.ndarray
    dims: tuple[int, int]
    tol: float = field(default=DEFAULT_TOL, compare=False)

    @property
    def dA(self) -> int:
        return self.dims[0]

    @property
    def dB(self) -> int:
        return self.dims[1]

    @property
    def side(self) -> int:
        return self.dims[0] * self.dims[1]


def stack_states(rhos) -> tuple[tuple[int, int], np.ndarray]:
    """The dims shared by a sequence of N states and their matrices stacked (N, side, side)."""
    all_dims = {r.dims for r in rhos}
    if len(all_dims) != 1:
        raise ValueError(f"a state stack needs one dims, got {sorted(all_dims)}")
    (dims,) = all_dims
    return dims, np.stack([r.mat for r in rhos])


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the left factor on the slow (A) index."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a)
    return a.shape[0] == a.shape[1] and np.abs(a - a.conj().T).max() <= tol


def ptrace_mat(mat: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Partial trace of raw (..., dA*dB, dA*dB) arrays; keep is "A" or "B"."""
    dA, dB = dims
    mat = np.asarray(mat)
    r = mat.reshape(mat.shape[:-2] + (dA, dB, dA, dB))
    if keep == "A":
        return np.trace(r, axis1=-3, axis2=-1)
    if keep == "B":
        return np.trace(r, axis1=-4, axis2=-2)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Reduced state on the kept subsystem, returned with a trivial dB = 1 split."""
    red = ptrace_mat(rho.mat, rho.dims, keep)
    d = rho.dA if keep == "A" else rho.dB
    return validate_density(red, (d, 1), tol=max(rho.tol, 1e-12))


def eig_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix of side <= 16.

    Eigenvalues come back ascending; within a degenerate cluster the columns
    are an arbitrary orthonormal basis of the eigenspace.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > MAX_SIDE:
        raise ValueError(f"side {m.shape[0]} exceeds supported maximum {MAX_SIDE}")
    if not is_hermitian(m, tol):
        dev = np.abs(m - m.conj().T).max()
        raise ValueError(f"matrix is not Hermitian within {tol:g} (deviation {dev:.3e})")
    values, vectors = np.linalg.eigh(m)
    return EigenSystem(values=values, vectors=vectors)


def validate_density(
    mat: np.ndarray, dims: tuple[int, int], tol: float = DEFAULT_TOL
) -> DensityMatrix:
    """Check Hermiticity, unit trace, and positivity; return a DensityMatrix.

    Eigenvalues in [-tol, 0) are treated as roundoff: they are clipped to zero
    and the state renormalized. Anything below -tol is an error.
    """
    mat = np.asarray(mat, dtype=complex)
    dA, dB = dims
    if dA < 1 or dB < 1:
        raise ValueError(f"invalid subsystem dimensions {dims}")
    side = dA * dB
    if mat.shape != (side, side):
        raise ValueError(f"expected shape {(side, side)} for dims {dims}, got {mat.shape}")
    if not is_hermitian(mat, tol):
        dev = np.abs(mat - mat.conj().T).max()
        raise ValueError(f"not Hermitian within {tol:g} (deviation {dev:.3e})")
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > tol:
        raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e} (tol {tol:g})")
    w = np.linalg.eigvalsh(mat)
    if w[0] < -tol:
        raise ValueError(f"negative eigenvalue {w[0]:.3e} below -{tol:g}")
    if w[0] < 0.0:
        # clip the roundoff-negative part of the spectrum and renormalize
        w_cl, v = np.linalg.eigh(mat)
        w_cl = np.clip(w_cl, 0.0, None)
        mat = (v * w_cl) @ v.conj().T
        mat = (mat + mat.conj().T) / 2
        mat = mat / np.trace(mat).real
    return DensityMatrix(mat=_freeze(mat), dims=(dA, dB), tol=tol)
