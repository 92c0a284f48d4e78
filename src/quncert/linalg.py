"""Dense complex-matrix kernel: tensor products, partial traces and
density-matrix validation.

Everything operates on plain ``numpy`` arrays; states carry their bipartite
split (dA, dB) in a small immutable :class:`DensityMatrix` wrapper. A
single-system state is represented with dB = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


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


def shared_dims(rhos) -> tuple[int, int]:
    """The dims shared by a sequence of states, which a stack of their matrices needs."""
    all_dims = {r.dims for r in rhos}
    if len(all_dims) != 1:
        raise ValueError(f"a state stack needs one dims, got {sorted(all_dims)}")
    return all_dims.pop()


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the left factor on the slow (A) index.

    Of two vectors, or of the last two axes of two matrices, whose leading
    axes broadcast; bit for bit what ``np.kron`` gives on one pair.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


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


class StateError(ValueError):
    """A check failed on state ``index`` of a stack (0 for one state), with that state's message."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


def entry(value, index: int):
    """State ``index``'s entry of a per-state array or shared scalar, as a Python number."""
    return np.ravel(value)[index if np.ndim(value) else 0].item()


def require(ok, message: str, *values):
    """Raise StateError at the first state whose ``ok`` is false, formatting its entry of values."""
    bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
    if bad.size:
        index = int(bad[0])
        raise StateError(message.format(*(entry(v, index) for v in values)), index)


def validate_density(
    mat: np.ndarray, dims: tuple[int, int], tol: float = DEFAULT_TOL
) -> DensityMatrix | list[DensityMatrix]:
    """Check Hermiticity, unit trace, and positivity; return a DensityMatrix.

    Eigenvalues in [-tol, 0) are treated as roundoff: they are clipped to zero
    and the state renormalized. Anything below -tol is an error. A stack
    (N, side, side) gives the list of its N states, each checked as one, with
    one ``eigvalsh`` call; a failure is the StateError of the first failing
    state, which carries its index.
    """
    mat = np.asarray(mat, dtype=complex)
    mats = mat if mat.ndim == 3 else mat[None]
    dA, dB = dims
    if dA < 1 or dB < 1:
        raise ValueError(f"invalid subsystem dimensions {dims}")
    side = dA * dB
    if mats.shape[1:] != (side, side):
        raise ValueError(f"expected shape {(side, side)} for dims {dims}, got {mats.shape[1:]}")
    dev = np.abs(mats - adjoint(mats)).max(axis=(1, 2)).tolist()
    tr = mats.trace(0, 1, 2).tolist()
    # the first state that fails any check is reported, with its first failing check
    bad = [i for i, (d, t) in enumerate(zip(dev, tr)) if not d <= tol or abs(t - 1.0) > tol]
    n = bad[0] if bad else len(mats)
    w = [v[0] for v in np.linalg.eigvalsh(mats[:n]).tolist()]
    low = [i for i, v in enumerate(w) if v < 0.0]
    for i in low:
        if w[i] < -tol:
            raise StateError(f"negative eigenvalue {w[i]:.3e} below -{tol:g}", i)
    if n < len(mats):
        if not dev[n] <= tol:
            raise StateError(f"not Hermitian within {tol:g} (deviation {dev[n]:.3e})", n)
        raise StateError(f"trace deviates from 1 by {abs(tr[n] - 1.0):.3e} (tol {tol:g})", n)
    out = np.array(mat)
    if low:
        # clip the roundoff-negative part of the spectrum and renormalize
        w_cl, v = np.linalg.eigh(mats[low])
        m = (v * np.clip(w_cl, 0.0, None)[:, None, :]) @ adjoint(v)
        m = (m + adjoint(m)) / 2
        out.reshape(mats.shape)[low] = m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    out.setflags(write=False)
    if mat.ndim != 3:
        return DensityMatrix(mat=out, dims=(dA, dB), tol=tol)
    return [DensityMatrix(mat=m, dims=(dA, dB), tol=tol) for m in out]
