"""Constructors for the bipartite state families under study.

Basis conventions, fixed once: |phi+-> = (|00> +- |11>)/sqrt(2) and
|psi+-> = (|01> +- |10>)/sqrt(2). Every constructor returns a state validated
at tolerance 1e-12. A parameter documented to broadcast takes N values for a
list of N states, each bit for bit the state of its value alone.
"""

from __future__ import annotations

import numpy as np

from .linalg import PAULIS, DensityMatrix, StateError, entry, kron, require, validate_density

CONSTRUCT_TOL = 1e-12
_SIGMA_PAIRS = tuple(kron(s, s) for s in PAULIS)


def _ket(dims, *indices) -> np.ndarray:
    v = np.zeros(int(np.prod(dims)), dtype=complex)
    stride = 1
    pos = 0
    for d, i in zip(reversed(dims), reversed(indices)):
        pos += i * stride
        stride *= d
    v[pos] = 1.0
    return v


def _proj(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def _bell_vectors(dB: int = 2):
    phi_p = (_ket((2, dB), 0, 0) + _ket((2, dB), 1, 1)) / np.sqrt(2)
    phi_m = (_ket((2, dB), 0, 0) - _ket((2, dB), 1, 1)) / np.sqrt(2)
    psi_p = (_ket((2, dB), 0, 1) + _ket((2, dB), 1, 0)) / np.sqrt(2)
    psi_m = (_ket((2, dB), 0, 1) - _ket((2, dB), 1, 0)) / np.sqrt(2)
    return phi_p, phi_m, psi_p, psi_m


def singlet() -> DensityMatrix:
    """The antisymmetric Bell state |psi->."""
    return validate_density(_proj(_bell_vectors()[3]), (2, 2), tol=CONSTRUCT_TOL)


def werner(d: int, f: float) -> DensityMatrix:
    """Werner family: white noise mixed with the antisymmetric component.

    d=2 gives (1-f)/4 * I + f |psi-><psi-|; d=3 mixes the projectors onto the
    symmetric and antisymmetric subspaces with weights (1-f)/6 and f/3. f broadcasts.
    """
    require((0.0 <= f) & (f <= 1.0), "f={} outside [0, 1]", f)
    f = np.asarray(f)[..., None, None]
    if d == 2:
        mat = (1.0 - f) / 4.0 * np.eye(4, dtype=complex) + f * _proj(_bell_vectors()[3])
        return validate_density(mat, (2, 2), tol=CONSTRUCT_TOL)
    if d == 3:
        swap = np.zeros((9, 9), dtype=complex)
        for i in range(3):
            for j in range(3):
                swap[i * 3 + j, j * 3 + i] = 1.0
        sym = (np.eye(9, dtype=complex) + swap) / 2.0
        anti = (np.eye(9, dtype=complex) - swap) / 2.0
        mat = (1.0 - f) / 6.0 * sym + f / 3.0 * anti
        return validate_density(mat, (3, 3), tol=CONSTRUCT_TOL)
    raise ValueError(f"d={d} unsupported; need 2 or 3")


def isotropic(d: int, f: float) -> DensityMatrix:
    """Isotropic family: f on the maximally entangled state, the rest uniform. f broadcasts."""
    require((0.0 <= f) & (f <= 1.0), "f={} outside [0, 1]", f)
    if d not in (2, 3):
        raise ValueError(f"d={d} unsupported; need 2 or 3")
    f = np.asarray(f)[..., None, None]
    v = sum(_ket((d, d), i, i) for i in range(d)) / np.sqrt(d)
    phi = _proj(v)
    mat = f * phi + (1.0 - f) / (d * d - 1.0) * (np.eye(d * d, dtype=complex) - phi)
    return validate_density(mat, (d, d), tol=CONSTRUCT_TOL)


def bell_diagonal(c1: float, c2: float, c3: float) -> DensityMatrix:
    """Bell-diagonal two-qubit state of correlation triple (c1, c2, c3), which broadcasts."""
    mat = np.eye(4, dtype=complex)
    for c, sigma_pair in zip((c1, c2, c3), _SIGMA_PAIRS):
        mat = mat + np.asarray(c)[..., None, None] * sigma_pair
    try:
        return validate_density(mat / 4.0, (2, 2), tol=CONSTRUCT_TOL)
    except StateError as exc:
        triple = ", ".join(str(entry(c, exc.index)) for c in (c1, c2, c3))
        raise StateError(f"invalid correlation triple ({triple}): {exc}", exc.index) from None


def qubit_qudit(alpha: float, gamma: float, kind: str = "qutrit") -> DensityMatrix:
    """Qubit x qutrit (or ququart) mixture of padded kets and Bell components.

    The Bell components live in the first two levels of the qudit; alpha
    weights each |i, j>=2 level. beta is fixed by unit trace:
    (1 - 2*alpha - gamma)/3 for the qutrit, (1 - 4*alpha - gamma)/3 for the
    ququart. The weights broadcast.
    """
    if kind == "qutrit":
        dB, pad_levels = 3, (2,)
    elif kind == "ququart":
        dB, pad_levels = 4, (2, 3)
    else:
        raise ValueError(f"kind must be 'qutrit' or 'ququart', got {kind!r}")
    n_pad = 2 * len(pad_levels)
    beta = (1.0 - n_pad * alpha - gamma) / 3.0
    require(~np.less(np.minimum(np.minimum(alpha, beta), gamma), -CONSTRUCT_TOL),
            "negative weight among alpha={}, beta={}, gamma={}", alpha, beta, gamma)
    alpha, beta, gamma = (np.asarray(w)[..., None, None] for w in (alpha, beta, gamma))
    phi_p, phi_m, psi_p, psi_m = _bell_vectors(dB)
    mat = np.zeros((2 * dB, 2 * dB), dtype=complex)
    for i in (0, 1):
        for j in pad_levels:
            mat = mat + alpha * _proj(_ket((2, dB), i, j))
    for w, v in ((beta, phi_p), (beta, phi_m), (beta, psi_p), (gamma, psi_m)):
        mat = mat + w * _proj(v)
    return validate_density(mat, (2, dB), tol=CONSTRUCT_TOL)


def bell_like(alpha: float) -> DensityMatrix:
    """Pure state alpha|00> + sqrt(1-alpha^2)|11>."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha} outside [0, 1]")
    v = alpha * _ket((2, 2), 0, 0) + np.sqrt(1.0 - alpha * alpha) * _ket((2, 2), 1, 1)
    return validate_density(_proj(v), (2, 2), tol=CONSTRUCT_TOL)


def bell_mixture(w1p: float, w1m: float, w2p: float, w2m: float) -> DensityMatrix:
    """Mixture of the four Bell states with weights on (psi+, psi-, phi+, phi-)."""
    weights = (w1p, w1m, w2p, w2m)
    if min(weights) < -CONSTRUCT_TOL:
        raise ValueError(f"negative Bell weight in {weights}")
    if abs(sum(weights) - 1.0) > CONSTRUCT_TOL:
        raise ValueError(f"Bell weights sum to {sum(weights)!r}, not 1")
    phi_p, phi_m, psi_p, psi_m = _bell_vectors()
    mat = w1p * _proj(psi_p) + w1m * _proj(psi_m) + w2p * _proj(phi_p) + w2m * _proj(phi_m)
    return validate_density(mat, (2, 2), tol=CONSTRUCT_TOL)
