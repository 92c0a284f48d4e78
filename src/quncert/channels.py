"""Kraus-operator evolution and the five decoherence models: local amplitude
and phase damping, the damped oscillator non-Markovian survival probability,
the random-external-field map, and the dephasing model with the sudden
classical/quantum transition.

The tests hold the Kraus route to the closed-form damped states of
tests/oracles.py within 1e-10. The swept parameter of each model
broadcasts: N values give N stacked Kraus operators (N, d, d) and a list of N
states, each bit for bit the state of its value alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, adjoint, kron, require, validate_density
from .states import bell_diagonal, bell_like

COMPLETENESS_TOL = 1e-10
CHANNEL_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map given by its operators; N maps if (N, d, d)."""

    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.ops)
        if not ops:
            raise ValueError("channel needs at least one operator")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise ValueError("all Kraus operators must share one shape")
        total = sum(adjoint(k) @ k for k in ops)
        dev = np.abs(total - np.eye(shape[-1])).max(axis=(-2, -1))
        require(~np.greater(dev, COMPLETENESS_TOL), "completeness relation violated by {:.3e}", dev)
        object.__setattr__(self, "ops", ops)

    @property
    def side(self) -> int:
        return self.ops[0].shape[-1]


def apply_kraus(rho: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """Evolve rho through sum_k K rho K^dagger; trace is preserved. N channels give N states."""
    if channel.side != rho.side:
        raise ValueError(f"channel side {channel.side} != state side {rho.side}")
    out = np.zeros_like(rho.mat)
    for k in channel.ops:
        out = out + k @ rho.mat @ adjoint(k)
    return validate_density(out, rho.dims, tol=CHANNEL_TOL)


def _single_qubit_kraus(kind: str, p: float) -> list[np.ndarray]:
    require((0.0 <= p) & (p <= 1.0), "damping probability {} outside [0, 1]", p)
    k0, k1 = np.zeros((2,) + np.shape(p) + (2, 2), dtype=complex)
    k0[..., 0, 0] = 1.0
    k0[..., 1, 1] = np.sqrt(1.0 - p)
    if kind == "amplitude":
        k1[..., 0, 1] = np.sqrt(p)
    elif kind == "phase":
        k1[..., 1, 1] = np.sqrt(p)
    else:
        raise ValueError(f"kind must be 'amplitude' or 'phase', got {kind!r}")
    return [k0, k1]


def local_channel(kind: str, p_a: float, p_b: float) -> KrausChannel:
    """Independent one-qubit channels on A and B; p_b=0 gives the one-sided case; p broadcasts."""
    ka = _single_qubit_kraus(kind, p_a)
    kb = _single_qubit_kraus(kind, p_b)
    return KrausChannel(ops=tuple(kron(u, v) for u in ka for v in kb))


def jc_survival(t: float, gamma0: float, tau: float) -> float:
    """Excitation survival probability of a qubit damped through a lossy cavity mode.

    Valid in the strong-coupling regime gamma0 > tau/2, where the decay
    oscillates: p_t = exp(-tau*t) * [cos(D*t/2) + (tau/D) sin(D*t/2)]^2 with
    D = sqrt(2*gamma0*tau - tau^2). t broadcasts.
    """
    if gamma0 <= 0.0 or tau <= 0.0:
        raise ValueError("gamma0 and tau must be positive rates")
    if gamma0 <= tau / 2.0:
        raise ValueError(f"weak coupling (gamma0={gamma0} <= tau/2={tau / 2.0}) not supported")
    require(~np.less(t, 0.0), "negative time t={}", t)
    delta = np.sqrt(2.0 * gamma0 * tau - tau * tau)
    amp = np.cos(delta * t / 2.0) + (tau / delta) * np.sin(delta * t / 2.0)
    p_t = np.clip(np.exp(-tau * t) * amp * amp, 0.0, 1.0)
    return p_t if np.ndim(p_t) else float(p_t)


def jc_state(alpha: float, p_t: float) -> DensityMatrix:
    """Bell-like state after both qubits decay independently with survival p_t.

    Decay maps |1> to |0>: p_t=1 returns the pure initial state, p_t=0 the
    ground state |00><00|. p_t broadcasts.
    """
    require((0.0 <= p_t) & (p_t <= 1.0), "p_t={} outside [0, 1]", p_t)
    rho0 = bell_like(alpha)
    return apply_kraus(rho0, local_channel("amplitude", 1.0 - p_t, 1.0 - p_t))


def _field_unitary(gt: float, phase: float) -> np.ndarray:
    c, s = np.cos(gt), np.sin(gt)
    u = np.empty(np.shape(gt) + (2, 2), dtype=complex)
    u[..., 0, 0] = u[..., 1, 1] = c
    u[..., 0, 1] = np.exp(-1j * phase) * s
    u[..., 1, 0] = -np.exp(1j * phase) * s
    return u


def random_field_state(rho0: DensityMatrix, gt: float, p1: float) -> DensityMatrix:
    """Average over local rotations driven by a two-valued random field phase.

    Each qubit sees a field of phase 0 with probability p1 or pi with
    probability 1 - p1; the map mixes the four product rotations with product
    weights and is pi-periodic in gt. gt broadcasts.
    """
    if rho0.dims != (2, 2):
        raise ValueError(f"need a two-qubit state, got dims {rho0.dims}")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1={p1} outside [0, 1]")
    us = [_field_unitary(gt, 0.0), _field_unitary(gt, np.pi)]
    weights = [p1, 1.0 - p1]
    out = np.zeros_like(rho0.mat)
    for wj, uj in zip(weights, us):
        for wk, uk in zip(weights, us):
            op = kron(uj, uk)
            out = out + wj * wk * (op @ rho0.mat @ adjoint(op))
    return validate_density(out, (2, 2), tol=CHANNEL_TOL)


def dephased_bell_diagonal(c1: float, c2: float, c3: float, gamma: float, t: float) -> DensityMatrix:
    """Bell-diagonal state under independent dephasing at rate gamma.

    The transverse correlations decay as exp(-2*gamma*t) while c3 is frozen,
    which produces the sudden classical/quantum decoherence transition. t broadcasts.
    """
    require(~(np.less(gamma, 0.0) | np.less(t, 0.0)), "gamma and t must be nonnegative")
    decay = np.exp(-2.0 * gamma * t)
    return bell_diagonal(c1 * decay, c2 * decay, c3)
