"""Metric definitions shared by the benchmark runner and its tests.

Nothing here imports quncert: these functions only turn recorded samples,
shortfalls and failures into the numbers the runner prints.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

# A percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10

# Failure kinds that count towards bound_fail_share: a bound inequality that
# does not hold, or a program call that ended as the CLI's exit codes 2 or 3.
BOUND_FAILURES = frozenset({"bound", "numerical"})


@dataclass
class Call:
    """One timed call into the program and what its checks found."""

    ms: float
    states: int
    failures: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Ref:
    """A state whose classical correlation J has an exact reference."""

    dims: tuple[int, int]
    j_ref: float
    j: float

    @property
    def shortfall(self) -> float:
        """J_ref - J in bits; J is a lower estimate, so this is >= 0 up to roundoff."""
        return self.j_ref - self.j


def min_samples(q: float) -> int:
    """Fewest samples that leave MIN_BEYOND of them above the q-th percentile."""
    return math.ceil(MIN_BEYOND * 100 / (100 - q))


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive method), refused on too few samples."""
    if len(samples) < min_samples(q):
        raise ValueError(
            f"p{q} needs at least {min_samples(q)} samples, got {len(samples)}"
        )
    if q == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def shortfall_max(refs: list[Ref]) -> float:
    """Largest J_ref - J over the referenced states."""
    return max(r.shortfall for r in refs)


def miss_count(refs: list[Ref], tolerance: dict[int, float]) -> int:
    """States whose shortfall exceeds the tolerance for their measured side dA."""
    return sum(r.shortfall > tolerance[r.dims[0]] for r in refs)


def miss_share(refs: list[Ref], tolerance: dict[int, float]) -> float:
    """Share of referenced states missed by more than the tolerance for their dA."""
    return miss_count(refs, tolerance) / len(refs)


def bound_fail_count(calls: list[Call]) -> int:
    """Calls that violated a bound or failed numerically."""
    return sum(any(f.split(":")[0] in BOUND_FAILURES for f in c.failures) for c in calls)


def bound_fail_share(calls: list[Call]) -> float:
    return bound_fail_count(calls) / len(calls)


def reference_agrees(holevo_in_basis: float, mutual: float, tol: float = 1e-12) -> bool:
    """A zero-discord reference holds when the generating basis attains I(A:B)."""
    return abs(holevo_in_basis - mutual) <= tol
