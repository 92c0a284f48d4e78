"""Builtin observables and the plain-text observable file format.

File format: whitespace-separated complex tokens like ``0.5``, ``1+2i`` or
``0.25-0.3i``, row-major; the matrix dimension is inferred from the token
count. Eight reference matrices used by the default scenarios ship with the
package as bundled data files.
"""

from __future__ import annotations

import cmath
import re
from importlib import resources

import numpy as np

from .bounds import Observable
from .linalg import PAULIS

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN = re.compile(
    rf"^(?:(?P<re>[+-]?{_NUM})(?:(?P<im>[+-]{_NUM})i)?|(?P<im_only>[+-]?{_NUM})i)$"
)

BUNDLED = ("x1", "z1", "x2", "z2", "x3", "z3", "x4", "z4")


class ObservableFormatError(ValueError):
    """Raised for malformed observable files, with the offending token position."""


def parse_complex_token(token: str) -> complex:
    m = _TOKEN.match(token)
    if m is None:
        raise ObservableFormatError(f"cannot parse complex token {token!r}")
    if m.group("im_only") is not None:
        value = complex(0.0, float(m.group("im_only")))
    else:
        value = complex(float(m.group("re")), float(m.group("im") or 0.0))
    if not cmath.isfinite(value):
        raise ObservableFormatError(f"complex token {token!r} is not finite")
    return value


def parse_observable_text(text: str) -> np.ndarray:
    """Parse row-major complex tokens into a square matrix."""
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        cursor = 0
        for token in line.split():
            idx = line.index(token, cursor)
            cursor = idx + len(token)
            try:
                entries.append(parse_complex_token(token))
            except ObservableFormatError as exc:
                raise ObservableFormatError(f"line {lineno}, column {idx + 1}: {exc}") from None
    n = len(entries)
    side = round(n ** 0.5)
    if side * side != n or n == 0:
        raise ObservableFormatError(f"{n} entries do not form a square matrix")
    return np.array(entries, dtype=complex).reshape(side, side)


def load_observable_file(path: str) -> Observable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return Observable(parse_observable_text(fh.read()))
    except UnicodeDecodeError as exc:
        raise ObservableFormatError(f"{path}: {exc}") from None
    except ValueError as exc:  # malformed, not Hermitian, too large or degenerate
        raise type(exc)(f"{path}: {exc}") from None


def bundled_observable(name: str) -> Observable:
    """One of the eight reference matrices shipped with the package."""
    key = name.lower()
    if key not in BUNDLED:
        raise ValueError(f"unknown bundled observable {name!r}; have {BUNDLED}")
    text = resources.files("quncert.data").joinpath(f"{key}.txt").read_text(encoding="utf-8")
    return Observable(parse_observable_text(text))


def pauli_observable(index: int) -> Observable:
    """sigma_1, sigma_2 or sigma_3 as an Observable."""
    if index not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2 or 3, got {index}")
    return Observable(PAULIS[index - 1])


def su3_pair() -> tuple[Observable, Observable]:
    """The qutrit pair X = |0><1| + |1><0| and Z = |0><0| - |1><1|.

    Both have spectrum {-1, 0, 1} in dimension 3, hence are non-degenerate.
    """
    x = np.zeros((3, 3), dtype=complex)
    x[0, 1] = x[1, 0] = 1.0
    z = np.diag([1.0, -1.0, 0.0]).astype(complex)
    return Observable(x), Observable(z)
