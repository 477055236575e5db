"""Exception types and argument checks shared across the package.

``NumericalError`` subclasses signal failures of the numerical machinery
(singular systems, infeasible assignments, degenerate whitening) as opposed
to caller mistakes, which raise plain ``ValueError``. The CLI maps the two
families to distinct exit codes. ``integer`` and ``finite`` are the one check
of every scalar argument taken from a caller, a JSON file or a study config;
``finite_array`` is the one check of every array argument (samples, ``W``,
``B``, ``delta``, ``c``), and ``square_matrix`` adds the one shape check of
every matrix that must be square (``W``, ``B``).
"""

import math
import numbers
import operator

import numpy as np


class NumericalError(RuntimeError):
    """A numerical procedure failed on otherwise well-formed input."""


class SingularModelError(NumericalError):
    """I - B (or a reduced block of it) is singular or numerically so."""


class WhiteningError(NumericalError):
    """Sample covariance is rank deficient; whitening is impossible."""


class NoAdmissiblePermutationError(NumericalError):
    """Every row permutation leaves a below-tolerance diagonal entry."""


def integer(value, name: str, low: int | None = None) -> int:
    """``value`` as a Python ``int``; ValueError unless it is an integer ``>= low``.

    Anything with ``__index__`` passes (numpy integers do) except ``bool``, so
    ``1.5``, ``2.0``, ``"3"`` and ``True`` are refused, not read as numbers.
    """
    if type(value) is not int:  # a plain int, the common case, skips to the bound
        if isinstance(value, bool) or not hasattr(type(value), "__index__"):
            raise ValueError(f"{name} must be an integer (Python or numpy integers, not bool), "
                             f"got {value!r}")
        value = operator.index(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value}")
    return value


def finite(value, name: str) -> float:
    """``value`` as a ``float``; ValueError unless it is a finite real number, not ``bool``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def finite_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; ValueError unless it holds finite real numbers.

    The dtype numpy infers, without a cast, decides: integer and float kinds
    pass (a float64 array is returned, not copied); bool, string, object and
    complex dtypes are refused. Only the dtype is seen: ``[0.5, True]`` infers
    float64, so it passes with ``True`` read as 1.0.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold integers or floats, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite (found NaN or Inf)")
    return arr


def square_matrix(value, name: str) -> np.ndarray:
    """``finite_array(value, name)``; ValueError unless it is a square 2-D matrix."""
    m = finite_array(value, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return m
