"""Exception types and argument checks shared across the package.

``NumericalError`` subclasses signal failures of the numerical machinery
(singular systems, infeasible assignments, degenerate whitening) as opposed
to caller mistakes, which raise plain ``ValueError``. The CLI maps the two
families to distinct exit codes. ``integer`` and ``finite`` are the one check
of every scalar argument taken from a caller, a JSON file or a study config.
"""

import math
import numbers
import operator


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
