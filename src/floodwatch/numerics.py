"""Shared numeric helpers."""

import numpy as np

from .errors import NumericError


def sigmoid(x):
    """Overflow-safe logistic function.

    Evaluates 1/(1 + exp(-x)) for x >= 0 and exp(x)/(1 + exp(x)) for
    x < 0, so the exponential argument is never positive and the result
    is NaN-free for any input but NaN.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1 / (1 + e), e / (1 + e))


def require_finite(arr, what: str):
    """Raise NumericError if any entry of ``arr`` is NaN or infinite."""
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{what} contains non-finite values")
