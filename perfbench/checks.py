"""Correctness checks on the program's outputs.

Each check returns a list of problems, empty when the output is right.  The
expected values come from ``inputs`` (closed forms on the generators'
coefficients) or from properties the method must have, never from saved
outputs.
"""

from __future__ import annotations

import numpy as np

# Agreement of the seed code with the closed forms, measured at the
# workloads' grids: recovered metrics within 2e-14 (scrambles) and 3e-11 of
# their sample's scale (flat sweep, 512^2, 80 draws), log volume and Euler
# numbers within 1e-15.
# The tolerances sit orders of magnitude above those figures and below the
# smallest error the tests plant (1e-6 in one sample).
SAMPLE_RTOL = 1e-9
EULER_TOL = 1e-8


def close(name: str, actual, expected, rtol: float = SAMPLE_RTOL, scale=None) -> list[str]:
    """Every sample within ``rtol * (1 + scale)``; ``scale`` is ``|expected|``
    unless given."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return [f"{name}: shape {actual.shape} != {expected.shape}"]
    if not np.all(np.isfinite(actual)):
        return [f"{name}: non-finite samples"]
    if scale is None:
        scale = np.abs(expected)
    excess = np.abs(actual - expected) - rtol * (1.0 + scale)
    if np.any(excess > 0.0):
        worst = np.unravel_index(int(np.argmax(excess)), excess.shape)
        return [f"{name}: sample {tuple(int(i) for i in worst)} is {float(actual[worst])!r}, "
                f"expected {float(expected[worst])!r}"]
    return []


def close_metric(name: str, actual, expected) -> list[str]:
    """Sampled 2x2 metrics, shape ``(..., 2, 2)``, each entry within
    ``SAMPLE_RTOL`` of its own sample's largest entry: an off-diagonal entry
    that crosses zero is held to the scale of the matrix it belongs to."""
    expected = np.asarray(expected, dtype=float)
    scale = np.max(np.abs(expected), axis=(-2, -1), keepdims=True)
    return close(name, actual, expected, scale=np.broadcast_to(scale, expected.shape))


def equal(name: str, actual, expected) -> list[str]:
    return [] if actual == expected else [f"{name}: {actual!r}, expected {expected!r}"]


def near_zero(name: str, value, tol: float = EULER_TOL) -> list[str]:
    value = float(value)
    return [] if abs(value) <= tol else [f"{name}: {value!r}, expected 0 within {tol:g}"]
