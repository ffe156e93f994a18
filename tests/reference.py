"""Reference implementations that the tests compare production code against."""

import numpy as np


def theta_residual(theta, dt, old_values, new_values, rhs_old, rhs_new):
    """Ordinary theta-scheme residual (theta = 1 fully implicit)."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    old_values = np.asarray(old_values, dtype=float)
    new_values = np.asarray(new_values, dtype=float)
    rhs_old = np.asarray(rhs_old, dtype=float)
    rhs_new = np.asarray(rhs_new, dtype=float)
    if not (old_values.shape == new_values.shape == rhs_old.shape == rhs_new.shape):
        raise ValueError("all vectors must share one shape")
    return (new_values - old_values) / dt - (theta * rhs_new + (1.0 - theta) * rhs_old)
