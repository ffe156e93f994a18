"""Small problems that more than one test module solves."""

import numpy as np

from bsann.problems import INITIAL_DATA, ProblemSpec
from bsann.stepper import SpatialOperator


def constant_problem(exact=True):
    """u = 1 everywhere: no operator, no forcing, data and boundaries 1."""
    op = SpatialOperator(
        gamma1=lambda s: np.zeros_like(s),
        gamma2=lambda s: np.zeros_like(s),
        gamma3=0.0,
        forcing=lambda s, t: 0.0,
    )
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    return ProblemSpec(
        name="constant",
        alpha=1.0,
        maturity=1.0,
        operator=op,
        data_kind=INITIAL_DATA,
        data=one,
        left_bc=lambda s, t: 1.0,
        right_bc=lambda s, t: 1.0,
        exact=(lambda s, t: one(s)) if exact else None,
    )
