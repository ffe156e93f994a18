"""The finite-difference error floor of the shipped configs, and its place
under the acceptance gates.

The floor is the error that a perfect fit at every step of the network march
would leave: what the time scheme, the domain and the boundary data cost on
their own. A gate below its floor could only pass by luck.
"""

import os

import pytest

from bsann.config import build_grid, build_map, build_problem, load_config
from bsann.mapping import from_x
from bsann.solver import build_collocation
from reference import fd_error_floor

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


@pytest.mark.parametrize(
    "filename, s_cap, floor, gate",
    [
        # the gates of tests/test_acceptance.py, on the regions they check
        ("example1_truncated.cfg", 12.0, 5.4e-3, 2e-2),
        ("example3_truncated.cfg", 12.0, 9.5e-3, 2e-2),
        ("example2_fractional.cfg", None, 1.6e-3, 1e-2),
    ],
)
def test_error_floor_is_converged_and_below_the_gate(filename, s_cap, floor, gate):
    cfg = load_config(os.path.join(CONFIG_DIR, filename))
    problem, dmap, grid = build_problem(cfg), build_map(cfg), build_grid(cfg)
    s = from_x(dmap, build_collocation(dmap, cfg.n_points).points)
    if s_cap is not None:
        s = s[s <= s_cap]
    coarse = fd_error_floor(problem, dmap.s_max, grid, s, 2000)
    fine = fd_error_floor(problem, dmap.s_max, grid, s, 8000)
    assert abs(coarse - fine) <= 0.01 * fine
    assert f"{fine:.1e}" == f"{floor:.1e}"
    assert fine < gate
