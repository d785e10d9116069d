import sys

import numpy as np
import pytest

from contactmodes import StaticGraph
from contactmodes import jointdiag as jd_mod

# Every off2 history observed during the suite; the acceptance module
# asserts over this as well, but the guard below already fails any run
# with a non-monotone history on the spot.
JD_HISTORIES = []


@pytest.fixture(scope="session", autouse=True)
def _jd_monotonicity_guard():
    # every module that holds joint_diagonalise gets the wrapper, the test
    # modules that imported it by name before this fixture ran included,
    # so every diagonalisation of the suite is seen, one history each
    original = jd_mod.joint_diagonalise

    def checked(*args, **kwargs):
        res = original(*args, **kwargs)
        hist = np.asarray(res.off2_history, dtype=float)
        assert np.all(np.diff(hist) <= 0.0), "off2 history increased during a sweep"
        JD_HISTORIES.append(hist)
        return res

    patched = [m for m in list(sys.modules.values()) if getattr(m, "__dict__", {}).get("joint_diagonalise") is original]
    for mod in patched:
        mod.joint_diagonalise = checked
    yield
    for mod in patched:
        mod.joint_diagonalise = original


@pytest.fixture(scope="session")
def bridged_graph() -> StaticGraph:
    """Seven nodes: triangle {0,1,2} and clique {3,4,5,6} joined by the
    two parallel bridges (2,3) and (1,4)."""
    edges = [
        (0, 1), (0, 2), (1, 2),
        (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
        (2, 3), (1, 4),
    ]
    return StaticGraph.from_edges(7, edges)
