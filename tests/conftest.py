import numpy as np
import pytest

import contactmodes
from contactmodes import StaticGraph
from contactmodes import jointdiag as jd_mod
from contactmodes import modes as modes_mod

# Every off2 history observed during the suite; the acceptance module
# asserts over this as well, but the guard below already fails any run
# with a non-monotone history on the spot.
JD_HISTORIES = []


@pytest.fixture(scope="session", autouse=True)
def _jd_monotonicity_guard():
    # joint_diagonalise is the one-set call of joint_diagonalise_sets, so
    # wrapping the shared loop sees every diagonalisation, per-mode ones
    # included, one history per set
    original = jd_mod.joint_diagonalise_sets

    def checked(*args, **kwargs):
        results = original(*args, **kwargs)
        for res in results:
            hist = np.asarray(res.off2_history, dtype=float)
            assert np.all(np.diff(hist) <= 0.0), "off2 history increased during a sweep"
            JD_HISTORIES.append(hist)
        return results

    patched = [jd_mod, modes_mod, contactmodes]
    for mod in patched:
        mod.joint_diagonalise_sets = checked
    yield
    for mod in patched:
        mod.joint_diagonalise_sets = original


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
