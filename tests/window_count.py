"""Window count N(theta) of the m2/m2a construction, read off the shifted points.

The library never evaluates N at a point: ``mest._pilot_counts`` counts
it at the pilot for a whole bandwidth grid, and ``mest._level_runs``
reads the set N >= K straight from the sorted shifted points.  Tests keep
this direct count as the oracle both are checked against.
"""

import numpy as np


def window_count(starts: np.ndarray, ends: np.ndarray, theta) -> np.ndarray | int:
    """N(theta) from the sorted X_i - h and X_i + h: the windows holding theta.

    N(theta) counts the points with theta - h < X_i <= theta + h: the
    indicator of point i is 1 exactly on [X_i - h, X_i + h).
    """
    return np.searchsorted(starts, theta, side="right") - np.searchsorted(
        ends, theta, side="right"
    )
