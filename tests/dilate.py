"""Minkowski dilation of a confidence set, the oracle of the m2/m2a dilation.

The library never dilates a finished set: ``mest._sweep`` shifts each
bandwidth's level-set pieces by h and joins them once.  Tests keep this
direct dilation to check that every ``m2``/``m2a`` set is its
``pre_dilation`` dilated by its ``h``.
"""

import numpy as np

from modeset import ConfidenceSet, make_confidence_set


def dilate(cs: ConfidenceSet, h: float) -> ConfidenceSet:
    """Every point within distance ``h`` of the set.

    Each interval [lo, hi] becomes [lo - h, hi + h], and
    ``make_confidence_set`` joins them, closing the gaps narrower than
    2h; an infinite end shifted by an infinite ``h`` raises as NaN.
    """
    if not h >= 0:
        raise ValueError(f"dilation radius must be nonnegative, got {h}")
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as with Python floats
        return make_confidence_set(np.array(cs.intervals).reshape(-1, 2) + [-h, h])
