"""Profile the dilated set width across candidate bandwidths.

The width-minimizing method evaluates one window-count level set per
bandwidth on the whole sample, all sharing a single simultaneous threshold
and one pilot taken from the same sample, and keeps the narrowest
dilation.  This script prints the whole width profile so you can see the
tradeoff: at tiny bandwidths the threshold never binds and the set is the
whole line; large bandwidths bind sooner but pay 2h of dilation.
"""

import numpy as np

from modeset import FBetaDensity, RngStream, run_method
from modeset.core import venter_pilot
from modeset.mest import default_bandwidth_grid, dkw_count_slack

ALPHA = 0.05
N = 2000

data = FBetaDensity(beta=1.0).sample(RngStream(seed=11, stream_id=0), n=N)
# the sorted sample as one row, and its pilot: m2a splits nothing
points = np.sort(data)[None, :]
pilot = float(venter_pilot(points)[0])
slack = dkw_count_slack(N, ALPHA)
print(f"pilot estimate {pilot:.4f}; n={N}; count slack {slack:.1f}\n")
print(f"{'h':>8}  {'N(pilot)':>8}  {'binds':>5}  {'width':>8}")

[grid] = default_bandwidth_grid(points, size=24)
best_h, best_width = None, np.inf
for h in grid:
    # m2 at this h: the m2a sweep over the one-bandwidth grid [h], from the same pilot
    res = run_method(data, ALPHA, "m2", h=h)
    # the windows [X_i - h, X_i + h) that hold the pilot, as m2a counts them
    n_pilot = int(np.count_nonzero((points - h <= pilot) & (pilot < points + h)))
    binds = " no" if res.vacuous else "yes"
    width = res.confidence_set.width
    marker = ""
    if best_h is None or width < best_width:  # ties, even at inf, go to the smaller h
        best_h, best_width = h, width
        marker = "  <- best so far"
    print(f"{h:8.4f}  {n_pilot:8d}  {binds:>5}  {width:8.4f}{marker}")

print(f"\nchosen bandwidth {best_h:.4f} with width {best_width:.4f}")
