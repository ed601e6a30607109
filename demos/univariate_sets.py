"""Walk through every univariate construction on one synthetic sample.

Draws n = 1000 points from the piecewise power test density (mode at 0),
then builds the five confidence sets side by side.  Note how differently
they behave at desk-scale n: the spacing interval is already fairly tight,
the window sets at the study bandwidth and at the width-minimizing one are
somewhat wider, and the p-value sets are wide but valid.
"""

import json

from modeset import FBetaDensity, RngStream, run_method, study_bandwidth

ALPHA = 0.05
N = 1000

data = FBetaDensity(beta=1.0).sample(RngStream(seed=7, stream_id=0), n=N)
split_stream = RngStream(seed=7, stream_id=1)
print(f"sample: n={N}, range [{data.min():.3f}, {data.max():.3f}], true mode 0.0\n")

# run_method returns a ModeResult: the set plus the diagnostics the method
# computed (pilot, bandwidth, pre-dilation set, vacuous threshold)
h = study_bandwidth(N, beta=1.0)
m1 = run_method(data, ALPHA, "m1")
m2 = run_method(data, ALPHA, "m2", h=h)  # the whole sample: m2 and m2a take no split
m2a = run_method(data, ALPHA, "m2a")
m3 = run_method(data, ALPHA, "m3", split_stream=split_stream)
m3p = run_method(data, ALPHA, "m3p", rho=2.0, split_stream=split_stream)

results = {
    "m1 (order-statistic spacings)": m1.confidence_set,
    "m2 (fixed bandwidth h=%.3f%s)" % (h, ", vacuous" if m2.vacuous else ""):
        m2.confidence_set,
    f"m2a (width-minimizing, picked h={m2a.h:.3f})": m2a.confidence_set,
    "m3 (combined p-values)": m3.confidence_set,
    "m3p (dependence-robust, rho=2)": m3p.confidence_set,
}

for name, cs in results.items():
    lo, hi = cs.hull()
    print(f"{name}")
    print(f"    [{lo:10.4f}, {hi:10.4f}]  width {cs.width:9.4f}  "
          f"covers 0: {cs.contains(0.0)}")

print("\nJSON form of the spacing interval:")
print(json.dumps(m1.confidence_set.to_json_dict(alpha=ALPHA, method="m1")))
