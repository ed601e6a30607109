"""Walk through every univariate construction on one synthetic sample.

Draws n = 1000 points from the piecewise power test density (mode at 0),
then builds the five confidence sets side by side.  Note how differently
they behave at desk-scale n: the spacing interval is already fairly tight,
the fixed-bandwidth window set is still in its vacuous-threshold regime
(the count condition excludes nothing, so the set is the clamped window
hull), the width-minimizing variant recovers a useful set, and the
p-value sets are wide but valid.
"""

import json

from modeset import (
    FBetaDensity,
    RngStream,
    SortedSample,
    m1_confidence_interval,
    m2_adaptive_details,
    m2_details,
    m3_confidence_set,
    m3prime_confidence_set,
    study_bandwidth,
)

ALPHA = 0.05
N = 1000

data = FBetaDensity(beta=1.0).sample(RngStream(seed=7, stream_id=0), n=N)
split_stream = RngStream(seed=7, stream_id=1)
print(f"sample: n={N}, range [{data.min():.3f}, {data.max():.3f}], true mode 0.0\n")

results = {}

results["m1 (order-statistic spacings)"] = m1_confidence_interval(
    SortedSample.from_data(data), ALPHA
)

h = study_bandwidth(N, beta=1.0)
m2 = m2_details(data, ALPHA, h, split_stream=split_stream)
label = "m2 (fixed bandwidth h=%.3f%s)" % (h, ", vacuous" if m2.vacuous else "")
results[label] = m2.confidence_set

m2a = m2_adaptive_details(data, ALPHA, split_stream=split_stream)
results[f"m2a (width-minimizing, picked h={m2a.h:.3f})"] = m2a.confidence_set

results["m3 (combined p-values)"] = m3_confidence_set(
    data, ALPHA, split_stream=split_stream
)
results["m3p (dependence-robust, rho=2)"] = m3prime_confidence_set(
    data, ALPHA, rho=2.0, split_stream=split_stream
)

for name, cs in results.items():
    lo, hi = cs.hull()
    print(f"{name}")
    print(f"    [{lo:10.4f}, {hi:10.4f}]  width {cs.width:9.4f}  "
          f"covers 0: {cs.contains(0.0)}")

print("\nJSON form of the spacing interval:")
print(json.dumps(results["m1 (order-statistic spacings)"].to_json_dict(
    alpha=ALPHA, method="m1")))
