"""Newton quantile function of the test density ``modeset.sim.FBetaDensity``.

The library samples the density exactly from three uniforms and needs no
quantile function.  Tests keep this one: criterion 09 maps Gaussian-copula
uniforms through it to draw dependent data with FBeta margins, and
``test_sim`` checks its contract against ``cdf``.
"""

import numpy as np


def ppf(density, u) -> np.ndarray:
    """Quantile function by Newton steps from the mode, |cdf(x) - u| <= 1e-12.

    The distribution function is convex left of the mode, where the
    density rises, and concave right of it, where the density falls, so
    Newton iterates started at the mode move monotonically toward the
    root and stay inside the support.  Rounding where the density
    nearly vanishes can break that, so each step is clipped to run away
    from the mode and no further than the support edge.  Each element
    stops once its residual is at most 1e-15 or its iterate stops
    moving, and depends on its own u alone.
    """
    shape = np.shape(np.atleast_1d(u))
    u = np.asarray(u, dtype=np.float64).ravel()
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise ValueError("ppf needs probabilities in [0, 1]")
    x = np.zeros(u.shape)
    right = u > density.mass_left
    todo = np.flatnonzero(u != density.mass_left)  # the mode maps to exactly 0
    for _ in range(64):  # the extreme uniforms 2**-54 and 1 - 2**-53 take <= 29
        if not todo.size:
            break
        xt = x[todo]
        resid = density.cdf(xt) - u[todo]
        live = np.abs(resid) > 1e-15
        todo, xt, r = todo[live], xt[live], right[todo[live]]
        with np.errstate(divide="ignore"):  # a zero density steps to the edge
            newton = xt - resid[live] / density.pdf(xt)
        x[todo] = np.clip(newton, np.where(r, xt, -1.0), np.where(r, density.upper, xt))
        todo = todo[x[todo] != xt]
    worst = float(np.max(np.abs(density.cdf(x) - u)))
    if not worst <= 1e-12:
        raise ArithmeticError(f"ppf residual {worst!r} exceeds 1e-12 (beta={density.beta!r})")
    return x.reshape(shape)
