"""Closed-form pdf, cdf and Newton quantile function of the test density
``modeset.sim.FBetaDensity``.

The library samples the density exactly from three uniforms and needs none
of them.  Tests keep them as oracles: ``test_sim`` checks the sampler
against ``cdf``, and criterion 09 maps Gaussian-copula uniforms through
``ppf`` to draw dependent data with FBeta margins.
"""

import numpy as np


def _right_terms(density, x):
    """x clipped to [0, upper], and t**beta - 1 with t = that / upper.

    The right piece is written in t because b**b / (b + 2)**b equals
    upper**-b: no power can overflow for large beta, and expm1 keeps
    t**beta - 1 accurate for small beta.
    """
    xr = np.clip(x, 0.0, density.upper)
    with np.errstate(divide="ignore"):  # t = 0 at the mode: t**beta - 1 = -1
        return xr, np.expm1(density.beta * np.log(xr / density.upper))


def pdf(density, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    left = 0.5 - 0.5 * np.abs(x) ** density.beta
    right = -0.5 * _right_terms(density, x)[1]
    out = np.where(x <= 0, left, right)
    return np.where((x < -1.0) | (x > density.upper), 0.0, out)


def cdf(density, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    b = density.beta
    left = (x + 1.0) / 2.0 + ((-np.minimum(x, 0.0)) ** (b + 1.0) - 1.0) / (2.0 * (b + 1.0))
    # x (b - (t**b - 1)) / (2 (b + 1)) adds two nonnegative terms; the
    # form x/2 - x t**b / (2 (b + 1)) cancels to 1e-12 for small beta
    xr, t_b_minus_1 = _right_terms(density, x)
    right = density.mass_left + xr * (b - t_b_minus_1) / (2.0 * (b + 1.0))
    out = np.where(x <= 0, left, right)
    out = np.where(x < -1.0, 0.0, out)
    out = np.where(x > density.upper, 1.0, out)
    return np.clip(out, 0.0, 1.0)


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
        resid = cdf(density, xt) - u[todo]
        live = np.abs(resid) > 1e-15
        todo, xt, r = todo[live], xt[live], right[todo[live]]
        with np.errstate(divide="ignore"):  # a zero density steps to the edge
            newton = xt - resid[live] / pdf(density, xt)
        x[todo] = np.clip(newton, np.where(r, xt, -1.0), np.where(r, density.upper, xt))
        todo = todo[x[todo] != xt]
    worst = float(np.max(np.abs(cdf(density, x) - u)))
    if not worst <= 1e-12:
        raise ArithmeticError(f"ppf residual {worst!r} exceeds 1e-12 (beta={density.beta!r})")
    return x.reshape(shape)
