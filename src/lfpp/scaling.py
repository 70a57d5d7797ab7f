"""Monte Carlo estimation of normalization constants and scaling exponents.

Medians (not means) are the summary statistic throughout: crossing
distances have only finitely many moments, so the median is the robust
normalization the scaling statements are phrased in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    stderr: float


def fit_loglog(x: Sequence[float], y: Sequence[float]) -> ExponentFit:
    """Ordinary least squares of log(y) on log(x).

    ``stderr`` is the slope's standard error from the fit's own residuals:
    it says how far the points sit off a line, not how much they vary from
    one replica set to the next.  Every x and y must be positive and finite.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    for name, v in (("x", x), ("y", y)):
        if not np.all((v > 0.0) & (v < math.inf)):
            raise ValueError(f"log-log fit needs positive finite {name}")
    lx, ly = np.log(x), np.log(y)
    m = lx.size
    if lx.shape != ly.shape or m < 2:
        raise ValueError(f"need x and y of one length, at least 2, got {lx.shape} and {ly.shape}")
    mx, my = lx.mean(), ly.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate abscissa")
    slope = float(np.sum((lx - mx) * (ly - my)) / sxx)
    intercept = float(my - slope * mx)
    resid = ly - (intercept + slope * lx)
    ss_res = float(np.sum(resid**2))
    if m > 2 and ss_res > 0.0:
        stderr = math.sqrt(ss_res / (m - 2) / sxx)
    else:
        stderr = 0.0
    return ExponentFit(slope=slope, intercept=intercept, stderr=stderr)


def hill_estimator(sample: np.ndarray) -> float:
    """Hill tail-index estimate from the top k = max(2, n // 10) order
    statistics of a sample of size n.

    k must be smaller than n, so n is at least 3, and every entry must be
    finite.  Returns math.inf for samples whose upper order statistics are
    all equal (no tail to estimate).
    """
    x = np.sort(np.asarray(sample, dtype=np.float64))[::-1]
    if not np.all(np.isfinite(x)):
        raise ValueError("Hill estimator needs a finite sample")
    n = x.size
    k = max(2, n // 10)
    if k >= n:
        raise ValueError("k must be smaller than the sample size")
    if x[k] <= 0.0:
        raise ValueError("Hill estimator needs positive order statistics")
    logs = np.log(x[:k] / x[k])
    h = float(np.mean(logs))
    if h == 0.0:
        return math.inf
    return 1.0 / h
