"""Categorical draws from fixed weights, without per-call validation.

``Generator.choice(n, p=p)`` checks ``p`` and rebuilds its cumulative table
on every call, then draws one uniform and bisects the table.  The trace
generator makes a categorical pick per VM from a handful of fixed weight
vectors, so it builds each table once with :func:`choice_cdf` and draws
with :func:`draw`: the same table, the same uniform and the same bisection,
hence the same index and the same RNG stream as ``rng.choice(n, p=p)``.
"""

from __future__ import annotations

import numpy as np


def choice_cdf(p) -> np.ndarray:
    """The cumulative table ``Generator.choice`` builds from probabilities ``p``."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def draw(cdf: np.ndarray, rng: np.random.Generator, size: int | None = None):
    """Index (or ``size`` indices) drawn as ``rng.choice(len(cdf), size, p=p)`` would."""
    idx = cdf.searchsorted(rng.random(size), side="right")
    return int(idx) if size is None else idx
