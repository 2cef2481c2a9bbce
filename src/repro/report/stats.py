"""Deterministic bootstrap statistics for the report pipeline.

The bench corpus records small samples — seven query shapes per
(scenario, query, k) precision cell — so the report quotes percentile-bootstrap confidence intervals instead of
bare means.  Everything here is driven by an explicit :class:`random.Random`
seed: the same observations and the same seed produce bitwise-identical
intervals, which is what lets the golden-spec tests (and the CI drift gate
over the committed ``docs/report/``) compare generated artifacts byte for
byte.
"""

from __future__ import annotations

from statistics import fmean
from random import Random
from typing import Callable, Dict, Sequence

#: Default bootstrap resample count — plenty for a 95% percentile interval
#: over the small samples the bench suites produce, cheap enough to run in
#: a pre-commit hook.
DEFAULT_RESAMPLES = 2000


def bootstrap_ci(
    values: Sequence[float],
    *,
    seed: int,
    resamples: int = DEFAULT_RESAMPLES,
    alpha: float = 0.05,
    statistic: Callable[[Sequence[float]], float] = fmean,
) -> tuple:
    """Percentile-bootstrap ``(lo, hi)`` interval of ``statistic(values)``.

    A single observation (or an empty sample) has no resampling
    distribution; the interval degenerates to the point estimate.
    """
    if not values:
        raise ValueError("bootstrap_ci needs at least one observation")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if len(values) == 1:
        point = statistic(values)
        return (point, point)
    rng = Random(seed)
    count = len(values)
    stats = sorted(
        statistic([values[rng.randrange(count)] for _ in range(count)])
        for _ in range(max(1, resamples))
    )
    lo_index = int((alpha / 2.0) * (len(stats) - 1))
    hi_index = int((1.0 - alpha / 2.0) * (len(stats) - 1))
    return (stats[lo_index], stats[hi_index])


def summarize(
    values: Sequence[float],
    *,
    seed: int,
    resamples: int = DEFAULT_RESAMPLES,
    alpha: float = 0.05,
    digits: int = 4,
) -> Dict[str, float]:
    """``{"mean", "lo", "hi", "n"}`` of one observation sample, rounded.

    Rounding happens here — once, at the edge — so every table and spec
    derived from the same sample embeds the same textual number.
    """
    lo, hi = bootstrap_ci(values, seed=seed, resamples=resamples, alpha=alpha)
    return {
        "mean": round(fmean(values), digits),
        "lo": round(lo, digits),
        "hi": round(hi, digits),
        "n": len(values),
    }
