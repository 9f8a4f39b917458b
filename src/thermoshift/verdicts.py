"""Three-valued verdicts and finite-depth trend tests.

No finite computation decides a limit, so every trend-based answer is
labeled EVIDENCE; CERTIFIED is reserved for exact arithmetic identities and
REFUTED for exact witnesses of growth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .numerics import fit_line

DEFAULT_SLOPE_THRESHOLD = 0.05  # nats per step for exponential-growth flagging
DEFAULT_R2 = 0.99


class Verdict(str, enum.Enum):
    CERTIFIED = "CERTIFIED"
    EVIDENCE = "EVIDENCE"
    REFUTED = "REFUTED"


class GibbsVerdict(str, enum.Enum):
    GIBBS = "GIBBS"
    WEAK_GIBBS = "WEAK-GIBBS"
    NEITHER = "NEITHER"


@dataclass
class TrendStats:
    slope: float
    r_squared: float
    first: float
    last: float
    bounded: bool
    detail: dict = field(default_factory=dict)


def trend_stats(ns, values) -> TrendStats:
    """Slope/boundedness statistics of a sequence indexed by depth."""
    ns = list(ns)
    values = list(values)
    if not values:
        return TrendStats(0.0, 1.0, 0.0, 0.0, True)
    half = max(1, len(values) // 2)
    slope, _, r2 = fit_line(ns[half - 1:], values[half - 1:]) if len(values) > 2 else fit_line(ns, values)
    head_max = max(values[:half])
    tail_max = max(values[half - 1:])
    bounded = tail_max <= head_max + 1e-9
    return TrendStats(slope, r2, values[0], values[-1], bounded)


def growth_flag(ns, values, slope_threshold=DEFAULT_SLOPE_THRESHOLD, r2_min=DEFAULT_R2):
    """True when the sequence grows at least linearly: slope above the
    threshold with a good linear fit, on the full index set or on a parity
    subsequence (period-2 phase obstructions make defects grow in stairs,
    which a straight fit under-rates)."""
    if len(values) < 3:
        return False, trend_stats(ns, values)
    stats = trend_stats(ns, values)
    candidates = [stats]
    for parity in (0, 1):
        sub = [(n, v) for n, v in zip(ns, values) if n % 2 == parity]
        if len(sub) >= 4:
            candidates.append(trend_stats([n for n, _ in sub], [v for _, v in sub]))
    fired = any(c.slope > slope_threshold and c.r_squared >= r2_min for c in candidates)
    best = max(candidates, key=lambda c: (c.slope if c.r_squared >= r2_min else float("-inf")))
    return fired, (best if fired else stats)


def decays_to_zero(ns, values, tol=1e-9) -> bool:
    """Evidence that values (already normalized per depth) tend to 0:
    either uniformly tiny or clearly decreasing toward the tail."""
    if not values:
        return True
    if max(abs(v) for v in values) <= tol:
        return True
    if len(values) < 4:
        return False
    half = len(values) // 2
    head = max(abs(v) for v in values[:half])
    tail = max(abs(v) for v in values[half:])
    return bool(tail <= 0.8 * head or tail <= tol)
