"""Weighted max-min fair sharing (progressive filling), vectorised.

This is the primitive the whole scheduler reduces to: distribute a scalar
``capacity`` among entities with ``weights`` and per-entity upper
``limits`` (demand, quota, or one-core caps) such that the result is
*weighted max-min fair*:

* no entity receives more than its limit,
* total allocated = min(capacity, sum of limits),
* unsaturated entities receive shares proportional to their weights.

The exact solution is computed in O(n log n) by processing entities in
increasing ``limit / weight`` order — once the entity with the smallest
normalised limit is settled, the rest reduces to the same problem on the
remaining capacity (standard progressive-filling argument).  All heavy
lifting is NumPy-vectorised; no Python-level loop over entities.
"""

from __future__ import annotations

import numpy as np


def weighted_fair_share(
    capacity: float,
    weights: np.ndarray,
    limits: np.ndarray,
) -> np.ndarray:
    """Return the weighted max-min fair allocation vector.

    Parameters
    ----------
    capacity:
        Total divisible resource (e.g. CPU-seconds in a tick). Must be
        finite and >= 0.
    weights:
        Strictly positive entity weights.
    limits:
        Per-entity caps (>= 0, ``inf`` allowed). An entity never receives
        more than its limit.
    """
    weights = np.asarray(weights, dtype=np.float64)
    limits = np.asarray(limits, dtype=np.float64)
    if weights.shape != limits.shape or weights.ndim != 1:
        raise ValueError("weights and limits must be equal-length 1-D arrays")
    n = weights.size
    if n == 0:
        return np.zeros(0)
    if not np.isfinite(capacity) or capacity < 0:
        raise ValueError(f"capacity must be finite and >= 0, got {capacity}")
    if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be strictly positive and finite")
    if np.any(limits < 0) or np.any(np.isnan(limits)):
        raise ValueError("limits must be >= 0 and not NaN")

    if capacity == 0.0:
        return np.zeros(n)

    # Order by normalised limit; entities that saturate first come first.
    norm = limits / weights
    order = np.argsort(norm, kind="stable")
    w_sorted = weights[order]
    l_sorted = limits[order]

    # After the k entities with the smallest normalised limits saturate,
    # the shared fill level is (capacity - sum of their limits) divided by
    # the remaining weight.  Find the largest k for which entity k's
    # normalised limit is still below that level (i.e. it does saturate).
    cum_limits = np.concatenate(([0.0], np.cumsum(l_sorted)))
    cum_weights = np.concatenate(([0.0], np.cumsum(w_sorted)))
    total_weight = cum_weights[-1]
    remaining_cap = capacity - cum_limits[:-1]  # before settling entity k
    remaining_w = total_weight - cum_weights[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        level = np.where(remaining_w > 0, remaining_cap / remaining_w, np.inf)
    saturates = norm[order] <= level
    # `saturates` is a prefix property: once an entity does not saturate,
    # no later (larger-normalised-limit) entity can.  Find the boundary.
    k = int(np.argmin(saturates)) if not saturates.all() else n

    alloc_sorted = np.empty(n)
    alloc_sorted[:k] = l_sorted[:k]
    if k < n:
        fill = max(0.0, (capacity - cum_limits[k]) / (total_weight - cum_weights[k]))
        alloc_sorted[k:] = np.minimum(l_sorted[k:], fill * w_sorted[k:])

    alloc = np.empty(n)
    alloc[order] = alloc_sorted
    return alloc


def proportional_share(capacity: float, demands: np.ndarray) -> np.ndarray:
    """Split ``capacity`` proportionally to ``demands``, capped by demand.

    Used by stage 5 of the controller (free distribution of leftover
    market cycles, paper §III-B5).  When total demand <= capacity every
    demand is fully satisfied; otherwise each entity receives
    ``capacity * demand_i / total_demand``.
    """
    demands = np.asarray(demands, dtype=np.float64)
    if demands.ndim != 1:
        raise ValueError("demands must be 1-D")
    if (demands < 0).any() or np.isnan(demands).any():
        raise ValueError("demands must be >= 0 and not NaN")
    total = float(demands.sum())
    if total <= 0.0 or capacity <= 0.0:
        return np.zeros_like(demands)
    if total <= capacity:
        return demands.copy()
    return demands * (capacity / total)
