"""Weekday profiles, household separation, and prior-only scores.

Household members tend to rate movies on different days of the week; the
empirical weekday distribution of each member therefore carries a strong
identity signal. This module counts those profiles, measures how well
separated each household's members are (``tv_histogram``: average pairwise
total variation), and scores anonymized ratings by the empirical
probability that each member produced a rating -- unconditionally, given
the time bin, or given the weekday. None of the prior scores looks at the
rating value.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Binning, EventColumns, Households, bin_column, weekday_column

log = logging.getLogger(__name__)

MODES = ("uniform", "bin", "day")


class UndefinedProfileError(ValueError):
    """Raised when a profile or prior is requested for members with no events."""


@dataclass(frozen=True, eq=False)
class TemporalPriors:
    """Smoothed member probabilities of every household, overall / per bin / per day.

    ``shares[h, c, k]`` is the probability of member ``households.table[h, k]``
    under condition c: 0 is unconditional, 1..T the time bins and T+1..T+7
    the weekdays, Sunday first. Households keep the order of the map they
    were fitted on and members their file order; padded slots (member -1)
    hold 0. Conditional entries are NaN when the conditioning value was never
    observed and smoothing is zero; scoring falls back to the unconditional
    prior there.
    """

    households: Households
    shares: np.ndarray    # (H, 1 + T + 7, width)
    binning: Binning
    epsilon: float


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two categorical distributions.

    Computed as 1 - sum(min(p, q)), which equals half the L1 distance for
    probability vectors but stays exactly 1.0 for disjoint supports.
    """
    return 1.0 - float(np.minimum(np.asarray(p), np.asarray(q)).sum())


def _average_tv(profiles) -> float:
    """Average total variation over ordered pairs i != i' of weekday profiles.

    Equivalently over unordered pairs, by symmetry. 1 means no two members
    ever rated on the same weekday; 0 means identical weekday habits.
    """
    size = len(profiles)
    total = 0.0
    for a in range(size):
        for b in range(size):
            if a != b:
                total += tv_distance(profiles[a], profiles[b])
    return total / (size * (size - 1))


def _member_counts(train: EventColumns, households: Households,
                   binning: Binning | None = None) -> np.ndarray:
    """Each member slot's train events per (time bin, weekday) cell: an
    (H, width, T, 7) table in the layout of ``households.table``, T = 1
    without a binning. Events of users outside every household are ignored."""
    slots = households.slots(train.user)
    stamps, slots = train.stamp[slots >= 0], slots[slots >= 0]
    T = 1 if binning is None else binning.bin_count
    bins = 0 if binning is None else bin_column(stamps, binning)
    counts = np.bincount((slots * T + bins) * 7 + weekday_column(stamps),
                         minlength=households.table.size * T * 7)
    return counts.reshape(*households.table.shape, T, 7)


def fit_priors(train: EventColumns, households: Households, binning: Binning,
               epsilon: float = 0.5) -> TemporalPriors:
    """Every household's member probabilities, smoothed by epsilon.

    One pass over train counts each member's events per (time bin,
    weekday) cell into one table per household. Each probability is
    (member's matching count + epsilon) divided by (household's matching
    count + epsilon * household size); epsilon = 0 reproduces raw
    frequency ratios, with never-observed conditionals flagged as NaN.
    Events of users outside every household are ignored. Each event's cell
    is its ``bin_column`` and ``weekday_column`` value.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon {epsilon} must be >= 0")
    real = households.table >= 0
    counts = _member_counts(train, households, binning).transpose(0, 2, 3, 1)
    # rows: 0 is the unconditional count, 1..T the bins, T+1..T+7 the weekdays
    counts = np.concatenate([counts.sum(axis=(1, 2))[:, None], counts.sum(axis=2),
                             counts.sum(axis=1)], axis=1)
    sizes = real.sum(axis=1)
    with np.errstate(invalid="ignore"):
        shares = (counts + epsilon) / (counts.sum(axis=2, keepdims=True)
                                       + epsilon * sizes[:, None, None])
    empty = np.isnan(shares[:, 0, 0])
    if empty.any():
        raise UndefinedProfileError(f"household {households.ids[empty.argmax()]} "
                                    "has no training events and epsilon = 0")
    return TemporalPriors(households, np.where(real[:, None, :], shares, 0.0), binning,
                          epsilon)


def prior_matrix(priors: TemporalPriors, mode: str, rows: np.ndarray,
                 stamps: np.ndarray) -> np.ndarray:
    """Member probabilities of events of the households at ``rows``, stamped ``stamps``.

    One row per event, one column per member slot of the households'
    ``table``; rows index the households in the order of their map.
    Undefined conditionals (possible only with epsilon = 0) fall back to the
    unconditional prior, with one debug record per (event, member).
    """
    if mode not in MODES:
        raise ValueError(f"mode {mode!r} not in {MODES}")
    prior = priors.shares[rows, 0]
    if mode == "uniform":
        return prior
    if mode == "bin":
        condition = 1 + bin_column(stamps, priors.binning)
    else:
        condition = 1 + priors.binning.bin_count + weekday_column(stamps)
    values = priors.shares[rows, condition]
    undefined = np.isnan(values)
    for hid in priors.households.ids[rows[np.nonzero(undefined)[0]]].tolist():
        log.debug("household %s: undefined %s conditional, falling back to prior",
                  hid, mode)
    return np.where(undefined, prior, values)


# ---------------------------------------------------------------------------
# Histogram exports (plot-ready tables)
# ---------------------------------------------------------------------------

def weekday_histogram(train: EventColumns, households: Households):
    """Rows (household, member, count_sun, ..., count_sat) for every member."""
    real = households.table >= 0   # row-major: map order, then file order
    counts = _member_counts(train, households)[real, 0].tolist()
    return [(hid, member, *row) for hid, member, row in zip(
        households.ids[np.nonzero(real)[0]].tolist(), households.table[real].tolist(), counts)]


def tv_histogram(train: EventColumns, households: Households):
    """Rows (household, average total variation) across all households.

    Every member's weekday profile is the fraction of the member's events
    on each weekday, from the one member-count table. A member with no
    training events raises UndefinedProfileError.
    """
    counts = _member_counts(train, households)[:, :, 0]
    totals = counts.sum(axis=2)
    silent = (households.table >= 0) & (totals == 0)
    if silent.any():
        raise UndefinedProfileError(f"user {households.table[silent][0]} has no training events")
    profiles = counts / np.maximum(totals, 1)[:, :, None]   # padded slots: 0 / 1
    return [(hid, _average_tv(profiles[row, :hh.size]))
            for row, (hid, hh) in enumerate(households.items())]
