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


def _weights(user: int, counts: np.ndarray) -> np.ndarray:
    """Weekday counts as fractions of their total."""
    total = counts.sum()
    if total == 0:
        raise UndefinedProfileError(f"user {user} has no training events")
    return counts / total


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
    T = binning.bin_count
    table = households.table
    real = table >= 0
    members = table[real]
    place_of = np.full(max(int(members.max(initial=-1)),
                           int(train.user.max(initial=-1))) + 1, -1)
    place_of[members] = np.flatnonzero(real)   # row-major slot of each member
    place = place_of[train.user]
    stamps = train.stamp[place >= 0]
    cells = ((place[place >= 0] * T + bin_column(stamps, binning)) * 7
             + weekday_column(stamps))
    counts = np.bincount(cells, minlength=table.size * T * 7)
    counts = counts.reshape(*table.shape, T, 7).transpose(0, 2, 3, 1)
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
    size = max(int(households.table.max(initial=-1)), int(train.user.max(initial=-1))) + 1
    counts = np.bincount(train.user * 7 + weekday_column(train.stamp),
                         minlength=7 * size).reshape(size, 7)
    return [(hid, member, *counts[member].tolist())
            for hid, hh in households.items() for member in hh.members]


def tv_histogram(train, households: Households):
    """Rows (household, average total variation) across all households.

    Every member's weekday profile, the fraction of the member's events on
    each weekday, comes from weekday_histogram's one counting pass. A member
    with no training events raises UndefinedProfileError.
    """
    counts = {member: np.array(row, dtype=float)
              for _, member, *row in weekday_histogram(train, households)}
    return [(hid, _average_tv([_weights(m, counts[m]) for m in hh.members]))
            for hid, hh in households.items()]
