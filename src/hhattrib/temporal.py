"""Weekday profiles, household separation, and prior-only scores.

Household members tend to rate movies on different days of the week; the
empirical weekday distribution of each member therefore carries a strong
identity signal. This module builds those profiles, measures how well
separated a household's members are (average pairwise total variation),
and scores anonymized ratings by the empirical probability that each
member produced a rating -- unconditionally, given the time bin, or given
the weekday. None of the prior scores looks at the rating value.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import (
    Binning, DuplicateError, EventColumns, Household, bin_column, member_table,
    weekday_column,
)

log = logging.getLogger(__name__)

MODES = ("uniform", "bin", "day")


class UndefinedProfileError(ValueError):
    """Raised when a profile is requested for a user with no events."""


@dataclass(frozen=True, eq=False)
class DayProfile:
    """A user's empirical distribution over the 7 weekdays (Sunday first)."""

    user: int
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.shape != (7,):
            raise ValueError("weights must have length 7")
        if np.any(self.weights < 0) or abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be a probability vector")


@dataclass(frozen=True, eq=False)
class TemporalPriors:
    """Smoothed member probabilities of every household, overall / per bin / per day.

    ``shares[h, c, k]`` is the probability of member ``members[h, k]`` of
    household ``households[h]`` under condition c: 0 is unconditional,
    1..T the time bins and T+1..T+7 the weekdays, Sunday first. Households
    keep the order of the map they were fitted on and members their file
    order; padded slots (member -1) hold 0. Conditional entries are NaN
    when the conditioning value was never observed and smoothing is zero;
    scoring falls back to the unconditional prior there.
    """

    households: tuple[int, ...]
    members: np.ndarray   # (H, width) intp, see corpus.member_table
    shares: np.ndarray    # (H, 1 + T + 7, width)
    binning: Binning
    epsilon: float


def day_profile(train, user: int) -> DayProfile:
    """Fraction of the user's rating events falling on each weekday."""
    columns = EventColumns.of(train)
    counts = np.bincount(weekday_column(columns.stamp[columns.user == user]), minlength=7)
    return DayProfile(user, _weights(user, counts))


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


def household_tv(train, household: Household) -> float:
    """Average pairwise total variation between member weekday profiles.

    Averages over ordered pairs i != i' (equivalently, unordered pairs by
    symmetry). 1 means no two members ever rated on the same weekday; 0
    means identical weekday habits.
    """
    return _average_tv([day_profile(train, member).weights
                        for member in household.members])


def _average_tv(profiles) -> float:
    size = len(profiles)
    total = 0.0
    for a in range(size):
        for b in range(size):
            if a != b:
                total += tv_distance(profiles[a], profiles[b])
    return total / (size * (size - 1))


def fit_priors(train, households: dict[int, Household], binning: Binning,
               epsilon: float = 0.5) -> TemporalPriors:
    """Every household's member probabilities, smoothed by epsilon.

    One pass over train counts each member's events per (time bin,
    weekday) cell into one table per household. Each probability is
    (member's matching count + epsilon) divided by (household's matching
    count + epsilon * household size); epsilon = 0 reproduces raw
    frequency ratios, with never-observed conditionals flagged as NaN.
    Events of users outside every household are ignored. Cells use
    ``bin_column`` and ``weekday_column``, so every count equals a
    per-event ``bin_of``/``weekday_of`` loop's.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon {epsilon} must be >= 0")
    columns = EventColumns.of(train)
    T = binning.bin_count
    table = member_table(households)
    real = table >= 0
    members = table[real]
    if len(np.unique(members)) != len(members):
        raise DuplicateError("a user belongs to two households")
    place_of = np.full(max(int(members.max(initial=-1)),
                           int(columns.user.max(initial=-1))) + 1, -1)
    place_of[members] = np.flatnonzero(real)   # row-major slot of each member
    place = place_of[columns.user]
    stamps = columns.stamp[place >= 0]
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
        raise UndefinedProfileError(f"household {list(households)[empty.argmax()]} "
                                    "has no training events and epsilon = 0")
    return TemporalPriors(tuple(households), table,
                          np.where(real[:, None, :], shares, 0.0), binning, epsilon)


def prior_matrix(priors: TemporalPriors, mode: str, rows: np.ndarray,
                 stamps: np.ndarray) -> np.ndarray:
    """Member probabilities of events of the households at ``rows``, stamped ``stamps``.

    One row per event, one column per member slot of ``priors.members``;
    rows index the households in the order of the map fit_priors was
    given. Undefined conditionals (possible only with epsilon = 0) fall
    back to the unconditional prior, with one debug record per (event,
    member).
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
    for hid in np.asarray(priors.households)[rows[np.nonzero(undefined)[0]]].tolist():
        log.debug("household %s: undefined %s conditional, falling back to prior",
                  hid, mode)
    return np.where(undefined, prior, values)


# ---------------------------------------------------------------------------
# Histogram exports (plot-ready tables)
# ---------------------------------------------------------------------------

def weekday_histogram(train, households: dict[int, Household]):
    """Rows (household, member, count_sun, ..., count_sat) for every member."""
    columns = EventColumns.of(train)
    members = [member for hh in households.values() for member in hh.members]
    size = max(members + [int(columns.user.max(initial=-1))]) + 1
    counts = np.bincount(columns.user * 7 + weekday_column(columns.stamp),
                         minlength=7 * size).reshape(size, 7)
    return [(hid, member, *counts[member].tolist())
            for hid, hh in households.items() for member in hh.members]


def tv_histogram(train, households: dict[int, Household]):
    """Rows (household, average total variation) across all households.

    Every member's weekday profile comes from weekday_histogram's one
    counting pass; the values equal household_tv's.
    """
    counts = {member: np.array(row, dtype=float)
              for _, member, *row in weekday_histogram(train, households)}
    return [(hid, _average_tv([_weights(m, counts[m]) for m in hh.members]))
            for hid, hh in households.items()]
