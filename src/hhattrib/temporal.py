"""Weekday profiles, household separation, and prior-only classifiers.

Household members tend to rate movies on different days of the week; the
empirical weekday distribution of each member therefore carries a strong
identity signal. This module builds those profiles, measures how well
separated a household's members are (average pairwise total variation),
and classifies anonymized ratings by the empirical probability that each
member produced a rating -- unconditionally, given the time bin, or given
the weekday. None of the prior classifiers looks at the rating value.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .corpus import (
    Binning, DuplicateError, EventColumns, Household, TestEvent, bin_column, bin_of,
    weekday_column, weekday_of,
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


@dataclass(frozen=True)
class TemporalPriors:
    """Smoothed per-household member probabilities, overall / per bin / per day.

    Conditional entries are NaN when the conditioning value was never
    observed and smoothing is zero; classification falls back to the
    unconditional prior there.
    """

    household: int
    members: tuple[int, ...]
    prior: dict[int, float]
    by_bin: dict[tuple[int, int], float]
    by_day: dict[tuple[int, int], float]
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
               epsilon: float = 0.5) -> dict[int, TemporalPriors]:
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
    width = max((hh.size for hh in households.values()), default=0)
    places = {member: h * width + k for h, hh in enumerate(households.values())
              for k, member in enumerate(hh.members)}
    if len(places) != sum(hh.size for hh in households.values()):
        raise DuplicateError("a user belongs to two households")
    place_of = np.full(max([*places, int(columns.user.max(initial=-1))]) + 1, -1)
    place_of[list(places)] = list(places.values())
    place = place_of[columns.user]
    stamps = columns.stamp[place >= 0]
    cells = ((place[place >= 0] * T + bin_column(stamps, binning)) * 7
             + weekday_column(stamps))
    counts = np.bincount(cells, minlength=len(households) * width * T * 7)
    counts = counts.reshape(len(households), width, T, 7).transpose(0, 2, 3, 1)
    # rows: 0 is the unconditional count, 1..T the bins, T+1..T+7 the weekdays
    table = np.concatenate([counts.sum(axis=(1, 2))[:, None], counts.sum(axis=2),
                            counts.sum(axis=1)], axis=1)
    sizes = np.array([hh.size for hh in households.values()], dtype=float)
    with np.errstate(invalid="ignore"):
        shares = (table + epsilon) / (table.sum(axis=2, keepdims=True)
                                      + epsilon * sizes[:, None, None])
    out = {}
    for h, (hid, hh) in enumerate(households.items()):
        rows = shares[h, :, :hh.size].tolist()
        if math.isnan(rows[0][0]):
            raise UndefinedProfileError(f"household {hid} has no training events "
                                        "and epsilon = 0")
        out[hid] = TemporalPriors(
            household=hid, members=hh.members,
            prior=dict(zip(hh.members, rows[0])),
            by_bin={(member, b): value for b, row in enumerate(rows[1:T + 1], 1)
                    for member, value in zip(hh.members, row)},
            by_day={(member, d): value for d, row in enumerate(rows[T + 1:])
                    for member, value in zip(hh.members, row)},
            binning=binning, epsilon=epsilon,
        )
    return out


def prior_value(priors: TemporalPriors, member: int, mode: str,
                event: TestEvent) -> float:
    """Resolved member probability for an event under the given mode.

    Undefined conditionals (possible only with epsilon = 0) fall back to
    the unconditional prior, with a debug log.
    """
    if mode not in MODES:
        raise ValueError(f"mode {mode!r} not in {MODES}")
    if mode == "uniform":
        return priors.prior[member]
    if mode == "bin":
        value = priors.by_bin[(member, bin_of(event.timestamp, priors.binning, clamp=True))]
    else:
        value = priors.by_day[(member, weekday_of(event.timestamp))]
    if math.isnan(value):
        log.debug(
            "household %s: undefined %s conditional, falling back to prior",
            priors.household, mode,
        )
        return priors.prior[member]
    return value


def argmax_member(scores: dict[int, float]) -> int:
    """Member with the highest score; exact ties go to the smaller user id."""
    return min(scores, key=lambda member: (-scores[member], member))


def prior_scores(priors: TemporalPriors, mode: str,
                 event: TestEvent) -> dict[int, float]:
    """Each member's resolved prior probability for the event."""
    return {member: prior_value(priors, member, mode, event)
            for member in priors.members}


def classify_prior(priors: TemporalPriors, mode: str, event: TestEvent) -> int:
    """Attribute an event to the member with the largest prior probability."""
    return argmax_member(prior_scores(priors, mode, event))


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
