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

from .corpus import Binning, Household, TestEvent, bin_of, weekday_of

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
    counts = np.zeros(7)
    for ev in train:
        if ev.user == user:
            counts[weekday_of(ev.timestamp)] += 1
    total = counts.sum()
    if total == 0:
        raise UndefinedProfileError(f"user {user} has no training events")
    return DayProfile(user, counts / total)


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
    profiles = [day_profile(train, member).weights for member in household.members]
    size = len(profiles)
    total = 0.0
    for a in range(size):
        for b in range(size):
            if a != b:
                total += tv_distance(profiles[a], profiles[b])
    return total / (size * (size - 1))


def fit_priors(train, household: Household, binning: Binning,
               epsilon: float = 0.5) -> TemporalPriors:
    """Estimate member probabilities with additive smoothing epsilon.

    Each probability is (member's matching count + epsilon) divided by
    (household's matching count + epsilon * household size); epsilon = 0
    reproduces raw frequency ratios, with never-observed conditionals
    flagged as NaN.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon {epsilon} must be >= 0")
    members = household.members
    size = len(members)
    index = {member: k for k, member in enumerate(members)}
    totals = np.zeros(size)
    per_bin = np.zeros((binning.bin_count, size))
    per_day = np.zeros((7, size))
    for ev in train:
        k = index.get(ev.user)
        if k is None:
            continue
        totals[k] += 1
        per_bin[bin_of(ev.timestamp, binning, clamp=True) - 1, k] += 1
        per_day[weekday_of(ev.timestamp), k] += 1

    def ratios(counts):
        denom = counts.sum() + epsilon * size
        if denom == 0:
            return np.full(size, math.nan)
        return (counts + epsilon) / denom

    prior = ratios(totals)
    if np.isnan(prior).any():
        raise UndefinedProfileError(
            f"household {household.id} has no training events and epsilon = 0"
        )
    by_bin = {}
    for b in range(binning.bin_count):
        row = ratios(per_bin[b])
        for k, member in enumerate(members):
            by_bin[(member, b + 1)] = float(row[k])
    by_day = {}
    for d in range(7):
        row = ratios(per_day[d])
        for k, member in enumerate(members):
            by_day[(member, d)] = float(row[k])
    return TemporalPriors(
        household=household.id,
        members=members,
        prior={member: float(prior[k]) for k, member in enumerate(members)},
        by_bin=by_bin,
        by_day=by_day,
        binning=binning,
        epsilon=epsilon,
    )


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
    counts = {}
    for hid, hh in households.items():
        for member in hh.members:
            counts[(hid, member)] = np.zeros(7, dtype=int)
    member_of = {m: hid for hid, hh in households.items() for m in hh.members}
    for ev in train:
        hid = member_of.get(ev.user)
        if hid is not None:
            counts[(hid, ev.user)][weekday_of(ev.timestamp)] += 1
    return [
        (hid, member, *counts[(hid, member)].tolist())
        for (hid, member) in counts
    ]


def tv_histogram(train, households: dict[int, Household]):
    """Rows (household, average total variation) across all households."""
    return [(hid, household_tv(train, hh)) for hid, hh in households.items()]
