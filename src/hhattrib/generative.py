"""Gaussian residual scoring on top of the low-rank model and priors.

A member's joint score for an anonymized rating is a normal density
centered on that member's predicted rating, scaled by the member's prior
probability. Scores are kept in log space, so a rating far from every
member's prediction still goes to the closest member instead of
underflowing to a tie. Normalizing the scores across household members
gives a posterior over who produced the rating; the classifier takes the
argmax. With the residual scale set to infinity the density factor drops
out and the scores are the raw priors, so the decision coincides exactly
with the prior-only classifier of the same mode. `normalize` turns the
member scores of every classifier family into a posterior.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .corpus import EventColumns, Household, TestEvent
from .factorize import TemporalFactorModel, note_unknown_movie, predict, residuals
from .temporal import TemporalPriors, argmax_member, prior_value

log = logging.getLogger(__name__)

SCOPES = ("infinite", "global", "per_user")


@dataclass(frozen=True)
class SigmaModel:
    """Residual standard deviations at the chosen scope, floored below.

    ``infinite`` drops the Gaussian factor entirely; ``global`` shares a
    single value; ``per_user`` keeps one value per user, falling back to
    the global one for users with too few residuals.
    """

    scope: str
    sigma_all: float
    sigma_by_user: dict[int, float]
    floor: float = 0.5

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise ValueError(f"scope {self.scope!r} not in {SCOPES}")
        if self.floor <= 0:
            raise ValueError("floor must be positive")
        if self.scope != "infinite":
            stored = [self.sigma_all, *self.sigma_by_user.values()]
            if any(s < self.floor for s in stored):
                raise ValueError("every stored sigma must be >= floor")

    @property
    def log_space(self) -> bool:
        """Whether member scores are log densities rather than raw priors."""
        return self.scope != "infinite"

    def sigma_for(self, member: int) -> float:
        if self.scope == "infinite":
            return math.inf
        if self.scope == "global":
            return self.sigma_all
        return self.sigma_by_user.get(member, self.sigma_all)


def estimate_sigma(train, model: TemporalFactorModel, scope: str,
                   floor: float = 0.5, min_residuals: int = 5) -> SigmaModel:
    """Population std of training residuals, overall and optionally per user.

    Users with fewer than ``min_residuals`` residuals inherit the global
    value. All stored values are floored to keep densities finite.
    """
    if scope not in SCOPES:
        raise ValueError(f"scope {scope!r} not in {SCOPES}")
    columns = EventColumns.of(train)
    if not columns.user.size:
        raise ValueError("cannot estimate sigma from an empty training set")
    if scope == "infinite":
        return SigmaModel("infinite", math.inf, {}, floor)
    errors = residuals(columns, model)
    sigma_all = max(floor, float(np.std(errors)))
    by_user: dict[int, float] = {}
    if scope == "per_user":
        # a stable sort keeps each user's residuals in event order
        order = np.argsort(columns.user, kind="stable")
        users, starts = np.unique(columns.user[order], return_index=True)
        for user, mine in zip(users.tolist(), np.split(errors[order], starts[1:])):
            if len(mine) < min_residuals:
                by_user[user] = sigma_all
            else:
                by_user[user] = max(floor, float(np.std(mine)))
    return SigmaModel(scope, sigma_all, by_user, floor)


def member_scores(members, rating: float, event: TestEvent,
                  model: TemporalFactorModel, priors: TemporalPriors,
                  mode: str, sigma_model: SigmaModel) -> dict[int, float]:
    """Each member's score for the rating at the event's time.

    Log prior plus the Gaussian log density of the rating around the
    member's prediction (-inf where the prior is 0); the raw prior when
    the scale is infinite (see ``SigmaModel.log_space``).
    """
    scores = {}
    if sigma_model.log_space:
        note_unknown_movie(model, event)
    for member in members:
        q = prior_value(priors, member, mode, event)
        if not sigma_model.log_space:
            scores[member] = q
        elif q == 0.0:
            scores[member] = -math.inf
        else:
            sigma = sigma_model.sigma_for(member)
            gap = rating - predict(model, member, event.movie, event.timestamp)
            scores[member] = (math.log(q) - 0.5 * math.log(2.0 * math.pi * sigma * sigma)
                              - (gap * gap) / (2.0 * sigma * sigma))
    return scores


def joint_score(member: int, rating: float, event: TestEvent,
                model: TemporalFactorModel, priors: TemporalPriors,
                mode: str, sigma_model: SigmaModel) -> float:
    """Normal density of the rating around the member's prediction, times prior."""
    score = member_scores((member,), rating, event, model, priors, mode,
                          sigma_model)[member]
    return math.exp(score) if sigma_model.log_space else score


def normalize(scores: dict[int, float], log_space: bool = False) -> dict[int, float]:
    """Posterior over members from their scores.

    Plain scores are divided by their sum; log scores are normalized with
    log-sum-exp. Uniform, with a debug record, when the scores carry no
    finite positive mass.
    """
    if log_space:
        top = max(scores.values())
        scores = {member: math.exp(value - top) for member, value in scores.items()}
    total = sum(scores.values())
    if not 0.0 < total < math.inf:
        log.debug("members %s: degenerate scores, uniform posterior", sorted(scores))
        return dict.fromkeys(scores, 1.0 / len(scores))
    return {member: value / total for member, value in scores.items()}


def posterior(household: Household, event: TestEvent,
              model: TemporalFactorModel, priors: TemporalPriors,
              mode: str, sigma_model: SigmaModel) -> dict[int, float]:
    """Joint scores normalized over members; uniform if they are degenerate."""
    scores = member_scores(household.members, event.rating, event, model,
                           priors, mode, sigma_model)
    return normalize(scores, sigma_model.log_space)


def classify_generative(household: Household, event: TestEvent,
                        model: TemporalFactorModel, priors: TemporalPriors,
                        mode: str, sigma_model: SigmaModel) -> int:
    """Attribute the event to the member with the largest joint score."""
    return argmax_member(member_scores(household.members, event.rating, event,
                                       model, priors, mode, sigma_model))


def residual_histogram(train, model: TemporalFactorModel, bins: int = 50,
                       user: int | None = None):
    """Histogram (edges, counts) of training residuals, overall or per user."""
    columns = EventColumns.of(train)
    errors = residuals(columns, model)
    if user is not None:
        errors = errors[columns.user == user]
    counts, edges = np.histogram(errors, bins=bins)
    return edges, counts
