"""Gaussian residual scoring on top of the low-rank model and priors.

A member's joint score for an anonymized rating is a normal density
centered on that member's predicted rating, scaled by the member's prior
probability. Scores are kept in log space, so a rating far from every
member's prediction still goes to the closest member instead of
underflowing to a tie. Normalizing the scores across household members
gives a posterior over who produced the rating; the classifier takes the
argmax. With the residual scale set to infinity the density factor drops
out and the scores are the raw priors, so the decision coincides exactly
with the prior-only classifier of the same mode. `normalize_rows` turns
the (event, member) score matrix of every classifier family into
posteriors.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import EventColumns
from .factorize import TemporalFactorModel, residuals

log = logging.getLogger(__name__)

SCOPES = ("infinite", "global", "per_user")


@dataclass(frozen=True, eq=False)
class SigmaModel:
    """Residual standard deviations at the chosen scope, floored below.

    ``infinite`` drops the Gaussian factor entirely; ``global`` shares a
    single value; ``per_user`` keeps one value per user of the factor model
    in ``sigma_by_user``, the global one for users with too few residuals.
    """

    scope: str
    sigma_all: float
    sigma_by_user: np.ndarray = field(default_factory=lambda: np.empty(0))
    floor: float = 0.5

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise ValueError(f"scope {self.scope!r} not in {SCOPES}")
        if self.floor <= 0:
            raise ValueError("floor must be positive")
        if self.scope != "infinite":
            if self.sigma_all < self.floor or (self.sigma_by_user < self.floor).any():
                raise ValueError("every stored sigma must be >= floor")

    @property
    def log_space(self) -> bool:
        """Whether member scores are log densities rather than raw priors."""
        return self.scope != "infinite"

    def sigmas(self, users: np.ndarray) -> np.ndarray:
        """Each user's scale: its own under ``per_user`` when it has one, else
        the global value (infinite for the ``infinite`` scope)."""
        users = np.asarray(users, dtype=np.intp)
        out = np.full(users.shape, self.sigma_all)
        if self.scope == "per_user":
            inside = users < len(self.sigma_by_user)
            out[inside] = self.sigma_by_user[users[inside]]
        return out


def estimate_sigma(train: EventColumns, model: TemporalFactorModel, scope: str,
                   floor: float = 0.5, min_residuals: int = 5) -> SigmaModel:
    """Population std of training residuals, overall and optionally per user.

    Users with fewer than ``min_residuals`` residuals inherit the global
    value. All stored values are floored to keep densities finite. Users with
    c residuals share one `np.std(axis=1)` of a (users, c) block, which
    reduces each row as it would the user's own 1-d array.
    """
    if scope not in SCOPES:
        raise ValueError(f"scope {scope!r} not in {SCOPES}")
    if not train.user.size:
        raise ValueError("cannot estimate sigma from an empty training set")
    if scope == "infinite":
        return SigmaModel("infinite", math.inf, floor=floor)
    errors = residuals(train, model)
    sigma_all = max(floor, float(np.std(errors)))
    if scope == "global":
        return SigmaModel(scope, sigma_all, floor=floor)
    # a stable sort keeps each user's residuals in event order
    order = np.argsort(train.user, kind="stable")
    users, starts, counts = np.unique(train.user[order], return_index=True,
                                      return_counts=True)
    by_user = np.full(model.user_count, sigma_all)   # residuals() checked the users
    for count in np.unique(counts[counts >= min_residuals]).tolist():
        group = counts == count
        block = errors[order[starts[group][:, None] + np.arange(count)]]
        by_user[users[group]] = np.maximum(floor, np.std(block, axis=1))
    return SigmaModel(scope, sigma_all, by_user, floor)


def log_scores(prior: np.ndarray, gaps: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Log prior plus the Gaussian log density of each rating gap at its scale.

    Arrays are broadcast together, one entry per (event, member); -inf
    where the prior is 0.
    """
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior)
    return (log_prior - 0.5 * np.log(2.0 * np.pi * sigmas * sigmas)
            - (gaps * gaps) / (2.0 * sigmas * sigmas))


def normalize_rows(scores: np.ndarray, members: np.ndarray,
                   log_space: bool = False) -> np.ndarray:
    """Posterior over each row's members from their scores.

    Slots whose member is -1 are padding and get 0. Plain scores are
    divided by their row sum; log scores are normalized with log-sum-exp.
    A row whose scores carry no finite positive mass is uniform over its
    members, with one debug record.
    """
    real = members >= 0
    if log_space:
        scores = np.where(real, scores, -np.inf)
        with np.errstate(invalid="ignore"):   # a row of -inf only
            scores = np.exp(scores - scores.max(axis=1, keepdims=True))
    else:
        scores = np.where(real, scores, 0.0)
    total = scores.sum(axis=1, keepdims=True)
    degenerate = ~((0.0 < total) & (total < math.inf))[:, 0]
    for row in members[degenerate].tolist():
        log.debug("members %s: degenerate scores, uniform posterior",
                  sorted(m for m in row if m >= 0))
    with np.errstate(invalid="ignore", divide="ignore"):
        posterior = scores / total
    posterior[degenerate] = real[degenerate] / real[degenerate].sum(axis=1, keepdims=True)
    return posterior


def residual_histogram(train: EventColumns, model: TemporalFactorModel, bins: int = 50,
                       user: int | None = None):
    """Histogram (edges, counts) of training residuals, overall or per user."""
    errors = residuals(train, model)
    if user is not None:
        errors = errors[train.user == user]
    counts, edges = np.histogram(errors, bins=bins)
    return edges, counts
