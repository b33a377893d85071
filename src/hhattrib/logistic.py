"""Per-member binary classification from composite context features.

For each household member we fit an L1-regularized logistic regression on
the household's training events: label 1 when that member produced the
event. Feature blocks, concatenated in a fixed order, are

    (a) weekday indicator        7      Sunday first
    (b) hour-of-day indicator    24     UTC
    (c) movie factor vector      r      from the fitted low-rank model
    (d) time-bin indicator       T
    (e) rescaled rating          1      0 -> 1.0, 100 -> 5.0

Rows are standardized per coordinate on the household's training rows
only. An anonymized event is attributed to the member whose model assigns
it the highest probability.

The solver runs projected L-BFGS (numpy plus LAPACK triangular solves) on
the smooth split form theta = w+ - w-, w >= 0 (Schmidt, Fung and Rosales
2007), then a sign-fixed Newton polish on the support found there until
the L1 subgradient (KKT) residual is tiny or the budget is spent; a fit
that stops above the tolerance says so in a DEBUG record. Cross-validation
starts its splits' solves from the full-train fit's thetas and (s, y) pairs.

A two-member household needs one solve, not two. The model has no
intercept, so the loss of theta on the labels 1 - y equals the loss of
-theta on y, and the L1 term is symmetric: the second member's problem is
the first one's mirror image, and its minimizer is exactly -theta*. The
second member therefore gets the negated theta of the first; households of
three or more members fit every member.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import (
    SECONDS_PER_DAY, Binning, Dataset, EventColumns, Household, Households, bin_column,
    weekday_column,
)
from .factorize import TemporalFactorModel, _dump_array

log = logging.getLogger(__name__)

# L-BFGS pairs kept, and the projected gradient that hands over to the polish
_MEMORY = 20
_HANDOVER_PG = 1e-3

# scipy's LAPACK triangular solve, bound by the first solve: scipy.linalg holds
# about 28 MB of resident memory that a process fitting no unified model need not
dtrtrs = None

FEATURE_ORDER = "abcde"


@dataclass(frozen=True)
class FeatureConfig:
    """Which feature blocks to build, plus the L1 weight."""

    day: bool = True
    hour: bool = True
    movie_vector: bool = True
    bin: bool = True
    rating: bool = True
    lambda1: float = 0.01

    def __post_init__(self):
        if not any((self.day, self.hour, self.movie_vector, self.bin, self.rating)):
            raise ValueError("at least one feature block must be enabled")
        if self.lambda1 < 0:
            raise ValueError(f"lambda1 {self.lambda1} must be >= 0")

    @classmethod
    def from_letters(cls, letters: str, lambda1: float = 0.01) -> "FeatureConfig":
        unknown = set(letters) - set(FEATURE_ORDER)
        if unknown:
            raise ValueError(f"unknown feature letters {sorted(unknown)}")
        return cls(
            day="a" in letters, hour="b" in letters, movie_vector="c" in letters,
            bin="d" in letters, rating="e" in letters, lambda1=lambda1,
        )

    @property
    def letters(self) -> str:
        flags = (self.day, self.hour, self.movie_vector, self.bin, self.rating)
        return "".join(c for c, on in zip(FEATURE_ORDER, flags) if on)


@dataclass(frozen=True, eq=False)
class StackedLogits:
    """Every household's member models in the layout of ``Households.table``.

    ``theta[h, k]`` is the coefficient vector of member slot k of household
    row h (households in map order, members in file order); padded slots
    hold zeros. ``mean[h]`` and ``scale[h]`` standardize household h's
    feature rows. ``pairs`` holds the ``last_pairs`` of each solved member,
    in ``theta`` order: a two-member household's mirror is never solved.
    Given to ``fit_households`` as ``start``, thetas and pairs warm-start a
    refit's solves (cross-validation's splits); the refit keeps no pairs.
    """

    theta: np.ndarray          # (H, width, p)
    pairs: np.ndarray | None   # (solved members, 2, _MEMORY, 2p)
    mean: np.ndarray    # (H, p)
    scale: np.ndarray   # (H, p)
    config: FeatureConfig


def feature_matrix(stamps: np.ndarray, movies: np.ndarray, ratings: np.ndarray,
                   config: FeatureConfig, model: TemporalFactorModel | None = None,
                   binning: Binning | None = None) -> np.ndarray:
    """Concatenated feature rows, one per event of the stamp (int64), movie
    (intp) and rating (float64) arrays, in event order.

    The movie-vector block needs a fitted model; the bin block needs a
    binning (taken from the model when not given). A movie the model has
    never seen yields a zero movie-vector block.
    """
    blocks = []
    if config.day:
        blocks.append(np.eye(7)[weekday_column(stamps)])
    if config.hour:
        blocks.append(np.eye(24)[(stamps % SECONDS_PER_DAY) // 3_600])
    if config.movie_vector:
        if model is None:
            raise ValueError("movie-vector feature needs a fitted factor model")
        bins = bin_column(stamps, model.binning)
        known = (movies >= 0) & (movies < model.movie_count)
        for movie in movies[~known]:
            log.debug("movie %s unknown to the factor model, zero block", movie)
        block = np.zeros((len(stamps), model.rank))
        block[known] = model.movie_factors[bins[known], movies[known]]
        blocks.append(block)
    if config.bin:
        if binning is None:
            binning = model.binning if model is not None else None
        if binning is None:
            raise ValueError("bin feature needs a binning")
        blocks.append(np.eye(binning.bin_count)[bin_column(stamps, binning)])
    if config.rating:
        blocks.append((1.0 + 4.0 * ratings / 100.0)[:, None])
    return np.concatenate(blocks, axis=1)


def standardize_fit(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, scale) per coordinate, the population std; exactly-constant
    coordinates get scale 1. Rows standardize as ``(rows - mean) / scale``."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValueError("standardization needs at least 2 rows")
    constant = np.all(rows == rows[0], axis=0)
    mean = np.where(constant, rows[0], rows.mean(axis=0))
    scale = np.where(constant, 1.0, rows.std(axis=0))
    scale = np.where(scale == 0.0, 1.0, scale)
    return mean, scale


# ---------------------------------------------------------------------------
# L1-regularized logistic regression
# ---------------------------------------------------------------------------

def _sigmoid(u: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # e = e^-|u| (from _loss, or computed here) is e^-u on the right tail and
    # e^u on the left: one exp serves both
    if e is None:
        e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def _loss(u: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative log-likelihood at the linear scores u, and e = exp(-|u|)."""
    # log(1 + e^u) as max(u, 0) + log1p(e^-|u|): stable on both tails
    e = np.exp(-np.abs(u))
    return float((np.maximum(u, 0.0) + np.log1p(e) - labels * u).sum()), e


def kkt_residual(theta: np.ndarray, rows: np.ndarray, labels: np.ndarray,
                 lambda1: float) -> float:
    """Largest violation of the L1 optimality conditions at theta."""
    grad = rows.T @ (_sigmoid(rows @ theta) - labels)
    viol = np.where(
        theta == 0.0,
        np.maximum(np.abs(grad) - lambda1, 0.0),
        np.abs(grad + lambda1 * np.sign(theta)),
    )
    return float(viol.max())


def _split_descend(rows, labels, lambda1, theta, *, max_iter, pg_tol, pairs=None):
    """Projected L-BFGS on the split form theta = w+ - w-, w >= 0.

    Minimizes nll(X (w+ - w-)) + lambda1 * sum(w) to a projected gradient
    of pg_tol, stepping along the compact inverse-Hessian product (Byrd,
    Nocedal and Schnabel) over the last _MEMORY (s, y) pairs, kept oldest
    first in one preallocated array, on the free coordinates, and
    backtracking along the projection arc to Armijo. The product's triangle
    takes two LAPACK dtrtrs solves, 3 us each at 20x20 where np.linalg.inv
    took 27 us. A triangle dtrtrs reports singular, like a product that is
    not a descent direction, leaves the negative gradient. The history starts
    from the nonzero pairs of ``pairs`` (read, never written); returns theta
    and the history it ends with, both in fit_logistic's layout.
    """
    w = np.concatenate((np.maximum(theta, 0.0), np.maximum(-theta, 0.0)))
    history = np.zeros((2, _MEMORY, len(w)))
    given = history[:, :0] if pairs is None else pairs[:, pairs.any(axis=(0, 2))]
    history[:, :given.shape[1]] = given
    w, _ = _split_steps(rows, labels, lambda1, w, history, given.shape[1],
                        max_iter=max_iter, pg_tol=pg_tol)
    return w[:len(theta)] - w[len(theta):], history


def _split_steps(rows, labels, lambda1, w, history, pairs, *, max_iter, pg_tol):
    """The iterations of _split_descend from the split point w, with the last
    ``pairs`` (s, y) pairs in ``history`` oldest first; returns the split
    point they reach and its pair count, and leaves its pairs in ``history``."""
    global dtrtrs
    if dtrtrs is None:
        from scipy.linalg.lapack import dtrtrs
    def gradient(u, e):
        g = rows.T @ (_sigmoid(u, e) - labels)
        return np.concatenate((g + lambda1, lambda1 - g))

    p = rows.shape[1]
    u = rows @ (w[:p] - w[p:])
    nll, e = _loss(u, labels)
    f, grad = nll + lambda1 * float(w.sum()), gradient(u, e)
    for _ in range(max_iter):
        free = (w > 0.0) | (grad < 0.0)
        gf = grad[free]
        if not (np.abs(gf) > pg_tol).any():
            break
        S, Y = history[:, :pairs, free]
        sy = S @ Y.T
        keep = sy.diagonal() > 1e-12   # pairs with curvature on the free set
        if not keep.all():
            S, Y, sy = S[keep], Y[keep], sy[keep][:, keep]
        direction = np.where(free, -grad, 0.0)
        step = min(1.0, 1.0 / float(np.abs(gf).sum()))
        if len(sy):
            gamma = sy[-1, -1] / float(Y[-1] @ Y[-1])
            p2, info = dtrtrs(sy, S @ gf)   # R = triu(sy); R' below has the same pivots
            yp2 = Y.T @ p2
            p1 = dtrtrs(sy, sy.diagonal() * p2 - gamma * (Y @ (gf - yp2)), trans=1)[0]
            quasi = -(gamma * gf + S.T @ p1 - gamma * yp2)
            if info == 0 and float(gf @ quasi) < 0.0:
                direction[free], step = quasi, 1.0
        for _ in range(60):
            trial = np.maximum(w + step * direction, 0.0)
            u = rows @ (trial[:p] - trial[p:])
            nll, e = _loss(u, labels)
            f_trial = nll + lambda1 * float(trial.sum())
            if f_trial <= f + 1e-4 * float(grad @ (trial - w)):
                break
            step *= 0.5
        else:
            break   # no decrease representable along this direction
        new_grad = gradient(u, e)
        if pairs == _MEMORY:
            history[:, :-1] = history[:, 1:]
        pairs = min(pairs + 1, _MEMORY)
        history[:, pairs - 1] = trial - w, new_grad - grad
        w, f, grad = trial, f_trial, new_grad
    return w, pairs


def _polish_active_set(rows, labels, lambda1, theta, kkt_tol, rounds=25):
    """Newton refinement on the support the proximal phase identified.

    With signs held fixed the restricted problem is smooth, so damped
    Newton steps (clipped to zero at sign crossings) converge quadratically
    to machine precision. Zero coordinates whose gradient violates the L1
    condition are pulled into the support between rounds. Returns theta and
    its KKT residual.
    """
    theta = theta.copy()
    for _ in range(rounds):
        u = rows @ theta
        base, e = _loss(u, labels)
        base += lambda1 * float(np.abs(theta).sum())
        grad = rows.T @ (_sigmoid(u, e) - labels)
        active = (theta != 0.0) | (np.abs(grad) > lambda1)
        if not active.any():
            return theta, 0.0   # theta = 0 and |grad| <= lambda1: optimal
        signs = np.where(theta[active] != 0.0,
                         np.sign(theta[active]), -np.sign(grad[active]))
        sub = rows[:, active]
        for _ in range(40):
            sig = _sigmoid(u, e)
            g_active = sub.T @ (sig - labels) + lambda1 * signs
            gnorm = float(np.max(np.abs(g_active)))
            if gnorm <= 0.25 * kkt_tol:
                break
            weight = sig * (1.0 - sig)
            hess = sub.T @ (sub * weight[:, None])
            hess[np.diag_indices_from(hess)] += 1e-10
            try:
                step = np.linalg.solve(hess, g_active)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, g_active, rcond=None)[0]
            scale = 1.0
            for _ in range(60):
                trial_active = theta[active] - scale * step
                crossed = np.sign(trial_active) * signs < 0
                trial_active[crossed] = 0.0
                trial = theta.copy()
                trial[active] = trial_active
                u_trial = rows @ trial
                trial_obj, e_trial = _loss(u_trial, labels)
                trial_obj += lambda1 * float(np.abs(trial).sum())
                improved = trial_obj < base
                # Near the optimum the objective is flat at float resolution;
                # accept the full Newton step on gradient-norm progress instead.
                if (not improved and scale == 1.0
                        and trial_obj <= base + 1e-12 * max(1.0, abs(base))):
                    g_trial = sub.T @ (_sigmoid(u_trial, e_trial) - labels) + lambda1 * signs
                    improved = float(np.max(np.abs(g_trial))) < 0.5 * gnorm
                if improved:
                    theta, u, e, base = trial, u_trial, e_trial, trial_obj
                    break
                scale *= 0.5
            if not improved:
                break
        residual = kkt_residual(theta, rows, labels, lambda1)
        if residual <= kkt_tol:
            break
    return theta, residual


def fit_logistic(rows: np.ndarray, labels, lambda1: float, *, start=None, pairs=None,
                 last_pairs=None, max_iter: int = 50_000, kkt_tol: float = 1e-10) -> np.ndarray:
    """Minimize the L1-regularized logistic loss from ``start``.

    ``start`` (one finite value per column, copied; zero when None) and
    ``pairs`` (the first L-BFGS phase's (s, y) pairs, read only) only shorten
    the path: the problem is convex and every start runs to the same KKT
    tolerance. ``last_pairs`` receives the last L-BFGS phase's pairs. Both
    are (2, _MEMORY, 2 * columns), oldest first and zero in empty slots.

    Two phases, both deterministic: projected L-BFGS on the split form
    until its projected gradient is at most 1e-3, which settles the
    support, then sign-fixed Newton polish on that support to drive the
    KKT residual to ``kkt_tol``. If the polish stops short (a support that
    was not yet settled, or a near-separable design whose Newton steps
    stall), the phases alternate, at most eight rounds and ``max_iter``
    L-BFGS iterations, and each later L-BFGS phase runs to a projected
    gradient of ``kkt_tol``.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError("need a 2-D row matrix with at least one row")
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (rows.shape[0],) or not np.all(np.isin(labels, (0.0, 1.0))):
        raise ValueError("labels must be one 0/1 value per row")
    if lambda1 < 0:
        raise ValueError(f"lambda1 {lambda1} must be >= 0")

    theta = np.zeros(rows.shape[1]) if start is None else np.array(start, dtype=float)
    if theta.shape != (rows.shape[1],) or not np.isfinite(theta).all():
        raise ValueError("start must be one finite value per column")
    pairs = None if pairs is None else np.asarray(pairs, dtype=float)
    if pairs is not None and (pairs.shape != (2, _MEMORY, 2 * rows.shape[1])
                              or not np.isfinite(pairs).all()):
        raise ValueError(f"pairs must be finite values of shape (2, {_MEMORY}, 2 * columns)")
    budget = max_iter
    # The L-BFGS phase only needs to get close and settle the support;
    # the Newton polish does the final descent, so hand over early.
    pg_tol = max(kkt_tol, _HANDOVER_PG)
    for _ in range(8):
        phase = min(budget, 600)
        theta, history = _split_descend(rows, labels, lambda1, theta, max_iter=phase,
                                        pg_tol=pg_tol, pairs=pairs)
        pairs = None   # later phases start with an empty history
        if last_pairs is not None:
            last_pairs[...] = history
        budget -= phase
        if kkt_residual(theta, rows, labels, lambda1) <= kkt_tol:
            return theta
        theta, residual = _polish_active_set(rows, labels, lambda1, theta, kkt_tol)
        if residual <= kkt_tol or budget <= 0:
            break
        pg_tol = kkt_tol
    if residual > kkt_tol:
        log.debug("L1-logistic fit stopped short: KKT residual %.3g > tolerance %.3g",
                  residual, kkt_tol)
    return theta


# ---------------------------------------------------------------------------
# Household-level fitting and scoring
# ---------------------------------------------------------------------------

def fit_household(train: EventColumns, household: Household, config: FeatureConfig,
                  model: TemporalFactorModel | None = None,
                  binning: Binning | None = None,
                  start: np.ndarray | None = None, pairs=None,
                  last_pairs=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One logistic model per member, sharing rows and standardization.

    Returns the members' thetas, one row per member in file order, and the
    `standardize_fit` mean and scale of the household's rows. Labels are
    complementary across members: each training event counts as a positive
    example for exactly its rater. Members whose labels are all zero or all one are
    still fit (the L1 term keeps theta bounded). In a two-member household
    the second member's theta is the first's negated. ``start`` (a row per
    member), ``pairs`` and ``last_pairs`` (a row per solved member: only the
    first of two) give each solved member's `fit_logistic` arguments.
    """
    events = train[np.isin(train.user, household.members)]
    if len(events.user) < 2:
        raise ValueError(f"household {household.id} needs >= 2 training events")
    rows = feature_matrix(events.stamp, events.movie, events.rating, config, model, binning)
    mean, scale = standardize_fit(rows)
    scaled = (rows - mean) / scale
    thetas = []
    for k, member in enumerate(household.members):
        labels = (events.user == member).astype(float)
        if labels.min() == labels.max():
            log.debug("household %s member %s: one-sided labels",
                      household.id, member)
        if household.size == 2 and thetas:
            thetas.append(-thetas[0])
        else:
            thetas.append(fit_logistic(
                scaled, labels, config.lambda1, start=None if start is None else start[k],
                pairs=None if pairs is None else pairs[k],
                last_pairs=None if last_pairs is None else last_pairs[k]))
    return np.array(thetas), mean, scale


def fit_households(dataset: Dataset, config: FeatureConfig,
                   model: TemporalFactorModel | None = None,
                   binning: Binning | None = None,
                   start: StackedLogits | None = None) -> StackedLogits:
    """``fit_household`` for every household of the dataset, each on its own
    train events in train order, stacked into one StackedLogits. ``start``, a
    cold fit of the same households and features, gives each solved member
    its theta and pairs; a start of another shape is a ValueError."""
    households, rows = dataset.households, dataset.households.user_rows(dataset.train.user)
    empty = dataset.train[:0]
    p = feature_matrix(empty.stamp, empty.movie, empty.rating, config, model, binning).shape[1]
    shape = (*households.table.shape, p)
    edges = np.cumsum([0, *(1 if hh.size == 2 else hh.size for hh in households.values())])
    pairs_shape = (int(edges[-1]), 2, _MEMORY, 2 * p)
    warm = start is not None
    if warm and (start.theta.shape, np.shape(start.pairs)) != (shape, pairs_shape):
        raise ValueError(f"start theta {start.theta.shape} and pairs {np.shape(start.pairs)} "
                         f"do not fit theta {shape} and pairs {pairs_shape}")
    pairs = None if warm else np.zeros(pairs_shape)
    order = np.argsort(rows, kind="stable")
    bounds = np.searchsorted(rows[order], np.arange(len(households) + 1))
    thetas, means, scales = zip(*[
        fit_household(dataset.train[order[lo:hi]], hh, config, model, binning,
                      start=start.theta[h, :hh.size] if warm else None,
                      pairs=start.pairs[first:last] if warm else None,
                      last_pairs=None if warm else pairs[first:last])
        for h, (hh, lo, hi, first, last) in enumerate(zip(
            households.values(), bounds, bounds[1:], edges, edges[1:]))])
    theta = np.zeros(shape)
    theta[households.table >= 0] = np.concatenate(thetas)   # row-major: file order per row
    return StackedLogits(theta, pairs, np.array(means), np.array(scales), config)


def member_probabilities(models: StackedLogits, rows: np.ndarray, stamps: np.ndarray,
                         movies: np.ndarray, ratings: np.ndarray,
                         model: TemporalFactorModel | None = None,
                         binning: Binning | None = None) -> np.ndarray:
    """Per-member logit probabilities (not normalized) of each event of the
    stamp, movie and rating arrays (as ``feature_matrix`` reads them), whose
    households sit at ``rows`` of ``models``.

    One row per event, one column per member slot; padded slots score 0.5.
    """
    x = feature_matrix(stamps, movies, ratings, models.config, model, binning)
    x = (x - models.mean[rows]) / models.scale[rows]
    # einsum sums in a fixed order, so a row's scores do not depend on its batch
    return _sigmoid(np.einsum("ep,ekp->ek", x, models.theta[rows]))


# ---------------------------------------------------------------------------
# Model dump (text format; see README)
# ---------------------------------------------------------------------------

_LOGIT_MAGIC = "logit-models 1"


def save_logit_models(models: StackedLogits, households: Households, path) -> None:
    """One record per member: households in map order, members in file order."""
    config = f"{models.config.letters} {repr(models.config.lambda1)}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_LOGIT_MAGIC + "\n")
        for (hid, hh), thetas, mean, scale in zip(households.items(), models.theta,
                                                  models.mean, models.scale):
            for member, theta in zip(hh.members, thetas):
                fh.write(f"model {hid} {member} {config}\n")
                _dump_array(fh, "theta", theta)
                _dump_array(fh, "mean", mean)
                _dump_array(fh, "scale", scale)
