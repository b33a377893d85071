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

The solver runs numpy-only projected L-BFGS on the smooth split form
theta = w+ - w-, w >= 0 (Schmidt, Fung and Rosales 2007), then a
sign-fixed Newton polish on the support found there until the L1
subgradient (KKT) residual is tiny or the budget is spent; a fit that
stops above the tolerance says so in a DEBUG record.

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
    SECONDS_PER_DAY, Binning, Household, bin_column, event_column, weekday_column,
)
from .factorize import TemporalFactorModel

log = logging.getLogger(__name__)

# L-BFGS pairs kept, and the projected gradient that hands over to the polish
_MEMORY = 20
_HANDOVER_PG = 1e-3
_UPPER = np.triu(np.ones((_MEMORY, _MEMORY), dtype=bool))

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
class Standardization:
    """Per-coordinate centering and scaling learned from training rows."""

    mean: np.ndarray
    scale: np.ndarray


@dataclass(frozen=True, eq=False)
class LogitModel:
    member: int
    household: int
    theta: np.ndarray
    standardization: Standardization
    config: FeatureConfig


def feature_matrix(events, config: FeatureConfig,
                   model: TemporalFactorModel | None = None,
                   binning: Binning | None = None) -> np.ndarray:
    """Concatenated feature rows, one per rating event, in event order.

    Events only need movie / rating / timestamp fields, so both train and
    test events work. The movie-vector block needs a fitted model; the bin
    block needs a binning (taken from the model when not given). A movie
    the model has never seen yields a zero movie-vector block.
    """
    stamps = event_column(events, "timestamp", np.int64)
    blocks = []
    if config.day:
        blocks.append(np.eye(7)[weekday_column(stamps)])
    if config.hour:
        blocks.append(np.eye(24)[(stamps % SECONDS_PER_DAY) // 3_600])
    if config.movie_vector:
        if model is None:
            raise ValueError("movie-vector feature needs a fitted factor model")
        movies = event_column(events, "movie", np.intp)
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
        ratings = event_column(events, "rating", np.float64)
        blocks.append((1.0 + 4.0 * ratings / 100.0)[:, None])
    return np.concatenate(blocks, axis=1)


def standardize_fit(rows: np.ndarray) -> Standardization:
    """Mean/std per coordinate; exactly-constant coordinates get scale 1."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValueError("standardization needs at least 2 rows")
    constant = np.all(rows == rows[0], axis=0)
    mean = np.where(constant, rows[0], rows.mean(axis=0))
    scale = np.where(constant, 1.0, rows.std(axis=0))
    scale = np.where(scale == 0.0, 1.0, scale)
    return Standardization(mean=mean, scale=scale)


def standardize_apply(stats: Standardization, rows: np.ndarray) -> np.ndarray:
    return (np.asarray(rows, dtype=float) - stats.mean) / stats.scale


# ---------------------------------------------------------------------------
# L1-regularized logistic regression
# ---------------------------------------------------------------------------

def _sigmoid(u: np.ndarray) -> np.ndarray:
    # e^-|u| is e^-u on the right tail and e^u on the left: one exp serves both
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _nll(u: np.ndarray, labels: np.ndarray) -> float:
    """Negative log-likelihood at the linear scores u."""
    # log(1 + e^u) as logaddexp(0, u): stable on both tails
    return float((np.logaddexp(0.0, u) - labels * u).sum())


def logistic_objective(theta: np.ndarray, rows: np.ndarray, labels: np.ndarray,
                       lambda1: float) -> float:
    """Negative log-likelihood plus lambda1 * ||theta||_1."""
    return _nll(rows @ theta, labels) + lambda1 * float(np.abs(theta).sum())


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


def _split_descend(rows, labels, lambda1, theta, *, max_iter, pg_tol):
    """Projected L-BFGS on the split form theta = w+ - w-, w >= 0.

    Minimizes nll(X (w+ - w-)) + lambda1 * sum(w) to a projected gradient
    of pg_tol, stepping along the compact inverse-Hessian product (Byrd,
    Nocedal and Schnabel) over the last _MEMORY (s, y) pairs on the free
    coordinates and backtracking along the projection arc to Armijo.
    """
    def gradient(u):
        g = rows.T @ (_sigmoid(u) - labels)
        return np.concatenate((g + lambda1, lambda1 - g))

    p = rows.shape[1]
    w = np.concatenate((np.maximum(theta, 0.0), np.maximum(-theta, 0.0)))
    u = rows @ theta
    f, grad = _nll(u, labels) + lambda1 * float(w.sum()), gradient(u)
    s_all = y_all = np.empty((0, 2 * p))
    for _ in range(max_iter):
        free = (w > 0.0) | (grad < 0.0)
        gf = grad[free]
        if not (np.abs(gf) > pg_tol).any():
            break
        S, Y = s_all[:, free], y_all[:, free]
        sy = S @ Y.T
        keep = sy.diagonal() > 1e-12   # pairs with curvature on the free set
        S, Y, sy = S[keep], Y[keep], sy[keep][:, keep]
        direction = np.where(free, -grad, 0.0)
        step = min(1.0, 1.0 / float(np.abs(gf).sum()))
        if len(sy):
            gamma = sy[-1, -1] / float(Y[-1] @ Y[-1])
            r_inv = np.linalg.inv(np.where(_UPPER[:len(sy), :len(sy)], sy, 0.0))
            p2 = -r_inv @ (S @ gf)
            p1 = r_inv.T @ (sy.diagonal() * -p2 - gamma * (Y @ (Y.T @ p2 + gf)))
            quasi = -(gamma * gf + S.T @ p1 + gamma * (Y.T @ p2))
            if float(gf @ quasi) < 0.0:
                direction[free], step = quasi, 1.0
        for _ in range(60):
            trial = np.maximum(w + step * direction, 0.0)
            u = rows @ (trial[:p] - trial[p:])
            f_trial = _nll(u, labels) + lambda1 * float(trial.sum())
            if f_trial <= f + 1e-4 * float(grad @ (trial - w)):
                break
            step *= 0.5
        else:
            break   # no decrease representable along this direction
        new_grad = gradient(u)
        s_all = np.concatenate((s_all[1 - _MEMORY:], [trial - w]))
        y_all = np.concatenate((y_all[1 - _MEMORY:], [new_grad - grad]))
        w, f, grad = trial, f_trial, new_grad
    return w[:p] - w[p:]


def _polish_active_set(rows, labels, lambda1, theta, kkt_tol, rounds=25):
    """Newton refinement on the support the proximal phase identified.

    With signs held fixed the restricted problem is smooth, so damped
    Newton steps (clipped to zero at sign crossings) converge quadratically
    to machine precision. Zero coordinates whose gradient violates the L1
    condition are pulled into the support between rounds.
    """
    theta = theta.copy()
    for _ in range(rounds):
        grad = rows.T @ (_sigmoid(rows @ theta) - labels)
        active = (theta != 0.0) | (np.abs(grad) > lambda1)
        if not active.any():
            return theta
        signs = np.where(theta[active] != 0.0,
                         np.sign(theta[active]), -np.sign(grad[active]))
        sub = rows[:, active]
        for _ in range(40):
            u = rows @ theta
            sig = _sigmoid(u)
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
            base = logistic_objective(theta, rows, labels, lambda1)
            scale = 1.0
            improved = False
            for _ in range(60):
                trial_active = theta[active] - scale * step
                crossed = np.sign(trial_active) * signs < 0
                trial_active[crossed] = 0.0
                trial = theta.copy()
                trial[active] = trial_active
                trial_obj = logistic_objective(trial, rows, labels, lambda1)
                if trial_obj < base:
                    theta = trial
                    improved = True
                    break
                # Near the optimum the objective is flat at float resolution;
                # accept the full Newton step on gradient-norm progress instead.
                if scale == 1.0 and trial_obj <= base + 1e-12 * max(1.0, abs(base)):
                    g_trial = sub.T @ (_sigmoid(rows @ trial) - labels) + lambda1 * signs
                    if float(np.max(np.abs(g_trial))) < 0.5 * gnorm:
                        theta = trial
                        improved = True
                        break
                scale *= 0.5
            if not improved:
                break
        if kkt_residual(theta, rows, labels, lambda1) <= kkt_tol:
            return theta
    return theta


def fit_logistic(rows: np.ndarray, labels, lambda1: float, *,
                 max_iter: int = 50_000, kkt_tol: float = 1e-8) -> np.ndarray:
    """Minimize the L1-regularized logistic loss from a zero start.

    Two phases, both deterministic: projected L-BFGS on the split form
    until its projected gradient is at most 1e-3, which settles the
    support, then sign-fixed Newton polish on that support to drive the
    KKT residual to ``kkt_tol``. Alternates, at most eight rounds and
    ``max_iter`` L-BFGS iterations, if the support was not yet settled.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError("need a 2-D row matrix with at least one row")
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (rows.shape[0],) or not np.all(np.isin(labels, (0.0, 1.0))):
        raise ValueError("labels must be one 0/1 value per row")
    if lambda1 < 0:
        raise ValueError(f"lambda1 {lambda1} must be >= 0")

    theta = np.zeros(rows.shape[1])
    budget = max_iter
    # The L-BFGS phase only needs to get close and settle the support;
    # the Newton polish does the final descent, so hand over early.
    handover_tol = max(kkt_tol, _HANDOVER_PG)
    for _ in range(8):
        phase = min(budget, 600)
        theta = _split_descend(rows, labels, lambda1, theta, max_iter=phase,
                               pg_tol=handover_tol)
        budget -= phase
        if kkt_residual(theta, rows, labels, lambda1) <= kkt_tol:
            return theta
        theta = _polish_active_set(rows, labels, lambda1, theta, kkt_tol)
        residual = kkt_residual(theta, rows, labels, lambda1)
        if residual <= kkt_tol or budget <= 0:
            break
    if residual > kkt_tol:
        log.debug("L1-logistic fit stopped short: KKT residual %.3g > tolerance %.3g",
                  residual, kkt_tol)
    return theta


# ---------------------------------------------------------------------------
# Household-level fitting and scoring
# ---------------------------------------------------------------------------

def fit_household(train, household: Household, config: FeatureConfig,
                  model: TemporalFactorModel | None = None,
                  binning: Binning | None = None) -> dict[int, LogitModel]:
    """One logistic model per member, sharing rows and standardization.

    Labels are complementary across members: each training event counts as
    a positive example for exactly its rater. Members whose labels are all
    zero or all one are still fit (the L1 term keeps theta bounded). In a
    two-member household the second member's theta is the first's negated.
    """
    member_set = set(household.members)
    events = [ev for ev in train if ev.user in member_set]
    if len(events) < 2:
        raise ValueError(f"household {household.id} needs >= 2 training events")
    rows = feature_matrix(events, config, model, binning)
    stats = standardize_fit(rows)
    scaled = standardize_apply(stats, rows)
    raters = event_column(events, "user", np.intp)
    fitted = {}
    for member in household.members:
        labels = (raters == member).astype(float)
        if labels.min() == labels.max():
            log.debug("household %s member %s: one-sided labels",
                      household.id, member)
        if household.size == 2 and fitted:
            theta = -fitted[household.members[0]].theta
        else:
            theta = fit_logistic(scaled, labels, config.lambda1)
        fitted[member] = LogitModel(member, household.id, theta, stats, config)
    return fitted


def member_probabilities(models: dict[int, LogitModel], events,
                         model: TemporalFactorModel | None = None,
                         binning: Binning | None = None) -> np.ndarray:
    """Per-member logit probabilities (not normalized) of each event.

    One row per event, one column per member in the order of ``models``.
    """
    if not models:
        raise ValueError("no fitted member models")
    first = next(iter(models.values()))
    rows = standardize_apply(
        first.standardization, feature_matrix(events, first.config, model, binning)
    )
    thetas = np.array([lm.theta for lm in models.values()])
    # einsum sums in a fixed order, so a row's scores do not depend on its batch
    return _sigmoid(np.einsum("ep,kp->ek", rows, thetas))


# ---------------------------------------------------------------------------
# Model dump (text format; see README)
# ---------------------------------------------------------------------------

_LOGIT_MAGIC = "logit-models 1"


def save_logit_models(by_household: dict[int, dict[int, LogitModel]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_LOGIT_MAGIC + "\n")
        for hid in by_household:
            for member, lm in by_household[hid].items():
                fh.write(f"model {hid} {member} {lm.config.letters} "
                         f"{repr(lm.config.lambda1)}\n")
                for name, arr in (("theta", lm.theta),
                                  ("mean", lm.standardization.mean),
                                  ("scale", lm.standardization.scale)):
                    fh.write(name + " " + " ".join(repr(float(v)) for v in arr) + "\n")


def load_logit_models(path) -> dict[int, dict[int, LogitModel]]:
    """Read a save_logit_models dump.

    A wrong magic line, a malformed `model` line, a missing or misnamed
    theta/mean/scale line, arrays of unequal length or a non-finite value
    raise ValueError naming the file and the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _LOGIT_MAGIC:
        raise ValueError(f"{path}: line 1: not a logit model file")
    out: dict[int, dict[int, LogitModel]] = {}
    for i in range(1, len(lines), 4):
        def malformed(offset, what):
            return ValueError(f"{path}: line {i + offset + 1}: {what}")

        head = lines[i].split()
        try:
            if len(head) != 5 or head[0] != "model":
                raise ValueError("expected 'model <household> <member> <letters> "
                                 "<lambda1>'")
            hid, member = int(head[1]), int(head[2])
            config = FeatureConfig.from_letters(head[3], float(head[4]))
        except ValueError as exc:
            raise malformed(0, exc) from None
        arrays = []
        for offset, name in enumerate(("theta", "mean", "scale"), 1):
            if i + offset >= len(lines):
                raise malformed(offset, f"expected a {name!r} line, found the end "
                                        "of the file")
            tag, _, rest = lines[i + offset].partition(" ")
            if tag != name:
                raise malformed(offset, f"expected a {name!r} line, found {tag!r}")
            try:
                values = np.array([float(v) for v in rest.split()])
            except ValueError as exc:
                raise malformed(offset, exc) from None
            if not np.all(np.isfinite(values)):
                raise malformed(offset, f"non-finite {name} value")
            if arrays and len(values) != len(arrays[0]):
                raise malformed(offset, f"{name} has {len(values)} values, "
                                        f"theta has {len(arrays[0])}")
            arrays.append(values)
        theta, mean, scale = arrays
        lm = LogitModel(member, hid, theta, Standardization(mean, scale), config)
        out.setdefault(hid, {})[member] = lm
    return out
