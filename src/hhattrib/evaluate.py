"""Attribution metrics, ROC/AUC, cross-validation, and pipeline dispatch.

Per-household misclassification is one minus the fraction of that
household's test events attributed to the correct member; the aggregate
number is the unweighted mean over households (overall and per household
size). Per-member true positive rates with no test events are undefined
and excluded from averages rather than counted as zero.

`fit_pipeline` and `classify_events` are the one fit-and-classify
pipeline for every classifier family; cross-validation and the CLI both
call them. `run_cv` repeats the pipeline over several random splits and
reports mean and sample standard deviation of every metric.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import factorize, generative, logistic, temporal
from .corpus import Binning, Dataset, Households, TestColumns, cv_split, derive_binning

CLASSIFIERS = (
    "residual",
    "prior-uniform", "prior-bin", "prior-day",
    "gen-uniform", "gen-bin", "gen-day",
    "unified",
)


@dataclass(frozen=True)
class Aggregates:
    """Mean misclassification over all households and per household size."""

    overall: float
    size2: float | None
    size3: float | None
    size4: float | None


@dataclass(frozen=True)
class HouseholdScore:
    household: int
    size: int
    events: int
    correct: int
    tpr: dict[int, float | None]

    @property
    def misclassification(self) -> float:
        return 1.0 - self.correct / self.events


@dataclass(frozen=True, eq=False)
class Posteriors:
    """Test-event posteriors as one matrix: ``members`` holds each event's
    `Households.table` row (file order, -1 padding) and ``values`` the
    `normalize_rows` output in the same slots. ``posteriors[i]`` builds
    event i's {member: probability} dict, in file order, only when asked."""

    members: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index) -> dict[int, float]:
        return {m: p for m, p in zip(self.members[index].tolist(),
                                     self.values[index].tolist()) if m >= 0}


@dataclass(frozen=True, eq=False)
class AttributionReport:
    """``test`` holds the scored test columns and ``predictions`` each event's
    predicted member (an intp array), in event order."""

    test: TestColumns
    predictions: np.ndarray
    per_household: dict[int, HouseholdScore]
    aggregate: Aggregates
    auc_mean: float | None = None
    auc_per: dict = field(default_factory=dict)
    annotations: dict = field(default_factory=dict)


def aggregate(scores: dict[int, HouseholdScore]) -> Aggregates:
    """Unweighted means of household misclassification, overall and by size."""
    if not scores:
        raise ValueError("no households with test events")
    overall = [s.misclassification for s in scores.values()]
    by_size = {}
    for size in (2, 3, 4):
        values = [s.misclassification for s in scores.values() if s.size == size]
        by_size[size] = float(np.mean(values)) if values else None
    return Aggregates(
        overall=float(np.mean(overall)),
        size2=by_size[2], size3=by_size[3], size4=by_size[4],
    )


def random_baseline(size_counts) -> float:
    """Expected misclassification of uniform random guessing.

    ``size_counts`` maps household size -> number of households; the
    result is the household-count-weighted mean of 1 - 1/size.
    """
    total = sum(size_counts.values())
    if total <= 0 or min(size_counts.values(), default=0) < 0:
        raise ValueError("need non-negative counts with a positive total")
    return sum(count * (1.0 - 1.0 / size) for size, count in size_counts.items()) / total


def _grouped_auc(groups, scores, positive):
    """AUC of each group with both classes, ascending, by one sort: 1 minus
    the share of (positive, negative) pairs in which the negative scores
    strictly higher. With ties ranked negatives first, a positive is
    outranked by the negatives after it in its group, except NaN, which
    outranks nothing."""
    order = np.lexsort((positive, scores, groups))
    groups, scores, positive = groups[order], scores[order], positive[order]
    width = int(groups.max(initial=-1)) + 1
    ranked = ~positive & ~np.isnan(scores)   # negatives that can outrank
    through = np.cumsum(np.bincount(groups[ranked], minlength=width))
    after = (through[groups] - np.cumsum(ranked))[positive]
    inversions = np.bincount(groups[positive], after, width)
    pos = np.bincount(groups[positive], minlength=width)
    neg = np.bincount(groups[~positive], minlength=width)
    keep = np.flatnonzero((pos > 0) & (neg > 0))
    return keep, 1.0 - inversions[keep] / (pos[keep] * neg[keep])


def build_report(test: TestColumns, predictions, households: Households, posteriors=None,
                 annotations=None) -> AttributionReport:
    """Per-household, per-member and aggregate attribution metrics: bincounts
    over (household in id order, member slot) cells, and the per-member AUCs
    from one sort of the cells of a `Posteriors` matrix. Each event's members
    are its `member_rows` row."""
    predictions = np.asarray(predictions, dtype=np.intp)
    if len(test) != len(predictions):
        raise ValueError("one prediction per test event required")
    if (test.true_user < 0).any():
        raise ValueError("evaluation requires events with ground truth")
    members = member_rows(households, test)[1]
    if posteriors is not None and posteriors.values.shape != members.shape:
        raise ValueError("posteriors do not match the test events' households")
    ids, width = sorted(households), members.shape[1]
    keys = np.searchsorted(ids, test.household)
    cells = keys[:, None] * width + np.arange(width)   # each slot's cell
    correct = predictions == test.true_user
    is_truth = members == test.true_user[:, None]
    events = np.bincount(keys, minlength=len(ids)).tolist()
    hits = np.bincount(keys[correct], minlength=len(ids)).tolist()
    member_events, member_hits = (
        np.bincount(cells[mask], minlength=len(ids) * width)
        .reshape(len(ids), width).tolist()
        for mask in (is_truth, is_truth & correct[:, None]))
    scores = {hid: HouseholdScore(hid, households[hid].size, events[k], hits[k], {
        m: hit / total if total else None for m, hit, total in zip(
            households[hid].members, member_hits[k], member_events[k])})
        for k, hid in enumerate(ids) if events[k]}

    auc_mean, auc_per = (None, {})
    if posteriors is not None:
        real = members >= 0
        kept, values = _grouped_auc(cells[real], posteriors.values[real], is_truth[real])
        auc_per = {(ids[g // width], households[ids[g // width]].members[g % width]): value
                   for g, value in zip(kept.tolist(), values.tolist())}
        auc_mean = float(np.mean(list(auc_per.values()))) if auc_per else None
    return AttributionReport(
        test=test,
        predictions=predictions,
        per_household=scores,
        aggregate=aggregate(scores),
        auc_mean=auc_mean,
        auc_per=auc_per,
        annotations=dict(annotations or {}),
    )


# ---------------------------------------------------------------------------
# ROC sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RocPoint:
    parameter: float
    tpr_first: float
    tpr_rest: float


def _roc_points(parameters, decide_first, truth_first, rows) -> list[RocPoint]:
    """Average per-household (TPR_first, TPR_rest) over a parameter grid.

    ``decide_first`` is (parameters x events): whether the first member is
    chosen. ``truth_first`` marks first-member events and ``rows`` gives
    each event's household in id order. Each side averages, per parameter,
    the households with events on that side, in id order.
    """
    grid, width = len(parameters), int(rows.max(initial=-1)) + 1
    slots = np.arange(grid)[:, None] * width + rows

    def tpr(hit, side):
        counts = np.bincount(rows[side], minlength=width)
        hits = np.bincount(slots[:, side].ravel(), hit[:, side].ravel(),
                           grid * width).reshape(grid, width)
        if not counts.any():
            return np.full(grid, math.nan)
        # compress keeps rows contiguous, so each mean sums as np.mean of a list
        return (np.compress(counts > 0, hits, axis=1) / counts[counts > 0]).mean(axis=1)

    firsts, rests = tpr(decide_first, truth_first), tpr(~decide_first, ~truth_first)
    return [RocPoint(float(value), float(first), float(rest))
            for value, first, rest in zip(parameters, firsts, rests)]


def _roc_truth(test: TestColumns, members):
    """Each event's first-member truth, and its household's row in id order
    among the households with events."""
    truth = test.true_user == members[:, 0]
    return truth, np.unique(test.household, return_inverse=True)[1]


def roc_sweep(model, households, test: TestColumns, alphas) -> list[RocPoint]:
    """ROC of the residual classifier: first member vs pooled others.

    At alpha = 0 the first member is always chosen (point (1, 0)); as
    alpha grows the first member is chosen less and less, approaching
    (0, 1).
    """
    members = member_rows(households, test)[1]
    gaps = _gap_matrix(model, members, test)
    alphas = np.asarray(alphas, dtype=np.float64)[:, None]
    decide_first = alphas * gaps[:, 0] < gaps[:, 1:].min(axis=1)
    return _roc_points(alphas[:, 0], decide_first, *_roc_truth(test, members))


def roc_sweep_posterior(test: TestColumns, posteriors, households,
                        thresholds) -> list[RocPoint]:
    """ROC for probabilistic classifiers: first member (slot 0) iff posterior >= t."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    decide_first = posteriors.values[:, 0] >= thresholds[:, None]
    return _roc_points(thresholds, decide_first,
                       *_roc_truth(test, member_rows(households, test)[1]))


# ---------------------------------------------------------------------------
# Pipeline dispatch and cross-validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    """One classifier family plus everything needed to fit and apply it."""

    classifier: str
    factor_params: factorize.FactorParams = field(
        default_factory=factorize.FactorParams)
    features: logistic.FeatureConfig = field(
        default_factory=logistic.FeatureConfig)
    sigma_scope: str = "per_user"
    epsilon: float = 0.5
    alpha: float = 1.0
    # unified only: a cold fit of these households whose thetas and pairs start the solves
    logit_start: logistic.StackedLogits | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.classifier not in CLASSIFIERS:
            raise ValueError(f"unknown classifier {self.classifier!r}")
        if self.alpha < 0:
            raise ValueError(f"alpha {self.alpha} must be >= 0")

    @property
    def needs_factor_model(self) -> bool:
        if self.classifier == "residual" or self.classifier.startswith("gen-"):
            return True
        return self.classifier == "unified" and self.features.movie_vector


@dataclass(frozen=True, eq=False)
class FittedPipeline:
    """A pipeline's fitted parts; only those its family uses are set."""

    config: PipelineConfig
    households: Households
    binning: Binning
    model: factorize.TemporalFactorModel | None = None
    priors: temporal.TemporalPriors | None = None
    sigma_model: generative.SigmaModel | None = None
    logit_models: logistic.StackedLogits | None = None


def fit_pipeline(dataset: Dataset, pipeline: PipelineConfig,
                 model: factorize.TemporalFactorModel | None = None) -> FittedPipeline:
    """Fit the pipeline's family on the dataset's train columns.

    A pre-fitted factor model is used as given, binning included;
    otherwise one is fitted when the family needs it.
    """
    households, columns = dataset.households, dataset.train
    name = pipeline.classifier
    binning = (model.binning if model is not None
               else derive_binning(columns, pipeline.factor_params.bin_count))
    if model is None and pipeline.needs_factor_model:
        model = factorize.fit_lowrank_temporal(
            columns, pipeline.factor_params,
            user_count=dataset.user_count, movie_count=dataset.movie_count,
            binning=binning,
        )
    priors = sigma_model = logit_models = None
    if name.startswith(("prior-", "gen-")):
        priors = temporal.fit_priors(columns, households, binning, pipeline.epsilon)
    if name.startswith("gen-"):
        sigma_model = generative.estimate_sigma(columns, model, pipeline.sigma_scope)
    if name == "unified":
        logit_models = logistic.fit_households(dataset, pipeline.features, model, binning,
                                               pipeline.logit_start)
    return FittedPipeline(pipeline, households, binning, model, priors,
                          sigma_model, logit_models)


def member_rows(households: Households, test: TestColumns):
    """Each event's household row in map order, and that row of the
    households' ``table``. An event whose household is not in the map is a
    ValueError naming the first."""
    rows = households.rows(test.household)
    if (rows < 0).any():
        raise ValueError(f"test event for unknown household "
                         f"{int(test.household[(rows < 0).argmax()])}")
    return rows, households.table[rows]


def _gap_matrix(model, members, test: TestColumns) -> np.ndarray:
    """|rating - prediction| for each member slot of each event; inf where padded."""
    users = np.where(members >= 0, members, members[:, :1])
    predictions = factorize.predict(model, users, test.movie[:, None],
                                    test.stamp[:, None])
    gaps = np.abs(test.rating[:, None] - predictions)
    return np.where(members >= 0, gaps, np.inf)


def _argmax_members(scores, members) -> np.ndarray:
    """Member with the largest score in each row, over the slots whose member
    is not -1; exact ties go to the smaller user id."""
    real = members >= 0
    scores = np.where(real, scores, -np.inf)
    tied = real & (scores == scores.max(axis=1, keepdims=True))
    return np.where(tied, members, np.iinfo(members.dtype).max).min(axis=1)


def classify_events(fitted: FittedPipeline, test: TestColumns):
    """Attribute each test event to a household member.

    Returns (predictions, posteriors): an intp array of one predicted member
    per test event, plus a `Posteriors` matrix (None for the residual
    classifier).
    The family fills one score matrix for the whole split, one row per
    event and one column per member in `Households.table` slot order; the
    prediction is the row argmax (smaller user id on exact ties), the
    posterior the row's normalization, with no per-event dicts.

    The residual classifier reads the |rating - prediction| gaps instead:
    the first member wins iff alpha times their gap beats every other
    member's gap strictly; otherwise the closest of the rest wins, smaller
    user id on ties. alpha = 1 is the plain argmin for two-member
    households; alpha sweeps trade the first member's true positive rate
    against the rest's.
    """
    name = fitted.config.classifier
    rows, members = member_rows(fitted.households, test)
    if name == "residual":
        gaps = _gap_matrix(fitted.model, members, test)
        first = fitted.config.alpha * gaps[:, 0] < gaps[:, 1:].min(axis=1)
        rest = _argmax_members(-gaps[:, 1:], members[:, 1:])
        return np.where(first, members[:, 0], rest), None
    if name == "unified":
        scores = logistic.member_probabilities(
            fitted.logit_models, rows, test.stamp, test.movie, test.rating, fitted.model,
            fitted.binning)
    else:
        scores = temporal.prior_matrix(fitted.priors, name.partition("-")[2], rows,
                                       test.stamp)
    log_space = name.startswith("gen-") and fitted.sigma_model.log_space
    if log_space:
        sigmas = fitted.sigma_model.sigmas(np.maximum(members, 0))
        scores = generative.log_scores(scores, _gap_matrix(fitted.model, members, test),
                                       sigmas)
    return _argmax_members(scores, members), Posteriors(
        members, generative.normalize_rows(scores, members, log_space))


def fit_and_classify(dataset: Dataset, pipeline: PipelineConfig):
    """Fit the pipeline on the dataset's train and classify dataset.test."""
    return classify_events(fit_pipeline(dataset, pipeline), dataset.test)


@dataclass(frozen=True)
class CvMetric:
    mean: float
    std: float
    values: tuple


@dataclass(frozen=True)
class CvResult:
    metrics: dict[str, CvMetric]
    seeds: tuple
    fraction: float


def run_cv(dataset: Dataset, pipeline: PipelineConfig, seeds,
           fraction: float = 0.04) -> CvResult:
    """Random-subsampling cross-validation: one split per seed.

    Each split hides ``fraction`` of every household member's events,
    refits the pipeline on what remains, classifies the hidden events,
    and collects P / P2 / P3 / P4 (plus mean AUC when posteriors exist).
    Reported as mean and sample standard deviation across splits.

    The unified family is first fitted once, cold, on the whole dataset,
    and each split's logistic solves start from that fit's thetas and last
    L-BFGS (s, y) pairs. They reach the cold optimum in about a third of
    the work. The extra fit costs about one cold split: one split runs
    slower, two or more run faster. A split's result depends only on the
    dataset and its own seed, so a repeated seed is a ValueError.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("need at least one split seed")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"split seed {max(seeds, key=seeds.count)} repeated")
    if pipeline.classifier == "unified":
        parent = fit_pipeline(dataset, pipeline).logit_models
        pipeline = replace(pipeline, logit_start=parent)
    collected: dict[str, list[float]] = {}
    for seed in seeds:
        split = cv_split(dataset, fraction, seed)
        predictions, posteriors = fit_and_classify(split, pipeline)
        report = build_report(split.test, predictions, dataset.households,
                              posteriors=posteriors)
        agg = report.aggregate
        values = {"P": agg.overall, "P2": agg.size2, "P3": agg.size3,
                  "P4": agg.size4, "AUC": report.auc_mean}
        for key, value in values.items():
            if value is not None:
                collected.setdefault(key, []).append(value)
    metrics = {}
    for key, values in collected.items():
        if len(values) != len(seeds):
            continue  # undefined in some split; skip rather than average apples/oranges
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        metrics[key] = CvMetric(float(np.mean(values)), std, tuple(values))
    return CvResult(metrics=metrics, seeds=seeds, fraction=fraction)


# ---------------------------------------------------------------------------
# Report emission (TSV sections + one machine-readable summary line)
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summary_line(report: AttributionReport) -> str:
    agg = report.aggregate
    parts = [
        f"P={_fmt(agg.overall)}", f"P2={_fmt(agg.size2)}",
        f"P3={_fmt(agg.size3)}", f"P4={_fmt(agg.size4)}",
        f"AUC={_fmt(report.auc_mean)}",
        f"events={len(report.predictions)}",
        f"households={len(report.per_household)}",
    ]
    return " ".join(parts)


def write_report(report: AttributionReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# per-event\n")
        fh.write("household\tmovie\ttimestamp\ttrue_user\tpredicted\n")
        test = report.test
        fh.writelines(f"{household}\t{movie}\t{stamp}\t{truth}\t{pred}\n"
                      for household, movie, stamp, truth, pred in zip(
                          test.household.tolist(), test.movie.tolist(),
                          test.stamp.tolist(), test.true_user.tolist(),
                          report.predictions.tolist()))
        fh.write("# per-household\n")
        fh.write("household\tsize\tevents\tcorrect\tmisclassification\n")
        for hid, score in sorted(report.per_household.items()):
            fh.write(f"{hid}\t{score.size}\t{score.events}\t{score.correct}\t"
                     f"{_fmt(score.misclassification)}\n")
        fh.write("# per-member\n")
        fh.write("household\tmember\ttpr\n")
        for hid, score in sorted(report.per_household.items()):
            for member, value in score.tpr.items():
                fh.write(f"{hid}\t{member}\t{_fmt(value)}\n")
        fh.write("# aggregate\n")
        agg = report.aggregate
        for key, value in (("P", agg.overall), ("P2", agg.size2),
                           ("P3", agg.size3), ("P4", agg.size4)):
            fh.write(f"{key}\t{_fmt(value)}\n")
        if report.auc_mean is not None:
            fh.write("# auc\n")
            fh.write("household\tmember\tauc\n")
            for (hid, member), value in sorted(report.auc_per.items()):
                fh.write(f"{hid}\t{member}\t{_fmt(value)}\n")
            fh.write(f"mean\t-\t{_fmt(report.auc_mean)}\n")
        if report.annotations:
            fh.write("# annotations\n")
            for key, value in report.annotations.items():
                fh.write(f"{key}\t{_fmt(value)}\n")
        fh.write(summary_line(report) + "\n")


def format_cv(result: CvResult) -> str:
    """Human-readable mean +/- std lines plus a machine summary line."""
    lines = ["metric\tmean\tstd\tvalues"]
    for key in ("P", "P2", "P3", "P4", "AUC"):
        if key in result.metrics:
            m = result.metrics[key]
            values = ",".join(repr(v) for v in m.values)
            lines.append(f"{key}\t{_fmt(m.mean)}\t{_fmt(m.std)}\t{values}")
    for key in ("P", "P2", "P3", "P4", "AUC"):
        if key in result.metrics:
            m = result.metrics[key]
            lines.append(f"{key} = {m.mean:.4f} +/- {m.std:.4f}")
    summary = " ".join(
        f"{key}_mean={_fmt(m.mean)} {key}_std={_fmt(m.std)}"
        for key, m in result.metrics.items()
    )
    lines.append(summary)
    return "\n".join(lines) + "\n"
