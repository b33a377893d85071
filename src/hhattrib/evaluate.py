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
from dataclasses import dataclass, field

import numpy as np

from . import factorize, generative, logistic, temporal
from .corpus import Binning, Dataset, Household, cv_split, derive_binning

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
class AttributionReport:
    per_event: tuple   # (event, predicted member, posterior dict | None)
    per_household: dict[int, HouseholdScore]
    aggregate: Aggregates
    roc: tuple = ()
    auc_mean: float | None = None
    auc_per: dict = field(default_factory=dict)
    annotations: dict = field(default_factory=dict)


def tpr(test_events, predictions, household: Household, member: int) -> float | None:
    """Fraction of the member's test events attributed to them; None if none."""
    total = correct = 0
    for ev, pred in zip(test_events, predictions):
        if ev.household == household.id and ev.true_user == member:
            total += 1
            correct += pred == member
    return None if total == 0 else correct / total


def misclassification(test_events, predictions, household: Household) -> float | None:
    """1 - (correct attributions / test events) for one household."""
    total = correct = 0
    for ev, pred in zip(test_events, predictions):
        if ev.household == household.id:
            total += 1
            correct += pred == ev.true_user
    return None if total == 0 else 1.0 - correct / total


def aggregate(scores: dict[int, HouseholdScore],
              households: dict[int, Household]) -> Aggregates:
    """Unweighted means of household misclassification, overall and by size."""
    if not scores:
        raise ValueError("no households with test events")
    overall = [s.misclassification for s in scores.values()]
    by_size = {}
    for size in (2, 3, 4):
        values = [
            s.misclassification for hid, s in scores.items()
            if households[hid].size == size
        ]
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


def auc_from_scores(scores, positives) -> float | None:
    """Pairwise ranking quality of member scores against the truth.

    Counts unordered pairs in which a non-member event outranks a member
    event strictly; the result is 1 minus that count over the number of
    (member, non-member) pairs. None when either side is empty.
    """
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    pos = scores[positives]
    neg = scores[~positives]
    if len(pos) == 0 or len(neg) == 0:
        return None
    inversions = int(np.sum(neg[:, None] > pos[None, :]))
    return 1.0 - inversions / (len(pos) * len(neg))


def _by_household(test_events):
    """(household id, indices of its test events), in household id order."""
    grouped: dict[int, list[int]] = {}
    for idx, ev in enumerate(test_events):
        grouped.setdefault(ev.household, []).append(idx)
    return sorted(grouped.items())


def auc_report(test_events, posteriors, households):
    """Mean AUC over (member, household) pairs with both event classes."""
    per: dict[tuple[int, int], float] = {}
    for hid, indices in _by_household(test_events):
        for member in households[hid].members:
            scores = [posteriors[i][member] for i in indices]
            truth = [test_events[i].true_user == member for i in indices]
            value = auc_from_scores(scores, truth)
            if value is not None:
                per[(hid, member)] = value
    mean = float(np.mean(list(per.values()))) if per else None
    return mean, per


def build_report(test_events, predictions, households, posteriors=None,
                 roc=(), annotations=None) -> AttributionReport:
    """Assemble per-event, per-household, and aggregate attribution metrics."""
    test_events = tuple(test_events)
    predictions = tuple(predictions)
    if len(test_events) != len(predictions):
        raise ValueError("one prediction per test event required")
    for ev in test_events:
        if ev.true_user is None:
            raise ValueError("evaluation requires events with ground truth")

    scores = {}
    for hid, idxs in _by_household(test_events):
        hh = households[hid]
        correct = sum(predictions[i] == test_events[i].true_user for i in idxs)
        member_tpr = {}
        for member in hh.members:
            mine = [i for i in idxs if test_events[i].true_user == member]
            if mine:
                member_tpr[member] = sum(predictions[i] == member for i in mine) / len(mine)
            else:
                member_tpr[member] = None
        scores[hid] = HouseholdScore(hid, hh.size, len(idxs), correct, member_tpr)

    auc_mean, auc_per = (None, {})
    if posteriors is not None:
        auc_mean, auc_per = auc_report(test_events, posteriors, households)
    per_event = tuple(
        (ev, pred, None if posteriors is None else posteriors[i])
        for i, (ev, pred) in enumerate(zip(test_events, predictions))
    )
    return AttributionReport(
        per_event=per_event,
        per_household=scores,
        aggregate=aggregate(scores, households),
        roc=tuple(roc),
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


def _household_arrays(test_events, households):
    """Per household: indices, first-member truth mask."""
    return [(hid, idxs, np.array([test_events[i].true_user == households[hid].members[0]
                                  for i in idxs]))
            for hid, idxs in _by_household(test_events)]


def _roc_points(parameters, decide_first, grouped):
    """Average per-household (TPR_first, TPR_rest) over a parameter grid."""
    points = []
    for value in parameters:
        firsts, rests = [], []
        for hid, idxs, truth_first in grouped:
            chose_first = decide_first(value, idxs)
            if truth_first.any():
                firsts.append(float(np.mean(chose_first[truth_first])))
            if (~truth_first).any():
                rests.append(float(np.mean(~chose_first[~truth_first])))
        points.append(RocPoint(
            float(value),
            float(np.mean(firsts)) if firsts else math.nan,
            float(np.mean(rests)) if rests else math.nan,
        ))
    return points


def roc_sweep(model, households, test_events, alphas) -> list[RocPoint]:
    """ROC of the residual classifier: first member vs pooled others.

    At alpha = 0 the first member is always chosen (point (1, 0)); as
    alpha grows the first member is chosen less and less, approaching
    (0, 1).
    """
    test_events = tuple(test_events)
    gaps_first = np.empty(len(test_events))
    gaps_rest = np.empty(len(test_events))
    for i, ev in enumerate(test_events):
        gaps = factorize.residual_gaps(model, households[ev.household], ev)
        gaps_first[i] = gaps[0]
        gaps_rest[i] = min(gaps[1:])
    grouped = _household_arrays(test_events, households)

    def decide_first(alpha, idxs):
        return alpha * gaps_first[idxs] < gaps_rest[idxs]

    return _roc_points(alphas, decide_first, grouped)


def roc_sweep_posterior(test_events, posteriors, households,
                        thresholds) -> list[RocPoint]:
    """ROC for probabilistic classifiers: first member iff posterior >= t."""
    test_events = tuple(test_events)
    p_first = np.array([
        posteriors[i][households[ev.household].members[0]]
        for i, ev in enumerate(test_events)
    ])
    grouped = _household_arrays(test_events, households)

    def decide_first(threshold, idxs):
        return p_first[idxs] >= threshold

    return _roc_points(thresholds, decide_first, grouped)


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

    def __post_init__(self):
        if self.classifier not in CLASSIFIERS:
            raise ValueError(f"unknown classifier {self.classifier!r}")

    @property
    def needs_factor_model(self) -> bool:
        if self.classifier == "residual" or self.classifier.startswith("gen-"):
            return True
        return self.classifier == "unified" and self.features.movie_vector


@dataclass(frozen=True, eq=False)
class FittedPipeline:
    """A pipeline's fitted parts; only those its family uses are set."""

    config: PipelineConfig
    households: dict[int, Household]
    binning: Binning
    model: factorize.TemporalFactorModel | None = None
    priors: dict | None = None
    sigma_model: generative.SigmaModel | None = None
    logit_models: dict | None = None


def fit_pipeline(dataset: Dataset, pipeline: PipelineConfig,
                 model: factorize.TemporalFactorModel | None = None) -> FittedPipeline:
    """Fit the pipeline's family on dataset.train.

    A pre-fitted factor model is used as given, binning included;
    otherwise one is fitted when the family needs it.
    """
    train, households = dataset.train, dataset.households
    columns = dataset.columns
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
        events_of = {hid: [] for hid in households}
        for ev in train:
            if ev.user in dataset.member_of:
                events_of[dataset.member_of[ev.user]].append(ev)
        logit_models = {
            hid: logistic.fit_household(events_of[hid], hh, pipeline.features,
                                        model=model, binning=binning)
            for hid, hh in households.items()
        }
    return FittedPipeline(pipeline, households, binning, model, priors,
                          sigma_model, logit_models)


def classify_events(fitted: FittedPipeline, test_events):
    """Attribute each test event to a household member.

    Returns (predictions, posteriors): one predicted member per test
    event, plus per-event member->probability maps (None for the residual
    classifier). Every other family scores each event once into a member
    -> score map; the prediction is its argmax, the posterior its
    normalization; unified builds one feature matrix per household.
    """
    name = fitted.config.classifier
    mode = name.partition("-")[2]
    test_events = tuple(test_events)
    logit_scores = {}
    if name == "unified":
        for hid, idxs in _by_household(test_events):
            logit_scores.update(zip(idxs, logistic.member_probabilities(
                fitted.logit_models[hid], [test_events[i] for i in idxs],
                fitted.model, fitted.binning)))
    predictions, posteriors = [], []
    for i, ev in enumerate(test_events):
        hh = fitted.households[ev.household]
        if name == "residual":
            predictions.append(factorize.classify_by_residual(
                fitted.model, hh, ev, fitted.config.alpha))
            continue
        log_space = False
        if name.startswith("prior-"):
            scores = temporal.prior_scores(fitted.priors[hh.id], mode, ev)
        elif name.startswith("gen-"):
            scores = generative.member_scores(
                hh.members, ev.rating, ev, fitted.model, fitted.priors[hh.id],
                mode, fitted.sigma_model)
            log_space = fitted.sigma_model.log_space
        else:
            scores = logit_scores[i]
        predictions.append(temporal.argmax_member(scores))
        posteriors.append(generative.normalize(scores, log_space))
    return predictions, (None if name == "residual" else posteriors)


def fit_and_classify(dataset: Dataset, pipeline: PipelineConfig):
    """Fit the pipeline on dataset.train and classify dataset.test."""
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
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("need at least one split seed")
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
        f"events={len(report.per_event)}",
        f"households={len(report.per_household)}",
    ]
    return " ".join(parts)


def write_report(report: AttributionReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# per-event\n")
        fh.write("household\tmovie\ttimestamp\ttrue_user\tpredicted\n")
        for ev, pred, _ in report.per_event:
            fh.write(f"{ev.household}\t{ev.movie}\t{ev.timestamp}\t"
                     f"{_fmt(ev.true_user)}\t{pred}\n")
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
        if report.roc:
            fh.write("# roc\n")
            fh.write("parameter\ttpr_first\ttpr_rest\n")
            for point in report.roc:
                fh.write(f"{_fmt(point.parameter)}\t{_fmt(point.tpr_first)}\t"
                         f"{_fmt(point.tpr_rest)}\n")
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
