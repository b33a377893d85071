import contextlib
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhattrib.corpus import (
    Binning, Household, SynthConfig, bin_of, derive_binning, make_dataset,
    synth_generate, weekday_of,
)
from hhattrib.evaluate import (
    CLASSIFIERS, PipelineConfig, aggregate, auc_from_scores,
    auc_report, build_report, classify_events, fit_and_classify, fit_pipeline,
    format_cv, random_baseline, roc_sweep, roc_sweep_posterior, run_cv,
    summary_line, write_report,
)
from hhattrib.factorize import FactorParams, TemporalFactorModel
from hhattrib.generative import SCOPES
from hhattrib.logistic import FeatureConfig, feature_matrix

from conftest import anon_event, event


HOUSEHOLDS = {0: Household(0, (0, 1)), 1: Household(1, (2, 3, 4))}


def events_with_truth(spec):
    """spec: list of (household, true_user); movies are enumerated."""
    return [anon_event(hid, idx, true_user=user, day=idx % 7)
            for idx, (hid, user) in enumerate(spec)]


# ---------------------------------------------------------------------------
# Point metrics
# ---------------------------------------------------------------------------

def household_score(events, predictions, hid):
    return build_report(events, predictions, HOUSEHOLDS).per_household.get(hid)


def test_tpr_values():
    events = events_with_truth([(0, 0)] * 4)
    assert household_score(events, [0, 0, 0, 0], 0).tpr[0] == 1.0
    assert household_score(events, [1, 1, 1, 1], 0).tpr[0] == 0.0
    assert household_score(events, [0, 0, 0, 1], 0).tpr[0] == 0.75
    assert household_score(events, [0, 0, 0, 0], 0).tpr[1] is None


def test_misclassification_values():
    events = events_with_truth([(0, 0), (0, 0), (0, 1), (0, 1)])
    assert household_score(events, [0, 0, 1, 1], 0).misclassification == 0.0
    assert household_score(events, [1, 1, 0, 0], 0).misclassification == 1.0
    # TP = (3, 1) out of T = (4, 2): 1 - 4/6
    events = events_with_truth([(0, 0)] * 4 + [(0, 1)] * 2)
    preds = [0, 0, 0, 1, 1, 0]
    assert household_score(events, preds, 0).misclassification == pytest.approx(1 / 3)
    assert household_score(events, preds, 1) is None


def test_aggregate_mean_and_size_classes():
    events = events_with_truth([(0, 0), (0, 1)] * 5 + [(1, 2), (1, 3)] * 5)
    preds = [ev.true_user for ev in events]
    # introduce exactly 2/10 errors in household 0 and 4/10 in household 1
    preds[0] = 1 - preds[0]
    preds[2] = 1 - preds[2]
    for k in (10, 12, 14, 16):
        preds[k] = 4
    report = build_report(events, preds, HOUSEHOLDS)
    assert report.per_household[0].misclassification == pytest.approx(0.2)
    assert report.per_household[1].misclassification == pytest.approx(0.4)
    assert report.aggregate.overall == pytest.approx(0.3)
    assert report.aggregate.size2 == pytest.approx(0.2)
    assert report.aggregate.size3 == pytest.approx(0.4)
    assert report.aggregate.size4 is None


def test_aggregate_single_size_class():
    events = events_with_truth([(0, 0), (0, 1)])
    report = build_report(events, [0, 1], {0: HOUSEHOLDS[0]})
    assert report.aggregate.overall == report.aggregate.size2 == 0.0
    assert report.aggregate.size3 is None and report.aggregate.size4 is None


def test_random_baseline_values():
    assert random_baseline({2: 272, 3: 14, 4: 4}) == pytest.approx(0.51149, abs=5e-4)
    assert random_baseline({2: 10}) == 0.5
    assert random_baseline({4: 3}) == 0.75
    with pytest.raises(ValueError):
        random_baseline({2: 0})


def test_random_baseline_monotone_in_size_shift():
    previous = 0.0
    for size4 in range(0, 11):
        value = random_baseline({2: 10 - size4, 4: size4})
        assert value >= previous
        previous = value


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------

def naive_auc(scores, flags):
    positives = [s for s, f in zip(scores, flags) if f]
    negatives = [s for s, f in zip(scores, flags) if not f]
    if not positives or not negatives:
        return None
    inversions = sum(sn > sp for sn in negatives for sp in positives)
    return 1.0 - inversions / (len(positives) * len(negatives))


def test_auc_trivial_rankings():
    assert auc_from_scores([0.9, 0.8, 0.1], [True, True, False]) == 1.0
    assert auc_from_scores([0.1, 0.2, 0.9], [True, True, False]) == 0.0
    assert auc_from_scores([0.9, 0.8, 0.3], [True, False, True]) == 0.5
    assert auc_from_scores([0.5, 0.6], [True, True]) is None


@given(st.lists(st.tuples(st.floats(0, 1, allow_nan=False), st.booleans()),
                min_size=2, max_size=50))
@settings(max_examples=150)
def test_auc_matches_brute_force(pairs):
    scores = [s for s, _ in pairs]
    flags = [f for _, f in pairs]
    assert auc_from_scores(scores, flags) == naive_auc(scores, flags)


def test_auc_report_grouping():
    events = events_with_truth([(0, 0), (0, 0), (0, 1), (1, 2), (1, 3)])
    posteriors = [
        {0: 0.9, 1: 0.1}, {0: 0.8, 1: 0.2}, {0: 0.3, 1: 0.7},
        {2: 0.6, 3: 0.2, 4: 0.2}, {2: 0.1, 3: 0.8, 4: 0.1},
    ]
    mean, per = auc_report(events, posteriors, HOUSEHOLDS)
    assert per[(0, 0)] == 1.0 and per[(0, 1)] == 1.0
    assert per[(1, 2)] == 1.0 and per[(1, 3)] == 1.0
    assert (1, 4) not in per  # member 4 has no positive events
    assert mean == 1.0


# ---------------------------------------------------------------------------
# ROC sweeps
# ---------------------------------------------------------------------------

def _residual_model():
    params = FactorParams(rank=1, bin_count=1, iterations=1)
    # five members across two households; biases set their predictions
    user_bias = np.array([[10.0, 30.0, 20.0, 50.0, 80.0]])
    return TemporalFactorModel(
        np.zeros((1, 5, 1)), np.zeros((1, 40, 1)), user_bias,
        Binning(1, 0, 10 ** 10), params,
    )


def test_roc_endpoints_and_monotonicity():
    model = _residual_model()
    rng = np.random.default_rng(6)
    events = []
    for idx in range(40):
        hid = idx % 2
        members = HOUSEHOLDS[hid].members
        user = members[idx % len(members)]
        rating = float(np.clip(rng.normal(
            {0: 10, 1: 30, 2: 20, 3: 50, 4: 80}[user], 6.0), 0, 100))
        events.append(anon_event(hid, idx, rating=rating, true_user=user))
    alphas = [0.0] + list(np.geomspace(1e-3, 1e5, 30))
    points = roc_sweep(model, HOUSEHOLDS, events, alphas)
    assert points[0].tpr_first == 1.0 and points[0].tpr_rest == 0.0
    assert points[-1].tpr_first <= 0.05 and points[-1].tpr_rest >= 0.95
    firsts = [p.tpr_first for p in points]
    rests = [p.tpr_rest for p in points]
    assert all(a >= b - 1e-12 for a, b in zip(firsts, firsts[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(rests, rests[1:]))


def test_roc_posterior_threshold_sweep():
    events = events_with_truth([(0, 0), (0, 0), (0, 1), (0, 1)])
    posteriors = [{0: 0.9, 1: 0.1}, {0: 0.6, 1: 0.4},
                  {0: 0.45, 1: 0.55}, {0: 0.2, 1: 0.8}]
    points = roc_sweep_posterior(events, posteriors, {0: HOUSEHOLDS[0]},
                                 [0.0, 0.5, 1.0])
    assert points[0].tpr_first == 1.0 and points[0].tpr_rest == 0.0
    assert points[1].tpr_first == 1.0 and points[1].tpr_rest == 1.0
    assert points[2].tpr_first == 0.0 and points[2].tpr_rest == 1.0


# ---------------------------------------------------------------------------
# Reports and cross-validation
# ---------------------------------------------------------------------------

def test_build_report_requires_truth():
    with pytest.raises(ValueError):
        build_report([anon_event(0, 0)], [0], HOUSEHOLDS)
    with pytest.raises(ValueError):
        build_report(events_with_truth([(0, 0)]), [0, 1], HOUSEHOLDS)


def test_report_counts_reconcile():
    events = events_with_truth([(0, 0), (0, 1), (0, 1), (1, 2)])
    report = build_report(events, [0, 1, 0, 4], HOUSEHOLDS)
    score = report.per_household[0]
    assert score.events == 3 and score.correct == 2
    assert score.tpr[0] == 1.0 and score.tpr[1] == 0.5
    assert report.per_household[1].correct == 0


def test_write_report_and_summary(tmp_path):
    events = events_with_truth([(0, 0), (0, 1), (1, 2)])
    posteriors = [{0: 0.7, 1: 0.3}, {0: 0.4, 1: 0.6}, {2: 0.5, 3: 0.3, 4: 0.2}]
    report = build_report(events, [0, 1, 2], HOUSEHOLDS, posteriors=posteriors,
                          annotations={"reference_P": 0.0406})
    line = summary_line(report)
    assert line.startswith("P=0.0 ") and "events=3" in line
    path = tmp_path / "report.tsv"
    write_report(report, path)
    text = path.read_text()
    assert "# per-event" in text and "# aggregate" in text
    assert "# annotations" in text and "reference_P\t0.0406" in text
    assert text.rstrip("\n").endswith(line)
    write_report(report, tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()


@pytest.fixture(scope="module")
def cv_dataset():
    config = SynthConfig(households_size2=6, households_size3=1,
                         households_size4=1, events_per_user=60,
                         overlap=0.1, rank=2, noise_sigma=8.0, seed=21)
    return synth_generate(config)


def test_run_cv_shape_and_determinism(cv_dataset):
    pipeline = PipelineConfig(classifier="prior-day",
                              factor_params=FactorParams(bin_count=4))
    result = run_cv(cv_dataset, pipeline, seeds=(1, 2, 3, 4, 5), fraction=0.05)
    assert len(result.metrics["P"].values) == 5
    again = run_cv(cv_dataset, pipeline, seeds=(1, 2, 3, 4, 5), fraction=0.05)
    assert result.metrics["P"].values == again.metrics["P"].values
    assert format_cv(result) == format_cv(again)
    assert "+/-" in format_cv(result)


def test_run_cv_identical_seeds_zero_std(cv_dataset):
    pipeline = PipelineConfig(classifier="prior-uniform",
                              factor_params=FactorParams(bin_count=4))
    result = run_cv(cv_dataset, pipeline, seeds=(9, 9, 9), fraction=0.05)
    assert result.metrics["P"].std == 0.0


def test_fit_and_classify_families(cv_dataset):
    params = FactorParams(rank=2, bin_count=4, iterations=4, seed=2)
    features = FeatureConfig(rating=False, lambda1=0.2)
    from hhattrib.corpus import cv_split
    split = cv_split(cv_dataset, 0.08, seed=3)
    for name in ("residual", "prior-uniform", "prior-bin", "prior-day",
                 "gen-uniform", "gen-bin", "gen-day", "unified"):
        pipeline = PipelineConfig(classifier=name, factor_params=params,
                                  features=features)
        predictions, posteriors = fit_and_classify(split, pipeline)
        assert len(predictions) == len(split.test)
        for ev, pred in zip(split.test, predictions):
            assert pred in split.households[ev.household].members
        if name == "residual":
            assert posteriors is None
        else:
            assert all(abs(sum(post.values()) - 1.0) < 1e-9
                       for post in posteriors)
    with pytest.raises(ValueError):
        PipelineConfig(classifier="psychic")
    with pytest.raises(ValueError, match="alpha"):
        PipelineConfig(classifier="residual", alpha=-1.0)


# ---------------------------------------------------------------------------
# Score matrices against a per-event reference
# ---------------------------------------------------------------------------

RECORD_KINDS = {"undefined": "undefined", "degenerate": "degenerate",
                "unknown movie": "unknown to the factor model"}
KNOWN_MOVIES = 6


@contextlib.contextmanager
def debug_counts():
    """Count the library's DEBUG records of each kind while the block runs."""
    counts = dict.fromkeys(RECORD_KINDS, 0)

    class Counter(logging.Handler):
        def emit(self, record):
            for kind, text in RECORD_KINDS.items():
                counts[kind] += text in str(record.msg)

    logger, handler = logging.getLogger("hhattrib"), Counter(logging.DEBUG)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield counts
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def reference_predict(model, user, ev):
    b = bin_of(ev.timestamp, model.binning, clamp=True) - 1
    if ev.movie >= model.movie_count:
        return float(model.user_bias[b, user])
    return float(model.user_bias[b, user]
                 + model.user_factors[b, user] @ model.movie_factors[b, ev.movie])


def reference_priors(train, household, mode, ev, binning, epsilon, counts):
    """Each member's smoothed share of the household's matching train events."""
    ours = [e for e in train if e.user in household.members]
    b, d = bin_of(ev.timestamp, binning, clamp=True), weekday_of(ev.timestamp)
    matches = {
        "uniform": lambda e: True,
        "bin": lambda e: bin_of(e.timestamp, binning, clamp=True) == b,
        "day": lambda e: weekday_of(e.timestamp) == d,
    }

    def share(member, keep):
        mine = [e for e in ours if keep(e)]
        denom = len(mine) + epsilon * household.size
        return math.nan if denom == 0 else (sum(e.user == member for e in mine)
                                            + epsilon) / denom

    scores = {}
    for member in household.members:
        scores[member] = share(member, matches[mode])
        if math.isnan(scores[member]):
            counts["undefined"] += 1
            scores[member] = share(member, matches["uniform"])
    return scores


def reference_scores(fitted, train, ev, counts):
    """(member -> score, log_space) of one event, written out with scalars."""
    name, household = fitted.config.classifier, fitted.households[ev.household]
    model, mode = fitted.model, fitted.config.classifier.partition("-")[2]
    if name == "unified":
        models = fitted.logit_models[household.id]
        first = models[household.members[0]]
        if first.config.movie_vector and ev.movie >= model.movie_count:
            counts["unknown movie"] += 1
        x = (feature_matrix([ev], first.config, model, fitted.binning)[0]
             - first.standardization.mean) / first.standardization.scale
        scores = {}
        for member in household.members:
            u = float(np.dot(models[member].theta, x))
            scores[member] = (1.0 / (1.0 + math.exp(-u)) if u >= 0
                              else math.exp(u) / (1.0 + math.exp(u)))
        return scores, False
    priors = reference_priors(train, household, mode, ev, fitted.binning,
                              fitted.config.epsilon, counts)
    sigma_model = fitted.sigma_model
    if name.startswith("prior-") or not sigma_model.log_space:
        return priors, False
    counts["unknown movie"] += ev.movie >= model.movie_count
    scores = {}
    for member, q in priors.items():
        sigma = sigma_model.sigma_all
        if sigma_model.scope == "per_user":
            sigma = sigma_model.sigma_by_user.get(member, sigma)
        gap = ev.rating - reference_predict(model, member, ev)
        scores[member] = -math.inf if q == 0.0 else (
            math.log(q) - 0.5 * math.log(2.0 * math.pi * sigma * sigma)
            - (gap * gap) / (2.0 * sigma * sigma))
    return scores, True


def reference_normalize(scores, log_space, counts):
    if log_space:
        top = max(scores.values())
        scores = {member: math.exp(value - top) for member, value in scores.items()}
    total = sum(scores.values())
    if not 0.0 < total < math.inf:
        counts["degenerate"] += 1
        return dict.fromkeys(scores, 1.0 / len(scores))
    return {member: value / total for member, value in scores.items()}


def reference_classify(fitted, train, test_events):
    """classify_events one event at a time, plus the DEBUG records it should log."""
    counts = dict.fromkeys(RECORD_KINDS, 0)
    predictions, posteriors = [], []
    for ev in test_events:
        household = fitted.households[ev.household]
        if fitted.config.classifier == "residual":
            counts["unknown movie"] += ev.movie >= fitted.model.movie_count
            gaps = [abs(ev.rating - reference_predict(fitted.model, member, ev))
                    for member in household.members]
            rest = list(zip(gaps[1:], household.members[1:]))
            first = fitted.config.alpha * gaps[0] < min(gap for gap, _ in rest)
            predictions.append(household.members[0] if first else min(rest)[1])
            continue
        scores, log_space = reference_scores(fitted, train, ev, counts)
        predictions.append(min(scores, key=lambda member: (-scores[member], member)))
        posteriors.append(reference_normalize(scores, log_space, counts))
    if fitted.config.classifier == "residual":
        posteriors = None
    return predictions, posteriors, counts


@st.composite
def scoring_cases(draw):
    """A small dataset, a hand-set factor model and one pipeline of any family."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    users = draw(st.permutations(range(sum(sizes))))   # members in unsorted order
    hids = draw(st.lists(st.integers(0, 40), min_size=len(sizes),
                         max_size=len(sizes), unique=True))
    households, start = {}, 0
    for hid, size in zip(hids, sizes):
        households[hid] = Household(hid, tuple(users[start:start + size]))
        start += size
    ratings, days, weeks = (st.sampled_from([20.0, 50.0, 80.0]), st.integers(0, 6),
                            st.integers(0, 3))
    train = [event(user, movie, rating=draw(ratings), day=draw(days), week=draw(weeks))
             for user in range(len(users))
             for movie in draw(st.lists(st.integers(0, KNOWN_MOVIES - 1),
                                        min_size=1, max_size=6, unique=True))]
    test = []
    for _ in range(draw(st.integers(1, 12))):
        hid = draw(st.sampled_from(hids))
        test.append(anon_event(hid, draw(st.integers(0, KNOWN_MOVIES + 1)),
                               rating=draw(ratings), day=draw(days),
                               week=draw(st.integers(0, 4)),
                               true_user=draw(st.sampled_from(households[hid].members))))
    dataset = make_dataset(train, households, test)
    bins = draw(st.sampled_from([1, 4, 8]))
    factor_seed = draw(st.none() | st.integers(0, 99))   # None: tied predictions
    rng = np.random.default_rng(factor_seed)
    factors = [np.zeros((bins, count, 2)) if factor_seed is None
               else rng.normal(size=(bins, count, 2)) * 3.0
               for count in (len(users), KNOWN_MOVIES)]
    biases = draw(st.lists(st.sampled_from([30.0, 50.0, 70.0]),
                           min_size=len(users), max_size=len(users)))
    model = TemporalFactorModel(*factors, np.tile(biases, (bins, 1)),
                                derive_binning(train, bins),
                                FactorParams(rank=2, bin_count=bins, iterations=1))
    pipeline = PipelineConfig(
        classifier=draw(st.sampled_from(CLASSIFIERS)),
        features=FeatureConfig.from_letters(draw(st.sampled_from(["ad", "abcd", "cde"])),
                                            draw(st.sampled_from([0.05, 1000.0]))),
        sigma_scope=draw(st.sampled_from(SCOPES)),
        epsilon=draw(st.sampled_from([0.0, 0.5])),
        alpha=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    return dataset, model, pipeline


@given(scoring_cases())
@settings(max_examples=120, deadline=None)
def test_score_matrices_match_per_event_reference(case):
    dataset, model, pipeline = case
    fitted = fit_pipeline(dataset, pipeline, model=model)
    with debug_counts() as counts:
        predictions, posteriors = classify_events(fitted, dataset.test)
    want_predictions, want_posteriors, want_counts = reference_classify(
        fitted, dataset.train, dataset.test)
    assert predictions == want_predictions
    assert counts == want_counts
    if want_posteriors is None:
        assert posteriors is None
        return
    for got, want in zip(posteriors, want_posteriors, strict=True):
        assert list(got) == list(want)
        assert all(abs(got[member] - want[member]) <= 1e-12 for member in want)
