import contextlib
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhattrib import evaluate, logistic
from hhattrib.corpus import (
    Binning, Household, Households, SynthConfig, cv_split, derive_binning, make_dataset,
    synth_generate,
)
from hhattrib.evaluate import (
    CLASSIFIERS, AttributionReport, HouseholdScore, PipelineConfig, Posteriors, RocPoint,
    _gap_matrix, _grouped_auc, aggregate, build_report, classify_events,
    fit_and_classify, fit_pipeline, format_cv, member_rows, random_baseline, roc_sweep,
    roc_sweep_posterior, run_cv, summary_line, write_report,
)
from hhattrib.factorize import FactorParams, TemporalFactorModel
from hhattrib.generative import SCOPES
from hhattrib.logistic import FeatureConfig, feature_matrix

from conftest import (
    anon_event, as_columns, as_test_columns, bin_of, event, logistic_objective,
    rating_events, weekday_of,
)


HOUSEHOLDS = Households({0: Household(0, (0, 1)), 1: Household(1, (2, 3, 4))})


def events_with_truth(spec):
    """spec: list of (household, true_user); movies are enumerated."""
    return as_test_columns(anon_event(hid, idx, true_user=user, day=idx % 7)
                           for idx, (hid, user) in enumerate(spec))


def as_posteriors(households, events, dicts):
    """Per-event {member: probability} dicts as the library's Posteriors matrix."""
    members = member_rows(households, events)[1]
    values = [[post.get(m, 0.0) for m in row] for post, row in zip(dicts, members.tolist())]
    return Posteriors(members, np.array(values, dtype=np.float64).reshape(members.shape))


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
    report = build_report(events, [0, 1], Households({0: HOUSEHOLDS[0]}))
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


def one_group_auc(scores, flags):
    """`_grouped_auc` of one group: its AUC, or None without both classes."""
    kept, values = _grouped_auc(np.zeros(len(scores), np.intp),
                                np.asarray(scores, dtype=np.float64),
                                np.asarray(flags, dtype=bool))
    return values.tolist()[0] if len(kept) else None


def test_auc_trivial_rankings():
    assert one_group_auc([0.9, 0.8, 0.1], [True, True, False]) == 1.0
    assert one_group_auc([0.1, 0.2, 0.9], [True, True, False]) == 0.0
    assert one_group_auc([0.9, 0.8, 0.3], [True, False, True]) == 0.5
    assert one_group_auc([0.5, 0.6], [True, True]) is None


@given(st.lists(st.tuples(st.floats(0, 1, allow_nan=False) | st.just(math.nan),
                          st.booleans()),
                min_size=2, max_size=50))
@settings(max_examples=150)
def test_auc_matches_brute_force(pairs):
    scores = [s for s, _ in pairs]
    flags = [f for _, f in pairs]
    assert one_group_auc(scores, flags) == naive_auc(scores, flags)


def test_auc_report_grouping():
    events = events_with_truth([(0, 0), (0, 0), (0, 1), (1, 2), (1, 3)])
    posteriors = [
        {0: 0.9, 1: 0.1}, {0: 0.8, 1: 0.2}, {0: 0.3, 1: 0.7},
        {2: 0.6, 3: 0.2, 4: 0.2}, {2: 0.1, 3: 0.8, 4: 0.1},
    ]
    report = build_report(events, [0, 0, 1, 2, 3], HOUSEHOLDS,
                          as_posteriors(HOUSEHOLDS, events, posteriors))
    mean, per = report.auc_mean, report.auc_per
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
    points = roc_sweep(model, HOUSEHOLDS, as_test_columns(events), alphas)
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
    households = Households({0: HOUSEHOLDS[0]})
    points = roc_sweep_posterior(events, as_posteriors(households, events, posteriors),
                                 households, [0.0, 0.5, 1.0])
    assert points[0].tpr_first == 1.0 and points[0].tpr_rest == 0.0
    assert points[1].tpr_first == 1.0 and points[1].tpr_rest == 1.0
    assert points[2].tpr_first == 0.0 and points[2].tpr_rest == 1.0


def reference_roc_points(parameters, decide_first, test_events, households):
    """The per-household loop over a parameter grid that the array sweep replaced."""
    grouped = {}
    for idx, ev in enumerate(test_events):
        grouped.setdefault(ev.household, []).append(idx)
    grouped = [(idxs, np.array([test_events[i].true_user == households[hid].members[0]
                                for i in idxs]))
               for hid, idxs in sorted(grouped.items())]
    points = []
    for value in parameters:
        firsts, rests = [], []
        for idxs, truth_first in grouped:
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


def reference_roc_sweep(model, households, test_events, alphas):
    columns = as_test_columns(test_events)
    gaps = _gap_matrix(model, member_rows(households, columns)[1], columns)
    gaps_first, gaps_rest = gaps[:, 0], gaps[:, 1:].min(axis=1)
    return reference_roc_points(
        alphas, lambda alpha, idxs: alpha * gaps_first[idxs] < gaps_rest[idxs],
        test_events, households)


def reference_roc_sweep_posterior(test_events, posteriors, households, thresholds):
    p_first = np.array([posteriors[i][households[ev.household].members[0]]
                        for i, ev in enumerate(test_events)])
    return reference_roc_points(
        thresholds, lambda threshold, idxs: p_first[idxs] >= threshold,
        test_events, households)


def assert_same_points(got, want):
    """Equal by repr, as roc.tsv writes them; nan equals nan."""
    assert [tuple(map(repr, (p.parameter, p.tpr_first, p.tpr_rest))) for p in got] \
        == [tuple(map(repr, (p.parameter, p.tpr_first, p.tpr_rest))) for p in want]


def test_roc_sweeps_match_reference_on_criterion_8_corpus():
    dataset = synth_generate(SynthConfig(
        households_size2=44, households_size3=4, households_size4=2,
        events_per_user=200, overlap=0.1, rank=3, noise_sigma=10.0, seed=20))
    pipeline = PipelineConfig(
        classifier="gen-day",
        factor_params=FactorParams(rank=4, bin_count=1, iterations=12, seed=7))
    fitted = fit_pipeline(dataset, pipeline)
    _, posteriors = classify_events(fitted, dataset.test)
    alphas = [0.0] + list(np.geomspace(1e-3, 1e4, 49))
    events = list(dataset.test)
    assert_same_points(
        roc_sweep(fitted.model, dataset.households, dataset.test, alphas),
        reference_roc_sweep(fitted.model, dataset.households, events, alphas))
    thresholds = list(np.linspace(0.0, 1.0, 50))
    assert_same_points(
        roc_sweep_posterior(dataset.test, posteriors, dataset.households, thresholds),
        reference_roc_sweep_posterior(events, posteriors, dataset.households, thresholds))


@st.composite
def roc_cases(draw):
    """Households of 2-4 members, test events (some households with no first-
    member event or only first-member events), posteriors and a bias model."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=5))
    users = draw(st.permutations(range(sum(sizes))))
    hids = draw(st.lists(st.integers(0, 60), min_size=len(sizes), max_size=len(sizes),
                         unique=True))
    households, start = {}, 0
    for hid, size in zip(hids, sizes):
        households[hid] = Household(hid, tuple(users[start:start + size]))
        start += size
    households = Households(households)
    events, posteriors = [], []
    levels = st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0]) | st.floats(0.0, 1.0)
    for hid in hids:
        members = households[hid].members
        truths = draw(st.sampled_from([members, members[:1], members[1:], (None,), ()]))
        for _ in range(draw(st.integers(0, 6)) if truths else 0):
            true_user = draw(st.sampled_from(truths))
            events.append(anon_event(hid, len(events) % 40, rating=draw(levels) * 100,
                                     true_user=true_user))
            weights = [draw(levels) + 1e-3 for _ in members]
            posteriors.append({m: w / sum(weights) for m, w in zip(members, weights)})
    order = draw(st.permutations(range(len(events))))
    events, posteriors = [events[i] for i in order], [posteriors[i] for i in order]
    biases = np.array([draw(st.sampled_from([10.0, 40.0, 55.0, 90.0])) for _ in users])
    model = TemporalFactorModel(np.zeros((1, len(users), 1)), np.zeros((1, 40, 1)),
                                biases[None, :], Binning(1, 0, 10 ** 10),
                                FactorParams(rank=1, bin_count=1, iterations=1))
    grid = draw(st.lists(levels, min_size=1, max_size=6))
    return households, events, posteriors, model, grid


@given(roc_cases())
@settings(max_examples=100, deadline=None)
def test_roc_sweeps_match_reference(case):
    households, events, posteriors, model, grid = case
    alphas = [4.0 * value for value in grid]
    columns = as_test_columns(events)
    assert_same_points(roc_sweep(model, households, columns, alphas),
                       reference_roc_sweep(model, households, events, alphas))
    assert_same_points(roc_sweep_posterior(columns, as_posteriors(households, columns,
                                                                  posteriors),
                                           households, grid),
                       reference_roc_sweep_posterior(events, posteriors, households, grid))


# ---------------------------------------------------------------------------
# Reports and cross-validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("missing", [0, 3, 9])   # before, between and after the ids
def test_member_rows_names_a_household_missing_from_the_map(missing):
    households = Households({5: Household(5, (0, 1)), 2: Household(2, (2, 3, 4))})
    known = as_test_columns([anon_event(2, 0), anon_event(5, 1), anon_event(2, 2)])
    rows, members = member_rows(households, known)
    assert rows.tolist() == [1, 0, 1]
    assert members.tolist() == [[2, 3, 4], [0, 1, -1], [2, 3, 4]]
    events = as_test_columns([anon_event(5, 0), anon_event(missing, 1), anon_event(7, 2)])
    with pytest.raises(ValueError, match=f"^test event for unknown household {missing}$"):
        member_rows(households, events)


def test_build_report_requires_truth():
    with pytest.raises(ValueError):
        build_report(as_test_columns([anon_event(0, 0)]), [0], HOUSEHOLDS)
    with pytest.raises(ValueError):
        build_report(events_with_truth([(0, 0)]), [0, 1], HOUSEHOLDS)


def test_report_counts_reconcile():
    events = events_with_truth([(0, 0), (0, 1), (0, 1), (1, 2)])
    report = build_report(events, [0, 1, 0, 4], HOUSEHOLDS)
    score = report.per_household[0]
    assert score.events == 3 and score.correct == 2
    assert score.tpr[0] == 1.0 and score.tpr[1] == 0.5
    assert report.per_household[1].correct == 0


def reference_auc_report(test_events, posteriors, households):
    """Mean AUC over (member, household) pairs with both event classes, one
    household and member at a time: the loop the sorted cells replaced."""
    grouped = {}
    for idx, ev in enumerate(test_events):
        grouped.setdefault(ev.household, []).append(idx)
    per = {}
    for hid, indices in sorted(grouped.items()):
        for member in households[hid].members:
            value = naive_auc([posteriors[i][member] for i in indices],
                              [test_events[i].true_user == member for i in indices])
            if value is not None:
                per[(hid, member)] = value
    return (float(np.mean(list(per.values()))) if per else None), per


def reference_build_report(test_events, predictions, households, posteriors=None):
    """build_report one household and member at a time, from per-event dicts."""
    grouped = {}
    for idx, ev in enumerate(test_events):
        grouped.setdefault(ev.household, []).append(idx)
    scores = {}
    for hid, idxs in sorted(grouped.items()):
        hh = households[hid]
        correct = sum(predictions[i] == test_events[i].true_user for i in idxs)
        tpr = {}
        for member in hh.members:
            mine = [i for i in idxs if test_events[i].true_user == member]
            tpr[member] = (sum(predictions[i] == member for i in mine) / len(mine)
                           if mine else None)
        scores[hid] = HouseholdScore(hid, hh.size, len(idxs), correct, tpr)
    auc_mean, auc_per = (None, {})
    if posteriors is not None:
        auc_mean, auc_per = reference_auc_report(test_events, posteriors, households)
    return AttributionReport(as_test_columns(test_events), np.array(predictions, np.intp),
                             scores, aggregate(scores), auc_mean, auc_per)


@st.composite
def report_cases(draw):
    """Households of 2-4 members in unsorted id order; events whose truth
    leaves members without events, falls on one member only or on a
    non-member; predictions, some of non-members; posteriors with exact ties
    and uniform rows."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=5))
    users = draw(st.permutations(range(sum(sizes))))
    hids = draw(st.lists(st.integers(0, 60), min_size=len(sizes), max_size=len(sizes),
                         unique=True))
    households, start = {}, 0
    for hid, size in zip(hids, sizes):
        households[hid] = Household(hid, tuple(users[start:start + size]))
        start += size
    households = Households(households)
    outsider = len(users)   # in no household
    levels = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    events, predictions, posteriors = [], [], []
    for hid in hids:
        members = households[hid].members
        truths = draw(st.sampled_from([members, members[:1], members[1:], members[:-1],
                                       (*members, outsider), ()]))
        for _ in range(draw(st.integers(0, 7)) if truths else 0):
            true_user = draw(st.sampled_from(truths))
            events.append(anon_event(hid, len(events), true_user=true_user))
            predictions.append(draw(st.sampled_from((*members, outsider))))
            weights = [draw(levels) for _ in members]
            if draw(st.booleans()) or sum(weights) == 0.0:
                weights = [1.0] * len(members)   # a uniform (degenerate) row
            posteriors.append({m: w / sum(weights) for m, w in zip(members, weights)})
    order = draw(st.permutations(range(len(events))))
    return (households, [events[i] for i in order], [predictions[i] for i in order],
            [posteriors[i] for i in order])


@given(report_cases())
@settings(max_examples=150, deadline=None)
def test_build_report_matches_per_event_reference(case):
    households, events, predictions, dicts = case
    columns = as_test_columns(events)
    if not events:
        with pytest.raises(ValueError, match="no households with test events"):
            build_report(columns, predictions, households)
        return
    posteriors = as_posteriors(households, columns, dicts)
    for got, want in ((build_report(columns, predictions, households),
                       reference_build_report(events, predictions, households)),
                      (build_report(columns, predictions, households, posteriors),
                       reference_build_report(events, predictions, households, dicts))):
        assert list(got.per_household.items()) == list(want.per_household.items())
        assert got.aggregate == want.aggregate
        assert list(got.auc_per.items()) == list(want.auc_per.items())
        assert got.auc_mean == want.auc_mean
        assert list(got.test) == list(want.test) == events
        assert got.predictions.tolist() == want.predictions.tolist() == predictions


def test_posterior_dicts_match_matrix_for_every_family():
    """posteriors[i] is the {member: probability} dict of event i's matrix row,
    in file order, for every posterior family on a criterion-8 split."""
    dataset = synth_generate(SynthConfig(
        households_size2=44, households_size3=4, households_size4=2,
        events_per_user=200, overlap=0.1, rank=3, noise_sigma=10.0, seed=20))
    split = cv_split(dataset, 0.04, seed=101)
    model = None
    for name in CLASSIFIERS:
        pipeline = PipelineConfig(
            name, factor_params=FactorParams(rank=4, bin_count=1, iterations=12, seed=7),
            features=FeatureConfig(rating=False, lambda1=0.1))
        fitted = fit_pipeline(split, pipeline, model=model)
        model = model or fitted.model
        predictions, posteriors = classify_events(fitted, split.test)
        if name == "residual":
            assert posteriors is None
            continue
        assert len(posteriors) == len(split.test) == len(predictions)
        for i, (ev, post) in enumerate(zip(split.test, posteriors, strict=True)):
            members = split.households[ev.household].members
            row = posteriors.values[i]
            assert list(post) == list(members)
            assert post == dict(zip(members, row[:len(members)].tolist()))
            assert all(type(p) is float for p in post.values())
            assert not row[len(members):].any()
            assert posteriors[i] == post


def test_write_report_and_summary(tmp_path):
    events = events_with_truth([(0, 0), (0, 1), (1, 2)])
    posteriors = [{0: 0.7, 1: 0.3}, {0: 0.4, 1: 0.6}, {2: 0.5, 3: 0.3, 4: 0.2}]
    report = build_report(events, [0, 1, 2], HOUSEHOLDS,
                          posteriors=as_posteriors(HOUSEHOLDS, events, posteriors),
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


def test_run_cv_rejects_repeated_seed(cv_dataset):
    """A repeated seed repeats its split, which would shrink the reported std."""
    pipeline = PipelineConfig(classifier="prior-uniform",
                              factor_params=FactorParams(bin_count=4))
    with pytest.raises(ValueError, match="split seed 9 repeated"):
        run_cv(cv_dataset, pipeline, seeds=(4, 9, 9), fraction=0.05)


UNIFIED_CV = PipelineConfig(
    "unified", factor_params=FactorParams(rank=2, bin_count=4, iterations=4, seed=2),
    features=FeatureConfig(rating=False, lambda1=0.1))
CV_SEEDS = (1, 2, 3)


def test_unified_cv_matches_cold_splits(cv_dataset, monkeypatch):
    """Warm-started splits give the cold splits' predictions, their
    posteriors within the oracle-solver tolerance, and their P and AUC."""
    solves, warm_splits = [], []
    fit = logistic.fit_logistic

    def record_solve(rows, labels, lam, **kwargs):
        theta = fit(rows, labels, lam, **kwargs)
        solves.append((rows, labels, lam, kwargs.get("start"), kwargs.get("pairs"), theta))
        return theta

    def record_split(split, pipeline):
        warm_splits.append(fit_and_classify(split, pipeline))
        return warm_splits[-1]

    monkeypatch.setattr(logistic, "fit_logistic", record_solve)
    monkeypatch.setattr(evaluate, "fit_and_classify", record_split)
    result = run_cv(cv_dataset, UNIFIED_CV, CV_SEEDS, fraction=0.08)
    monkeypatch.undo()
    splits = [cv_split(cv_dataset, 0.08, seed) for seed in CV_SEEDS]
    cold = [fit_and_classify(split, UNIFIED_CV) for split in splits]

    warm = [(rows, labels, lam, theta) for rows, labels, lam, start, pairs, theta in solves
            if start is not None]
    assert len(warm) == 3 * (len(solves) - len(warm))   # the parent fit starts cold
    # every warm solve also starts from the parent member's L-BFGS pairs
    assert all((start is None) == (pairs is None) for _, _, _, start, pairs, _ in solves)
    assert all(pairs.any() for *_, pairs, _ in solves if pairs is not None)
    for rows, labels, lam, theta in warm:
        assert logistic.kkt_residual(theta, rows, labels, lam) <= 1e-10
        want = logistic_objective(fit(rows, labels, lam), rows, labels, lam)
        assert abs(logistic_objective(theta, rows, labels, lam) - want) <= 1e-10
    reports = []
    for split, (got, got_posteriors), (predictions, posteriors) in zip(
            splits, warm_splits, cold):
        assert np.array_equal(got, predictions)
        assert np.abs(got_posteriors.values - posteriors.values).max() <= 1e-8
        reports.append(build_report(split.test, predictions, cv_dataset.households,
                                    posteriors=posteriors))
    assert result.metrics["P"].values == tuple(r.aggregate.overall for r in reports)
    assert result.metrics["AUC"].values == tuple(r.auc_mean for r in reports)


def test_unified_cv_split_values_do_not_depend_on_seed_order(cv_dataset):
    forward = run_cv(cv_dataset, UNIFIED_CV, CV_SEEDS, fraction=0.08)
    backward = run_cv(cv_dataset, UNIFIED_CV, CV_SEEDS[::-1], fraction=0.08)
    for key in ("P", "AUC"):
        assert backward.metrics[key].values == forward.metrics[key].values[::-1]


def test_fit_and_classify_families(cv_dataset):
    params = FactorParams(rank=2, bin_count=4, iterations=4, seed=2)
    features = FeatureConfig(rating=False, lambda1=0.2)
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
    b = bin_of(ev.timestamp, model.binning) - 1
    if ev.movie >= model.movie_count:
        return float(model.user_bias[b, user])
    return float(model.user_bias[b, user]
                 + model.user_factors[b, user] @ model.movie_factors[b, ev.movie])


def reference_priors(train, household, mode, ev, binning, epsilon, counts):
    """Each member's smoothed share of the household's matching train events."""
    ours = [e for e in train if e.user in household.members]
    b, d = bin_of(ev.timestamp, binning), weekday_of(ev.timestamp)
    matches = {
        "uniform": lambda e: True,
        "bin": lambda e: bin_of(e.timestamp, binning) == b,
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
        models, row = fitted.logit_models, list(fitted.households).index(ev.household)
        if models.config.movie_vector and ev.movie >= model.movie_count:
            counts["unknown movie"] += 1
        x = (feature_matrix(np.array([ev.timestamp]), np.array([ev.movie]),
                            np.array([ev.rating]), models.config, model, fitted.binning)[0]
             - models.mean[row]) / models.scale[row]
        scores = {}
        for member, theta in zip(household.members, models.theta[row]):
            u = float(np.dot(theta, x))
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
        if sigma_model.scope == "per_user" and member < len(sigma_model.sigma_by_user):
            sigma = float(sigma_model.sigma_by_user[member])
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
    """classify_events one event at a time, plus the DEBUG records it should log
    and each event's member scores (None for the residual classifier)."""
    counts = dict.fromkeys(RECORD_KINDS, 0)
    predictions, posteriors, all_scores = [], [], []
    for ev in test_events:
        household = fitted.households[ev.household]
        if fitted.config.classifier == "residual":
            counts["unknown movie"] += ev.movie >= fitted.model.movie_count
            gaps = [abs(ev.rating - reference_predict(fitted.model, member, ev))
                    for member in household.members]
            rest = list(zip(gaps[1:], household.members[1:]))
            first = fitted.config.alpha * gaps[0] < min(gap for gap, _ in rest)
            predictions.append(household.members[0] if first else min(rest)[1])
            all_scores.append(None)
            continue
        scores, log_space = reference_scores(fitted, train, ev, counts)
        predictions.append(min(scores, key=lambda member: (-scores[member], member)))
        posteriors.append(reference_normalize(scores, log_space, counts))
        all_scores.append(scores)
    if fitted.config.classifier == "residual":
        posteriors = None
    return predictions, posteriors, counts, all_scores


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
    households = Households(households)
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
    dataset = make_dataset(as_columns(train), households, as_test_columns(test))
    bins = draw(st.sampled_from([1, 4, 8]))
    factor_seed = draw(st.none() | st.integers(0, 99))   # None: tied predictions
    rng = np.random.default_rng(factor_seed)
    factors = [np.zeros((bins, count, 2)) if factor_seed is None
               else rng.normal(size=(bins, count, 2)) * 3.0
               for count in (len(users), KNOWN_MOVIES)]
    biases = draw(st.lists(st.sampled_from([30.0, 50.0, 70.0]),
                           min_size=len(users), max_size=len(users)))
    model = TemporalFactorModel(*factors, np.tile(biases, (bins, 1)),
                                derive_binning(dataset.train, bins),
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
    want_predictions, want_posteriors, want_counts, scores = reference_classify(
        fitted, rating_events(dataset.train), dataset.test)
    # A unified tie (theta . x = 0 exactly, as in a two-member household whose
    # thetas are negations) rounds to either side of 0 in einsum and np.dot,
    # so the library may pick a member the reference scores within 1e-12 of
    # its maximum.
    for got, want, score in zip(predictions, want_predictions, scores, strict=True):
        assert got == want or (pipeline.classifier == "unified"
                               and score[got] >= max(score.values()) - 1e-12)
    assert counts == want_counts
    if want_posteriors is None:
        assert posteriors is None
        return
    for got, want in zip(posteriors, want_posteriors, strict=True):
        assert list(got) == list(want)
        assert all(abs(got[member] - want[member]) <= 1e-12 for member in want)
