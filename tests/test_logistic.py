import itertools
import logging
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from hhattrib import logistic
from hhattrib.corpus import (
    Binning, Household, SynthConfig, bin_of, derive_binning, hour_of, synth_generate,
    weekday_of,
)
from hhattrib.evaluate import FittedPipeline, PipelineConfig, classify_events
from hhattrib.factorize import FactorParams, TemporalFactorModel
from hhattrib.logistic import (
    FEATURE_ORDER, FeatureConfig, _sigmoid, feature_matrix, fit_household,
    fit_logistic, kkt_residual, load_logit_models, logistic_objective,
    member_probabilities, save_logit_models, standardize_apply, standardize_fit,
)

from conftest import DAY, DAY0, anon_event, event


def only(letters, lambda1=0.01):
    return FeatureConfig.from_letters(letters, lambda1)


def build_features(ev, config, model=None, binning=None):
    """feature_matrix's row for one event."""
    return feature_matrix([ev], config, model, binning)[0]


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------

def test_feature_day_indicator():
    x = build_features(anon_event(0, 0, day=0), only("a"))
    np.testing.assert_array_equal(x, [1, 0, 0, 0, 0, 0, 0])


def test_feature_rating_endpoints():
    assert build_features(anon_event(0, 0, rating=100.0), only("e")) == [5.0]
    assert build_features(anon_event(0, 0, rating=0.0), only("e")) == [1.0]


def test_feature_concatenation_order():
    x = build_features(anon_event(0, 0, rating=50.0, day=3), only("ae"))
    np.testing.assert_array_equal(x, [0, 0, 0, 1, 0, 0, 0, 3.0])


def test_feature_hour_indicator():
    x = build_features(anon_event(0, 0, hour=5), only("b"))
    assert x.shape == (24,) and x[5] == 1.0 and x.sum() == 1.0


def test_feature_bin_indicator_needs_binning():
    config = only("d")
    with pytest.raises(ValueError):
        build_features(anon_event(0, 0), config)
    x = build_features(anon_event(0, 0, week=0), config,
                       binning=Binning(4, 0, 10 ** 10))
    assert x.shape == (4,) and x[0] == 1.0


def test_feature_movie_vector_and_unknown_movie():
    params = FactorParams(rank=2, bin_count=1, iterations=1)
    model = TemporalFactorModel(
        np.zeros((1, 1, 2)), np.array([[[1.5, -2.0]]]), np.zeros((1, 1)),
        Binning(1, 0, 10 ** 10), params,
    )
    known = build_features(anon_event(0, 0), only("c"), model=model)
    np.testing.assert_array_equal(known, [1.5, -2.0])
    unknown = build_features(anon_event(0, 7), only("c"), model=model)
    np.testing.assert_array_equal(unknown, [0.0, 0.0])


def _reference_features(event, config, model=None, binning=None):
    """Per-event feature vector built block by block from one-hot vectors."""
    def one_hot(length, index):
        out = np.zeros(length)
        out[index] = 1.0
        return out

    parts = []
    if config.day:
        parts.append(one_hot(7, weekday_of(event.timestamp)))
    if config.hour:
        parts.append(one_hot(24, hour_of(event.timestamp)))
    if config.movie_vector:
        b = bin_of(event.timestamp, model.binning, clamp=True) - 1
        if event.movie < model.movie_count:
            parts.append(np.array(model.movie_factors[b, event.movie]))
        else:
            parts.append(np.zeros(model.rank))
    if config.bin:
        binning = binning or model.binning
        parts.append(one_hot(binning.bin_count,
                             bin_of(event.timestamp, binning, clamp=True) - 1))
    if config.rating:
        parts.append(np.array([1.0 + 4.0 * event.rating / 100.0]))
    return np.concatenate(parts)


def _feature_model(binning):
    rng = np.random.default_rng(8)
    T = binning.bin_count
    params = FactorParams(rank=3, bin_count=T, iterations=1)
    return TemporalFactorModel(rng.normal(size=(T, 2, 3)), rng.normal(size=(T, 5, 3)),
                               rng.normal(size=(T, 2)), binning, params)


@pytest.mark.parametrize("binning", [
    Binning(3, DAY0 + DAY, 14 * DAY),       # events before and after the span
    Binning(7, 0, 7 * DAY, kind="weekday"),
], ids=["span", "weekday"])
def test_feature_matrix_rows_match_per_event_features(binning, caplog):
    model = _feature_model(binning)
    events = [anon_event(0, movie=k % 7, rating=10.0 * k, day=k % 7, hour=(5 * k) % 24,
                         week=k % 4 - 1)
              for k in range(11)]
    unknown = sum(ev.movie >= model.movie_count for ev in events)
    stamps = [ev.timestamp for ev in events]
    assert unknown
    if binning.kind == "span":  # both clamps are exercised
        assert min(stamps) < binning.origin < binning.origin + binning.span < max(stamps)
    for size in range(1, len(FEATURE_ORDER) + 1):
        for letters in itertools.combinations(FEATURE_ORDER, size):
            config = only("".join(letters))
            expected = np.array([_reference_features(ev, config, model)
                                 for ev in events])
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="hhattrib.logistic"):
                matrix = feature_matrix(events, config, model)
            np.testing.assert_array_equal(matrix, expected)
            records = [r for r in caplog.records
                       if "unknown to the factor model" in r.getMessage()]
            assert len(records) == (unknown if config.movie_vector else 0)
            for ev, row in zip(events, expected):
                np.testing.assert_array_equal(build_features(ev, config, model), row)


def test_feature_matrix_bin_block_uses_given_binning():
    model = _feature_model(Binning(3, DAY0, 14 * DAY))
    other = Binning(5, DAY0 - DAY, 30 * DAY)
    events = [anon_event(0, movie=1, day=k, week=k - 2) for k in range(6)]
    expected = [_reference_features(ev, only("cd"), model, other) for ev in events]
    np.testing.assert_array_equal(feature_matrix(events, only("cd"), model, other),
                                  expected)


def test_feature_config_letters_round_trip():
    config = only("acd", lambda1=0.2)
    assert config.letters == "acd"
    assert FeatureConfig.from_letters(config.letters, 0.2) == config
    with pytest.raises(ValueError):
        FeatureConfig.from_letters("axe")
    with pytest.raises(ValueError):
        FeatureConfig.from_letters("")


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

def test_standardize_two_points():
    stats = standardize_fit(np.array([[0.0], [2.0]]))
    assert stats.mean[0] == 1.0 and stats.scale[0] == 1.0  # population std
    np.testing.assert_allclose(
        standardize_apply(stats, np.array([[0.0], [2.0]])), [[-1.0], [1.0]])


def test_standardize_constant_coordinate():
    rows = np.array([[7.0, 1.0], [7.0, 3.0], [7.0, 5.0]])
    stats = standardize_fit(rows)
    out = standardize_apply(stats, rows)
    np.testing.assert_array_equal(out[:, 0], [0.0, 0.0, 0.0])


def test_standardize_centers_fit_rows():
    rng = np.random.default_rng(0)
    rows = rng.normal(2.0, 3.0, size=(40, 5))
    out = standardize_apply(standardize_fit(rows), rows)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def test_huge_lambda_returns_exact_zero():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(25, 4))
    labels = (rng.random(25) < 0.5).astype(float)
    theta = fit_logistic(rows, labels, 1e6)
    assert theta.shape == (4,) and np.all(theta == 0.0)


def test_one_dimensional_bisection_oracle():
    # all labels 1, single constant feature: theta* solves n*(sigmoid(t)-1) + lam = 0
    n, lam = 12, 0.1
    rows = np.ones((n, 1))
    labels = np.ones(n)

    def derivative(t):
        return n * (1.0 / (1.0 + math.exp(-t)) - 1.0) + lam

    lo, hi = 0.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if derivative(mid) < 0:
            lo = mid
        else:
            hi = mid
    theta = fit_logistic(rows, labels, lam)
    assert theta[0] == pytest.approx(0.5 * (lo + hi), abs=1e-6)


def test_unpenalized_separable_diverges_but_terminates():
    rows = np.ones((10, 1))
    labels = np.ones(10)
    theta = fit_logistic(rows, labels, 0.0, max_iter=3_000)
    assert theta[0] > 5.0  # walked far positive without an exception


def test_objective_matches_derivative_free_oracle():
    rng = np.random.default_rng(3)
    for _ in range(8):
        n = int(rng.integers(8, 30))
        p = int(rng.integers(1, 4))
        rows = rng.normal(size=(n, p))
        labels = (rng.random(n) < 0.5).astype(float)
        lam = float(rng.uniform(0.01, 0.5))
        theta = fit_logistic(rows, labels, lam)
        ours = logistic_objective(theta, rows, labels, lam)
        best = math.inf
        for start in (np.zeros(p), np.full(p, 0.5), np.full(p, -0.5), theta + 0.3):
            res = scipy.optimize.minimize(
                logistic_objective, start, args=(rows, labels, lam),
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 50_000,
                         "maxfev": 50_000},
            )
            best = min(best, res.fun)
        assert ours <= best + 1e-6
        assert abs(ours - best) <= 1e-6


def test_kkt_conditions_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(15, 60))
        p = int(rng.integers(2, 7))
        rows = rng.normal(size=(n, p))
        truth = rng.normal(size=p)
        labels = (rng.random(n) < 1 / (1 + np.exp(-rows @ truth))).astype(float)
        lam = float(rng.uniform(0.05, 1.0))
        theta = fit_logistic(rows, labels, lam)
        assert kkt_residual(theta, rows, labels, lam) <= 1e-6


def test_solution_beats_random_draws():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(30, 4))
    labels = (rng.random(30) < 0.5).astype(float)
    lam = 0.05
    theta = fit_logistic(rows, labels, lam)
    ours = logistic_objective(theta, rows, labels, lam)
    assert ours <= logistic_objective(np.zeros(4), rows, labels, lam)
    for _ in range(100):
        draw = rng.normal(scale=2.0, size=4)
        assert ours <= logistic_objective(draw, rows, labels, lam)


def test_fit_logistic_input_validation():
    with pytest.raises(ValueError):
        fit_logistic(np.ones((3, 2)), [0.0, 2.0, 1.0], 0.1)
    with pytest.raises(ValueError):
        fit_logistic(np.ones((3, 2)), [0.0, 1.0], 0.1)
    with pytest.raises(ValueError):
        fit_logistic(np.ones((3, 2)), [0.0, 1.0, 1.0], -0.5)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_complementary_labels_give_negated_theta(seed):
    # No intercept: the loss of theta on 1 - y is the loss of -theta on y.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 120))
    p = int(rng.integers(1, 6))
    rows = rng.normal(size=(n, p))
    labels = (rng.random(n) < 1 / (1 + np.exp(-rows @ rng.normal(size=p)))).astype(float)
    lam = float(rng.uniform(0.05, 1.0))
    theta = fit_logistic(rows, labels, lam)
    mirrored = fit_logistic(rows, 1.0 - labels, lam)
    np.testing.assert_allclose(mirrored, -theta, rtol=0, atol=1e-7)


def _split_objective(w, rows, labels, lam):
    """nll(X (w+ - w-)) + lam * sum(w) and its gradient, for an outside solver."""
    p = rows.shape[1]
    theta = w[:p] - w[p:]
    grad = rows.T @ (1.0 / (1.0 + np.exp(-(rows @ theta))) - labels)
    return (logistic_objective(theta, rows, labels, 0.0) + lam * w.sum(),
            np.concatenate((grad + lam, lam - grad)))


@pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
def test_rank_deficient_household_design(planted_dataset, lam):
    # Standardized day, hour and bin one-hot blocks without an intercept, as
    # fit_household builds them: each block's columns are linearly dependent,
    # so theta is not unique and only objectives and KKT are compared.
    household = planted_dataset.households[0]
    events = [ev for ev in planted_dataset.train if ev.user in household.members]
    raw = feature_matrix(events, only("abd"), binning=derive_binning(events, 4))
    rows = standardize_apply(standardize_fit(raw), raw)
    labels = np.array([ev.user == household.members[0] for ev in events], dtype=float)
    assert np.linalg.matrix_rank(rows) < rows.shape[1]

    theta = fit_logistic(rows, labels, lam)
    assert kkt_residual(theta, rows, labels, lam) <= 1e-8
    ours = logistic_objective(theta, rows, labels, lam)
    p = rows.shape[1]
    tight = scipy.optimize.minimize(
        _split_objective, np.zeros(2 * p), args=(rows, labels, lam), jac=True,
        method="L-BFGS-B", bounds=[(0.0, None)] * (2 * p),
        options={"maxcor": 30, "ftol": 0.0, "gtol": 1e-12, "maxiter": 20_000,
                 "maxfun": 40_000})
    assert abs(ours - tight.fun) <= 1e-10
    mirrored = fit_logistic(rows, 1.0 - labels, lam)
    assert abs(logistic_objective(mirrored, rows, 1.0 - labels, lam) - ours) <= 1e-10


def test_unified_fit_never_imports_scipy_optimize():
    """Importing scipy.optimize alone raises resident memory by about 18 MB
    (59 to 77 MB), which the benchmark's peak-RSS bound would count, so the
    library's L1-logistic solver is written with numpy alone."""
    code = textwrap.dedent("""
        import sys
        import hhattrib.cli
        from hhattrib import factorize, logistic
        from hhattrib.corpus import SynthConfig, synth_generate
        data = synth_generate(SynthConfig(households_size2=1, households_size3=0,
                                          households_size4=0, events_per_user=30))
        model = factorize.fit_lowrank(data.train, factorize.FactorParams(
            rank=2, bin_count=1, iterations=2))
        logistic.fit_household(data.train, data.households[0],
                               logistic.FeatureConfig(lambda1=0.1), model)
        sys.exit(1 if "scipy.optimize" in sys.modules else 0)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr or "scipy.optimize was imported"


def _non_convergence_records(caplog):
    return [r for r in caplog.records
            if r.name == "hhattrib.logistic" and "KKT residual" in r.getMessage()]


def test_budget_spent_above_tolerance_is_logged(caplog):
    rows, labels = np.ones((10, 1)), np.ones(10)  # separable, no penalty
    with caplog.at_level(logging.DEBUG, logger="hhattrib.logistic"):
        theta = fit_logistic(rows, labels, 0.0, max_iter=3_000, kkt_tol=1e-12)
    residual = kkt_residual(theta, rows, labels, 0.0)
    assert residual > 1e-12
    (record,) = _non_convergence_records(caplog)
    assert f"{residual:.3g}" in record.getMessage()
    assert "one-sided" not in record.getMessage()
    assert "unknown to the factor model" not in record.getMessage()
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="hhattrib.logistic"):
        fit_logistic(rows, labels, 0.0, max_iter=3_000)  # reaches the default 1e-8
    assert not _non_convergence_records(caplog)


# ---------------------------------------------------------------------------
# Logit probabilities
# ---------------------------------------------------------------------------

def test_logit_prob_values():
    assert _sigmoid(np.zeros(3) @ np.ones(3)) == 0.5
    assert _sigmoid(np.array([40.0]))[0] > 1 - 1e-12
    # extreme scores must not overflow in either direction
    assert _sigmoid(np.array([900.0]))[0] <= 1.0
    assert _sigmoid(np.array([-900.0]))[0] >= 0.0


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=6))
@settings(max_examples=80)
def test_logit_prob_symmetry(values):
    u = np.array([sum(values)])
    total = _sigmoid(u)[0] + _sigmoid(-u)[0]
    assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Household fitting and classification
# ---------------------------------------------------------------------------

def classify_logistic(models, household, events):
    """The unified classifier's decisions on one household's events."""
    fitted = FittedPipeline(PipelineConfig("unified"), {household.id: household},
                            None, logit_models={household.id: models})
    return classify_events(fitted, events)[0]


def _separable_household(n_each=30):
    household = Household(0, (0, 1))
    train = [event(0, m, day=0, hour=20) for m in range(n_each)]
    train += [event(1, 100 + m, day=3, hour=9) for m in range(n_each)]
    return household, train


def test_fit_household_one_model_per_member():
    household, train = _separable_household()
    models = fit_household(train, household, only("a", 0.1))
    assert set(models) == {0, 1}
    assert models[0].standardization is models[1].standardization


def test_labels_are_complementary():
    household, train = _separable_household(8)
    rows = [1.0 if ev.user == 0 else 0.0 for ev in train]
    flipped = [1.0 if ev.user == 1 else 0.0 for ev in train]
    assert all(a + b == 1.0 for a, b in zip(rows, flipped))


def test_separable_day_feature_classifies_training_perfectly():
    household, train = _separable_household()
    models = fit_household(train, household, only("a", 0.05))
    best = member_probabilities(models, train).argmax(axis=1)
    assert np.array(list(models))[best].tolist() == [ev.user for ev in train]


def test_classify_tie_breaks_to_smaller_id():
    household = Household(0, (4, 2))
    train = [event(4, m, day=0) for m in range(5)] + \
            [event(2, 10 + m, day=0) for m in range(5)]
    models = fit_household(train, household, only("a", 1e6))
    probe = anon_event(0, 50, day=0)
    probs = member_probabilities(models, [probe])[0]
    assert probs.tolist() == [0.5, 0.5]  # both thetas are exactly zero
    assert classify_logistic(models, household, [probe]) == [2]


def test_member_probabilities_equal_one_event_scoring(planted_dataset):
    household = planted_dataset.households[12]   # four members
    binning = derive_binning(planted_dataset.train, 5)
    models = fit_household(planted_dataset.train, household, only("abde", 0.1),
                           binning=binning)
    events = [ev for ev in planted_dataset.test if ev.household == household.id]
    want = [member_probabilities(models, [ev], binning=binning)[0].tolist()
            for ev in events]
    assert len(events) > 1
    assert member_probabilities(models, events, binning=binning).tolist() == want


def test_classifier_depends_only_on_probability_order():
    household, train = _separable_household()
    models = fit_household(train, household, only("ab", 0.1))
    probe = anon_event(0, 50, day=0, hour=20)
    probs = dict(zip(models, member_probabilities(models, [probe])[0]))
    assert classify_logistic(models, household, [probe]) == [max(
        sorted(probs), key=lambda member: (probs[member], -member))]


def test_feature_set_monotonicity_day_plus_hour_helps():
    """(a)+(b) should beat (a) alone on data with hour structure, >= 20 seeds."""
    errors_a, errors_ab = [], []
    for seed in range(20):
        config = SynthConfig(households_size2=5, households_size3=0,
                             households_size4=0, events_per_user=60,
                             overlap=0.2, rank=2, noise_sigma=8.0, seed=seed)
        dataset = synth_generate(config)
        for letters, sink in (("a", errors_a), ("ab", errors_ab)):
            wrong = total = 0
            for hid, household in dataset.households.items():
                models = fit_household(dataset.train, household,
                                       only(letters, 0.1))
                events = [ev for ev in dataset.test if ev.household == hid]
                total += len(events)
                wrong += sum(pred != ev.true_user for pred, ev in zip(
                    classify_logistic(models, household, events), events))
            sink.append(wrong / total)
    assert np.mean(errors_ab) <= np.mean(errors_a)


def _counting_fits(monkeypatch):
    calls = []

    def counting(rows, labels, lambda1, **kwargs):
        calls.append(labels)
        return fit_logistic(rows, labels, lambda1, **kwargs)

    monkeypatch.setattr(logistic, "fit_logistic", counting)
    return calls


def test_two_member_household_is_one_solve(monkeypatch):
    household, train = _separable_household()
    train.append(event(1, 500, day=0, hour=9))  # not separable by weekday alone
    calls = _counting_fits(monkeypatch)
    models = fit_household(train, household, only("ab", 0.05))
    assert len(calls) == 1
    assert np.array_equal(models[1].theta, -models[0].theta)
    assert np.any(models[0].theta != 0.0)
    direct = fit_logistic(standardize_apply(models[0].standardization,
                                            feature_matrix(train, only("ab"))),
                          1.0 - calls[0], 0.05)
    np.testing.assert_allclose(models[1].theta, direct, rtol=0, atol=1e-7)


def test_three_member_household_fits_every_member(monkeypatch):
    household = Household(0, (5, 2, 9))
    train = [event(user, 10 * user + k, day=(user + k) % 7, hour=k)
             for user in household.members for k in range(8)]
    calls = _counting_fits(monkeypatch)
    models = fit_household(train, household, only("ab", 0.05))
    assert len(calls) == 3
    for member, labels in zip(household.members, calls):
        assert labels.sum() == 8 and models[member].member == member


@pytest.mark.parametrize("members, expected", [((0, 1), 2), ((0, 1, 2), 1)])
def test_one_sided_labels_logged_per_member(members, expected, caplog):
    household = Household(0, members)
    train = [event(0, m, day=m % 7) for m in range(10)]
    train += [event(2, 20 + m, day=3) for m in range(5) if 2 in members]
    with caplog.at_level(logging.DEBUG, logger="hhattrib.logistic"):
        fit_household(train, household, only("a", 0.1))
    records = [r for r in caplog.records if "one-sided" in r.getMessage()]
    assert len(records) == expected


def test_fit_household_needs_events():
    with pytest.raises(ValueError):
        fit_household([], Household(0, (0, 1)), only("a"))


def test_one_sided_labels_still_fit():
    household = Household(0, (0, 1))
    train = [event(0, m, day=m % 7) for m in range(10)]  # member 1 never rates
    models = fit_household(train, household, only("a", 0.1))
    assert np.all(np.isfinite(models[1].theta))


# ---------------------------------------------------------------------------
# Dump round trip
# ---------------------------------------------------------------------------

def test_logit_model_dump_round_trip(tmp_path):
    household, train = _separable_household(10)
    models = {0: fit_household(train, household, only("ae", 0.2))}
    path = tmp_path / "logit.txt"
    save_logit_models(models, path)
    again = load_logit_models(path)
    assert set(again[0]) == {0, 1}
    for member in (0, 1):
        np.testing.assert_array_equal(models[0][member].theta,
                                      again[0][member].theta)
        np.testing.assert_array_equal(
            models[0][member].standardization.mean,
            again[0][member].standardization.mean)
        assert again[0][member].config == models[0][member].config


def _dump_lines(tmp_path):
    household, train = _separable_household(10)
    path = tmp_path / "logit.txt"
    save_logit_models({0: fit_household(train, household, only("ae", 0.2))}, path)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize("edit, line, message", [
    (lambda lines: lines[:6], 7, "'theta' line, found the end of the file"),
    (lambda lines: lines[:4] + lines[5:], 5, "'scale' line, found 'model'"),
    (lambda lines: lines[:2] + [lines[2] + " 0.5"] + lines[3:], 4, "mean has"),
    (lambda lines: lines[:7] + [lines[7].replace(lines[7].split()[1], "nan", 1)]
     + lines[8:], 8, "non-finite mean"),
    (lambda lines: lines[:5] + ["model 0 1 ae"] + lines[6:], 6, "expected 'model"),
    (lambda lines: lines[:5] + ["model 0 x ae 0.2"] + lines[6:], 6, "invalid literal"),
    (lambda lines: ["logit-models 2"] + lines[1:], 1, "not a logit model file"),
], ids=["cut-after-model", "no-scale", "length-mismatch", "nan", "short-model-line",
        "bad-member", "magic"])
def test_load_logit_models_rejects_malformed_dump(tmp_path, edit, line, message):
    path, lines = _dump_lines(tmp_path)
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ValueError, match=f"line {line}: .*{message}") as info:
        load_logit_models(path)
    assert str(path) in str(info.value)
