import itertools
import logging
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhattrib import logistic
from hhattrib.corpus import (
    Binning, Household, Households, SynthConfig, cv_split, derive_binning, make_dataset,
    synth_generate,
)
from hhattrib.evaluate import (
    FittedPipeline, PipelineConfig, classify_events, fit_and_classify, fit_pipeline,
)
from hhattrib.factorize import FactorParams, TemporalFactorModel
from hhattrib.logistic import (
    FEATURE_ORDER, FeatureConfig, _sigmoid, feature_matrix, fit_household, fit_households,
    fit_logistic, kkt_residual, member_probabilities,
    save_logit_models, standardize_fit,
)

from conftest import (
    DAY, DAY0, anon_event, as_columns, as_test_columns, bin_of, event, hour_of,
    logistic_objective, read_logit_dump, weekday_of,
)


def only(letters, lambda1=0.01):
    return FeatureConfig.from_letters(letters, lambda1)


def arrays(events):
    """The stamp, movie and rating arrays of events, as feature_matrix reads them."""
    return (np.array([ev.timestamp for ev in events], np.int64),
            np.array([ev.movie for ev in events], np.intp),
            np.array([ev.rating for ev in events], np.float64))


def build_features(ev, config, model=None, binning=None):
    """feature_matrix's row for one event."""
    return feature_matrix(*arrays([ev]), config, model, binning)[0]


def standardized(rows):
    """``rows`` standardized by their own mean and scale, as fit_household does."""
    mean, scale = standardize_fit(rows)
    return (rows - mean) / scale


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
        b = bin_of(event.timestamp, model.binning) - 1
        if event.movie < model.movie_count:
            parts.append(np.array(model.movie_factors[b, event.movie]))
        else:
            parts.append(np.zeros(model.rank))
    if config.bin:
        binning = binning or model.binning
        parts.append(one_hot(binning.bin_count,
                             bin_of(event.timestamp, binning) - 1))
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
                matrix = feature_matrix(*arrays(events), config, model)
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
    np.testing.assert_array_equal(feature_matrix(*arrays(events), only("cd"), model, other),
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
    mean, scale = standardize_fit(np.array([[0.0], [2.0]]))
    assert mean[0] == 1.0 and scale[0] == 1.0  # population std
    np.testing.assert_allclose(standardized(np.array([[0.0], [2.0]])), [[-1.0], [1.0]])


def test_standardize_constant_coordinate():
    rows = np.array([[7.0, 1.0], [7.0, 3.0], [7.0, 5.0]])
    mean, scale = standardize_fit(rows)
    assert mean[0] == 7.0 and scale[0] == 1.0
    np.testing.assert_array_equal(standardized(rows)[:, 0], [0.0, 0.0, 0.0])


def test_standardize_centers_fit_rows():
    rng = np.random.default_rng(0)
    rows = rng.normal(2.0, 3.0, size=(40, 5))
    out = standardized(rows)
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


def criterion_9_designs(count=20):
    """Random designs drawn as criterion 9 draws them."""
    rng = np.random.default_rng(900)
    for _ in range(count):
        n, p = int(rng.integers(15, 70)), int(rng.integers(2, 8))
        rows = rng.normal(size=(n, p))
        labels = (rng.random(n) < 1 / (1 + np.exp(-rows @ rng.normal(size=p)))).astype(float)
        yield rows, labels, float(rng.uniform(0.05, 1.0))


def test_warm_starts_reach_the_cold_optimum():
    rng = np.random.default_rng(901)
    for rows, labels, lam in criterion_9_designs():
        cold = fit_logistic(rows, labels, lam)
        want = logistic_objective(cold, rows, labels, lam)
        for start in (cold, -cold, rng.normal(size=rows.shape[1])):
            theta = fit_logistic(rows, labels, lam, start=start)
            assert kkt_residual(theta, rows, labels, lam) <= 1e-10
            assert abs(logistic_objective(theta, rows, labels, lam) - want) <= 1e-10


def test_start_at_the_optimum_takes_fewer_loss_evaluations(monkeypatch):
    evaluations = []
    loss = logistic._loss
    monkeypatch.setattr(logistic, "_loss", lambda *a: evaluations.append(1) or loss(*a))
    for rows, labels, lam in criterion_9_designs(8):
        theta = fit_logistic(rows, labels, lam)
        cold = len(evaluations)
        fit_logistic(rows, labels, lam, start=theta)
        assert len(evaluations) - cold < cold
        evaluations.clear()


def test_zero_start_is_the_cold_start():
    for rows, labels, lam in criterion_9_designs(8):
        assert np.array_equal(fit_logistic(rows, labels, lam, start=np.zeros(rows.shape[1])),
                              fit_logistic(rows, labels, lam))


def test_warm_start_with_huge_lambda_returns_exact_zero():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(25, 4))
    labels = (rng.random(25) < 0.5).astype(float)
    theta = fit_logistic(rows, labels, 1e6, start=np.array([3.0, -2.0, 0.5, 0.0]))
    assert np.all(theta == 0.0)


def test_warm_start_leaves_the_callers_array():
    rows, labels, lam = next(criterion_9_designs(1))
    start = np.linspace(-1.0, 1.0, rows.shape[1])
    kept = start.copy()
    theta = fit_logistic(rows, labels, lam, start=start)
    assert np.array_equal(start, kept) and theta is not start


@pytest.mark.parametrize("start", [np.zeros(3), np.zeros((2, 2)), np.array([0.0, np.nan])])
def test_bad_start_is_rejected(start):
    with pytest.raises(ValueError, match="start"):
        fit_logistic(np.ones((3, 2)), [0.0, 1.0, 1.0], 0.1, start=start)


def fit_with_pairs(rows, labels, lam, **kwargs):
    """fit_logistic's theta and the last L-BFGS pairs it receives."""
    last = np.zeros((2, logistic._MEMORY, 2 * rows.shape[1]))
    return fit_logistic(rows, labels, lam, last_pairs=last, **kwargs), last


def subsample(rows, labels, rng, share=0.96):
    """A cross-validation split's rows: a share of them, in order."""
    keep = np.sort(rng.choice(len(rows), int(round(share * len(rows))), replace=False))
    return rows[keep], labels[keep]


def test_no_pairs_and_zero_pairs_are_the_cold_start():
    for rows, labels, lam in criterion_9_designs():
        cold = fit_logistic(rows, labels, lam)
        zeros = np.zeros((2, logistic._MEMORY, 2 * rows.shape[1]))
        assert np.array_equal(fit_logistic(rows, labels, lam, pairs=None), cold)
        assert np.array_equal(fit_logistic(rows, labels, lam, pairs=zeros), cold)
        theta, last = fit_with_pairs(rows, labels, lam)
        assert np.array_equal(theta, cold) and last.any()


def test_warm_pairs_reach_the_cold_optimum():
    rng = np.random.default_rng(902)
    designs = list(criterion_9_designs())
    for i, (rows, labels, lam) in enumerate(designs):
        want = logistic_objective(fit_logistic(rows, labels, lam), rows, labels, lam)
        sub_theta, sub_pairs = fit_with_pairs(*subsample(rows, labels, rng), lam)
        other = next(d for d in designs[i + 1:] + designs[:i] if d[0].shape[1] == rows.shape[1])
        random_pairs = rng.normal(scale=10.0, size=sub_pairs.shape)
        for pairs in (sub_pairs, fit_with_pairs(*other)[1], random_pairs):
            for start in (None, sub_theta):
                theta = fit_logistic(rows, labels, lam, start=start, pairs=pairs)
                assert kkt_residual(theta, rows, labels, lam) <= 1e-10
                assert abs(logistic_objective(theta, rows, labels, lam) - want) <= 1e-10


def test_warm_pairs_take_fewer_loss_evaluations(monkeypatch):
    rng = np.random.default_rng(903)
    evaluations = []
    loss = logistic._loss
    monkeypatch.setattr(logistic, "_loss", lambda *a: evaluations.append(1) or loss(*a))
    counts = {"theta": 0, "theta and pairs": 0}
    for rows, labels, lam in criterion_9_designs():
        theta, pairs = fit_with_pairs(*subsample(rows, labels, rng), lam)
        for kind, kwargs in (("theta", {}), ("theta and pairs", {"pairs": pairs})):
            evaluations.clear()
            fit_logistic(rows, labels, lam, start=theta, **kwargs)
            counts[kind] += len(evaluations)
    assert counts["theta and pairs"] < counts["theta"], counts


def test_warm_pairs_leave_the_callers_array():
    rows, labels, lam = next(criterion_9_designs(1))
    pairs = fit_with_pairs(rows, labels, lam)[1]
    kept = pairs.copy()
    fit_logistic(rows, labels, lam, pairs=pairs, last_pairs=np.zeros_like(pairs))
    assert np.array_equal(pairs, kept)


@pytest.mark.parametrize("pairs", [np.zeros((2, logistic._MEMORY, 2)),
                                   np.zeros((2, logistic._MEMORY - 1, 4)),
                                   np.zeros((logistic._MEMORY, 4)),
                                   np.full((2, logistic._MEMORY, 4), np.inf)])
def test_bad_pairs_are_rejected(pairs):
    with pytest.raises(ValueError, match="pairs"):
        fit_logistic(np.ones((3, 2)), [0.0, 1.0, 1.0], 0.1, pairs=pairs)


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
    events = planted_dataset.train[np.isin(planted_dataset.train.user, household.members)]
    raw = feature_matrix(events.stamp, events.movie, events.rating, only("abd"),
                         binning=derive_binning(events, 4))
    rows = standardized(raw)
    labels = (events.user == household.members[0]).astype(float)
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
        model = factorize.fit_lowrank_temporal(data.train, factorize.FactorParams(
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


def oracle_split_descend(rows, labels, lambda1, theta, *, max_iter, pg_tol, pairs=None,
                         quasi_newton=True):
    """Projected L-BFGS with an inverted triangle and a concatenated history:
    the oracle of logistic._split_descend, kept with its own loss, starting
    from the nonzero pairs of ``pairs`` and returning theta and its pairs in
    the library's layout. Without quasi_newton it steps along the negative
    projected gradient only."""
    w = np.concatenate((np.maximum(theta, 0.0), np.maximum(-theta, 0.0)))
    if pairs is None:
        pairs = np.zeros((2, logistic._MEMORY, len(w)))
    s_all, y_all = pairs[:, pairs.any(axis=(0, 2))]
    w, s_all, y_all = oracle_split_steps(rows, labels, lambda1, w, s_all, y_all,
                                         max_iter=max_iter, pg_tol=pg_tol,
                                         quasi_newton=quasi_newton)
    last = np.zeros((2, logistic._MEMORY, len(w)))
    last[:, :len(s_all)] = s_all, y_all
    return w[:len(theta)] - w[len(theta):], last


def oracle_split_steps(rows, labels, lambda1, w, s_all, y_all, *, max_iter, pg_tol,
                       quasi_newton=True):
    """The oracle's iterations from the split point w and the (s, y) pairs
    s_all, y_all, oldest first: the split point and pairs they reach."""
    def sigmoid(u):
        e = np.exp(-np.abs(u))
        return np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def nll(u):
        return float((np.logaddexp(0.0, u) - labels * u).sum())

    def gradient(u):
        g = rows.T @ (sigmoid(u) - labels)
        return np.concatenate((g + lambda1, lambda1 - g))

    memory = logistic._MEMORY
    upper = np.triu(np.ones((memory, memory), dtype=bool))
    p = rows.shape[1]
    u = rows @ (w[:p] - w[p:])
    f, grad = nll(u) + lambda1 * float(w.sum()), gradient(u)
    for _ in range(max_iter):
        free = (w > 0.0) | (grad < 0.0)
        gf = grad[free]
        if not (np.abs(gf) > pg_tol).any():
            break
        S, Y = s_all[:, free], y_all[:, free]
        sy = S @ Y.T
        keep = sy.diagonal() > 1e-12
        S, Y, sy = S[keep], Y[keep], sy[keep][:, keep]
        direction = np.where(free, -grad, 0.0)
        step = min(1.0, 1.0 / float(np.abs(gf).sum()))
        if quasi_newton and len(sy):
            gamma = sy[-1, -1] / float(Y[-1] @ Y[-1])
            r_inv = np.linalg.inv(np.where(upper[:len(sy), :len(sy)], sy, 0.0))
            p2 = -r_inv @ (S @ gf)
            p1 = r_inv.T @ (sy.diagonal() * -p2 - gamma * (Y @ (Y.T @ p2 + gf)))
            quasi = -(gamma * gf + S.T @ p1 + gamma * (Y.T @ p2))
            if float(gf @ quasi) < 0.0:
                direction[free], step = quasi, 1.0
        for _ in range(60):
            trial = np.maximum(w + step * direction, 0.0)
            u = rows @ (trial[:p] - trial[p:])
            f_trial = nll(u) + lambda1 * float(trial.sum())
            if f_trial <= f + 1e-4 * float(grad @ (trial - w)):
                break
            step *= 0.5
        else:
            break
        new_grad = gradient(u)
        s_all = np.concatenate((s_all[1 - memory:], [trial - w]))
        y_all = np.concatenate((y_all[1 - memory:], [new_grad - grad]))
        w, f, grad = trial, f_trial, new_grad
    return w, s_all, y_all


def oracle_fit_logistic(rows, labels, lambda1, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logistic, "_split_descend", oracle_split_descend)
        return fit_logistic(rows, labels, lambda1, **kwargs)


def household_design(seed, n, bins, rank, sides, lam):
    """Standardized rows shaped like fit_household's: weekday, hour and bin
    one-hot blocks (rank-deficient without an intercept), movie-vector and
    rating columns; labels with member habits, or one-sided."""
    rng = np.random.default_rng(seed)
    member = rng.random(n) < rng.uniform(0.2, 0.8)
    day = np.where(member, rng.integers(0, 4, n), rng.integers(2, 7, n))
    hour = np.where(member, rng.integers(6, 14, n), rng.integers(10, 24, n))
    raw = np.concatenate((np.eye(7)[day], np.eye(24)[hour],
                          rng.normal(size=(n, rank)) + member[:, None],
                          np.eye(bins)[rng.integers(0, bins, n)],
                          rng.uniform(1.0, 5.0, (n, 1))), axis=1)
    rows = standardized(raw)
    labels = {"members": member, "noisy": member ^ (rng.random(n) < 0.2),
              "zeros": np.zeros(n), "ones": np.ones(n)}[sides].astype(float)
    return rows, labels, lam


@st.composite
def household_designs(draw):
    seed, n = draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(12, 200))
    bins, rank = draw(st.sampled_from([1, 3, 4])), draw(st.integers(0, 4))
    sides = draw(st.sampled_from(["members", "members", "noisy", "zeros", "ones"]))
    return household_design(seed, n, bins, rank, sides,
                            draw(st.sampled_from([0.01, 0.1, 1.0])))


@given(household_designs())
@settings(max_examples=60, deadline=None)
# a KKT tolerance of 1e-8 leaves this fit 3.8e-10 above the optimum
@example(household_design(2, 64, 4, 2, "members", 0.01))
# near-separable: the oracle's polish stalls at KKT 3.7e-6, and only L-BFGS
# rounds run past the handover tolerance reach the optimum from there
@example(household_design(28, 28, 1, 0, "noisy", 0.01))
def test_split_descend_matches_oracle(design):
    rows, labels, lam = design
    theta, pairs = fit_with_pairs(rows, labels, lam)
    assert kkt_residual(theta, rows, labels, lam) <= 1e-8
    ours = logistic_objective(theta, rows, labels, lam)
    # theta may move along near-flat directions of the rank-deficient blocks,
    # by up to 1e-5 between the mirror fits of the oracle itself, so the
    # mirror is compared by objective as in test_rank_deficient_household_design
    want = oracle_fit_logistic(rows, labels, lam)
    assert abs(ours - logistic_objective(want, rows, labels, lam)) <= 1e-10
    # both paths start alike from the pairs the fit ends with
    for solve in (fit_logistic, oracle_fit_logistic):
        warm = solve(rows, labels, lam, pairs=pairs)
        assert abs(logistic_objective(warm, rows, labels, lam) - ours) <= 1e-10
    mirrored = fit_logistic(rows, 1.0 - labels, lam)
    assert abs(logistic_objective(mirrored, rows, 1.0 - labels, lam) - ours) <= 1e-10
    # From each of the oracle's first 25 states, past the first shift of the
    # 20-pair history, one library step reaches the oracle's objective within
    # 1e-12 (3e-14 at most over 600 draws) and appends its pair after the
    # kept ones. Whole paths are not compared: L-BFGS on near-flat directions
    # amplifies a one-ulp difference about 100x per iteration, and a step can
    # take another Armijo halving where the decrease is at float resolution.
    w = np.zeros(2 * rows.shape[1])
    s_all = y_all = np.empty((0, len(w)))
    for _ in range(25):
        history = np.empty((2, logistic._MEMORY, len(w)))
        history[:, :len(s_all)] = s_all, y_all
        got, count = logistic._split_steps(rows, labels, lam, w, history, len(s_all),
                                           max_iter=1, pg_tol=0.0)
        if not np.array_equal(got, w):   # a step: the oldest pair leaves a full history
            kept = min(len(s_all), logistic._MEMORY - 1)
            assert count == kept + 1
            assert np.array_equal(history[:, :kept],
                                  np.array((s_all, y_all))[:, len(s_all) - kept:])
            assert np.array_equal(history[0, kept], got - w)
        w, s_all, y_all = oracle_split_steps(rows, labels, lam, w, s_all, y_all,
                                             max_iter=1, pg_tol=0.0)
        assert abs(_split_objective(got, rows, labels, lam)[0]
                   - _split_objective(w, rows, labels, lam)[0]) <= 1e-12


def test_unified_split_matches_oracle_solver():
    dataset = synth_generate(SynthConfig(
        households_size2=44, households_size3=4, households_size4=2,
        events_per_user=200, overlap=0.1, rank=3, noise_sigma=10.0, seed=20))
    split = cv_split(dataset, 0.04, 101)
    pipeline = PipelineConfig(
        "unified", factor_params=FactorParams(rank=4, bin_count=1, iterations=12, seed=7),
        features=FeatureConfig(rating=False, lambda1=0.1), sigma_scope="per_user")
    # cold, and warm from the full-train fit's thetas and pairs as run_cv starts
    parent = fit_pipeline(dataset, pipeline).logit_models
    for pipeline in (pipeline, replace(pipeline, logit_start=parent)):
        predictions, posteriors = fit_and_classify(split, pipeline)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(logistic, "_split_descend", oracle_split_descend)
            want_predictions, want_posteriors = fit_and_classify(split, pipeline)
        assert np.array_equal(predictions, want_predictions)
        assert max(abs(got[m] - want[m]) for got, want in zip(posteriors, want_posteriors)
                   for m in want) <= 1e-8


def test_singular_triangle_keeps_gradient_direction(monkeypatch):
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(90, 5))
    labels = (rng.random(90) < 1 / (1 + np.exp(-rows @ rng.normal(size=5)))).astype(float)
    want = fit_logistic(rows, labels, 0.1)
    calls = []

    def singular(a, b, **kwargs):
        calls.append(kwargs)
        return b.copy(), 1   # LAPACK's report of a zero pivot, b left unsolved

    monkeypatch.setattr(logistic, "dtrtrs", singular)
    start = np.zeros(5)
    steps, _ = logistic._split_descend(rows, labels, 0.1, start, max_iter=30, pg_tol=0.0)
    assert calls
    gradient_steps, _ = oracle_split_descend(rows, labels, 0.1, start, max_iter=30,
                                             pg_tol=0.0, quasi_newton=False)
    np.testing.assert_allclose(steps, gradient_steps, rtol=0, atol=1e-12)
    theta = fit_logistic(rows, labels, 0.1)
    assert kkt_residual(theta, rows, labels, 0.1) <= 1e-8
    assert abs(logistic_objective(theta, rows, labels, 0.1)
               - logistic_objective(want, rows, labels, 0.1)) <= 1e-10


@pytest.mark.parametrize("label", [0.0, 1.0])
def test_loss_helper_matches_logaddexp(label):
    points = [0.0, 1e-300, -1e-300, 1.0, -1.0, 30.0, -30.0, 709.0, -709.0, 800.0, -800.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point in points:
            u = np.array([point])
            nll, e = logistic._loss(u, np.array([label]))
            want = np.logaddexp(0.0, point) - label * point
            np.testing.assert_array_max_ulp(nll, want, maxulp=2)
            assert np.array_equal(_sigmoid(u, e), _sigmoid(u))
            old = np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
            assert np.array_equal(_sigmoid(u, e), old)


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

def fit_one(train, household, config, **kwargs):
    """fit_households on a train of one household's events."""
    return fit_households(make_dataset(as_columns(train), {household.id: household}),
                          config, **kwargs)


def probabilities(models, events, **kwargs):
    """member_probabilities of events of a single household's models."""
    return member_probabilities(models, np.zeros(len(events), np.intp), *arrays(events),
                                **kwargs)


def classify_logistic(models, households, events):
    """The unified classifier's decisions on events of the households."""
    fitted = FittedPipeline(PipelineConfig("unified"), households, None,
                            logit_models=models)
    return classify_events(fitted, as_test_columns(events))[0].tolist()


def _separable_household(n_each=30):
    household = Household(0, (0, 1))
    train = [event(0, m, day=0, hour=20) for m in range(n_each)]
    train += [event(1, 100 + m, day=3, hour=9) for m in range(n_each)]
    return household, train


def test_fit_household_one_model_per_member():
    household, train = _separable_household()
    thetas, mean, scale = fit_household(as_columns(train), household, only("a", 0.1))
    assert thetas.shape == (2, 7)   # one shared standardization of 7 columns
    assert mean.shape == scale.shape == (7,)


def test_labels_are_complementary():
    household, train = _separable_household(8)
    rows = [1.0 if ev.user == 0 else 0.0 for ev in train]
    flipped = [1.0 if ev.user == 1 else 0.0 for ev in train]
    assert all(a + b == 1.0 for a, b in zip(rows, flipped))


def test_separable_day_feature_classifies_training_perfectly():
    household, train = _separable_household()
    models = fit_one(train, household, only("a", 0.05))
    best = probabilities(models, train).argmax(axis=1)
    assert np.array(household.members)[best].tolist() == [ev.user for ev in train]


def test_classify_tie_breaks_to_smaller_id():
    household = Household(0, (4, 2))
    train = [event(4, m, day=0) for m in range(5)] + \
            [event(2, 10 + m, day=0) for m in range(5)]
    models = fit_one(train, household, only("a", 1e6))
    probe = anon_event(0, 50, day=0)
    assert probabilities(models, [probe])[0].tolist() == [0.5, 0.5]  # both thetas are 0
    assert classify_logistic(models, Households({0: household}), [probe]) == [2]


def test_member_probabilities_equal_one_event_scoring(planted_dataset):
    """Events of every household in one batch score as each alone does, and a
    padded member slot scores 0.5."""
    households, events = planted_dataset.households, planted_dataset.test
    binning = derive_binning(planted_dataset.train, 5)
    models = fit_households(planted_dataset, only("abde", 0.1), binning=binning)
    row_of = {hid: row for row, hid in enumerate(households)}
    rows = np.array([row_of[ev.household] for ev in events])
    want = [member_probabilities(models, rows[i:i + 1], *arrays([ev]), binning=binning)[0]
            for i, ev in enumerate(events)]
    got = member_probabilities(models, rows, *arrays(events), binning=binning)
    assert got.tolist() == np.array(want).tolist()
    padded = households.table[rows] < 0
    assert {len(households[ev.household].members) for ev in events} == {2, 3, 4}
    assert got[padded].tolist() == [0.5] * int(padded.sum())


def test_cold_fit_keeps_pairs_per_solved_member_and_bad_starts_fail(planted_dataset):
    """A cold fit keeps one pairs row per solved member (the first alone in a
    two-member household), a refit started from it keeps none, and a start
    whose shapes do not fit the dataset is a ValueError naming both."""
    config, binning = only("abde", 0.1), derive_binning(planted_dataset.train, 5)
    cold = fit_households(planted_dataset, config, binning=binning)
    solved = sum(1 if hh.size == 2 else hh.size for hh in planted_dataset.households.values())
    assert cold.pairs.shape == (solved, 2, logistic._MEMORY, 2 * cold.theta.shape[2])
    assert cold.pairs.any(axis=(1, 2, 3)).all()
    warm = fit_households(planted_dataset, config, binning=binning, start=cold)
    assert warm.pairs is None
    for bad in (replace(cold, theta=cold.theta[:-1]), replace(cold, theta=cold.theta[..., 1:]),
                replace(cold, pairs=cold.pairs[:-1]), warm):
        message = (f"start theta {bad.theta.shape} and pairs {np.shape(bad.pairs)} do not fit "
                   f"theta {cold.theta.shape} and pairs {cold.pairs.shape}")
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_households(planted_dataset, config, binning=binning, start=bad)


def test_classifier_depends_only_on_probability_order():
    household, train = _separable_household()
    models = fit_one(train, household, only("ab", 0.1))
    probe = anon_event(0, 50, day=0, hour=20)
    probs = dict(zip(household.members, probabilities(models, [probe])[0]))
    assert classify_logistic(models, Households({0: household}), [probe]) == [max(
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
            models = fit_households(dataset, only(letters, 0.1))
            predictions = classify_logistic(models, dataset.households, dataset.test)
            sink.append(np.mean([pred != ev.true_user
                                 for pred, ev in zip(predictions, dataset.test)]))
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
    thetas, mean, scale = fit_household(as_columns(train), household, only("ab", 0.05))
    assert len(calls) == 1
    assert np.array_equal(thetas[1], -thetas[0])
    assert np.any(thetas[0] != 0.0)
    direct = fit_logistic((feature_matrix(*arrays(train), only("ab")) - mean) / scale,
                          1.0 - calls[0], 0.05)
    np.testing.assert_allclose(thetas[1], direct, rtol=0, atol=1e-7)


def test_three_member_household_fits_every_member(monkeypatch):
    household = Household(0, (5, 2, 9))
    train = [event(user, 10 * user + k, day=(user + k) % 7, hour=k)
             for user in household.members for k in range(8)]
    calls = _counting_fits(monkeypatch)
    thetas, *_ = fit_household(as_columns(train), household, only("ab", 0.05))
    assert len(calls) == len(thetas) == 3
    users = np.array([ev.user for ev in train])
    for member, labels in zip(household.members, calls):   # file order
        assert np.array_equal(labels, users == member)


@pytest.mark.parametrize("members, expected", [((0, 1), 2), ((0, 1, 2), 1)])
def test_one_sided_labels_logged_per_member(members, expected, caplog):
    household = Household(0, members)
    train = [event(0, m, day=m % 7) for m in range(10)]
    train += [event(2, 20 + m, day=3) for m in range(5) if 2 in members]
    with caplog.at_level(logging.DEBUG, logger="hhattrib.logistic"):
        fit_household(as_columns(train), household, only("a", 0.1))
    records = [r for r in caplog.records if "one-sided" in r.getMessage()]
    assert len(records) == expected


def test_fit_household_needs_events():
    with pytest.raises(ValueError):
        fit_household(as_columns([]), Household(0, (0, 1)), only("a"))


def test_one_sided_labels_still_fit():
    household = Household(0, (0, 1))
    train = [event(0, m, day=m % 7) for m in range(10)]  # member 1 never rates
    thetas, *_ = fit_household(as_columns(train), household, only("a", 0.1))
    assert np.all(np.isfinite(thetas[1]))


# ---------------------------------------------------------------------------
# Dump round trip
# ---------------------------------------------------------------------------

def test_logit_model_dump_round_trip(tmp_path):
    """One record per member, households in map order and members in file
    order, with every array as fitted; padded slots are not written."""
    households = Households({5: Household(5, (3, 1, 4)), 2: Household(2, (0, 2))})
    train = [event(user, 10 * user + k, rating=20.0 * (k % 5), day=(user + k) % 7)
             for user in range(5) for k in range(8)]
    models = fit_households(make_dataset(as_columns(train), households), only("ae", 0.2))
    path = tmp_path / "logit.txt"
    save_logit_models(models, households, path)
    records = read_logit_dump(path)
    slots = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    assert [head for head, *_ in records] == [
        (5, 3, "ae", 0.2), (5, 1, "ae", 0.2), (5, 4, "ae", 0.2),
        (2, 0, "ae", 0.2), (2, 2, "ae", 0.2)]
    for (_, theta, mean, scale), (row, slot) in zip(records, slots, strict=True):
        assert np.array_equal(theta, models.theta[row, slot])
        assert np.array_equal(mean, models.mean[row])
        assert np.array_equal(scale, models.scale[row])
    for row, household in enumerate(households.values()):   # the stack is each fit
        thetas, mean, scale = fit_household(as_columns(train), household, only("ae", 0.2))
        assert np.array_equal(models.theta[row, :household.size], thetas)
        assert np.array_equal(models.mean[row], mean)
        assert np.array_equal(models.scale[row], scale)
    assert not models.theta[1, 2].any()
