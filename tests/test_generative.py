import logging
import math

import numpy as np
import pytest

from hhattrib import evaluate
from hhattrib.corpus import Binning, Household, SynthConfig, cv_split, synth_generate
from hhattrib.factorize import FactorParams, TemporalFactorModel, fit_lowrank_temporal
from hhattrib.generative import (
    SigmaModel, classify_generative, estimate_sigma, joint_score, normalize,
    posterior, residual_histogram, residuals,
)
from hhattrib.temporal import classify_prior, fit_priors

from conftest import anon_event, event


BINNING = Binning(4, 0, 10 ** 10)


def flat_model(user_biases, n_movies=4, rank=2):
    """One-bin model predicting user_biases[user] for every movie."""
    m = len(user_biases)
    params = FactorParams(rank=rank, bin_count=1, iterations=1)
    return TemporalFactorModel(
        np.zeros((1, m, rank)), np.zeros((1, n_movies, rank)),
        np.array([list(user_biases)], dtype=float), Binning(1, 0, 10 ** 10), params,
    )


def uniform_priors(household, binning=BINNING):
    train = [event(member, idx) for idx, member in enumerate(household.members)]
    priors = fit_priors(train, {household.id: household}, binning, epsilon=1.0)
    return priors[household.id]


# ---------------------------------------------------------------------------
# Sigma estimation
# ---------------------------------------------------------------------------

def test_sigma_floor_on_perfect_fit(pair_household):
    model = flat_model([70.0, 70.0])
    train = [event(0, 0, rating=70.0), event(1, 1, rating=70.0)]
    sigma = estimate_sigma(train, model, "global")
    assert sigma.sigma_all == 0.5


def test_sigma_population_convention():
    model = flat_model([50.0, 50.0])
    train = [event(0, 0, rating=49.0), event(1, 1, rating=51.0)]
    sigma = estimate_sigma(train, model, "global")
    assert sigma.sigma_all == pytest.approx(1.0)


def test_sigma_per_user_fallback():
    model = flat_model([50.0, 50.0], n_movies=12)
    # user 0 has 6 residuals of +/-8, user 1 only 2 (below the threshold of 5)
    train = [event(0, m, rating=50.0 + (8 if m % 2 else -8)) for m in range(6)]
    train += [event(1, 10, rating=30.0), event(1, 11, rating=70.0)]
    sigma = estimate_sigma(train, model, "per_user", min_residuals=5)
    assert sigma.sigma_by_user[0] == pytest.approx(8.0)
    assert sigma.sigma_by_user[1] == sigma.sigma_all
    assert sigma.sigma_for(99) == sigma.sigma_all


def test_sigma_per_user_equals_masked_reference(planted_dataset):
    params = FactorParams(rank=2, bin_count=1, iterations=3, seed=2)
    model = fit_lowrank_temporal(planted_dataset.train, params,
                                 planted_dataset.user_count,
                                 planted_dataset.movie_count)
    # users interleave in time order; 26 or 27 residuals each
    train = sorted(planted_dataset.train[::3], key=lambda ev: ev.timestamp)
    sigma = estimate_sigma(train, model, "per_user", min_residuals=27)
    errors = residuals(train, model)
    users = np.array([ev.user for ev in train])
    want = {}
    for user in np.unique(users):
        mine = errors[users == user]
        want[int(user)] = (sigma.sigma_all if len(mine) < 27
                           else max(0.5, float(np.std(mine))))
    assert sigma.sigma_by_user == want
    fallbacks = sum(value == sigma.sigma_all for value in want.values())
    assert 0 < fallbacks < len(want)


def test_sigma_planted_noise_recovered():
    config = SynthConfig(households_size2=20, households_size3=0,
                         households_size4=0, events_per_user=100,
                         overlap=0.3, rank=2, noise_sigma=10.0, seed=9)
    dataset = synth_generate(config)
    params = FactorParams(rank=2, reg_lambda=5.0, bin_count=1,
                          iterations=15, seed=3)
    model = fit_lowrank_temporal(dataset.train, params,
                                 dataset.user_count, dataset.movie_count)
    sigma = estimate_sigma(dataset.train, model, "global")
    assert 9.0 <= sigma.sigma_all <= 11.0


def test_sigma_rejects_empty_train():
    with pytest.raises(ValueError):
        estimate_sigma([], flat_model([50.0]), "global")
    with pytest.raises(ValueError):
        estimate_sigma([event(0, 0)], flat_model([50.0]), "sometimes")


# ---------------------------------------------------------------------------
# Joint score and posterior
# ---------------------------------------------------------------------------

def test_joint_score_infinite_sigma_is_prior(pair_household):
    model = flat_model([10.0, 90.0])
    priors = uniform_priors(pair_household)
    sigma = SigmaModel("infinite", math.inf, {})
    ev = anon_event(0, 0, rating=95.0)
    for member in pair_household.members:
        assert joint_score(member, ev.rating, ev, model, priors, "uniform",
                           sigma) == priors.prior[member]


def test_joint_score_standard_normal_peak(pair_household):
    model = flat_model([60.0, 60.0])
    train = [event(0, m) for m in range(3)]  # q(0) = 1 with epsilon 0
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.0)[0]
    sigma = SigmaModel("global", 1.0, {})
    ev = anon_event(0, 0, rating=60.0)
    score = joint_score(0, ev.rating, ev, model, priors, "uniform", sigma)
    assert score == pytest.approx(1.0 / math.sqrt(2 * math.pi))


def test_joint_score_zero_prior_zeroes_score(pair_household):
    model = flat_model([60.0, 60.0])
    train = [event(0, m) for m in range(3)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.0)[0]
    sigma = SigmaModel("global", 5.0, {})
    ev = anon_event(0, 0, rating=60.0)
    assert joint_score(1, ev.rating, ev, model, priors, "uniform", sigma) == 0.0


def test_posterior_normalization_cases(pair_household):
    model = flat_model([50.0, 50.0])
    priors = uniform_priors(pair_household)
    sigma = SigmaModel("global", 10.0, {})
    post = posterior(pair_household, anon_event(0, 0, rating=50.0),
                     model, priors, "uniform", sigma)
    assert post[0] == pytest.approx(0.5)
    assert sum(post.values()) == pytest.approx(1.0, abs=1e-12)


def test_posterior_ratio():
    household = Household(0, (0, 1))
    model = flat_model([50.0, 50.0])
    train = [event(0, m) for m in range(3)] + [event(1, 9)]
    priors = fit_priors(train, {0: household}, BINNING, epsilon=0.0)[0]
    sigma = SigmaModel("global", 10.0, {})
    post = posterior(household, anon_event(0, 0, rating=50.0), model, priors,
                     "uniform", sigma)
    # equal densities, priors 0.75 / 0.25
    assert post[0] == pytest.approx(0.75)
    assert post[1] == pytest.approx(0.25)


def test_posterior_uniform_fallback_when_all_zero():
    household = Household(0, (0, 1, 2))
    model = flat_model([0.0, 0.0, 0.0])
    priors = uniform_priors(household)
    sigma = SigmaModel("global", 0.5, {})
    # rating 100 vs predictions 0: density underflows to exactly 0
    post = posterior(household, anon_event(0, 0, rating=100.0), model, priors,
                     "uniform", sigma)
    assert post == {0: pytest.approx(1 / 3), 1: pytest.approx(1 / 3),
                    2: pytest.approx(1 / 3)}


def test_far_rating_goes_to_closer_member(pair_household):
    # Both linear densities underflow to 0 here; log-space scores keep the
    # closer prediction (40) ahead of the farther one (10).
    model = flat_model([10.0, 40.0])
    priors = uniform_priors(pair_household)
    sigma = SigmaModel("global", 1.0, {})
    ev = anon_event(0, 0, rating=100.0)
    post = posterior(pair_household, ev, model, priors, "uniform", sigma)
    assert post == {0: 0.0, 1: 1.0}
    assert classify_generative(pair_household, ev, model, priors, "uniform",
                               sigma) == 1


def test_normalize_plain_and_log_scores():
    assert normalize({3: 1.0, 5: 3.0}) == {3: 0.25, 5: 0.75}
    post = normalize({3: math.log(1.0) - 1000.0, 5: math.log(3.0) - 1000.0},
                     log_space=True)
    assert post == {3: pytest.approx(0.25), 5: pytest.approx(0.75)}
    assert normalize({3: -math.inf, 5: 0.0}, log_space=True) == {3: 0.0, 5: 1.0}


@pytest.mark.parametrize("scores, log_space", [
    ({0: 0.0, 1: 0.0, 2: 0.0}, False),
    ({0: -math.inf, 1: -math.inf}, True),
    ({0: math.nan, 1: 0.5}, False),
])
def test_normalize_degenerate_is_uniform_and_logged(scores, log_space, caplog):
    with caplog.at_level(logging.DEBUG, logger="hhattrib.generative"):
        post = normalize(scores, log_space)
    assert post == dict.fromkeys(scores, 1.0 / len(scores))
    assert any(rec.name == "hhattrib.generative" and "degenerate" in rec.msg
               for rec in caplog.records)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_generative_residual_decides_under_equal_priors(pair_household):
    model = flat_model([80.0, 20.0])
    priors = uniform_priors(pair_household)
    sigma = SigmaModel("global", 10.0, {})
    ev = anon_event(0, 0, rating=78.0)
    assert classify_generative(pair_household, ev, model, priors, "uniform",
                               sigma) == 0


def test_generative_prior_decides_under_equal_residuals():
    household = Household(0, (0, 1))
    model = flat_model([50.0, 50.0])
    train = [event(0, m) for m in range(9)] + [event(1, 20)]
    priors = fit_priors(train, {0: household}, BINNING, epsilon=0.0)[0]
    sigma = SigmaModel("global", 10.0, {})
    ev = anon_event(0, 0, rating=58.0)
    assert classify_generative(household, ev, model, priors, "uniform",
                               sigma) == 0


def test_generative_scale_invariance_of_decision(pair_household):
    model = flat_model([30.0, 70.0])
    priors = uniform_priors(pair_household)
    for scale in (0.5, 2.0, 100.0):
        sigma = SigmaModel("global", 12.0, {})
        ev = anon_event(0, 0, rating=64.0)
        post = posterior(pair_household, ev, model, priors, "uniform", sigma)
        scaled = {m: scale * v for m, v in post.items()}
        assert max(post, key=post.get) == max(scaled, key=scaled.get)
        assert classify_generative(pair_household, ev, model, priors,
                                   "uniform", sigma) == 1


def test_generative_smaller_residual_always_wins(pair_household):
    rng = np.random.default_rng(17)
    priors = uniform_priors(pair_household)
    sigma = SigmaModel("global", 7.0, {})
    for _ in range(50):
        predictions = rng.uniform(10, 90, size=2)
        model = flat_model(list(predictions))
        rating = float(rng.uniform(0, 100))
        ev = anon_event(0, 0, rating=rating)
        gaps = np.abs(rating - predictions)
        if gaps[0] == gaps[1]:
            continue
        expected = int(np.argmin(gaps))
        assert classify_generative(pair_household, ev, model, priors,
                                   "uniform", sigma) == expected


def test_infinite_sigma_reduces_to_prior_classifier(planted_dataset):
    dataset = planted_dataset
    params = FactorParams(rank=2, bin_count=4, iterations=4, seed=5)
    model = fit_lowrank_temporal(dataset.train, params,
                                 dataset.user_count, dataset.movie_count)
    sigma = SigmaModel("infinite", math.inf, {})
    for epsilon in (0.0, 0.5):
        priors = fit_priors(dataset.train, dataset.households, model.binning, epsilon)
        for mode in ("uniform", "bin", "day"):
            for ev in dataset.test:
                hh = dataset.households[ev.household]
                assert classify_generative(hh, ev, model, priors[hh.id], mode,
                                           sigma) == \
                    classify_prior(priors[hh.id], mode, ev)


def test_generative_day_beats_prior_day_on_planted_data():
    """Adding the rating likelihood should help, averaged over >= 20 seeds."""
    gen_wins = []
    for seed in range(20):
        config = SynthConfig(households_size2=10, households_size3=0,
                             households_size4=0, events_per_user=150,
                             overlap=0.15, rank=2, noise_sigma=8.0, seed=seed)
        dataset = synth_generate(config)
        split = cv_split(dataset, 0.1, seed=seed + 100)
        params = FactorParams(rank=2, reg_lambda=2.0, bin_count=1,
                              iterations=10, seed=1)
        model = fit_lowrank_temporal(split.train, params,
                                     dataset.user_count, dataset.movie_count)
        sigma = estimate_sigma(split.train, model, "per_user")
        priors = fit_priors(split.train, dataset.households, model.binning, 0.5)
        errors = {"gen": 0, "prior": 0}
        for ev in split.test:
            hh = dataset.households[ev.household]
            errors["gen"] += classify_generative(
                hh, ev, model, priors[hh.id], "day", sigma) != ev.true_user
            errors["prior"] += classify_prior(priors[hh.id], "day", ev) != ev.true_user
        gen_wins.append((errors["gen"], errors["prior"], len(split.test)))
    gen_mean = np.mean([g / n for g, _, n in gen_wins])
    prior_mean = np.mean([p / n for _, p, n in gen_wins])
    assert gen_mean <= prior_mean


def test_residual_histogram(planted_dataset):
    params = FactorParams(rank=2, bin_count=1, iterations=5, seed=2)
    model = fit_lowrank_temporal(planted_dataset.train, params,
                                 planted_dataset.user_count,
                                 planted_dataset.movie_count)
    edges, counts = residual_histogram(planted_dataset.train, model, bins=30)
    assert len(edges) == 31 and counts.sum() == len(planted_dataset.train)
    user = planted_dataset.train[0].user
    _, mine = residual_histogram(planted_dataset.train, model, bins=10, user=user)
    assert mine.sum() == sum(ev.user == user for ev in planted_dataset.train)
    errors = residuals(planted_dataset.train, model)
    assert len(errors) == len(planted_dataset.train)
