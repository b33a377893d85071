import logging
import math

import numpy as np
import pytest

from hhattrib.corpus import (
    Binning, EventColumns, Household, Households, SynthConfig, cv_split, synth_generate,
)
from hhattrib.evaluate import (
    FittedPipeline, PipelineConfig, classify_events, fit_and_classify,
)
from hhattrib.factorize import FactorParams, TemporalFactorModel, fit_lowrank_temporal
from hhattrib.generative import (
    SigmaModel, estimate_sigma, log_scores, normalize_rows, residual_histogram,
    residuals,
)
from hhattrib.temporal import fit_priors

from conftest import anon_event, as_columns, as_test_columns, event, rating_events


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
    return fit_priors(as_columns(train), Households({household.id: household}), binning,
                      epsilon=1.0)


def classify(household, ev, model, priors, sigma, mode="uniform"):
    """gen-mode's (prediction, posterior) for one event."""
    fitted = FittedPipeline(PipelineConfig(f"gen-{mode}"), Households({household.id: household}),
                            model.binning, model, priors, sigma)
    predictions, posteriors = classify_events(fitted, as_test_columns([ev]))
    return predictions[0], posteriors[0]


# ---------------------------------------------------------------------------
# Sigma estimation
# ---------------------------------------------------------------------------

def test_sigma_floor_on_perfect_fit(pair_household):
    model = flat_model([70.0, 70.0])
    train = [event(0, 0, rating=70.0), event(1, 1, rating=70.0)]
    sigma = estimate_sigma(as_columns(train), model, "global")
    assert sigma.sigma_all == 0.5


def test_sigma_population_convention():
    model = flat_model([50.0, 50.0])
    train = [event(0, 0, rating=49.0), event(1, 1, rating=51.0)]
    sigma = estimate_sigma(as_columns(train), model, "global")
    assert sigma.sigma_all == pytest.approx(1.0)


def test_sigma_per_user_fallback():
    model = flat_model([50.0, 50.0], n_movies=12)
    # user 0 has 6 residuals of +/-8, user 1 only 2 (below the threshold of 5)
    train = [event(0, m, rating=50.0 + (8 if m % 2 else -8)) for m in range(6)]
    train += [event(1, 10, rating=30.0), event(1, 11, rating=70.0)]
    sigma = estimate_sigma(as_columns(train), model, "per_user", min_residuals=5)
    assert sigma.sigma_by_user[0] == pytest.approx(8.0)
    assert sigma.sigma_by_user[1] == sigma.sigma_all
    assert sigma.sigmas(np.array([0, 1, 99])).tolist() == [
        sigma.sigma_by_user[0], sigma.sigma_all, sigma.sigma_all]


def test_sigma_per_user_equals_masked_reference(planted_dataset):
    params = FactorParams(rank=2, bin_count=1, iterations=3, seed=2)
    model = fit_lowrank_temporal(planted_dataset.train, params,
                                 planted_dataset.user_count,
                                 planted_dataset.movie_count)
    # users interleave in time order; 26 or 27 residuals each
    train = as_columns(sorted(rating_events(planted_dataset.train[::3]),
                              key=lambda ev: ev.timestamp))
    sigma = estimate_sigma(train, model, "per_user", min_residuals=27)
    errors = residuals(train, model)
    users = train.user
    want = np.full(model.user_count, sigma.sigma_all)
    for user in np.unique(users):
        mine = errors[users == user]
        want[user] = (sigma.sigma_all if len(mine) < 27
                      else max(0.5, float(np.std(mine))))
    assert np.array_equal(sigma.sigma_by_user, want)
    fallbacks = sum(want[np.unique(users)] == sigma.sigma_all)
    assert 0 < fallbacks < len(np.unique(users))


def oracle_sigma_by_user(train, model, sigma_all, floor, min_residuals):
    """One np.std per user over the user's residuals in event order: the
    oracle of estimate_sigma's count groups."""
    errors = residuals(train, model)
    order = np.argsort(train.user, kind="stable")
    users, starts = np.unique(train.user[order], return_index=True)
    want = np.full(model.user_count, sigma_all)
    for user, mine in zip(users.tolist(), np.split(errors[order], starts[1:])):
        if len(mine) >= min_residuals:
            want[user] = max(floor, float(np.std(mine)))
    return want


@pytest.mark.parametrize("seed, floor", [(0, 0.5), (1, 0.5), (2, 29.0)])
def test_sigma_count_groups_match_the_per_user_loop(seed, floor):
    # heavy-tailed counts, as among CAMRa users: from 1 to thousands of
    # residuals per user, some users with none, events interleaved
    rng = np.random.default_rng(seed)
    m, n, bins = 400, 50, 3
    counts = np.minimum((rng.pareto(0.8, m) * 3).astype(int) + 1, 4000)
    counts[:4] = 0, 1, 4, 3000
    users = rng.permutation(np.repeat(np.arange(m), counts))
    train = EventColumns(users, rng.integers(0, n, len(users)),
                         rng.uniform(0, 100, len(users)),
                         rng.integers(0, 10 ** 6, len(users)))
    model = TemporalFactorModel(
        rng.normal(size=(bins, m, 2)), rng.normal(size=(bins, n, 2)),
        rng.uniform(40, 60, size=(bins, m)), Binning(bins, 0, 10 ** 6),
        FactorParams(rank=2, bin_count=bins))
    assert len(np.unique(counts)) > 30
    sigma = estimate_sigma(train, model, "per_user", floor=floor)
    want = oracle_sigma_by_user(train, model, sigma.sigma_all, floor, 5)
    assert np.array_equal(sigma.sigma_by_user, want)
    assert np.array_equal(sigma.sigmas(np.arange(m + 2)),
                          np.append(want, [sigma.sigma_all] * 2))


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
        estimate_sigma(as_columns([]), flat_model([50.0]), "global")
    with pytest.raises(ValueError):
        estimate_sigma(as_columns([event(0, 0)]), flat_model([50.0]), "sometimes")


# ---------------------------------------------------------------------------
# Joint score and posterior
# ---------------------------------------------------------------------------

def test_joint_score_infinite_sigma_is_prior(pair_household):
    model = flat_model([10.0, 90.0])
    train = [event(0, m) for m in range(3)] + [event(1, 9)]
    priors = fit_priors(as_columns(train), Households({0: pair_household}), BINNING,
                        epsilon=0.0)
    sigma = SigmaModel("infinite", math.inf)
    _, post = classify(pair_household, anon_event(0, 0, rating=95.0), model, priors, sigma)
    assert post == dict(zip(pair_household.members, priors.shares[0, 0].tolist()))


def test_joint_score_standard_normal_peak():
    score = log_scores(np.array([1.0]), np.array([0.0]), np.array([1.0]))[0]
    assert math.exp(score) == pytest.approx(1.0 / math.sqrt(2 * math.pi))


def test_joint_score_zero_prior_zeroes_score():
    assert log_scores(np.array([0.0]), np.array([0.0]), np.array([5.0]))[0] == -math.inf


def test_posterior_normalization_cases(pair_household):
    model = flat_model([50.0, 50.0])
    priors = uniform_priors(pair_household)
    sigma = SigmaModel("global", 10.0)
    _, post = classify(pair_household, anon_event(0, 0, rating=50.0), model, priors,
                       sigma)
    assert post[0] == pytest.approx(0.5)
    assert sum(post.values()) == pytest.approx(1.0, abs=1e-12)


def test_posterior_ratio():
    household = Household(0, (0, 1))
    model = flat_model([50.0, 50.0])
    train = [event(0, m) for m in range(3)] + [event(1, 9)]
    priors = fit_priors(as_columns(train), Households({0: household}), BINNING, epsilon=0.0)
    sigma = SigmaModel("global", 10.0)
    _, post = classify(household, anon_event(0, 0, rating=50.0), model, priors, sigma)
    # equal densities, priors 0.75 / 0.25
    assert post[0] == pytest.approx(0.75)
    assert post[1] == pytest.approx(0.25)


def test_posterior_uniform_fallback_when_all_zero():
    household = Household(0, (0, 1, 2))
    model = flat_model([0.0, 0.0, 0.0])
    priors = uniform_priors(household)
    sigma = SigmaModel("global", 0.5)
    # rating 100 vs predictions 0: density underflows to exactly 0
    _, post = classify(household, anon_event(0, 0, rating=100.0), model, priors, sigma)
    assert post == {0: pytest.approx(1 / 3), 1: pytest.approx(1 / 3),
                    2: pytest.approx(1 / 3)}


def test_far_rating_goes_to_closer_member(pair_household):
    # Both linear densities underflow to 0 here; log-space scores keep the
    # closer prediction (40) ahead of the farther one (10).
    model = flat_model([10.0, 40.0])
    priors = uniform_priors(pair_household)
    sigma = SigmaModel("global", 1.0)
    ev = anon_event(0, 0, rating=100.0)
    assert classify(pair_household, ev, model, priors, sigma) == (1, {0: 0.0, 1: 1.0})


def test_normalize_plain_and_log_scores():
    members = np.array([[3, 5, -1]])   # the last slot is padding
    assert normalize_rows(np.array([[1.0, 3.0, 9.0]]), members).tolist() == [
        [0.25, 0.75, 0.0]]
    post = normalize_rows(np.array([[math.log(1.0) - 1000.0,
                                     math.log(3.0) - 1000.0, 0.0]]),
                          members, log_space=True)
    np.testing.assert_allclose(post, [[0.25, 0.75, 0.0]])
    assert normalize_rows(np.array([[-math.inf, 0.0, 0.0]]), members,
                          log_space=True).tolist() == [[0.0, 1.0, 0.0]]


@pytest.mark.parametrize("scores, log_space", [
    ([0.0, 0.0, 0.0], False),
    ([-math.inf, -math.inf], True),
    ([math.nan, 0.5], False),
])
def test_normalize_degenerate_is_uniform_and_logged(scores, log_space, caplog):
    # two rows, padded by one slot, each uniform over its real members
    members = np.tile(np.arange(len(scores) + 1), (2, 1))
    members[:, -1] = -1
    with caplog.at_level(logging.DEBUG, logger="hhattrib.generative"):
        post = normalize_rows(np.array([scores + [7.0]] * 2), members, log_space)
    assert post.tolist() == [[1.0 / len(scores)] * len(scores) + [0.0]] * 2
    assert sum(rec.name == "hhattrib.generative" and "degenerate" in rec.msg
               for rec in caplog.records) == 2


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_generative_residual_decides_under_equal_priors(pair_household):
    model = flat_model([80.0, 20.0])
    priors = uniform_priors(pair_household)
    sigma = SigmaModel("global", 10.0)
    ev = anon_event(0, 0, rating=78.0)
    assert classify(pair_household, ev, model, priors, sigma)[0] == 0


def test_generative_prior_decides_under_equal_residuals():
    household = Household(0, (0, 1))
    model = flat_model([50.0, 50.0])
    train = [event(0, m) for m in range(9)] + [event(1, 20)]
    priors = fit_priors(as_columns(train), Households({0: household}), BINNING, epsilon=0.0)
    sigma = SigmaModel("global", 10.0)
    ev = anon_event(0, 0, rating=58.0)
    assert classify(household, ev, model, priors, sigma)[0] == 0


def test_generative_scale_invariance_of_decision(pair_household):
    model = flat_model([30.0, 70.0])
    priors = uniform_priors(pair_household)
    for scale in (0.5, 2.0, 100.0):
        sigma = SigmaModel("global", 12.0)
        ev = anon_event(0, 0, rating=64.0)
        predicted, post = classify(pair_household, ev, model, priors, sigma)
        scaled = {m: scale * v for m, v in post.items()}
        assert max(post, key=post.get) == max(scaled, key=scaled.get)
        assert predicted == 1


def test_generative_smaller_residual_always_wins(pair_household):
    rng = np.random.default_rng(17)
    priors = uniform_priors(pair_household)
    sigma = SigmaModel("global", 7.0)
    for _ in range(50):
        predictions = rng.uniform(10, 90, size=2)
        model = flat_model(list(predictions))
        rating = float(rng.uniform(0, 100))
        ev = anon_event(0, 0, rating=rating)
        gaps = np.abs(rating - predictions)
        if gaps[0] == gaps[1]:
            continue
        expected = int(np.argmin(gaps))
        assert classify(pair_household, ev, model, priors, sigma)[0] == expected


def test_infinite_sigma_reduces_to_prior_classifier(planted_dataset):
    dataset = planted_dataset
    params = FactorParams(rank=2, bin_count=4, iterations=4, seed=5)
    model = fit_lowrank_temporal(dataset.train, params,
                                 dataset.user_count, dataset.movie_count)
    sigma = SigmaModel("infinite", math.inf)
    for epsilon in (0.0, 0.5):
        priors = fit_priors(dataset.train, dataset.households, model.binning, epsilon)
        for mode in ("uniform", "bin", "day"):
            gen, prior = (classify_events(FittedPipeline(
                PipelineConfig(f"{family}-{mode}"), dataset.households, model.binning,
                model, priors, sigma), dataset.test) for family in ("gen", "prior"))
            assert np.array_equal(gen[0], prior[0])
            assert np.array_equal(gen[1].members, prior[1].members)
            assert np.array_equal(gen[1].values, prior[1].values)


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
        errors = {}
        for family in ("gen", "prior"):
            predictions, _ = fit_and_classify(split, PipelineConfig(
                f"{family}-day", factor_params=params, sigma_scope="per_user",
                epsilon=0.5))
            errors[family] = sum(pred != ev.true_user
                                 for pred, ev in zip(predictions, split.test))
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
    user = int(planted_dataset.train.user[0])
    _, mine = residual_histogram(planted_dataset.train, model, bins=10, user=user)
    assert mine.sum() == (planted_dataset.train.user == user).sum()
    errors = residuals(planted_dataset.train, model)
    assert len(errors) == len(planted_dataset.train)
