import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhattrib.corpus import (
    SECONDS_PER_WEEK, Binning, DuplicateError, Household, RatingEvent, SynthConfig,
    bin_of, derive_binning, synth_generate, weekday_of,
)
from hhattrib.evaluate import FittedPipeline, PipelineConfig, classify_events
from hhattrib.temporal import (
    UndefinedProfileError, day_profile, fit_priors, household_tv, prior_matrix,
    tv_distance, tv_histogram, weekday_histogram,
)

from conftest import DAY, DAY0, anon_event, event, rng_for


BINNING = Binning(4, 0, 10 ** 10)
DAYS = 1 + BINNING.bin_count   # the first weekday condition of BINNING's priors


def share(priors, hid, member, condition):
    """Member's probability under a condition: 0, a bin 1..T or T+1+weekday."""
    h = priors.households.index(hid)
    return priors.shares[h, condition, priors.members[h].tolist().index(member)]


def test_day_profile_all_sunday():
    train = [event(0, m, day=0) for m in range(3)]
    np.testing.assert_allclose(day_profile(train, 0).weights,
                               [1, 0, 0, 0, 0, 0, 0])


def test_day_profile_uniform_week():
    train = [event(0, m, day=m) for m in range(7)]
    np.testing.assert_allclose(day_profile(train, 0).weights, np.full(7, 1 / 7))


def test_day_profile_mixed_days():
    train = [event(0, 0, day=0), event(0, 1, day=0), event(0, 2, day=3)]
    np.testing.assert_allclose(day_profile(train, 0).weights,
                               [2 / 3, 0, 0, 1 / 3, 0, 0, 0])


def test_day_profile_requires_events():
    with pytest.raises(UndefinedProfileError):
        day_profile([event(1, 0)], user=0)


def test_household_tv_extremes(pair_household):
    disjoint = [event(0, m, day=0) for m in range(4)] + \
               [event(1, m, day=2) for m in range(4)]
    assert household_tv(disjoint, pair_household) == 1.0
    identical = [event(0, m, day=m % 2) for m in range(4)] + \
                [event(1, m, day=m % 2) for m in range(4)]
    assert household_tv(identical, pair_household) == pytest.approx(0.0, abs=1e-12)


def test_household_tv_hand_value(pair_household):
    # profiles (1, 0, ...) and (1/2, 1/2, 0, ...): tv = 1/2
    train = [event(0, 0, day=0), event(0, 1, day=0),
             event(1, 0, day=0), event(1, 1, day=1)]
    assert household_tv(train, pair_household) == pytest.approx(0.5)


def test_household_tv_symmetry_and_scale_invariance():
    events = [event(0, m, day=m % 3) for m in range(6)] + \
             [event(1, m, day=(m + 1) % 5) for m in range(10)]
    forward = household_tv(events, Household(0, (0, 1)))
    backward = household_tv(events, Household(0, (1, 0)))
    assert forward == backward
    doubled = events + [RatingEvent(e.user, e.movie + 100, e.rating, e.timestamp)
                        for e in events]
    assert household_tv(doubled, Household(0, (0, 1))) == pytest.approx(forward)


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 6)),
                min_size=3, max_size=40))
@settings(max_examples=60)
def test_household_tv_bounds(assignments):
    users = {user for user, _ in assignments}
    if not {0, 1} <= users:
        assignments += [(0, 0), (1, 3)]
    events = [event(user, idx, day=day)
              for idx, (user, day) in enumerate(assignments)]
    value = household_tv(events, Household(0, (0, 1)))
    assert 0.0 <= value <= 1.0
    profiles = [day_profile(events, u).weights for u in (0, 1)]
    disjoint = not np.any((profiles[0] > 0) & (profiles[1] > 0))
    assert (value == 1.0) == disjoint


def test_tv_distance_hand_values():
    assert tv_distance([1, 0], [0, 1]) == 1.0
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1, 0], [0.5, 0.5]) == 0.5


def test_tv_distance_equals_half_l1_form():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = rng.dirichlet(np.ones(7))
        b = rng.dirichlet(np.ones(7))
        half_l1 = 0.5 * float(np.abs(a - b).sum())
        assert tv_distance(a, b) == pytest.approx(half_l1, abs=1e-12)


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------

def test_prior_counts(pair_household):
    train = [event(0, m) for m in range(3)] + [event(1, 9)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.0)
    assert share(priors, 0, 0, 0) == pytest.approx(0.75)
    assert share(priors, 0, 1, 0) == pytest.approx(0.25)


def test_prior_day_conditional(pair_household):
    train = [event(0, m, day=0) for m in range(4)] + [event(1, 9, day=2)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.0)
    assert share(priors, 0, 0, DAYS) == 1.0
    assert share(priors, 0, 1, DAYS) == 0.0


def test_prior_smoothing_on_empty_conditional(pair_household):
    train = [event(0, 0, day=0), event(1, 1, day=0)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=1.0)
    assert share(priors, 0, 0, DAYS + 1) == pytest.approx(0.5)  # no Monday events
    assert share(priors, 0, 1, DAYS + 1) == pytest.approx(0.5)


def test_prior_epsilon_zero_flags_undefined(pair_household, caplog):
    train = [event(0, 0, day=0), event(1, 1, day=0)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.0)
    assert math.isnan(share(priors, 0, 0, DAYS + 1))
    # scoring falls back to the unconditional prior, one record per member
    stamps = np.array([anon_event(0, 5, day=1).timestamp, anon_event(0, 5).timestamp])
    with caplog.at_level(logging.DEBUG, logger="hhattrib.temporal"):
        scores = prior_matrix(priors, "day", np.array([0, 0]), stamps)
    np.testing.assert_array_equal(scores, priors.shares[0, [0, DAYS]])
    assert sum("undefined" in r.msg for r in caplog.records) == 2


def test_prior_epsilon_zero_rejects_household_without_events():
    households = {0: Household(0, (0, 1)), 5: Household(5, (2, 3))}
    train = [event(0, 0), event(1, 1)]
    with pytest.raises(UndefinedProfileError, match="household 5 has no training"):
        fit_priors(train, households, BINNING, epsilon=0.0)
    assert fit_priors(train, households, BINNING, epsilon=0.5).households == (0, 5)


def test_priors_reject_user_in_two_households():
    households = {0: Household(0, (0, 1)), 1: Household(1, (1, 2))}
    with pytest.raises(DuplicateError, match="two households"):
        fit_priors([event(0, 0), event(1, 1), event(2, 2)], households, BINNING)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 6),
                          st.integers(0, 3)),
                min_size=2, max_size=30))
@settings(max_examples=80)
def test_priors_match_brute_force_counting(assignments):
    # two households, members listed out of id order; user 5 is in neither
    households = {0: Household(0, (0, 1)), 7: Household(7, (4, 2, 3))}
    for hh in households.values():
        if not {user for user, _, _ in assignments} & set(hh.members):
            assignments += [(hh.members[0], 0, 0)]
    events = [event(user, idx, day=day, week=week * 2)
              for idx, (user, day, week) in enumerate(assignments)]
    binning = derive_binning(events, 3)
    priors = fit_priors(events, households, binning, epsilon=0.0)
    assert priors.households == (0, 7)
    np.testing.assert_array_equal(priors.members, [[0, 1, -1], [4, 2, 3]])
    for hid, hh in households.items():
        ours = [e for e in events if e.user in hh.members]
        for member in hh.members:
            mine = sum(e.user == member for e in ours)
            assert share(priors, hid, member, 0) == pytest.approx(mine / len(ours))
            for d in range(7):
                denom = sum(weekday_of(e.timestamp) == d for e in ours)
                numer = sum(e.user == member and weekday_of(e.timestamp) == d
                            for e in ours)
                got = share(priors, hid, member, 4 + d)
                if denom == 0:
                    assert math.isnan(got)
                else:
                    assert got == pytest.approx(numer / denom)
            for b in range(1, 4):
                denom = sum(bin_of(e.timestamp, binning) == b for e in ours)
                numer = sum(e.user == member and bin_of(e.timestamp, binning) == b
                            for e in ours)
                got = share(priors, hid, member, b)
                if denom == 0:
                    assert math.isnan(got)
                else:
                    assert got == pytest.approx(numer / denom)


def _reference_priors(train, household, binning, epsilon):
    """One household's share table from per-event bin_of/weekday_of."""
    T = binning.bin_count
    counts = np.zeros((1 + T + 7, household.size))
    for ev in train:
        if ev.user in household.members:
            k = household.members.index(ev.user)
            counts[0, k] += 1
            counts[bin_of(ev.timestamp, binning, clamp=True), k] += 1
            counts[T + 1 + weekday_of(ev.timestamp), k] += 1
    with np.errstate(invalid="ignore"):
        return (counts + epsilon) / (counts.sum(axis=1, keepdims=True)
                                     + epsilon * household.size)


@pytest.mark.parametrize("binning", [
    Binning(5, DAY0 + 14 * DAY, 21 * DAY),   # narrower than the events: clamps
    Binning(12, DAY0, 8 * 7 * DAY),
    Binning(7, 0, SECONDS_PER_WEEK, kind="weekday"),
])
@pytest.mark.parametrize("count", [15, 400])
@pytest.mark.parametrize("epsilon", [0.0, 0.5])
def test_priors_equal_per_event_reference(binning, count, epsilon):
    rng = rng_for(count)
    # users 5 and 6 belong to no household; members listed out of id order
    households = {0: Household(0, (1, 0)), 7: Household(7, (4, 2, 3))}
    events = [event(int(user), idx, day=int(day), week=int(week), hour=int(hour))
              for idx, (user, day, week, hour) in enumerate(zip(
                  rng.integers(0, 7, count), rng.integers(0, 7, count),
                  rng.integers(0, 8, count), rng.integers(0, 24, count)))]
    events += [event(0, count), event(4, count)]   # every household has events
    fitted = fit_priors(events, households, binning, epsilon)
    for h, hh in enumerate(households.values()):
        want = _reference_priors(events, hh, binning, epsilon)
        np.testing.assert_array_equal(fitted.shares[h, :, :hh.size], want)
        assert not fitted.shares[h, :, hh.size:].any()   # padded slots
    if count == 15 and epsilon == 0.0:
        assert np.isnan(fitted.shares[1, 1:binning.bin_count + 1]).any()


# ---------------------------------------------------------------------------
# Prior classifier
# ---------------------------------------------------------------------------

def classify_prior(priors, mode, ev, household):
    fitted = FittedPipeline(PipelineConfig(f"prior-{mode}"), {household.id: household},
                            priors.binning, priors=priors)
    return classify_events(fitted, [ev])[0][0]


def test_classify_prior_uniform(pair_household):
    train = [event(0, m) for m in range(3)] + [event(1, 9)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.0)
    assert classify_prior(priors, "uniform", anon_event(0, 50), pair_household) == 0


def test_classify_prior_day(pair_household):
    train = [event(0, m, day=0) for m in range(3)] + \
            [event(1, m + 10, day=4) for m in range(5)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.5)
    assert classify_prior(priors, "day", anon_event(0, 50, day=0), pair_household) == 0
    assert classify_prior(priors, "day", anon_event(0, 50, day=4), pair_household) == 1


def test_classify_prior_tie_breaks_to_smaller_id():
    household = Household(0, (7, 3))
    train = [event(7, 0), event(3, 1)]
    priors = fit_priors(train, {0: household}, BINNING, epsilon=0.5)
    assert share(priors, 0, 7, 0) == share(priors, 0, 3, 0)
    assert classify_prior(priors, "uniform", anon_event(0, 50), household) == 3


def test_classify_prior_ignores_rating(pair_household):
    train = [event(0, m, day=0) for m in range(3)] + [event(1, 9, day=4)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.5)
    low = anon_event(0, 50, rating=1.0, day=0)
    high = anon_event(0, 50, rating=99.0, day=0)
    assert classify_prior(priors, "day", low, pair_household) == \
        classify_prior(priors, "day", high, pair_household)


def test_classify_prior_weekly_shift_invariance(pair_household):
    train = [event(0, m, day=m % 3) for m in range(5)] + \
            [event(1, m + 10, day=3 + m % 3) for m in range(7)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.5)
    for day in range(7):
        probe = anon_event(0, 50, day=day)
        shifted = anon_event(0, 50, day=day, week=21)  # +147 days = 21 weeks
        assert classify_prior(priors, "day", probe, pair_household) == \
            classify_prior(priors, "day", shifted, pair_household)


def test_classify_prior_bad_mode(pair_household):
    train = [event(0, 0), event(1, 1)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.5)
    with pytest.raises(ValueError):
        prior_matrix(priors, "hourly", np.array([0]), np.array([DAY0]))


# ---------------------------------------------------------------------------
# Histogram exports
# ---------------------------------------------------------------------------

def test_weekday_histogram_counts(small_dataset):
    rows = weekday_histogram(small_dataset.train, small_dataset.households)
    assert len(rows) == 4
    by_member = {(hid, member): counts for hid, member, *counts in rows}
    assert sum(by_member[(0, 0)]) == 12
    assert by_member[(0, 0)][0] == 12  # user 0 rates only on Sunday


def test_weekday_histogram_equals_per_event_counts(planted_dataset):
    # members 900 and 901 lie beyond every planted user; 900 has no events
    households = {**planted_dataset.households, 99: Household(99, (900, 901))}
    train = planted_dataset.train[::2] + (event(901, 0, day=3),)
    want = {(hid, m): [0] * 7 for hid, hh in households.items() for m in hh.members}
    member_of = {m: hid for hid, hh in households.items() for m in hh.members}
    for ev in train:
        want[(member_of[ev.user], ev.user)][weekday_of(ev.timestamp)] += 1
    assert weekday_histogram(train, households) == [
        (hid, m, *counts) for (hid, m), counts in want.items()]


def test_tv_histogram(small_dataset):
    rows = tv_histogram(small_dataset.train, small_dataset.households)
    assert {hid for hid, _ in rows} == {0, 1}
    assert all(0.0 <= value <= 1.0 for _, value in rows)
    assert all(value == 1.0 for _, value in rows)  # planted disjoint days


def test_tv_histogram_matches_household_tv_on_many_households():
    dataset = synth_generate(SynthConfig(
        households_size2=6, households_size3=3, households_size4=2,
        events_per_user=40, overlap=0.4, rank=2, noise_sigma=8.0, seed=5))
    rows = tv_histogram(dataset.train, dataset.households)
    assert [hid for hid, _ in rows] == list(dataset.households)
    for hid, value in rows:
        assert value == household_tv(dataset.train, dataset.households[hid])


def test_tv_histogram_member_without_events(small_dataset):
    households = {**small_dataset.households, 2: Household(2, (7, 8))}
    with pytest.raises(UndefinedProfileError, match="user 7 has no training events"):
        tv_histogram(small_dataset.train, households)
