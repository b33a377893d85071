import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhattrib.corpus import (
    SECONDS_PER_WEEK, Binning, DuplicateError, Household, RatingEvent, SynthConfig,
    bin_of, derive_binning, synth_generate, weekday_of,
)
from hhattrib.temporal import (
    UndefinedProfileError, classify_prior, day_profile, fit_priors,
    household_tv, prior_value, tv_distance, tv_histogram, weekday_histogram,
)

from conftest import DAY, DAY0, anon_event, event, rng_for


BINNING = Binning(4, 0, 10 ** 10)


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
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.0)[0]
    assert priors.prior[0] == pytest.approx(0.75)
    assert priors.prior[1] == pytest.approx(0.25)


def test_prior_day_conditional(pair_household):
    train = [event(0, m, day=0) for m in range(4)] + [event(1, 9, day=2)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.0)[0]
    assert priors.by_day[(0, 0)] == 1.0
    assert priors.by_day[(1, 0)] == 0.0


def test_prior_smoothing_on_empty_conditional(pair_household):
    train = [event(0, 0, day=0), event(1, 1, day=0)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=1.0)[0]
    assert priors.by_day[(0, 1)] == pytest.approx(0.5)  # no Monday events
    assert priors.by_day[(1, 1)] == pytest.approx(0.5)


def test_prior_epsilon_zero_flags_undefined(pair_household):
    train = [event(0, 0, day=0), event(1, 1, day=0)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.0)[0]
    assert math.isnan(priors.by_day[(0, 1)])
    # classification falls back to the unconditional prior
    probe = anon_event(0, 5, day=1)
    assert prior_value(priors, 0, "day", probe) == priors.prior[0]


def test_prior_epsilon_zero_rejects_household_without_events():
    households = {0: Household(0, (0, 1)), 5: Household(5, (2, 3))}
    train = [event(0, 0), event(1, 1)]
    with pytest.raises(UndefinedProfileError, match="household 5 has no training"):
        fit_priors(train, households, BINNING, epsilon=0.0)
    assert set(fit_priors(train, households, BINNING, epsilon=0.5)) == {0, 5}


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
    fitted = fit_priors(events, households, binning, epsilon=0.0)
    assert set(fitted) == set(households)
    from hhattrib.corpus import bin_of, weekday_of
    for hid, hh in households.items():
        priors = fitted[hid]
        assert priors.household == hid and priors.members == hh.members
        ours = [e for e in events if e.user in hh.members]
        for member in hh.members:
            mine = sum(e.user == member for e in ours)
            assert priors.prior[member] == pytest.approx(mine / len(ours))
            for d in range(7):
                denom = sum(weekday_of(e.timestamp) == d for e in ours)
                numer = sum(e.user == member and weekday_of(e.timestamp) == d
                            for e in ours)
                got = priors.by_day[(member, d)]
                if denom == 0:
                    assert math.isnan(got)
                else:
                    assert got == pytest.approx(numer / denom)
            for b in range(1, 4):
                denom = sum(bin_of(e.timestamp, binning) == b for e in ours)
                numer = sum(e.user == member and bin_of(e.timestamp, binning) == b
                            for e in ours)
                got = priors.by_bin[(member, b)]
                if denom == 0:
                    assert math.isnan(got)
                else:
                    assert got == pytest.approx(numer / denom)


def _reference_priors(train, household, binning, epsilon):
    """One household's (prior, by_bin, by_day) from per-event bin_of/weekday_of."""
    T = binning.bin_count
    counts = np.zeros((1 + T + 7, household.size))
    for ev in train:
        if ev.user in household.members:
            k = household.members.index(ev.user)
            counts[0, k] += 1
            counts[bin_of(ev.timestamp, binning, clamp=True), k] += 1
            counts[T + 1 + weekday_of(ev.timestamp), k] += 1
    with np.errstate(invalid="ignore"):
        shares = (counts + epsilon) / (counts.sum(axis=1, keepdims=True)
                                       + epsilon * household.size)
    members = household.members
    return (dict(zip(members, shares[0])),
            {(m, b): shares[b, k] for b in range(1, T + 1) for k, m in enumerate(members)},
            {(m, d): shares[T + 1 + d, k] for d in range(7) for k, m in enumerate(members)})


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
    for hid, hh in households.items():
        want = _reference_priors(events, hh, binning, epsilon)
        got = (fitted[hid].prior, fitted[hid].by_bin, fitted[hid].by_day)
        for ours, theirs in zip(got, want):
            assert list(ours) == list(theirs)
            assert all(ours[key] == theirs[key]
                       or (math.isnan(ours[key]) and math.isnan(theirs[key]))
                       for key in theirs)
    if count == 15 and epsilon == 0.0:
        assert any(math.isnan(value) for value in fitted[7].by_bin.values())


# ---------------------------------------------------------------------------
# Prior classifier
# ---------------------------------------------------------------------------

def test_classify_prior_uniform(pair_household):
    train = [event(0, m) for m in range(3)] + [event(1, 9)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.0)[0]
    assert classify_prior(priors, "uniform", anon_event(0, 50)) == 0


def test_classify_prior_day(pair_household):
    train = [event(0, m, day=0) for m in range(3)] + \
            [event(1, m + 10, day=4) for m in range(5)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.5)[0]
    assert classify_prior(priors, "day", anon_event(0, 50, day=0)) == 0
    assert classify_prior(priors, "day", anon_event(0, 50, day=4)) == 1


def test_classify_prior_tie_breaks_to_smaller_id():
    household = Household(0, (7, 3))
    train = [event(7, 0), event(3, 1)]
    priors = fit_priors(train, {0: household}, BINNING, epsilon=0.5)[0]
    assert priors.prior[7] == priors.prior[3]
    assert classify_prior(priors, "uniform", anon_event(0, 50)) == 3


def test_classify_prior_ignores_rating(pair_household):
    train = [event(0, m, day=0) for m in range(3)] + [event(1, 9, day=4)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.5)[0]
    low = anon_event(0, 50, rating=1.0, day=0)
    high = anon_event(0, 50, rating=99.0, day=0)
    assert classify_prior(priors, "day", low) == classify_prior(priors, "day", high)


def test_classify_prior_weekly_shift_invariance(pair_household):
    train = [event(0, m, day=m % 3) for m in range(5)] + \
            [event(1, m + 10, day=3 + m % 3) for m in range(7)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.5)[0]
    for day in range(7):
        probe = anon_event(0, 50, day=day)
        shifted = anon_event(0, 50, day=day, week=21)  # +147 days = 21 weeks
        assert classify_prior(priors, "day", probe) == \
            classify_prior(priors, "day", shifted)


def test_classify_prior_bad_mode(pair_household):
    train = [event(0, 0), event(1, 1)]
    priors = fit_priors(train, {0: pair_household}, BINNING, epsilon=0.5)[0]
    with pytest.raises(ValueError):
        classify_prior(priors, "hourly", anon_event(0, 5))


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
