from typing import NamedTuple

import numpy as np
import pytest

from hhattrib.corpus import (
    EventColumns, Household, SynthConfig, TestColumns, TestEvent, make_dataset,
    synth_generate,
)

# Sunday 2010-01-03 00:00:00 UTC; day k of the synthetic week is DAY0 + k days.
DAY0 = 1_262_476_800
DAY = 86_400


def logistic_objective(theta, rows, labels, lambda1) -> float:
    """Negative log-likelihood plus lambda1 * ||theta||_1: the objective
    oracle of the L1 logistic solver."""
    u = rows @ theta
    # log(1 + e^u) as max(u, 0) + log1p(e^-|u|): stable on both tails
    loss = float((np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u))) - labels * u).sum())
    return loss + lambda1 * float(np.abs(theta).sum())


class Rating(NamedTuple):
    """One train event: the per-event form the scalar oracles read."""

    user: int
    movie: int
    rating: float
    timestamp: int


def as_columns(events) -> EventColumns:
    """Rating records as EventColumns, in order: the form the library reads."""
    events = list(events)
    return EventColumns(*(np.array([getattr(ev, name) for ev in events], dtype)
                          for name, dtype in (("user", np.intp), ("movie", np.intp),
                                              ("rating", np.float64),
                                              ("timestamp", np.int64))))


def as_test_columns(events) -> TestColumns:
    """TestEvent records as TestColumns, in order: the form the library reads.
    A true user of None becomes -1."""
    events = list(events)
    fields = (("household", np.intp), ("movie", np.intp), ("rating", np.float64),
              ("timestamp", np.int64))
    return TestColumns(*(np.array([getattr(ev, name) for ev in events], dtype)
                         for name, dtype in fields),
                       np.array([-1 if ev.true_user is None else ev.true_user
                                 for ev in events], np.intp))


def event(user, movie, rating=50.0, day=0, hour=12, week=0):
    """One rating event at a controlled weekday/hour, week offset in weeks."""
    stamp = DAY0 + week * 7 * DAY + day * DAY + hour * 3_600
    return Rating(user, movie, rating, stamp)


def anon_event(household, movie, rating=50.0, day=0, hour=12, week=0, true_user=None):
    stamp = DAY0 + week * 7 * DAY + day * DAY + hour * 3_600
    return TestEvent(household, movie, rating, stamp, true_user)


@pytest.fixture
def pair_household():
    return Household(0, (0, 1))


@pytest.fixture
def small_dataset():
    """Two 2-member households, members with distinct weekday habits."""
    events = []
    movie = 0
    for user, day in ((0, 0), (1, 3), (2, 1), (3, 5)):
        for k in range(12):
            events.append(event(user, movie, rating=40.0 + 3 * user + k % 5,
                                day=day, week=k % 8, hour=(user * 5) % 24))
            movie += 1
    households = {0: Household(0, (0, 1)), 1: Household(1, (2, 3))}
    return make_dataset(as_columns(events), households)


@pytest.fixture(scope="session")
def planted_dataset():
    """Mid-size planted dataset shared by classifier-quality tests."""
    config = SynthConfig(
        households_size2=10, households_size3=2, households_size4=1,
        events_per_user=80, overlap=0.1, rank=2, noise_sigma=8.0, seed=11,
    )
    return synth_generate(config)


def read_logit_dump(path):
    """Each record of a save_logit_models file: (household, member, letters,
    lambda1) and its theta, mean and scale arrays."""
    lines = path.read_text().splitlines()
    assert lines[0] == "logit-models 1"
    records = []
    for head, *arrays in zip(*[iter(lines[1:])] * 4):
        tag, household, member, letters, lambda1 = head.split()
        assert tag == "model" and [a.split()[0] for a in arrays] == ["theta", "mean", "scale"]
        records.append(((int(household), int(member), letters, float(lambda1)),
                        *(np.array([float(v) for v in a.split()[1:]]) for a in arrays)))
    assert len(records) * 4 == len(lines) - 1
    return records


def rating_events(columns):
    """Train columns as Rating records, in order: the form the scalar
    oracles read."""
    return [Rating(*row) for row in zip(columns.user.tolist(), columns.movie.tolist(),
                                        columns.rating.tolist(), columns.stamp.tolist())]


def as_rating_events(test_events):
    """Map evaluation events back to plain rating events via the true user."""
    return [
        Rating(ev.true_user, ev.movie, ev.rating, ev.timestamp)
        for ev in test_events
    ]


def rng_for(test_seed):
    return np.random.default_rng(test_seed)


# Scalar forms of the time rules, the oracles of corpus.weekday_column and
# corpus.bin_column.

def weekday_of(timestamp: int) -> int:
    """UTC weekday of an epoch timestamp, 0 = Sunday ... 6 = Saturday."""
    # 1970-01-01 was a Thursday, index 4 when Sunday is 0.
    return (int(timestamp) // DAY + 4) % 7


def hour_of(timestamp: int) -> int:
    """UTC hour of day in 0..23."""
    return (int(timestamp) % DAY) // 3_600


def bin_of(timestamp: int, binning) -> int:
    """Bin index in 1..T of a timestamp.

    The right edge (timestamp == origin + span) belongs to bin T; outside
    the covered range the nearest bin is returned.
    """
    t = int(timestamp)
    if binning.kind == "weekday":
        return weekday_of(t) + 1
    lo, hi = binning.origin, binning.origin + binning.span
    if not lo <= t <= hi:
        return 1 if t < lo else binning.bin_count
    return min(1 + (binning.bin_count * (t - lo)) // binning.span, binning.bin_count)
