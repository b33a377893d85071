"""Rating-event data model, file ingestion, time helpers, and synthetic data.

On-disk layout (tab, comma, or space separated; one record per line):

* ratings file:     user  movie  rating  timestamp
* households file:  household  member  member  [member  [member]]
* test file:        household  movie  rating  timestamp  [true_user]

Ratings are scores in [0, 100]; timestamps are UTC epoch seconds. All
values in this module are immutable after construction and safe to share
across threads.

Behind the file edge, array code reads an event list as `EventColumns`:
user, movie, rating and stamp arrays in event order, kept by a Dataset; a
split reads its parent's through its keep mask.
"""

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

SECONDS_PER_DAY = 86_400
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY

# Synthetic timelines start on 2010-01-03 00:00:00 UTC, a Sunday, and run
# for a fixed number of whole weeks so that weekday structure is exact.
SYNTH_ORIGIN = 1_262_476_800
SYNTH_WEEKS = 52


class ParseError(ValueError):
    """A line that cannot be decoded into the expected record."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class RangeError(ValueError):
    """A numeric value outside its allowed range."""

    def __init__(self, message, path=None, line_no=None):
        self.path = None if path is None else str(path)
        self.line_no = line_no
        if path is not None:
            message = f"{path}:{line_no}: {message}"
        super().__init__(message)


class StructureError(ValueError):
    """A household record with an unsupported member count."""

    def __init__(self, message, path=None, line_no=None):
        self.path = None if path is None else str(path)
        self.line_no = line_no
        if path is not None:
            message = f"{path}:{line_no}: {message}"
        super().__init__(message)


class DuplicateError(ValueError):
    """The same key declared twice in one file."""


class ConfigError(ValueError):
    """An invalid or unreadable configuration."""


@dataclass(frozen=True, slots=True)
class RatingEvent:
    """One observed rating: (user, movie, rating, timestamp)."""

    user: int
    movie: int
    rating: float
    timestamp: int

    def __post_init__(self):
        if self.user < 0 or self.movie < 0:
            raise ValueError(f"negative id in event {self!r}")
        if not (0.0 <= self.rating <= 100.0):
            raise RangeError(f"rating {self.rating} outside [0, 100]")
        if not (math.isfinite(self.timestamp) and self.timestamp >= 0):
            raise RangeError(f"bad timestamp {self.timestamp}")


@dataclass(frozen=True, slots=True)
class TestEvent:
    """An anonymized rating known only at household level.

    ``true_user`` is present only for evaluation or synthetic data.
    """

    __test__ = False  # domain class, not a pytest suite

    household: int
    movie: int
    rating: float
    timestamp: int
    true_user: int | None = None

    def __post_init__(self):
        if self.household < 0 or self.movie < 0:
            raise ValueError(f"negative id in event {self!r}")
        if not (0.0 <= self.rating <= 100.0):
            raise RangeError(f"rating {self.rating} outside [0, 100]")
        if not (math.isfinite(self.timestamp) and self.timestamp >= 0):
            raise RangeError(f"bad timestamp {self.timestamp}")


def event_column(events, name: str, dtype) -> np.ndarray:
    """Field ``name`` of every event as one array, in event order."""
    return np.fromiter(map(attrgetter(name), events), dtype, len(events))


@dataclass(frozen=True, eq=False)
class EventColumns:
    """The fields of an event list as arrays, one entry per event, in order."""

    user: np.ndarray    # intp
    movie: np.ndarray   # intp
    rating: np.ndarray  # float64
    stamp: np.ndarray   # int64

    @classmethod
    def of(cls, events) -> "EventColumns":
        """Columns of an iterable of rating events; columns are returned as given."""
        if isinstance(events, cls):
            return events
        events = tuple(events)
        return cls(event_column(events, "user", np.intp),
                   event_column(events, "movie", np.intp),
                   event_column(events, "rating", np.float64),
                   event_column(events, "timestamp", np.int64))


@dataclass(frozen=True)
class Household:
    """A declared group of 2-4 users; ``members`` keeps file order."""

    id: int
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not 2 <= len(self.members) <= 4:
            raise StructureError(
                f"household {self.id} has {len(self.members)} members, need 2-4"
            )
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"household {self.id} repeats a member")

    @property
    def size(self) -> int:
        return len(self.members)


def member_table(households: dict[int, Household]) -> np.ndarray:
    """Members of each household in file order, one row per household in map
    order, padded with -1 to the largest household size."""
    width = max((hh.size for hh in households.values()), default=0)
    table = np.full((len(households), width), -1, dtype=np.intp)
    for row, hh in zip(table, households.values()):
        row[:hh.size] = hh.members
    return table


@dataclass(frozen=True)
class Dataset:
    """Training events, households, test events and ``member_of`` (member ->
    household). The train columns are kept by a Dataset; a split reads its
    parent's through its keep mask."""

    train: tuple[RatingEvent, ...]
    households: dict[int, Household]
    test: tuple[TestEvent, ...]
    user_count: int
    movie_count: int
    _keep = None   # a split's bool mask over the events of _columns

    def __post_init__(self):
        object.__setattr__(self, "train", tuple(self.train))
        object.__setattr__(self, "test", tuple(self.test))
        object.__setattr__(self, "_columns", EventColumns.of(self.train))
        users, movies = self.columns.user, self.columns.movie
        # keys span the largest movie: one beyond movie_count is not a repeat
        key = users * max(self.movie_count, int(movies.max(initial=-1)) + 1) + movies
        repeat = np.ones(len(key), dtype=bool)
        repeat[np.unique(key, return_index=True)[1]] = False   # first occurrences
        bad = repeat | (users >= self.user_count) | (movies >= self.movie_count)
        if bad.any():
            first = bad.argmax()
            ev = self.train[first]
            if repeat[first]:
                raise DuplicateError(f"duplicate train pair {(ev.user, ev.movie)}")
            raise ValueError(f"event {ev!r} exceeds declared dimensions")
        owner = {}
        for hid, hh in self.households.items():
            if hid != hh.id:
                raise ValueError(f"household map key {hid} != id {hh.id}")
            for member in hh.members:
                if member in owner:
                    raise DuplicateError(f"user {member} in two households")
                owner[member] = hid
        object.__setattr__(self, "member_of", owner)
        for ev in self.test:
            if ev.household not in self.households:
                raise ValueError(f"test event for unknown household {ev.household}")
            if ev.true_user is not None and owner.get(ev.true_user) != ev.household:
                raise ValueError(f"true_user {ev.true_user} not in household {ev.household}")

    @property
    def columns(self) -> EventColumns:
        """The train events' columns, in event order."""
        columns, keep = self._columns, self._keep
        if keep is None:
            return columns
        return EventColumns(columns.user[keep], columns.movie[keep],
                            columns.rating[keep], columns.stamp[keep])

    def _subset(self, keep: np.ndarray, test: tuple) -> "Dataset":
        """The train events where ``keep`` is set and ``test``, not validated again."""
        split = object.__new__(type(self))
        vars(split).update(vars(self), test=test,
                           train=tuple(itertools.compress(self.train, keep.tolist())))
        if self._keep is not None:   # a split of a split: one mask over the same columns
            keep, inner = self._keep.copy(), keep
            keep[self._keep] = inner
        vars(split)["_keep"] = keep
        return split


@dataclass(frozen=True)
class Binning:
    """Partition of the observed time span into ``bin_count`` equal bins.

    ``kind="span"`` slices [origin, origin + span] into equal intervals;
    ``kind="weekday"`` keys the bin directly to the UTC weekday (needs
    bin_count == 7).
    """

    bin_count: int
    origin: int
    span: int
    kind: str = "span"

    def __post_init__(self):
        if self.bin_count < 1:
            raise ValueError("bin_count must be >= 1")
        if self.span <= 0:
            raise ValueError("span must be positive")
        if self.kind not in ("span", "weekday"):
            raise ValueError(f"unknown binning kind {self.kind!r}")
        if self.kind == "weekday" and self.bin_count != 7:
            raise ValueError("weekday binning requires bin_count == 7")


def weekday_of(timestamp: int) -> int:
    """UTC weekday of an epoch timestamp, 0 = Sunday ... 6 = Saturday."""
    # 1970-01-01 was a Thursday, index 4 when Sunday is 0.
    return (int(timestamp) // SECONDS_PER_DAY + 4) % 7


def weekday_column(stamps) -> np.ndarray:
    """``weekday_of`` of each stamp of an int64 array."""
    return (np.asarray(stamps, dtype=np.int64) // SECONDS_PER_DAY + 4) % 7


def hour_of(timestamp: int) -> int:
    """UTC hour of day in 0..23."""
    return (int(timestamp) % SECONDS_PER_DAY) // 3_600


def derive_binning(events, bin_count: int, kind: str = "span") -> Binning:
    """Binning covering the min..max timestamp range of ``events``."""
    if kind == "weekday":
        return Binning(bin_count, 0, SECONDS_PER_WEEK, kind="weekday")
    stamps = EventColumns.of(events).stamp
    if not stamps.size:
        raise ValueError("cannot derive a binning from zero events")
    origin = int(stamps.min())
    span = max(int(stamps.max()) - origin, 1)
    return Binning(bin_count, origin, span)


def bin_of(timestamp: int, binning: Binning, clamp: bool = False) -> int:
    """Bin index in 1..T for a timestamp.

    The right edge (timestamp == origin + span) belongs to bin T. Outside
    the covered range this raises RangeError unless ``clamp`` is set, in
    which case the nearest bin is returned (the behaviour classification
    paths use for test events that slightly postdate training).
    """
    t = int(timestamp)
    if binning.kind == "weekday":
        return weekday_of(t) + 1
    lo, hi = binning.origin, binning.origin + binning.span
    if not lo <= t <= hi:
        if not clamp:
            raise RangeError(
                f"timestamp {t} outside binning range [{lo}, {hi}]"
            )
        return 1 if t < lo else binning.bin_count
    idx = 1 + (binning.bin_count * (t - lo)) // binning.span
    return min(max(idx, 1), binning.bin_count)


def bin_column(stamps, binning: Binning) -> np.ndarray:
    """``bin_of(t, binning, clamp=True) - 1`` for each t of an int64 array."""
    t = np.asarray(stamps, dtype=np.int64)
    if binning.kind == "weekday":
        return weekday_column(t)
    lo, T = binning.origin, binning.bin_count
    t = np.minimum(np.maximum(t, lo), lo + binning.span)
    return np.minimum((T * (t - lo)) // binning.span, T - 1)


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------

def _fields(line: str) -> list[str]:
    # Delimiter auto-detection: tab, comma and space all normalize to space.
    return line.replace("\t", " ").replace(",", " ").split()


def _parse_int(token: str, path, line_no, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(path, line_no, f"bad {what} {token!r}") from None


def _parse_float(token: str, path, line_no, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(path, line_no, f"bad {what} {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, line_no, f"non-finite {what} {token!r}")
    return value


def parse_ratings(path) -> list[RatingEvent]:
    """Read a 4-column ratings file, in file order."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            fields = _fields(raw)
            if not fields:
                continue
            if len(fields) != 4:
                raise ParseError(path, line_no, f"expected 4 fields, got {len(fields)}")
            user = _parse_int(fields[0], path, line_no, "user id")
            movie = _parse_int(fields[1], path, line_no, "movie id")
            rating = _parse_float(fields[2], path, line_no, "rating")
            stamp = _parse_int(fields[3], path, line_no, "timestamp")
            if not 0.0 <= rating <= 100.0:
                raise RangeError(f"rating {rating} outside [0, 100]", path, line_no)
            events.append(RatingEvent(user, movie, rating, stamp))
    return events


def parse_households(path) -> dict[int, Household]:
    """Read a households file into a map household id -> Household."""
    out: dict[int, Household] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            fields = _fields(raw)
            if not fields:
                continue
            if not 3 <= len(fields) <= 5:
                raise StructureError(
                    f"household line has {len(fields) - 1} members, need 2-4",
                    path, line_no,
                )
            hid = _parse_int(fields[0], path, line_no, "household id")
            members = tuple(
                _parse_int(tok, path, line_no, "member id") for tok in fields[1:]
            )
            if hid in out:
                raise DuplicateError(f"{path}:{line_no}: duplicate household {hid}")
            out[hid] = Household(hid, members)
    return out


def parse_test_events(path) -> list[TestEvent]:
    """Read a 4- or 5-column test file (5th column = true user, optional)."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            fields = _fields(raw)
            if not fields:
                continue
            if len(fields) not in (4, 5):
                raise ParseError(path, line_no, f"expected 4-5 fields, got {len(fields)}")
            hid = _parse_int(fields[0], path, line_no, "household id")
            movie = _parse_int(fields[1], path, line_no, "movie id")
            rating = _parse_float(fields[2], path, line_no, "rating")
            stamp = _parse_int(fields[3], path, line_no, "timestamp")
            if not 0.0 <= rating <= 100.0:
                raise RangeError(f"rating {rating} outside [0, 100]", path, line_no)
            truth = None
            if len(fields) == 5:
                truth = _parse_int(fields[4], path, line_no, "true user id")
            events.append(TestEvent(hid, movie, rating, stamp, truth))
    return events


def _format_rating(rating: float) -> str:
    value = float(rating)
    return str(int(value)) if value.is_integer() else repr(value)


def write_ratings(events, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(f"{ev.user}\t{ev.movie}\t{_format_rating(ev.rating)}\t{ev.timestamp}\n")


def write_households(households: dict[int, Household], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for hid in households:
            members = "\t".join(str(m) for m in households[hid].members)
            fh.write(f"{hid}\t{members}\n")


def write_test_events(events, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            line = f"{ev.household}\t{ev.movie}\t{_format_rating(ev.rating)}\t{ev.timestamp}"
            if ev.true_user is not None:
                line += f"\t{ev.true_user}"
            fh.write(line + "\n")


def make_dataset(train, households, test=()) -> Dataset:
    """Assemble a Dataset, deriving user/movie counts from the data."""
    users = [ev.user for ev in train]
    users += [m for hh in households.values() for m in hh.members]
    users += [ev.true_user for ev in test if ev.true_user is not None]
    movies = [ev.movie for ev in train] + [ev.movie for ev in test]
    return Dataset(
        train=tuple(train),
        households=dict(households),
        test=tuple(test),
        user_count=max(users, default=-1) + 1,
        movie_count=max(movies, default=-1) + 1,
    )


def load_dataset(train_path, households_path, test_path=None) -> Dataset:
    train = parse_ratings(train_path)
    households = parse_households(households_path)
    test = parse_test_events(test_path) if test_path is not None else []
    return make_dataset(train, households, test)


def write_dataset(dataset: Dataset, out_dir) -> tuple[Path, Path, Path]:
    """Write train/households/test files into ``out_dir``; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_path = out / "train.tsv"
    households_path = out / "households.tsv"
    test_path = out / "test.tsv"
    write_ratings(dataset.train, train_path)
    write_households(dataset.households, households_path)
    write_test_events(dataset.test, test_path)
    return train_path, households_path, test_path


# ---------------------------------------------------------------------------
# Cross-validation splitting
# ---------------------------------------------------------------------------

def cv_split(dataset: Dataset, fraction: float = 0.04, seed: int = 0) -> Dataset:
    """Randomly hide a fraction of each household member's train events.

    Every train event of a household member independently moves to the
    test side with probability ``fraction``; moved events keep their true
    user. Events of users outside any household always stay in train.
    Deterministic for a given seed.

    The k member events take one ``rng.random(k)`` draw in train order and
    other events none: one ``rng.random()`` per member event, as the
    per-event loop drew. Kept events are the dataset's own objects.

    The split is not validated again: its train is a subset of a validated
    train, and each hidden event is built from a validated event whose owner
    is a member of the household. It reads the dataset's columns through
    its keep mask.
    """
    if not dataset.households:
        raise ValueError("cv_split needs a dataset with households")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction {fraction} outside (0, 1)")
    rng = np.random.default_rng(seed)
    member_of = dataset.member_of
    household_of = np.full(max(dataset.user_count, max(member_of) + 1), -1)
    household_of[list(member_of)] = list(member_of.values())
    household = household_of[dataset.columns.user]
    hide = household >= 0   # member events, then the hidden ones among them
    hide[hide] = rng.random(int(hide.sum())) < fraction
    hidden = [TestEvent(hid, ev.movie, ev.rating, ev.timestamp, ev.user)
              for ev, hid in zip(itertools.compress(dataset.train, hide.tolist()),
                                 household[hide].tolist())]
    return dataset._subset(~hide, tuple(hidden))


# ---------------------------------------------------------------------------
# Synthetic data with planted ground truth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the planted-ground-truth generator.

    ``overlap`` controls how much housemates' weekday (and hour) habits
    mix: 0 gives disjoint single-day supports (pairwise total variation
    exactly 1), 1 gives one shared uniform distribution.
    """

    households_size2: int = 20
    households_size3: int = 4
    households_size4: int = 2
    events_per_user: int = 120
    overlap: float = 0.1
    rank: int = 3
    noise_sigma: float = 10.0
    seed: int = 0

    def __post_init__(self):
        counts = (self.households_size2, self.households_size3, self.households_size4)
        if min(counts) < 0 or sum(counts) == 0:
            raise ConfigError(f"bad household counts {counts}")
        if self.events_per_user < 1:
            raise ConfigError(f"events_per_user {self.events_per_user} < 1")
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigError(f"overlap {self.overlap} outside [0, 1]")
        if self.rank < 1:
            raise ConfigError(f"rank {self.rank} < 1")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma {self.noise_sigma} < 0")


_SYNTH_KEYS = (
    "households_size2", "households_size3", "households_size4",
    "events_per_user", "overlap", "rank", "noise_sigma", "seed",
)


def read_synth_config(path) -> SynthConfig:
    """Parse a flat key=value config file; unknown keys are errors."""
    values = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    with fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _SYNTH_KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            caster = float if key in ("overlap", "noise_sigma") else int
            try:
                values[key] = caster(value.strip())
            except ValueError:
                raise ConfigError(f"{path}:{line_no}: bad value for {key}") from None
    return SynthConfig(**values)


def _mixture(length: int, hot: int, overlap: float) -> np.ndarray:
    probs = np.full(length, overlap / length)
    probs[hot] += 1.0 - overlap
    return probs


def synth_generate(config: SynthConfig, seed: int | None = None) -> Dataset:
    """Generate a Dataset with planted latent tastes and temporal habits.

    Ratings follow <u_i, v_j> + z_i + Gaussian noise, rounded and clamped
    into [0, 100]. Each household member gets a home weekday and a home
    hour (mixed toward uniform by ``overlap``) plus a mild preference for
    one half of the calendar, so that weekday, hour-of-day, and coarse
    seasonal signals are all present. Roughly 10% of each user's events
    are held out as test events carrying the true user.
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)

    sizes = (
        [2] * config.households_size2
        + [3] * config.households_size3
        + [4] * config.households_size4
    )
    user_count = sum(sizes)
    test_per_user = max(1, round(0.1 * config.events_per_user))
    total_per_user = config.events_per_user + test_per_user
    movie_count = max(30, math.ceil(1.3 * total_per_user))

    taste = rng.normal(0.0, 1.0, size=(user_count, config.rank))
    profile = rng.normal(0.0, 15.0 / math.sqrt(config.rank),
                         size=(movie_count, config.rank))
    bias = rng.uniform(40.0, 60.0, size=user_count)

    households: dict[int, Household] = {}
    member_rows = []  # (user, household, position, size)
    uid = 0
    for hid, size in enumerate(sizes):
        members = tuple(range(uid, uid + size))
        households[hid] = Household(hid, members)
        home_days = rng.permutation(7)[:size]
        home_hours = rng.permutation(24)[:size]
        for pos, user in enumerate(members):
            member_rows.append((user, hid, pos, home_days[pos], home_hours[pos]))
        uid += size

    # Seasonal tilt: alternating members prefer opposite halves of the year.
    gamma = 0.5 * (1.0 - config.overlap)
    half = SYNTH_WEEKS // 2

    train: list[RatingEvent] = []
    test: list[TestEvent] = []
    for user, hid, pos, home_day, home_hour in member_rows:
        p_day = _mixture(7, home_day, config.overlap)
        p_hour = _mixture(24, home_hour, config.overlap)
        p_week = np.ones(SYNTH_WEEKS)
        if pos % 2 == 0:
            p_week[:half] += gamma
            p_week[half:] -= gamma
        else:
            p_week[:half] -= gamma
            p_week[half:] += gamma
        p_week /= p_week.sum()

        movies = rng.choice(movie_count, size=total_per_user, replace=False)
        weeks = rng.choice(SYNTH_WEEKS, size=total_per_user, p=p_week)
        days = rng.choice(7, size=total_per_user, p=p_day)
        hours = rng.choice(24, size=total_per_user, p=p_hour)
        seconds = rng.integers(0, 3_600, size=total_per_user)
        noise = rng.normal(0.0, config.noise_sigma, size=total_per_user)

        stamps = (
            SYNTH_ORIGIN
            + weeks * SECONDS_PER_WEEK
            + days * SECONDS_PER_DAY
            + hours * 3_600
            + seconds
        )
        ratings = profile[movies] @ taste[user] + bias[user] + noise
        ratings = np.clip(np.rint(ratings), 0.0, 100.0)

        for k in range(config.events_per_user):
            train.append(
                RatingEvent(user, int(movies[k]), float(ratings[k]), int(stamps[k]))
            )
        for k in range(config.events_per_user, total_per_user):
            test.append(
                TestEvent(hid, int(movies[k]), float(ratings[k]), int(stamps[k]), user)
            )

    return Dataset(
        train=tuple(train),
        households=households,
        test=tuple(test),
        user_count=user_count,
        movie_count=movie_count,
    )
