"""Rating-event data model, file ingestion, time helpers, and synthetic data.

On-disk layout (tab, comma, or space separated; one record per line):

* ratings file:     user  movie  rating  timestamp
* households file:  household  member  member  [member  [member]]
* test file:        household  movie  rating  timestamp  [true_user]

Ratings are scores in [0, 100]; timestamps are UTC epoch seconds. All
values in this module are immutable after construction and safe to share
across threads.

Rating events exist only as `EventColumns`: user, movie, rating and stamp
arrays in event order. Parsing builds them, every function that reads a
train takes them, a Dataset keeps its train in this form, and a split
slices its parent's columns once. Test events likewise exist only as
`TestColumns`; iterating them yields `TestEvent` records, for callers
outside the library.
"""

import copy
import io
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

SECONDS_PER_DAY = 86_400
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY

# Synthetic timelines start on 2010-01-03 00:00:00 UTC, a Sunday, and run
# for a fixed number of whole weeks so that weekday structure is exact.
SYNTH_ORIGIN = 1_262_476_800
SYNTH_WEEKS = 52


class _LocatedError(ValueError):
    """An error that names its file and line when it has them."""

    def __init__(self, message, path=None, line_no=None):
        self.path = None if path is None else str(path)
        self.line_no = line_no
        if path is not None:
            message = f"{path}:{line_no}: {message}"
        super().__init__(message)


class ParseError(_LocatedError):
    """A line that cannot be decoded into the expected record."""

    def __init__(self, path, line_no, message):
        super().__init__(message, path, line_no)


class RangeError(_LocatedError):
    """A numeric value outside its allowed range."""


class StructureError(_LocatedError):
    """A household record with an unsupported member count, or no households."""


class DuplicateError(ValueError):
    """The same key declared twice in one file."""


class ConfigError(ValueError):
    """An invalid or unreadable configuration."""


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


@dataclass(frozen=True, eq=False)
class TestColumns:
    """Test events as arrays, one entry per event, in file order: the only
    form of test events inside the library. ``true_user`` is -1 where the
    event has none.

    Iteration yields `TestEvent` records, for callers outside the library;
    no library function iterates test events.
    """

    __test__ = False  # domain class, not a pytest suite

    household: np.ndarray  # intp
    movie: np.ndarray      # intp
    rating: np.ndarray     # float64
    stamp: np.ndarray      # int64
    true_user: np.ndarray  # intp, -1 for none

    def __len__(self) -> int:
        return len(self.household)

    def __iter__(self):
        truths = [None if user < 0 else user for user in self.true_user.tolist()]
        return map(TestEvent, self.household.tolist(), self.movie.tolist(),
                   self.rating.tolist(), self.stamp.tolist(), truths)


@dataclass(frozen=True, eq=False)
class EventColumns:
    """The fields of an event list as arrays, one entry per event, in order.

    Indexing selects events; iteration raises TypeError, as there is no
    per-event object to yield.
    """

    user: np.ndarray    # intp
    movie: np.ndarray   # intp
    rating: np.ndarray  # float64
    stamp: np.ndarray   # int64

    __iter__ = None   # no legacy iteration through __getitem__ and __len__

    def __getitem__(self, index) -> "EventColumns":
        """The events at ``index`` (a bool mask, indices or a slice), in order."""
        return EventColumns(self.user[index], self.movie[index], self.rating[index],
                            self.stamp[index])

    def __len__(self) -> int:
        return len(self.user)


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
        if min(self.members) < 0:   # -1 pads Households.table
            raise RangeError(f"household {self.id}: negative member id {min(self.members)}")

    @property
    def size(self) -> int:
        return len(self.members)


class Households(Mapping):
    """The declared households, read-only, as a map household id -> Household
    in the order given, with the layout every layer reads, built once:
    ``ids``, the household ids in map order, and ``table``, each household's
    members in file order, one row per household in map order, padded with
    -1 to the largest household size.

    A map key that is not its household's id, and a user in two households,
    are errors.
    """

    def __init__(self, households):
        self._map = dict(households)
        for hid, hh in self._map.items():
            if hid != hh.id:
                raise ValueError(f"household map key {hid} != id {hh.id}")
        width = max((hh.size for hh in self._map.values()), default=0)
        self.table = np.full((len(self._map), width), -1, dtype=np.intp)
        for row, hh in zip(self.table, self._map.values()):
            row[:hh.size] = hh.members
        members = self.table[self.table >= 0]   # map order, then file order
        repeat = np.ones(len(members), dtype=bool)
        repeat[np.unique(members, return_index=True)[1]] = False   # first occurrences
        if repeat.any():
            raise DuplicateError(f"user {members[repeat.argmax()]} in two households")
        self.ids = np.fromiter(self._map, np.intp, len(self._map))
        self._order = np.argsort(self.ids)
        # each user's slot; the last entry, -1, serves user -1 and users beyond
        self._slot = np.full(members.max(initial=-1) + 2, -1)
        self._slot[members] = np.flatnonzero(self.table >= 0)
        self.table.flags.writeable = self.ids.flags.writeable = False

    def __getitem__(self, hid) -> Household:
        return self._map[hid]

    def __iter__(self):
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:
        return f"Households({self._map!r})"

    def rows(self, ids) -> np.ndarray:
        """Each household id's row in map order; -1 for an id the map lacks."""
        ids = np.asarray(ids, dtype=np.int64)
        if not self._map:
            return np.full(len(ids), -1, dtype=np.intp)
        rows = self._order[np.minimum(np.searchsorted(self.ids, ids, sorter=self._order),
                                      len(self.ids) - 1)]
        return np.where(self.ids[rows] == ids, rows, -1)

    def slots(self, users) -> np.ndarray:
        """Each user's row-major slot in ``table`` (row * width + position);
        -1 for a user in no household and for user -1."""
        return self._slot[np.minimum(users, len(self._slot) - 1)]

    def user_rows(self, users) -> np.ndarray:
        """Each user's household row in map order; -1 for a user in no
        household and for user -1."""
        return self.slots(users) // max(self.table.shape[1], 1)   # -1 stays -1


@dataclass(frozen=True, eq=False)
class Dataset:
    """Training events, households and test events.

    The train is ``EventColumns`` and the test ``TestColumns``; a split keeps
    its own slice of its parent's train and its parent's households.
    """

    train: EventColumns
    households: Households
    test: TestColumns
    user_count: int
    movie_count: int

    def __post_init__(self):
        users, movies = self.train.user, self.train.movie
        # keys span the largest movie: one beyond movie_count is not a repeat
        key = users * max(self.movie_count, int(movies.max(initial=-1)) + 1) + movies
        repeat = np.ones(len(key), dtype=bool)
        repeat[np.unique(key, return_index=True)[1]] = False   # first occurrences
        bad = repeat | (users >= self.user_count) | (movies >= self.movie_count)
        if bad.any():
            first = bad.argmax()
            user, movie = int(users[first]), int(movies[first])
            if repeat[first]:
                raise DuplicateError(f"duplicate train pair {(user, movie)}")
            event = (user, movie, float(self.train.rating[first]), int(self.train.stamp[first]))
            raise ValueError(f"event {event} exceeds declared dimensions")
        rows, truths = self.households.rows(self.test.household), self.test.true_user
        bad = (rows < 0) | (truths >= 0) & (self.households.user_rows(truths) != rows)
        if bad.any():   # the first bad event in file order
            first = bad.argmax()
            hid = int(self.test.household[first])
            if rows[first] < 0:
                raise ValueError(f"test event for unknown household {hid}")
            raise ValueError(f"true_user {int(truths[first])} not in household {hid}")


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


def weekday_column(stamps) -> np.ndarray:
    """UTC weekday of each stamp of an int64 array, 0 = Sunday ... 6 = Saturday."""
    # 1970-01-01 was a Thursday, index 4 when Sunday is 0.
    return (np.asarray(stamps, dtype=np.int64) // SECONDS_PER_DAY + 4) % 7


def derive_binning(train: EventColumns, bin_count: int, kind: str = "span") -> Binning:
    """Binning covering the min..max timestamp range of ``train``."""
    if kind == "weekday":
        return Binning(bin_count, 0, SECONDS_PER_WEEK, kind="weekday")
    stamps = train.stamp
    if not stamps.size:
        raise ValueError("cannot derive a binning from zero events")
    origin = int(stamps.min())
    span = max(int(stamps.max()) - origin, 1)
    return Binning(bin_count, origin, span)


def bin_column(stamps, binning: Binning) -> np.ndarray:
    """Zero-based bin index in 0..T-1 of each stamp of an int64 array.

    The right edge (origin + span) belongs to the last bin. Stamps outside
    the covered range are clamped to the nearest bin on either side, as
    classification needs for test events that slightly postdate training.
    A weekday binning keys the bin to ``weekday_column``.
    """
    t = np.asarray(stamps, dtype=np.int64)
    if binning.kind == "weekday":
        return weekday_column(t)
    lo, T = binning.origin, binning.bin_count
    t = np.minimum(np.maximum(t, lo), lo + binning.span)
    return np.minimum((T * (t - lo)) // binning.span, T - 1)


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------

_CHUNK = 1 << 16   # the chunk reader reads about this many characters at a time


class Field(NamedTuple):
    """One field of a table file: its name in error messages, its dtype, and,
    for a float, its upper bound. Every value must be >= 0. An ``optional``
    last field may be left out of a line and then reads as -1."""

    name: str
    dtype: type
    upper: float | None = None
    optional: bool = False


RATINGS_FIELDS = (Field("user id", np.intp), Field("movie id", np.intp),
                  Field("rating", np.float64, 100), Field("timestamp", np.int64))
TEST_FIELDS = (Field("household id", np.intp), *RATINGS_FIELDS[1:],
               Field("true user id", np.intp, optional=True))
_TEST_DTYPES = tuple(field.dtype for field in TEST_FIELDS)


def _fields(line: str) -> list[str]:
    # Delimiter auto-detection: tab, comma and space all normalize to space.
    return line.replace("\t", " ").replace(",", " ").split()


def _parse_int(token: str, path, line_no, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(path, line_no, f"bad {what} {token!r}") from None
    if not -2 ** 63 <= value < 2 ** 63:   # what an int64 column holds
        raise RangeError(f"{what} {value} outside the int64 range", path, line_no)
    return value


def _parse_float(token: str, path, line_no, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(path, line_no, f"bad {what} {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, line_no, f"non-finite {what} {token!r}")
    return value


def _lines(path, header: bool = False):
    """(line number, fields) of each non-blank line of a file; with ``header``,
    a first line that starts with ``household`` is skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if header and line_no == 1 and raw.startswith("household"):
                continue
            if fields := _fields(raw):
                yield line_no, fields


def read_table(path, fields: tuple[Field, ...], header: bool = False) -> list[np.ndarray]:
    """The columns of a file of ``fields`` a line, in file order, blank lines
    skipped and, with ``header``, a first line that starts with ``household``.
    The file is read by `_parse_chunks`; if anything fails there,
    `_parse_lines` reads it again one line at a time and raises the error
    naming the file and line."""
    try:
        return _parse_chunks(path, fields, header)
    except (ValueError, OverflowError, DeprecationWarning):
        pass
    return _parse_lines(path, fields, header)


def _parse_chunks(path, fields, header) -> list[np.ndarray]:
    """`read_table` in chunks of lines, split at newlines only as file
    iteration splits them. Every line of a chunk must have as many fields as
    its first non-blank one: every field, or all but an optional last one.
    One `np.loadtxt` converts each chunk into the fields' dtypes: it splits
    at the whitespace `str.split` splits at, and it refuses every token that
    ``int`` or ``float`` refuses, but also some they accept (``1_0``, digits
    other than ASCII), which `_parse_lines` then reads. Older numpy reads a
    float such as ``1.5`` into an int column with only a DeprecationWarning,
    so that warning is raised as an error. The columns are range-checked as
    arrays. Any failure raises a bare ValueError, OverflowError or
    DeprecationWarning, for `_parse_lines` to locate.
    """
    widths = {len(fields), len(fields) - fields[-1].optional}
    # per column, an empty array of its dtype, then one array per chunk
    parts = [[np.empty(0, field.dtype)] for field in fields]
    with open(path, "r", encoding="utf-8") as fh:
        while lines := fh.readlines(_CHUNK):
            if header and lines[0].startswith("household"):   # the file's first line
                del lines[0]
            header = False
            width = next(filter(None, map(len, map(_fields, lines))), 0)
            if not width:   # blank lines only
                continue
            if width not in widths:
                raise ValueError("lines of another width")
            text = "".join(lines).replace("\t", " ").replace(",", " ")
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                table = np.loadtxt(io.StringIO(text), comments=None, ndmin=1, dtype=[
                    (field.name, field.dtype) for field in fields[:width]])
            for k, (field, part) in enumerate(zip(fields, parts)):
                if k == width:   # the optional field, left out
                    part.append(np.full(len(table), -1, field.dtype))
                    continue
                column = table[field.name].copy()   # not a view that keeps the chunk
                if column.min(initial=0) < 0 or (
                        field.upper is not None and not (column <= field.upper).all()):
                    raise ValueError("a value out of range")
                part.append(column)
    for part in parts:   # one column at a time, freeing its chunks
        part[:] = [np.concatenate(part)]
    return [part[0] for part in parts]


def _parse_lines(path, fields, header) -> list[np.ndarray]:
    """`read_table` one line at a time: its error path. Every field of a line
    is converted, then range-checked, in line order; the first failure is
    the error."""
    least = len(fields) - fields[-1].optional
    expected = f"{least}-{len(fields)}" if least < len(fields) else f"{least}"
    rows = []
    for line_no, tokens in _lines(path, header):
        if not least <= len(tokens) <= len(fields):
            raise ParseError(path, line_no, f"expected {expected} fields, got {len(tokens)}")
        values = tuple((_parse_float if np.dtype(field.dtype).kind == "f" else _parse_int)(
            token, path, line_no, field.name) for token, field in zip(tokens, fields))
        for value, field in zip(values, fields):
            if field.upper is not None and not 0.0 <= value <= field.upper:
                raise RangeError(f"{field.name} {value} outside [0, {field.upper}]",
                                 path, line_no)
            if value < 0:
                raise RangeError(f"negative {field.name} {value}", path, line_no)
        rows.append(values + (-1,) * (len(fields) - len(values)))
    return [np.fromiter(map(itemgetter(k), rows), field.dtype, len(rows))
            for k, field in enumerate(fields)]


def parse_ratings(path) -> EventColumns:
    """Read a 4-column ratings file into columns, in file order, by `read_table`."""
    return EventColumns(*read_table(path, RATINGS_FIELDS))


def parse_households(path) -> Households:
    """Read a households file into Households, in file order."""
    out: dict[int, Household] = {}
    for line_no, fields in _lines(path):
        if not 3 <= len(fields) <= 5:
            raise StructureError(
                f"household line has {len(fields) - 1} members, need 2-4",
                path, line_no,
            )
        hid = _parse_int(fields[0], path, line_no, "household id")
        members = tuple(
            _parse_int(tok, path, line_no, "member id") for tok in fields[1:]
        )
        if min(members) < 0:
            raise RangeError(f"negative member id {min(members)}", path, line_no)
        if hid in out:
            raise DuplicateError(f"{path}:{line_no}: duplicate household {hid}")
        out[hid] = Household(hid, members)
    if not out:
        raise StructureError(f"{path}: no households, need at least one")
    try:
        return Households(out)
    except DuplicateError as exc:
        raise DuplicateError(f"{path}: {exc}") from None


def parse_test_events(path, households) -> TestColumns:
    """Read a 4- or 5-column test file (5th column = true user, optional) by
    `read_table`; a true user outside its line's household is an error at
    that line."""
    test = TestColumns(*read_table(path, TEST_FIELDS))
    check_members(path, test.true_user, test.household, households, "true_user")
    return test


def check_members(path, users, household_ids, households, what, header=False) -> None:
    """An error at the line of the first record of ``path`` (as `read_table`
    reads them) whose user, -1 for none, is outside its known household."""
    rows = households.rows(household_ids)
    outside = (rows >= 0) & (users >= 0) & (households.user_rows(users) != rows)
    if outside.any():
        first = int(outside.argmax())
        raise _LocatedError(f"{what} {users[first]} not in household {household_ids[first]}",
                            path, next(islice(_lines(path, header), first, None))[0])


def check_households(test: TestColumns, households, path) -> None:
    """A usage error naming ``path`` if a test event's household is not in it."""
    missing = households.rows(test.household) < 0
    if missing.any():
        raise ConfigError(f"{path}: no household {int(test.household[missing.argmax()])}, "
                          f"which has test events")


def _format_rating(rating: float) -> str:
    value = float(rating)
    return str(int(value)) if value.is_integer() else repr(value)


def write_ratings(columns: EventColumns, path) -> None:
    """Write rating columns, one line per event in order."""
    rows = zip(columns.user.tolist(), columns.movie.tolist(),
               map(_format_rating, columns.rating.tolist()), columns.stamp.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{user}\t{movie}\t{rating}\t{stamp}\n"
                      for user, movie, rating, stamp in rows)


def write_households(households: Households, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for hid in households:
            members = "\t".join(str(m) for m in households[hid].members)
            fh.write(f"{hid}\t{members}\n")


def write_test_events(test: TestColumns, path) -> None:
    """Write test columns, one line per event in order; the true user only
    where there is one."""
    truths = ("" if user < 0 else f"\t{user}" for user in test.true_user.tolist())
    rows = zip(test.household.tolist(), test.movie.tolist(),
               map(_format_rating, test.rating.tolist()), test.stamp.tolist(), truths)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{household}\t{movie}\t{rating}\t{stamp}{truth}\n"
                      for household, movie, rating, stamp, truth in rows)


def make_dataset(columns: EventColumns, households,
                 test: TestColumns | None = None) -> Dataset:
    """Assemble a Dataset, deriving user/movie counts from the data; no test
    events if ``test`` is None. ``households`` is a Households or a map
    household id -> Household."""
    if test is None:
        test = TestColumns(*(np.empty(0, dtype) for dtype in _TEST_DTYPES))
    if not isinstance(households, Households):
        households = Households(households)
    return Dataset(
        train=columns,
        households=households,
        test=test,
        user_count=max(int(columns.user.max(initial=-1)), int(households.table.max(initial=-1)),
                       int(test.true_user.max(initial=-1))) + 1,
        movie_count=max(int(columns.movie.max(initial=-1)),
                        int(test.movie.max(initial=-1))) + 1,
    )


def load_dataset(train_path, households_path, test_path=None) -> Dataset:
    train = parse_ratings(train_path)
    households = parse_households(households_path)
    test = None
    if test_path is not None:
        test = parse_test_events(test_path, households)
        check_households(test, households, households_path)
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
    per-event loop drew. The hidden test columns are the moved rows of the
    dataset's columns, and the split's train is the kept rows.

    The split is not validated again: its train is a subset of a validated
    train, and each hidden event is a validated event whose owner is a
    member of the household.
    """
    if not dataset.households:
        raise ValueError("cv_split needs a dataset with households")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction {fraction} outside (0, 1)")
    rng = np.random.default_rng(seed)
    households = dataset.households
    hide = households.slots(dataset.train.user) >= 0   # member events, then the hidden ones
    hide[hide] = rng.random(int(hide.sum())) < fraction
    moved = dataset.train[hide]
    hidden = TestColumns(households.ids[households.user_rows(moved.user)], moved.movie,
                         moved.rating, moved.stamp, moved.user)
    split = copy.copy(dataset)   # no __post_init__: not validated again
    vars(split).update(train=dataset.train[~hide], test=hidden)
    return split


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

    train = ([], [], [])   # per member, its first events_per_user movies, ratings, stamps
    test = ([], [], [], [], [])   # per member, its held-out events as TestColumns fields
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

        k = config.events_per_user
        for column, values in zip(train, (movies, ratings, stamps)):
            column.append(values[:k])
        for column, values in zip(test, (np.full(test_per_user, hid), movies[k:],
                                         ratings[k:], stamps[k:],
                                         np.full(test_per_user, user))):
            column.append(values)

    # member_rows runs over users 0 .. user_count - 1 in order
    users = np.repeat(np.arange(user_count, dtype=np.intp), config.events_per_user)
    movies, ratings, stamps = map(np.concatenate, train)
    return Dataset(
        train=EventColumns(users, movies.astype(np.intp, copy=False), ratings, stamps),
        households=Households(households),
        test=TestColumns(*(np.concatenate(column).astype(dtype, copy=False)
                           for column, dtype in zip(test, _TEST_DTYPES))),
        user_count=user_count,
        movie_count=movie_count,
    )
