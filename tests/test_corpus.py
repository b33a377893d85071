import dataclasses
import datetime
import functools
import gc
import hashlib
import io
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhattrib import cli, corpus, temporal
from hhattrib.corpus import (
    Binning, ConfigError, Dataset, DuplicateError, EventColumns, Household, Households,
    ParseError,
    RangeError, StructureError, SynthConfig, TestColumns, TestEvent, _fields, _parse_float,
    _parse_int, bin_column, cv_split, derive_binning, load_dataset, make_dataset,
    parse_households, parse_ratings, parse_test_events, read_synth_config, synth_generate,
    weekday_column, write_dataset, write_households, write_ratings, write_test_events,
)

from conftest import (
    DAY0, Rating, as_columns, as_test_columns, bin_of, event, rating_events, weekday_of,
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def assert_same_columns(got, want):
    """Equal EventColumns or TestColumns, dtypes and bits included (-0.0 is
    not 0.0)."""
    assert type(got) is type(want)
    for field in dataclasses.fields(got):
        ours, theirs = getattr(got, field.name), getattr(want, field.name)
        assert ours.dtype == theirs.dtype, field.name
        assert ours.tobytes() == theirs.tobytes(), field.name


def test_parse_ratings_basic(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("7 12 85 1288000000\n")
    assert_same_columns(parse_ratings(path), as_columns([Rating(7, 12, 85.0, 1288000000)]))


def test_parse_ratings_empty_file(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("")
    assert_same_columns(parse_ratings(path), as_columns([]))


def test_parse_ratings_out_of_range(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("7 12 150 0\n")
    with pytest.raises(RangeError):
        parse_ratings(path)


@pytest.mark.parametrize("delim", ["\t", ",", " "])
def test_parse_ratings_delimiters(tmp_path, delim):
    path = tmp_path / "r.txt"
    path.write_text(delim.join(["3", "4", "72", "1000"]) + "\n")
    assert_same_columns(parse_ratings(path), as_columns([Rating(3, 4, 72.0, 1000)]))


def test_parse_int_holds_int64_only():
    for value in (2 ** 63 - 1, -2 ** 63):
        assert _parse_int(str(value), "f", 1, "id") == value
    for value in (2 ** 63, -2 ** 63 - 1):
        with pytest.raises(RangeError, match=f"^f:3: id {value} outside the int64 range$"):
            _parse_int(str(value), "f", 3, "id")


def test_parse_ratings_malformed_line_number(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("1 2 50 100\nbogus line here\n")
    with pytest.raises(ParseError) as err:
        parse_ratings(path)
    assert err.value.line_no == 2


def per_line_parse_ratings(path):
    """The per-line ratings parser, as columns: the oracle of parse_ratings."""
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
            if user < 0:
                raise RangeError(f"negative user id {user}", path, line_no)
            if movie < 0:
                raise RangeError(f"negative movie id {movie}", path, line_no)
            if not 0.0 <= rating <= 100.0:
                raise RangeError(f"rating {rating} outside [0, 100]", path, line_no)
            if stamp < 0:
                raise RangeError(f"negative timestamp {stamp}", path, line_no)
            events.append(Rating(user, movie, rating, stamp))
    return as_columns(events)


def per_line(parse):
    """``parse`` with `_parse_chunks` failing, so that `read_table` reads every
    file by its per-line path."""
    def parse_lines(path):
        with mock.patch.object(corpus, "_parse_chunks", side_effect=ValueError):
            return parse(path)
    return parse_lines


def outcome(parse, path):
    """Columns, or the class, message and line number of the error raised."""
    try:
        return parse(path)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


# Tokens where np.loadtxt and int/float could disagree sit beside plain ones:
# underscores, signs, leading zeros, bare points, underflow, digits other
# than ASCII, int64 overflow, hex, and a "#" that is no comment.
TOKENS = ["0", "7", "42", "100", "50.5", "1e2", "-0", "+3", "1_0", "\u0663", " 8",
          "nan", "inf", "-1", "101", str(2 ** 70), "x", "2.5", "+5", "007", ".5", "5.",
          "1e-400", "-0.0", "\u0661\u0660", "5_0", str(2 ** 63), "0x10", "#", "5#3", "1e",
          "\x00"]
SEPARATORS = [" ", "\t", ",", "  ", " ,\t", "\x0c", "\u2028", "\x1c", "\x85", "\xa0",
              "\x0b", "\x1d", "\x1e", "\x1f", " # "]


@st.composite
def ratings_files(draw):
    """Text of a ratings file: mostly good lines, some bad tokens, separators
    and field counts, blank lines, mixed line endings."""
    good = st.builds(lambda u, m, r, t: [str(u), str(m), r, str(t)],
                     st.integers(0, 99), st.integers(0, 99),
                     st.sampled_from(["0", "12", "50.5", "100", "7.25"]),
                     st.integers(0, 2 * 10 ** 9))
    odd = st.lists(st.sampled_from(TOKENS), min_size=0, max_size=6)
    one_odd = st.builds(lambda fields, k, token: fields[:k] + [token] + fields[k + 1:],
                        good, st.integers(0, 3), st.sampled_from(TOKENS))
    lines = draw(st.lists(st.one_of(good, good, good, one_odd, odd), max_size=25))
    text = ""
    for fields in lines:
        seps = [draw(st.sampled_from(SEPARATORS[:5])) for _ in fields[1:]]
        if seps and draw(st.integers(0, 9)) == 0:   # a separator that is not a delimiter
            seps[draw(st.integers(0, len(seps) - 1))] = draw(st.sampled_from(SEPARATORS))
        line = fields[0] if fields else draw(st.sampled_from(["", " ", "\t"]))
        line += "".join(sep + field for sep, field in zip(seps, fields[1:]))
        text += line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")   # no final newline
    return text


@given(ratings_files(), st.integers(1, 80))
@example("1 2 3\n4 5 6 7 8\n", 1024)
@example("1 2 3 4\x0c5 6 7 8\n", 1024)
@example("1 2 3 4\u20285 6 7 8\n", 1024)
@example("1 2 50 4\n1 2 50 4", 1)
@example("7 1_0 50 4\n7 11 5_0 4\n", 1024)
@example("7 10 1e-400 4\n+7 007 .5 5\n", 1024)
@example("1 2 3 4\n5 6 7 8\x0b9 10 11 12\n", 1024)
@example("1 2 50 4 # a comment\n", 1024)
@example("1 2 50 4\n\x1f\xa0\n3 4 50 5\n", 1024)
@example(f"1 2 50 {2 ** 63}\n", 1024)
@example("1 2 50 4\n3 4 50 5 # c\n", 1024)
@example("1 2 50 4\n3 4 50 5#3\n", 1024)
@example(f"1 {2 ** 70} 50 4\n", 1024)
@example("1 2 50 4\n\n3 4 101 5\n", 8)
@example("1 2 50 4\n-1 2 50 4\n", 1024)
@example("1 -2 50 4\n", 1024)
@example("1 2 50 -4\n", 1024)
@settings(max_examples=200, deadline=None)
def test_parse_ratings_matches_per_line_parser(tmp_path_factory, text, chunk):
    """The chunked parser returns the per-line parser's columns or raises its
    error, whatever the chunk size."""
    path = tmp_path_factory.mktemp("parse") / "r.tsv"
    path.write_bytes(text.encode("utf-8"))
    want = outcome(per_line_parse_ratings, path)
    with mock.patch.object(corpus, "_CHUNK", chunk):
        got = outcome(parse_ratings, path)
    if isinstance(want, EventColumns):
        assert isinstance(got, EventColumns), got
        assert_same_columns(got, want)
    else:
        assert got == want


@pytest.mark.parametrize("line, chunked", [
    ("+5 007 .5 4", True), ("5 7 5. -0", True), ("5 7 1e-400 4", True),
    ("5 7 -0 4", True), ("5\xa07\x0b50\x1c4", True), ("5\x1f7\x85 50\u2028\t4", True),
    ("1_0 7 50 4", False), ("5 7 5_0 4", False), ("\u0661 7 50 4", False),
    ("5 7 \u0665 4", False), ("5 7 50 \uff14", False), ("", True), (" \x0c\xa0", True),
])
@pytest.mark.parametrize("chunk", [1, 1 << 16])   # 1: a chunk per line, blank ones too
def test_chunk_reader_reads_or_defers(tmp_path, line, chunked, chunk):
    # each line is valid for int and float (or blank): np.loadtxt reads it to
    # the per-line path's bits, or refuses it and read_table reads it line by line
    path = tmp_path / "r.tsv"
    path.write_text(f"1 2 50 3\n{line}\n", encoding="utf-8")
    want = corpus._parse_lines(path, corpus.RATINGS_FIELDS, False)
    with mock.patch.object(corpus, "_CHUNK", chunk):
        try:
            got = corpus._parse_chunks(path, corpus.RATINGS_FIELDS, False)
        except ValueError:
            got = None
        assert (got is not None) == chunked
        read = corpus.read_table(path, corpus.RATINGS_FIELDS)
    for columns in ([got] if chunked else []) + [read]:
        for ours, theirs in zip(columns, want, strict=True):
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


def test_chunk_reader_defers_on_a_deprecation_warning(tmp_path):
    # older numpy reads "2.5" into an int column as 2, with only a
    # DeprecationWarning: the warning must send the file line by line
    path = tmp_path / "r.tsv"
    path.write_text("2.5 7 50 4\n")
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return loadtxt(io.StringIO("2 7 50 4\n"), **kwargs)

    with mock.patch.object(np, "loadtxt", warning_loadtxt):
        with pytest.raises(ParseError, match=":1: bad user id '2.5'"):
            parse_ratings(path)


@pytest.mark.parametrize("text, message", [
    ("1 2 50 100\n3 4 50\n5 6 50 100 9\n", ":2: expected 4 fields, got 3"),
    ("1 2 50 100\n5 6 50 100 9\n3 4 50\n", ":2: expected 4 fields, got 5"),
    ("1 2 3 4\x0c5 6 7 8\n", ":1: expected 4 fields, got 8"),
])
def test_parse_ratings_counts_fields_per_line(tmp_path, text, message):
    """Lines whose field counts sum to a multiple of 4 still fail, at their line."""
    path = tmp_path / "r.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        parse_ratings(path)


def test_parse_ratings_memory_is_chunked(tmp_path):
    """Parsing holds the columns and one chunk of text at a time, not one
    parsed record per line: its peak is at most half that of the line-by-line
    path it falls back to."""
    path = tmp_path / "r.txt"
    path.write_text("".join(f"{k % 500}\t{k // 500}\t{k % 101}\t{10 ** 9 + k}\n"
                            for k in range(20_000)))
    peaks = []
    for parse in (parse_ratings, per_line(parse_ratings)):
        gc.collect()
        tracemalloc.start()
        try:
            with mock.patch.object(corpus, "_CHUNK", 1 << 12):
                assert len(parse(path).user) == 20_000
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 0.5 * peaks[1], peaks


def test_parse_households_basic(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("3 10 11\n")
    assert parse_households(path) == {3: Household(3, (10, 11))}


def test_parse_households_user_in_two_households(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("0 1 2\n5 3 2 1\n")
    with pytest.raises(DuplicateError) as raised:
        parse_households(path)
    assert str(raised.value) == f"{path}: user 2 in two households"


def test_parse_households_too_small(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("3 10\n")
    with pytest.raises(StructureError):
        parse_households(path)


def test_parse_households_empty_file(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("\n\n")
    with pytest.raises(StructureError, match=re.escape(f"{path}: no households")):
        parse_households(path)


def test_parse_households_duplicate(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("3 10 11\n3 12 13\n")
    with pytest.raises(DuplicateError):
        parse_households(path)


def test_parse_test_events_optional_truth(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("1 5 60 900\n1 6 70 901 10\n")
    events = parse_test_events(path, Households({1: Household(1, (10, 11))}))
    assert events.true_user.tolist() == [-1, 10]
    assert [ev.true_user for ev in events] == [None, 10]


@pytest.mark.parametrize("line, message", [
    ("0 0 101 0", "rating 101.0 outside [0, 100]"),
    ("0 0 50 -5", "negative timestamp -5"),
    ("-3 0 50 0", "negative user id -3"),
    ("0 -2 50 0", "negative movie id -2"),
    ("-3 0 101 -5", "negative user id -3"),   # the first bad field in line order
])
def test_parse_ratings_checks_each_line(tmp_path, line, message):
    path = tmp_path / "r.txt"
    path.write_text(f"1 2 50 100\n{line}\n")
    with pytest.raises(RangeError) as raised:
        parse_ratings(path)
    assert str(raised.value) == f"{path}:2: {message}"


def test_parse_test_events_true_user_outside_household(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("0 1 60 900 10\n0 1 60 901 12\n7 1 60 902 12\n")
    households = Households({0: Household(0, (10, 11))})
    with pytest.raises(ValueError) as raised:
        parse_test_events(path, households)
    assert str(raised.value) == f"{path}:2: true_user 12 not in household 0"
    path.write_text("0 1 60 900 10\n7 1 60 902 12\n")   # household 7 is checked later
    assert [ev.true_user for ev in parse_test_events(path, households)] == [10, 12]


@pytest.mark.parametrize("line, message", [
    ("0 0 50 -5 1", "negative timestamp -5"),
    ("-1 0 50 0", "negative household id -1"),
])
def test_parse_test_events_checks_each_line(tmp_path, line, message):
    path = tmp_path / "t.txt"
    path.write_text(f"0 1 60 900\n{line}\n")
    with pytest.raises(RangeError) as raised:
        parse_test_events(path, Households({}))
    assert str(raised.value) == f"{path}:2: {message}"


TEST_HOUSEHOLDS = Households({0: Household(0, (10, 11)), 3: Household(3, (12, 13, 14))})
# (field, bad tokens): each token makes a line fail whatever the file
BAD_TOKENS = [(0, ["x", "1.5", "-1", str(2 ** 70)]), (1, ["x", "-2", str(2 ** 64)]),
              (2, ["x", "101", "-0.5", "nan", "inf"]), (3, ["x", "2.5", "-4"])]


@st.composite
def event_files(draw):
    """Text of a valid test file, one delimiter and one width (4 or 5 fields)
    per file unless ``mixed``, with blank lines; optionally one corrupt line.
    Returns (text, mixed, line number of the corrupt line or None)."""
    sep = draw(st.sampled_from(["\t", ",", " "]))
    width, mixed = draw(st.sampled_from([4, 5])), draw(st.integers(0, 4)) == 0
    lines = []
    for _ in range(draw(st.integers(0, 20))):
        hid = draw(st.sampled_from([0, 3, 5]))   # household 5 is not in the map
        fields = [str(hid), str(draw(st.integers(0, 10 ** 6))),
                  draw(st.sampled_from(["0", "12", "50.5", "100", "7.25", "1e1"])),
                  str(draw(st.integers(0, 2 ** 40)))]
        if (draw(st.sampled_from([4, 5])) if mixed else width) == 5:
            members = TEST_HOUSEHOLDS[hid].members if hid in TEST_HOUSEHOLDS else (99,)
            fields.append(str(draw(st.sampled_from(members))))
        lines.append(fields)
    bad = None
    if lines and draw(st.booleans()):
        bad = draw(st.integers(0, len(lines) - 1))
        fields = lines[bad]
        kind = draw(st.sampled_from(["token", "count", "truth"]))
        if kind == "token":
            truth = [(4, ["x", "-3"])] if len(fields) == 5 else []
            k, tokens = draw(st.sampled_from(BAD_TOKENS + truth))
            fields[k] = draw(st.sampled_from(tokens))
        elif kind == "count":
            lines[bad] = fields[:3] if draw(st.booleans()) else [*fields[:4], "1", "2"]
        else:   # a member of household 3 on a line of household 0
            lines[bad] = ["0", *fields[1:4], "13"]
    text, line_no, bad_line_no = "", 0, None
    for k, fields in enumerate(lines):
        while draw(st.integers(0, 5)) == 0:   # blank lines
            text += draw(st.sampled_from(["\n", " \n"]))
            line_no += 1
        line_no += 1
        bad_line_no = line_no if k == bad else bad_line_no
        text += sep.join(fields) + draw(st.sampled_from(["\n", "\r\n"]))
    return text, mixed, bad_line_no


@given(event_files(), st.integers(1, 80))
@example(("0\t1\t50\t9\t10\n3\t2\t50\t9\n", True, None), 1024)
@example(("0,1,50,9,12\n", False, 1), 1024)
@example(("5 1 50 9 99\n0 1 50 9 10\n", False, None), 4)
@settings(max_examples=200, deadline=None)
def test_parse_test_events_matches_per_line_parser(tmp_path_factory, case, chunk):
    """The chunked test-file parse returns the per-line parser's columns, and
    on a corrupt line raises the per-line error: class, message and line."""
    text, mixed, bad_line_no = case
    path = tmp_path_factory.mktemp("parse") / "t.tsv"
    path.write_bytes(text.encode("utf-8"))
    parse = functools.partial(parse_test_events, households=TEST_HOUSEHOLDS)
    want = outcome(per_line(parse), path)
    with mock.patch.object(corpus, "_CHUNK", chunk):
        got = outcome(parse, path)
        chunked = outcome(
            lambda p: TestColumns(*corpus._parse_chunks(p, corpus.TEST_FIELDS, False)), path)
    if bad_line_no is None:
        assert isinstance(want, TestColumns), want
        assert_same_columns(got, want)
        if not mixed or isinstance(chunked, TestColumns):
            # a chunk that mixes widths is left to the per-line parser
            assert_same_columns(chunked, want)
    else:
        assert want[2] == bad_line_no and str(path) in want[1]
        assert got == want
        if "not in household" not in want[1]:   # checked after the chunk reader
            assert not isinstance(chunked, TestColumns)


DUMP_TOKENS = ["x", "-1", "1.5", "nan", "inf", str(2 ** 70), "2.5", "1_0", "+3", "1e0",
               "household", "007", ".5", "5.", "1e-400", "-0", "\u0663", str(2 ** 63), "0x10",
               "#", "1\xa02", "1\x0b2", "1\u20282"]


@st.composite
def dump_files(draw):
    """(fields, text) of a prediction or posterior dump: a header or none, one
    delimiter, blank lines and CRLF endings, some bad tokens and widths."""
    fields = draw(st.sampled_from([cli._PREDICTION_FIELDS, cli._POSTERIOR_FIELDS]))
    sep = draw(st.sampled_from(["\t", ",", " "]))
    good = st.lists(st.integers(0, 10 ** 6).map(str), min_size=4, max_size=4)
    if fields is cli._POSTERIOR_FIELDS:
        good = st.builds(lambda ints, value: [*ints, value], good,
                         st.sampled_from(["0.0", "1.0", "0.5", "0.25", "1e-3", "-0.0",
                                          repr(1 / 3)]))
    one_bad = st.builds(lambda row, k, token: row[:k] + [token] + row[k + 1:],
                        good, st.integers(0, len(fields) - 1), st.sampled_from(DUMP_TOKENS))
    width = st.builds(lambda row, n: (row * 2)[:n], good, st.integers(1, 7))
    rows = draw(st.lists(good, max_size=15))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):   # bad rows
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.one_of(one_bad, width))
    if draw(st.booleans()):   # household movie timestamp predicted|member [posterior]
        rows.insert(0, [field.name.split()[0] for field in fields])
    text = ""
    for row in rows:
        while draw(st.integers(0, 5)) == 0:   # blank lines
            text += draw(st.sampled_from(["\n", " \n", "\r\n"]))
        text += sep.join(row) + draw(st.sampled_from(["\n", "\r\n"]))
    return fields, text


@given(dump_files(), st.integers(1, 80))
@example((cli._PREDICTION_FIELDS, "\nhousehold\tmovie\n1\t2\t3\t4\n"), 1)
@example((cli._PREDICTION_FIELDS, "1\t2\t3\t4\nhousehold\tmovie\n"), 80)
@example((cli._POSTERIOR_FIELDS, "1,2,3,4,nan\n"), 80)
@example((cli._POSTERIOR_FIELDS, "1 2 3 4 1.5\n"), 80)
@example((cli._POSTERIOR_FIELDS, "1 2 3 -4 0.5\n"), 80)
@settings(max_examples=200, deadline=None)
def test_read_dump_matches_per_line_parser(tmp_path_factory, case, chunk):
    """`read_table` on a prediction or posterior dump returns the per-line
    path's columns or raises its error (class, message and line), whatever
    the chunk size."""
    fields, text = case
    path = tmp_path_factory.mktemp("dump") / "d.tsv"
    path.write_bytes(text.encode("utf-8"))
    read = functools.partial(corpus.read_table, fields=fields, header=True)
    want = outcome(per_line(read), path)
    with mock.patch.object(corpus, "_CHUNK", chunk):
        got = outcome(read, path)
    if isinstance(want, list):
        assert isinstance(got, list), got
        for ours, theirs in zip(got, want, strict=True):
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
    else:
        assert got == want
        assert want[0] in (ParseError, RangeError) and f"{path}:{want[2]}: " in want[1]


def test_event_columns_are_not_iterable(small_dataset):
    with pytest.raises(TypeError):
        list(small_dataset.train)


def test_event_invariants():
    with pytest.raises(StructureError):
        Household(0, (1,))
    with pytest.raises(ValueError):
        Household(0, (1, 1))
    with pytest.raises(RangeError, match="household 0: negative member id -1"):
        Household(0, (-1, 1))   # -1 pads Households.table


def test_dataset_invariants():
    with pytest.raises(DuplicateError):
        make_dataset(as_columns([event(0, 0), event(0, 0, day=1)]), {0: Household(0, (0, 1))})
    with pytest.raises(DuplicateError):
        make_dataset(as_columns([event(0, 0)]), {0: Household(0, (0, 1)),
                                                 1: Household(1, (1, 2))})
    with pytest.raises(ValueError):
        make_dataset(as_columns([event(0, 0)]), {0: Household(0, (0, 1))},
                     as_test_columns([TestEvent(0, 0, 50.0, DAY0, true_user=9)]))


@pytest.mark.parametrize("test, message", [
    ([(0, 0), (7, None), (0, 9)], "test event for unknown household 7"),
    ([(0, 1), (0, 9), (7, None)], "true_user 9 not in household 0"),
    ([(0, None), (7, 9), (0, 9)], "test event for unknown household 7"),
])
def test_dataset_names_first_bad_test_event(test, message):
    events = as_test_columns(TestEvent(hid, k, 50.0, DAY0, truth)
                             for k, (hid, truth) in enumerate(test))
    with pytest.raises(ValueError, match=f"^{message}$"):
        Dataset(as_columns([event(0, 0)]), Households({0: Household(0, (0, 1))}), events,
                user_count=10, movie_count=5)


@pytest.mark.parametrize("train, error, message", [
    # a repeated pair before an event beyond movie_count 5, and after it
    ([event(0, 0), event(0, 0, day=1), event(1, 7)], DuplicateError,
     r"duplicate train pair \(0, 0\)"),
    ([event(1, 7), event(0, 0), event(0, 0, day=1)], ValueError,
     r"event \(1, 7, 50.0, \d+\) exceeds declared dimensions"),
    # the repeat comes after the over-dimension event, its first copy before
    ([event(0, 0), event(1, 7), event(0, 0, day=1)], ValueError,
     r"event \(1, 7, 50.0, \d+\) exceeds"),
    # movie 5 of user 0 would share the key 0 * 5 + 5 of movie 0 of user 1
    ([event(1, 0), event(0, 5)], ValueError,
     r"event \(0, 5, 50.0, \d+\) exceeds"),
    # user 2 is beyond user_count 2 on its first event already
    ([event(0, 1), event(2, 3), event(2, 3, day=1)], ValueError,
     r"event \(2, 3, 50.0, \d+\) exceeds"),
])
def test_dataset_names_first_offending_event(train, error, message):
    with pytest.raises(error, match=message) as raised:
        Dataset(as_columns(train), Households({0: Household(0, (0, 1))}), (), user_count=2,
                movie_count=5)
    assert isinstance(raised.value, DuplicateError) == (error is DuplicateError)


# ---------------------------------------------------------------------------
# Households
# ---------------------------------------------------------------------------

@st.composite
def household_maps(draw, min_size=1):
    """A map household id -> 2-4 member ids, no member in two households."""
    sizes = draw(st.dictionaries(st.integers(0, 10 ** 6), st.integers(2, 4),
                                 min_size=min_size, max_size=20))
    total = sum(sizes.values())
    users = iter(draw(st.lists(st.integers(0, 10 ** 6), min_size=total, max_size=total,
                               unique=True)))
    return {hid: [next(users) for _ in range(size)] for hid, size in sizes.items()}


def test_households_reject_a_key_that_is_not_the_id():
    with pytest.raises(ValueError, match=r"^household map key 1 != id 2$"):
        Households({0: Household(0, (0, 1)), 1: Household(2, (2, 3))})


def test_households_reject_user_in_two_households():
    # the first repeat in map order, then file order, is named: user 2, not 1
    with pytest.raises(DuplicateError, match="^user 2 in two households$"):
        Households({0: Household(0, (0, 1, 2)), 5: Household(5, (3, 2, 1))})


def test_households_layout_is_read_only(small_dataset):
    households = small_dataset.households
    for array in (households.table, households.ids):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7
    assert households.table.tolist() == [[0, 1], [2, 3]]
    assert households.ids.tolist() == [0, 1]


def test_cv_split_keeps_the_parent_households(small_dataset):
    split = cv_split(small_dataset, 0.3, seed=4)
    assert split.households is small_dataset.households
    assert cv_split(split, 0.5, seed=5).households is small_dataset.households


@given(st.data(), household_maps(min_size=0))
@settings(max_examples=60, deadline=None)
def test_households_layout_matches_dict_lookups(data, members):
    """ids, table, rows, slots and user_rows against dict lookups, with
    unknown ids, user -1 and users beyond every member among the queries."""
    households = Households({hid: Household(hid, tuple(ids)) for hid, ids in members.items()})
    row_of = {hid: row for row, hid in enumerate(members)}
    owner = {user: row_of[hid] for hid, ids in members.items() for user in ids}
    width = max(map(len, members.values()), default=0)
    slot_of = {user: row_of[hid] * width + k
               for hid, ids in members.items() for k, user in enumerate(ids)}
    assert households.ids.tolist() == list(members)
    assert households.table.tolist() == [ids + [-1] * (width - len(ids))
                                         for ids in members.values()]
    known = st.sampled_from(list(members)) if members else st.nothing()
    ids = data.draw(st.lists(known | st.integers(0, 2 * 10 ** 6), max_size=20))
    assert households.rows(ids).tolist() == [row_of.get(hid, -1) for hid in ids]
    known = st.sampled_from([*owner, -1])
    users = data.draw(st.lists(known | st.integers(0, 2 * 10 ** 6), max_size=20))
    assert households.user_rows(np.array(users, dtype=np.intp)).tolist() == [
        owner.get(user, -1) for user in users]
    assert households.slots(np.array(users, dtype=np.intp)).tolist() == [
        slot_of.get(user, -1) for user in users]


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

def test_write_parse_round_trip(tmp_path, small_dataset):
    paths = write_dataset(small_dataset, tmp_path)
    again = load_dataset(*paths)
    assert_same_columns(again.train, small_dataset.train)
    assert again.households == small_dataset.households
    assert_same_columns(again.test, small_dataset.test)


@given(st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 30),
              st.floats(0, 100, allow_nan=False),
              st.integers(0, 10 ** 9)),
    max_size=30, unique_by=lambda t: (t[0], t[1]),
))
@settings(max_examples=40, deadline=None)
def test_round_trip_arbitrary_ratings(tmp_path_factory, rows):
    columns = as_columns(Rating(*row) for row in rows)
    path = tmp_path_factory.mktemp("rt") / "r.tsv"
    write_ratings(columns, path)
    assert_same_columns(parse_ratings(path), columns)


def _reparsed(parse, write, directory, text):
    """parse(text) and parse(write(parse(text))), from files in directory."""
    first = directory / "first.txt"
    first.write_text(text)
    parsed = parse(first)
    write(parsed, directory / "second.txt")
    return parsed, parse(directory / "second.txt")


DELIMITERS = st.sampled_from(["\t", ",", " ", "  "])


@given(household_maps(), DELIMITERS)
@settings(max_examples=40, deadline=None)
def test_round_trip_arbitrary_households(tmp_path_factory, members, sep):
    text = "".join(sep.join(map(str, (hid, *ids))) + "\n" for hid, ids in members.items())
    parsed, again = _reparsed(parse_households, write_households,
                              tmp_path_factory.mktemp("rt"), text)
    assert parsed == {hid: Household(hid, tuple(ids)) for hid, ids in members.items()}
    assert again == parsed
    assert list(again) == list(members)


@given(st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 30),
              st.floats(0, 100, allow_nan=False), st.integers(0, 10 ** 9),
              st.none() | st.integers(0, 10 ** 6)),
    max_size=30,
), DELIMITERS)
@example(rows=[(1, 2, 50.0, 7, None), (3, 4, 0.5, 9, None)], sep="\t")
@example(rows=[(1, 2, 50.0, 7, 11), (0, 0, 0.0, 0, 0), (3, 4, 100.0, 9, None)], sep=",")
@settings(max_examples=40, deadline=None)
def test_round_trip_arbitrary_test_events(tmp_path_factory, rows, sep):
    text = "".join(sep.join(repr(f) for f in row if f is not None) + "\n" for row in rows)
    parsed, again = _reparsed(lambda path: parse_test_events(path, Households({})), write_test_events,
                              tmp_path_factory.mktemp("rt"), text)
    assert list(parsed) == [TestEvent(*row) for row in rows]
    assert_same_columns(again, parsed)


# ---------------------------------------------------------------------------
# Time helpers
# ---------------------------------------------------------------------------

def test_weekday_known_values():
    stamps = [0, 345_600, DAY0]
    # 1970-01-01 was a Thursday; four days later a Monday; 2010-01-03 a Sunday
    assert [weekday_of(t) for t in stamps] == [4, 1, 0]
    assert weekday_column(np.array(stamps)).tolist() == [4, 1, 0]


@given(st.integers(0, 2 ** 33), st.integers(0, 50))
def test_weekday_weekly_periodicity(stamp, weeks):
    assert weekday_of(stamp) == weekday_of(stamp + weeks * 7 * 86_400)
    assert (weekday_column([stamp, stamp + weeks * 7 * 86_400]) == weekday_of(stamp)).all()


def test_weekday_against_civil_calendar():
    rng = np.random.default_rng(42)
    stamps = rng.integers(0, 2_000_000_000, size=1000)
    civil = [(datetime.datetime.fromtimestamp(int(stamp), tz=datetime.timezone.utc)
              .weekday() + 1) % 7 for stamp in stamps]
    assert [weekday_of(int(stamp)) for stamp in stamps] == civil
    assert weekday_column(stamps).tolist() == civil


def test_bin_of_edges():
    # the right edge belongs to the last bin; outside the range, the nearest bin
    binning = Binning(12, 0, 1200)
    stamps = [0, 1200, 650, -50, 10_000]   # 650: 1 + floor(12 * 650 / 1200)
    assert [bin_of(t, binning) for t in stamps] == [1, 12, 7, 1, 12]
    assert bin_column(np.array(stamps), binning).tolist() == [0, 11, 6, 0, 11]


@given(st.integers(1, 20), st.integers(0, 10 ** 6), st.integers(1, 10 ** 6),
       st.data())
@settings(max_examples=60)
def test_bin_of_monotone(bins, origin, span, data):
    binning = Binning(bins, origin, span)
    a = data.draw(st.integers(origin - span, origin + 2 * span))
    b = data.draw(st.integers(origin - span, origin + 2 * span))
    if a > b:
        a, b = b, a
    assert bin_of(a, binning) <= bin_of(b, binning)
    low, high = bin_column(np.array([a, b]), binning).tolist()
    assert low <= high


def test_bin_of_surjective_when_covered():
    binning = Binning(7, 0, 700)
    hit = bin_column(np.arange(0, 701), binning)
    assert set(hit.tolist()) == set(range(7))
    assert hit.tolist() == [bin_of(t, binning) - 1 for t in range(0, 701)]


@given(st.sampled_from(["span", "weekday"]), st.integers(1, 20),
       st.integers(0, 10 ** 9), st.integers(1, 10 ** 8),
       st.lists(st.integers(-2 * 10 ** 8, 2 * 10 ** 8), max_size=40))
@example("span", 1, 100, 50, [25])
@example("weekday", 1, DAY0, 1, [86_399, 86_400, -1])
@settings(max_examples=100)
def test_bin_column_matches_bin_of(kind, bins, origin, span, offsets):
    if kind == "weekday":
        binning = Binning(7, 0, 7 * 86_400, kind="weekday")
    else:
        binning = Binning(bins, origin, span)
    # the left and right edges, one second outside each, then arbitrary stamps
    stamps = [origin, origin + span, origin - 1, origin + span + 1,
              *(origin + d for d in offsets)]
    expected = [bin_of(t, binning) - 1 for t in stamps]
    assert bin_column(np.array(stamps, dtype=np.int64), binning).tolist() == expected


def test_weekday_binning():
    binning = Binning(7, 0, 1, kind="weekday")
    assert bin_column(np.array([DAY0, DAY0 + 86_400]), binning).tolist() == [0, 1]
    with pytest.raises(ValueError):
        Binning(12, 0, 1, kind="weekday")


def test_derive_binning_covers_events(small_dataset):
    binning = derive_binning(small_dataset.train, 5)
    stamps = small_dataset.train.stamp
    assert stamps.min() == binning.origin and stamps.max() == binning.origin + binning.span
    assert set(bin_column(stamps, binning).tolist()) <= set(range(5))


# ---------------------------------------------------------------------------
# Cross-validation split
# ---------------------------------------------------------------------------

def test_cv_split_partition(small_dataset):
    split = cv_split(small_dataset, 0.3, seed=5)
    moved_back = [Rating(ev.true_user, ev.movie, ev.rating, ev.timestamp)
                  for ev in split.test]
    kept = rating_events(split.train)
    assert sorted(kept + moved_back, key=lambda e: (e.user, e.movie)) == sorted(
        rating_events(small_dataset.train), key=lambda e: (e.user, e.movie))
    assert not set(kept) & set(moved_back)


def test_cv_split_deterministic(small_dataset):
    a = cv_split(small_dataset, 0.25, seed=9)
    b = cv_split(small_dataset, 0.25, seed=9)
    assert_same_columns(a.train, b.train)
    assert_same_columns(a.test, b.test)


def test_cv_split_true_user_kept(small_dataset):
    split = cv_split(small_dataset, 0.5, seed=1)
    assert len(split.test)
    for ev in split.test:
        assert ev.true_user in split.households[ev.household].members


def test_cv_split_degenerate_fraction(small_dataset):
    split = cv_split(small_dataset, 1e-12, seed=0)
    assert len(split.test) == 0
    assert_same_columns(split.train, small_dataset.train)


def test_cv_split_expected_size():
    # 1000 events of household members at 4%: mean binomial count is 40.
    events = [event(user, movie, day=movie % 7)
              for user in (0, 1) for movie in range(500)]
    dataset = make_dataset(as_columns(events), {0: Household(0, (0, 1))})
    sizes = [len(cv_split(dataset, 0.04, seed=s).test) for s in range(50)]
    assert 20 <= np.mean(sizes) <= 60


def member_of(households):
    """Each member's household id."""
    return {member: hid for hid, hh in households.items() for member in hh.members}


def _reference_cv_split(dataset, fraction, seed):
    """One rng.random() per household member's event, in train order."""
    rng = np.random.default_rng(seed)
    owner = member_of(dataset.households)
    keep, hidden = [], []
    for ev in rating_events(dataset.train):
        hid = owner.get(ev.user)
        if hid is not None and rng.random() < fraction:
            hidden.append(TestEvent(hid, ev.movie, ev.rating, ev.timestamp, ev.user))
        else:
            keep.append(ev)
    return keep, hidden


@pytest.mark.parametrize("seed", [0, 5, 101, 2 ** 40])
@pytest.mark.parametrize("fraction", [0.04, 0.3, 0.9])
def test_cv_split_matches_per_event_draws(seed, fraction):
    # users 9 and 4 belong to no household; member 3 has no events at all
    events = [event(user, movie, rating=float(movie % 90), day=movie % 7,
                    week=movie % 8, hour=user)
              for movie in range(60) for user in (9, 0, 2, 4, 1)]
    dataset = make_dataset(as_columns(events), {0: Household(0, (0, 1)),
                                    1: Household(1, (2, 3))})
    split = cv_split(dataset, fraction, seed)
    keep, hidden = _reference_cv_split(dataset, fraction, seed)
    assert_same_columns(split.train, as_columns(keep))
    assert_same_columns(split.test, as_test_columns(hidden))
    assert (split.user_count, split.movie_count) == (dataset.user_count,
                                                     dataset.movie_count)
    nested = cv_split(split, 0.5, seed + 1)   # a split of a split
    keep, hidden = _reference_cv_split(split, 0.5, seed + 1)
    assert len(nested.train) < len(split.train)
    assert_same_columns(nested.train, as_columns(keep))
    assert_same_columns(nested.test, as_test_columns(hidden))


def _per_event_hidden(dataset, fraction, seed):
    """cv_split's hidden events built one TestEvent at a time from the one
    draw over the member events, as the per-event split built them."""
    owner = member_of(dataset.households)
    member_events = [ev for ev in rating_events(dataset.train) if ev.user in owner]
    draws = np.random.default_rng(seed).random(len(member_events))
    return [TestEvent(owner[ev.user], ev.movie, ev.rating, ev.timestamp, ev.user)
            for ev, draw in zip(member_events, draws) if draw < fraction]


@pytest.mark.parametrize("scale", [1, 4])
def test_cv_split_test_columns_match_per_event_construction(scale):
    dataset = synth_generate(SynthConfig(
        households_size2=44 * scale, households_size3=4 * scale,
        households_size4=2 * scale, events_per_user=200, overlap=0.1, rank=3,
        noise_sigma=10.0, seed=20))
    for seed in (101, 102, 103):
        split = cv_split(dataset, 0.04, seed)
        hidden = _per_event_hidden(dataset, 0.04, seed)
        assert_same_columns(split.test, as_test_columns(hidden))


def test_cv_split_ignores_outsiders():
    events = [event(0, m) for m in range(10)] + [event(9, m, day=2) for m in range(10)]
    dataset = make_dataset(as_columns(events), {0: Household(0, (0, 1))})
    split = cv_split(dataset, 0.9, seed=3)
    assert set(split.train.user.tolist()) <= {0, 1, 9}
    assert (split.train.user == 9).sum() == 10


def test_cv_split_replace_revalidates(small_dataset):
    split = cv_split(small_dataset, 0.3, seed=4)
    again = dataclasses.replace(split)   # full construction, checks included
    assert_same_columns(again.train, split.train)
    assert (again.households, again.test) == (split.households, split.test)
    subset = dataclasses.replace(split, train=split.train[::2])
    assert_same_columns(subset.train, split.train[::2])
    assert subset.households is split.households
    with pytest.raises(DuplicateError):
        dataclasses.replace(split, train=split.train[np.r_[:len(split.train), 0]])


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

def test_synth_disjoint_days_gives_unit_tv():
    config = SynthConfig(households_size2=5, households_size3=2,
                         households_size4=1, events_per_user=40,
                         overlap=0.0, rank=2, noise_sigma=5.0, seed=3)
    dataset = synth_generate(config)
    rows = temporal.tv_histogram(dataset.train, dataset.households)
    assert len(rows) == len(dataset.households)
    assert all(value == 1.0 for _, value in rows)


def test_synth_full_overlap_gives_small_tv():
    config = SynthConfig(households_size2=8, households_size3=2,
                         households_size4=1, events_per_user=300,
                         overlap=1.0, rank=2, noise_sigma=5.0, seed=14)
    dataset = synth_generate(config)
    values = [value for _, value in temporal.tv_histogram(dataset.train,
                                                            dataset.households)]
    assert max(values) < 0.15


def test_synth_deterministic(tmp_path):
    config = SynthConfig(households_size2=3, events_per_user=25, seed=8)
    a = synth_generate(config)
    b = synth_generate(config)
    assert_same_columns(a.train, b.train)
    assert_same_columns(a.test, b.test)
    write_dataset(a, tmp_path / "a")
    write_dataset(b, tmp_path / "b")
    for name in ("train.tsv", "households.tsv", "test.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_respects_counts_and_truth():
    config = SynthConfig(households_size2=4, households_size3=3,
                         households_size4=2, events_per_user=20, seed=0)
    dataset = synth_generate(config)
    sizes = sorted(hh.size for hh in dataset.households.values())
    assert sizes == [2] * 4 + [3] * 3 + [4] * 2
    assert dataset.user_count == 4 * 2 + 3 * 3 + 2 * 4
    per_user = {}
    for ev in dataset.test:
        assert ev.true_user in dataset.households[ev.household].members
        per_user[ev.true_user] = per_user.get(ev.true_user, 0) + 1
    assert set(per_user.values()) == {2}  # 10% of 20 events held out each


# sha256 of write_dataset's files for the criterion-8 corpus (seed 20), as the
# per-event generator and writer wrote them before the columnar ones
CRITERION8_SHA256 = {
    "train.tsv": "13222f0602e47711a5927e430e6372114c6185962f807cda4e017145d675b0b4",
    "households.tsv": "09583ee47f485e4b2987e363e956c7b3c979f7ee4ea3ac2c207f7cf6d833fb86",
    "test.tsv": "856c45fd153bbb51efef4e6c2a380202e825feeb9a5e2c17c2e3856352e1c5bc",
}


def test_criterion8_corpus_files_are_pinned(tmp_path):
    dataset = synth_generate(SynthConfig(
        households_size2=44, households_size3=4, households_size4=2,
        events_per_user=200, overlap=0.1, rank=3, noise_sigma=10.0, seed=20))
    for path in write_dataset(dataset, tmp_path):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CRITERION8_SHA256[path.name]


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(households_size2=-1)
    with pytest.raises(ConfigError):
        SynthConfig(households_size2=0, households_size3=0, households_size4=0)
    with pytest.raises(ConfigError):
        SynthConfig(overlap=1.5)


def test_read_synth_config(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text(
        "households_size2 = 7\nevents_per_user=33\noverlap = 0.25  # mix\nseed=4\n")
    config = read_synth_config(path)
    assert config.households_size2 == 7
    assert config.events_per_user == 33
    assert config.overlap == 0.25
    assert config.seed == 4
    assert config.households_size3 == SynthConfig().households_size3


def test_read_synth_config_unknown_key(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text("volume=11\n")
    with pytest.raises(ConfigError):
        read_synth_config(path)


def test_read_synth_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        read_synth_config(tmp_path / "nope.cfg")
