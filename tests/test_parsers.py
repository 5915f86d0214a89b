"""The three text parsers on malformed input, and the scenario parser against
the one it replaced.

`parse_scenario` must agree with `oracles.parse_scenario`, the parser as it
stood before events became named tuples and sends took a fast path: the same
events field by field, or the same exception type and message. Every parser,
and `dcrsim run` on malformed topology and overlay files, must end in a
result or in one of the package's own errors, never in a traceback.
"""

import contextlib
import glob
import io
import operator
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcrsim import (ConfigError, OverlayError, ParseError, ScenarioError, ScenarioEvent,
                    all_pairs_delay, format_scenario, parse_overlay, parse_scenario,
                    parse_topology)
from dcrsim.cli import main

import oracles
import scenariogen
from conftest import example_path
from test_differential import hot_vm_scenario

PACKAGE_ERRORS = (ParseError, ConfigError, ScenarioError, OverlayError)

# Inputs at the float extremes, which every profile replays: two DCRs exactly
# the largest float apart, and a map spanning one subnormal step.
LARGEST = "1.7976931348623157e308"
TALL_TOPOLOGY = f"dcr 1 0.0 0.0\ndcr 2 0.0 {LARGEST}\n"
TINY_TOPOLOGY = "dcr 1 0 0\ndcr 2 5e-324 0\ndcr 3 0 5e-324\n"


FIELDS = operator.attrgetter(*ScenarioEvent._fields)
# Stands in for a NaN field: two NaNs never compare equal, but a NaN field
# read by both parsers is the same field.
NAN = object()


def outcome(parse, text):
    """What parse makes of text: each event's repr and fields, or the type and
    message of what it raised."""
    try:
        events = parse(text)
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return type(e), str(e)
    return [(repr(ev), tuple(NAN if v != v else v for v in FIELDS(ev))) for ev in events]


def assert_parsers_agree(text):
    mine = outcome(parse_scenario, text)
    assert mine == outcome(oracles.parse_scenario, text), text
    return mine


def test_examples_parse_as_before():
    paths = sorted(glob.glob(example_path("*.scn")))
    assert len(paths) == 4
    for path in paths:
        with open(path, encoding="utf-8") as f:
            assert_parsers_agree(f.read())


def test_golden_and_corpus_scenarios_parse_as_before():
    assert_parsers_agree(format_scenario(hot_vm_scenario()[2]))
    for seed in range(200):
        assert_parsers_agree(format_scenario(scenariogen.generate(seed).events))


# Line soup: tokens of every kind joined by runs of whitespace, Unicode
# whitespace among them. Mostly plain spaces; \x1c, \x85 and \u2028 are
# whitespace within a line, where str.splitlines() would break it, and \u200b
# is not whitespace.
_WS = st.one_of(*[st.just(" ")] * 3, st.sampled_from([
    "  ", "\t", "\u00a0", "\u2003", "\u3000", "\x1c", "\x1f", "\x85", "\u2028", "\v", "\f",
    "\u200b"]))
_NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 6).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e400", "-1e400", "-0", "-0.0", "1e-400",
                     "1_0", "0x1", "1e", ".5", "5.", "\u0661\u0662", "+3", "1,5", "--1"]))
_NAMES = st.sampled_from(["u1", "u2", "vm1", "vm2", "s1", "a,b", ",", "\u00fc", "x#", "#"])
_MODES = st.sampled_from(["unicast", "anycast-migrate", "anycast-replicate", "broadcast"])
_WORDS = st.sampled_from(["send", "user", "create", "migrate", "replicate", "destroy",
                          "session", "sess", "teleport", "dcr", "root", "edge"])
_TOKENS = st.one_of(_NUMBERS, _NAMES, _MODES, _WORDS, st.text(max_size=3))


@st.composite
def _line(draw, heads, args, max_args):
    """A head, then up to max_args args, joined by whitespace runs, with
    optional padding at both ends."""
    tokens = [*draw(heads), *draw(st.lists(args, max_size=max_args))]
    line = draw(st.sampled_from(["", draw(_WS)]))
    for tok in tokens:
        line += tok + draw(_WS)
    return line if draw(st.booleans()) else line.rstrip(" ")


def _fields(*fields):
    """One line of the given fields, now and then with a stray token after
    them."""
    stray = st.one_of(*[st.just(())] * 7, st.tuples(_TOKENS))
    return _line(st.builds(operator.add, st.tuples(*fields), stray), st.nothing(), 0)


def _text(*lines):
    """Up to 8 lines, mostly drawn from lines, with comments, blank lines and
    free token soup among them."""
    line = st.one_of(*lines * 3, _line(st.just(()), _TOKENS, 7),
                     st.text(max_size=8).map("#".__add__), st.just(""))
    return st.tuples(st.lists(line, max_size=8), _NEWLINES).map(lambda t: t[1].join(t[0]))


_TIMES = st.one_of(st.integers(0, 9).map(str), st.floats(0.0, 1e3).map(repr), _NUMBERS)
# Mostly well-formed values, so that more lines get past the number checks.
_IDS = st.one_of(*[st.integers(0, 5).map(str)] * 3, _NUMBERS)
_COORDS = st.one_of(*[st.floats(-1e3, 1e3).map(repr)] * 3, _NUMBERS,
                    st.sampled_from(["1e308", "-1e308", "1.7976931348623157e308"]))
_SCENARIO_TEXT = _text(
    _fields(_TIMES, st.just("send"), _NAMES, _NAMES),
    _fields(_TIMES, st.just("send"), _NAMES, _NAMES, st.sampled_from(["session", "sess"]),
            _NAMES),
    _fields(_TIMES, st.just("user"), _NAMES, _COORDS, _COORDS),
    _fields(_TIMES, st.just("create"), _NAMES, _IDS, _MODES),
    _fields(_TIMES, st.sampled_from(["migrate", "destroy"]), _NAMES, _IDS),
    _fields(_TIMES, st.just("replicate"), _NAMES, _IDS, _IDS),
    _line(st.tuples(_TIMES, _WORDS), st.one_of(_NAMES, _NUMBERS, _MODES), 5))


# Where str.splitlines() breaks a line and the input formats do not.
_NOT_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("char", _NOT_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
@pytest.mark.parametrize("newline", ("\n", "\r\n", "\r"), ids=("LF", "CRLF", "CR"))
def test_lines_break_only_at_newlines(char, newline):
    # The character sits inside a comment on line 1; the bad line is line 3.
    def text(good):
        return newline.join([f"# a comment{char}with a break", good, "bad line", ""])

    scenario = text("0 user u 1 1")
    with pytest.raises(ParseError, match="^line 3: bad time 'bad'$"):
        parse_scenario(scenario)
    assert_parsers_agree(scenario)
    with pytest.raises(ParseError, match="^line 3: expected `dcr <id> <x> <y>`, got 'bad line'$"):
        parse_topology(text("dcr 1 0 0"))
    with pytest.raises(ParseError, match="^line 3: expected root or edge line, got 'bad line'$"):
        parse_overlay(text("root 1"))


@settings(max_examples=200)
@given(_SCENARIO_TEXT)
@example(f"0 user u1 {LARGEST} -{LARGEST}\n0 create vm1 1 anycast-migrate\n1 send u1 vm1\n")
@example("5e-324 user u1 5e-324 -5e-324\n5e-324 send u1 vm1 session s1\n")
def test_line_soup_parses_as_before_or_fails_with_a_package_error(text):
    mine = assert_parsers_agree(text)
    assert isinstance(mine, list) or issubclass(mine[0], PACKAGE_ERRORS), mine


@settings(max_examples=200)
@given(st.lists(st.tuples(
    st.sampled_from(["0", "1.5", "-1", "nan", "x"]),
    st.sampled_from(["u1", "a,b"]), st.sampled_from(["vm1", "v,m"]),
    st.sampled_from([[], ["session", "s1"], ["session", "s,1"], ["sess", "s1"], ["session"],
                     ["session", "s1", "s2"], ["s1", "session"]])), max_size=6))
def test_session_misuse_parses_as_before(sends):
    assert_parsers_agree("\n".join(" ".join([t, "send", u, vm, *tail])
                                   for t, u, vm, tail in sends))


_TOPOLOGY_TEXT = st.one_of(
    _text(_fields(st.just("dcr"), _IDS, _COORDS, _COORDS),
          _line(st.tuples(_WORDS), st.one_of(_IDS, _COORDS), 4)),
    # Ids 1..N in order, so that more of them get past the id checks.
    st.lists(st.tuples(_COORDS, _COORDS), max_size=6).map(
        lambda rows: "".join(f"dcr {i} {x} {y}\n" for i, (x, y) in enumerate(rows, 1))))
_COSTS = st.one_of(*[st.floats(1e-3, 30.0).map(repr)] * 3, _NUMBERS,
                   st.sampled_from(["5e-324", "1e-300", "1e308"]))
_EDGES = _fields(st.just("edge"), _IDS, _IDS, _COSTS)
_OVERLAY_TEXT = st.one_of(
    _text(_fields(st.just("root"), _IDS), _EDGES,
          _line(st.tuples(_WORDS), st.one_of(_IDS, _COSTS), 4)),
    # One root line first, so that more of them get past the root checks.
    st.tuples(_fields(st.just("root"), _IDS), _text(_EDGES)).map("\n".join),
    # Only well-formed lines, so that more of them get past the parser.
    st.tuples(st.integers(0, 5), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                                    _COSTS), max_size=8)).map(
        lambda t: f"root {t[0]}\n" + "".join(f"edge {a} {b} {c}\n" for a, b, c in t[1])))


@settings(max_examples=200)
@given(_TOPOLOGY_TEXT)
@example(TALL_TOPOLOGY)
@example(TINY_TOPOLOGY)
def test_parse_topology_returns_a_topology_or_raises_a_package_error(text):
    try:
        parse_topology(text)
    except PACKAGE_ERRORS:
        pass


@settings(max_examples=200)
@given(_OVERLAY_TEXT)
@example(f"root 1\nedge 1 2 {LARGEST}\n")
@example("root 1\nedge 1 2 5e-324\nedge 2 3 5e-324\n")
def test_parse_overlay_and_its_delays_end_in_a_result_or_a_package_error(text):
    try:
        all_pairs_delay(parse_overlay(text))
    except PACKAGE_ERRORS:
        pass


def run_files(topology, scenario, overlay=None):
    """`dcrsim run` on the given file texts: its exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        args = ["run"]
        for name, text in (("t.top", topology), ("s.scn", scenario)):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            args.append(path)
        if overlay is not None:
            args += ["--overlay", os.path.join(tmp, "o.ovl")]
            with open(args[-1], "w", encoding="utf-8") as f:
                f.write(overlay)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
    return code, err.getvalue()


with open(example_path("migration.scn"), encoding="utf-8") as _f:
    MIGRATION = _f.read()


@settings(max_examples=150, deadline=None)
@given(_TOPOLOGY_TEXT, st.one_of(st.none(), _OVERLAY_TEXT))
@example(TALL_TOPOLOGY, None)
@example(TINY_TOPOLOGY, None)
@example(TINY_TOPOLOGY, "root 1\nedge 1 2 5e-324\nedge 1 3 5e-324\n")
def test_run_on_malformed_topology_and_overlay_files_exits_0_or_2(topology, overlay):
    code, err = run_files(topology, MIGRATION, overlay)
    assert code in (0, 2)
    assert (err == "") == (code == 0) and "Traceback" not in err
    if code == 2:
        assert err.startswith("error: "), err


# The square's links at the costs that `build-overlay` writes, and its two
# diagonals, so that some overlays agree with the map and run.
_SQUARE_EDGES = st.sampled_from(["edge 1 2 10.000000", "edge 1 3 14.142136",
                                 "edge 1 4 10.000000", "edge 2 3 10.000000",
                                 "edge 3 4 10.000000", "edge 2 4 14.142136"])


_SQUARE_OVERLAY = st.tuples(
    st.one_of(st.sampled_from(["root 1", "root 2", "root 3", "root 4"]),
              _fields(st.just("root"), _IDS)),
    st.lists(_SQUARE_EDGES, min_size=3, unique=True),
    st.lists(st.one_of(_EDGES, _line(st.just(()), _TOKENS, 7)), max_size=2),
).flatmap(lambda t: st.permutations([t[0], *t[1], *t[2]])).map("\n".join)


@settings(max_examples=150, deadline=None)
@given(_SQUARE_OVERLAY)
def test_run_on_the_square_with_a_malformed_overlay_exits_0_or_2(overlay):
    with open(example_path("square.top"), encoding="utf-8") as f:
        code, err = run_files(f.read(), MIGRATION, overlay)
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: "), err
