"""The report emitter ``cli._encode`` against the standard library.

Reports are written by ``cli._encode``, an indent-2 emitter over
``json.encoder.encode_basestring_ascii``.  It must give the bytes of
``json.dumps(payload, indent=2, sort_keys=True, default=str)`` on every
payload a report holds: a hypothesis fuzz over nested values, every
subcommand once in process, and planted mutants of the emitter, each of
which the comparison must catch.  A float or a non-str key is refused.

``cli._emit`` writes a report under --json DIR in place, cut to length:
the file ends with exactly the report's bytes whatever it held before, a
link to the null device is written and never cut, and planted mutants of
the write are caught.
"""

import argparse
import inspect
import json
import os
import stat
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from iwahori import cli
from iwahori.cli import _encode, main


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True, default=str)


# quotes, backslashes, control characters, non-ASCII, astral and a lone surrogate
SPECIAL = ['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f", " ",
           "a", "Z", "0", "é", "Ω", " ", "\U0001f600", "\ud800"]
texts = st.text(st.sampled_from(SPECIAL), max_size=6) | st.text(max_size=6)
leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2, 2) | texts
          | st.fractions(max_denominator=50))
values = st.recursive(
    leaves,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(texts, kids, max_size=4)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(values)
def test_the_emitter_gives_the_bytes_of_json_dumps(value):
    assert _encode(value) == dumps(value)


# a report-shaped payload: nested, empty containers, keys out of order, a
# Fraction through str, and strings that need escapes
FIXED = [
    {"zeta": [1, -2, (3, {})], "alpha": {"b": None, "a": [True, False, []]},
     "q\"uote": "back\\slash\ttab\x01é\U0001f600", "frac": Fraction(-3, 4), "": ""},
    [{}, [], (), "", 0, [[{"x": [{}]}]]],
    "plain", 12345678901234567890, None, True, {}, [],
]


def test_fixed_payloads_match_json_dumps():
    for value in FIXED:
        assert _encode(value) == dumps(value)


@pytest.mark.parametrize("value", [1.5, float("nan"), {"a": [0.0]}, {1: "one"}, [{None: 1}],
                                   {True: 1}])
def test_a_float_or_a_key_that_is_not_a_str_is_refused(value):
    dumps(value)  # the standard library writes these
    with pytest.raises(TypeError):
        _encode(value)


@pytest.mark.parametrize("value", [{(1, 2): 3}, {"a": 1, 2: "b"}])
def test_keys_that_json_dumps_refuses_are_refused(value):
    for encode in (dumps, _encode):
        with pytest.raises(TypeError):
            encode(value)


def cli_mutant(name, old, new):
    """The cli function name with every occurrence of the source text old
    replaced by new; its recursive calls reach the mutant too."""
    fn = getattr(cli, name)
    src = textwrap.dedent(inspect.getsource(fn))
    assert old in src, old
    namespace = dict(cli.__dict__)
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[name]


@pytest.mark.parametrize("old, new", [
    ("sorted(value.items())", "value.items()"),  # a key left unsorted
    ('inner = pad + "  "', 'inner = pad + " "'),  # one space too few in the indent
    ("_quote(", "str("),  # str in place of encode_basestring_ascii
], ids=["unsorted-keys", "short-indent", "str-for-quote"])
def test_planted_mutants_of_the_emitter_are_caught(old, new):
    assert all(cli_mutant("_encode", old, old)(v) == dumps(v) for v in FIXED)
    assert any(cli_mutant("_encode", old, new)(v) != dumps(v) for v in FIXED)


# every subcommand once, each emitting its report into --json DIR
COMMANDS = [
    ["rootdata", "--group", "sl3"],
    ["omega", "--group", "sp4", "--element", "[[1,0,0,0],[1,1,0,0],[0,0,1,0],[0,0,-1,1]]",
     "--oracle"],
    ["factorize", "--group", "sp4", "--w", "s1*s2",
     "--element", '[["1","0","0","0"],["1","1","0","0"],["0","0","1","0"],["0","0","-1","1"]]'],
    ["basis", "--group", "sp4", "--w", "s2"],
    ["verify", "axioms", "--group", "sl2", "--n-samples", "3"],
    ["verify", "series", "--group", "sl2"],
    ["slope", "split", "--group", "sl2", "--s", "1", "--series", "SERIES"],
    ["slope", "project", "--group", "sl2", "--s", "1", "--iterations", "2", "--series", "SERIES"],
    ["bgg", "--group", "sp4", "--c", "1/3,1/5"],
    ["verma-mult", "--group", "sp4", "--c", "1/2,1/2", "--lambda=-1/2,-1/2"],
    ["summands", "--group", "sp4"],
    ["verify-all", "--group", "sl2", "--p", "5", "--precision", "4", "--n-samples", "4"],
    ["sp4-golden"],
]


def test_every_subcommand_writes_the_bytes_of_json_dumps(tmp_path, monkeypatch, capsys):
    series = tmp_path / "f.json"
    series.write_text('[{"index": [0], "coeff": "3"}, {"index": [7], "coeff": "1/2"}]')
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda args, name, payload: (
        emitted.append((name, payload)), emit(args, name, payload)))
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in COMMANDS} == set(subparsers.choices)
    for argv in COMMANDS:
        out = tmp_path / argv[0]
        argv = [str(series) if a == "SERIES" else a for a in argv]
        assert main(argv + ["--json", str(out)]) == 0, argv
        (name, payload), = emitted
        emitted.clear()
        assert (out / f"{name}.json").read_text() == dumps(payload) + "\n"
    capsys.readouterr()


# the report file is rewritten in place and cut to length: whatever was
# there before, it ends with exactly the new bytes
PAYLOAD = FIXED[0]
REPORT = (dumps(PAYLOAD) + "\n").encode()


def emit_into(directory, emit=None):
    (emit or cli._emit)(argparse.Namespace(json_dir=str(directory)), "r", PAYLOAD)
    return directory / "r.json"


@pytest.mark.parametrize("stale", [None, b"", b"x" * (len(REPORT) - 7), b"y" * len(REPORT),
                                   b"z" * (3 * len(REPORT)), REPORT + b"tail"],
                         ids=["absent", "empty", "shorter", "same-length", "longer",
                              "report-and-more"])
def test_a_report_ends_with_exactly_the_new_bytes(tmp_path, stale, capsys):
    path = tmp_path / "r.json"
    if stale is not None:
        path.write_bytes(stale)
        inode = path.stat().st_ino
    assert emit_into(tmp_path) == path
    assert path.read_bytes() == REPORT
    assert stale is None or path.stat().st_ino == inode  # the same file, not a new one
    assert capsys.readouterr().out == f"wrote {path}\n"


def test_a_new_report_gets_the_mode_of_a_plain_open(tmp_path, capsys):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        path = emit_into(tmp_path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    capsys.readouterr()


VERIFY_ALL = ["verify-all", "--group", "sl2", "--p", "5", "--precision", "4", "--n-samples", "2"]


def test_a_report_linked_to_the_null_device_is_written(tmp_path, capsys):
    # a character device reads size 0, so it is never cut (ftruncate would fail)
    os.symlink(os.devnull, tmp_path / "verify-all-sl2.json")
    assert main(VERIFY_ALL + ["--json", str(tmp_path)]) == 0
    assert os.path.islink(tmp_path / "verify-all-sl2.json")
    capsys.readouterr()


def test_a_report_path_that_is_a_directory_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "verify-all-sl2.json").mkdir()
    assert main(VERIFY_ALL + ["--json", str(tmp_path)]) == 2
    assert "verify-all-sl2.json" in capsys.readouterr().err


def goes_wrong(emit, directory, stale):
    """Whether emit fails or leaves other bytes than the report, over a file
    holding stale or, for None, over a link to the null device."""
    directory.mkdir()
    path = directory / "r.json"
    if stale is None:
        os.symlink(os.devnull, path)
    else:
        path.write_bytes(stale)
    try:
        emit_into(directory, emit)
    except OSError:
        return True
    return stale is not None and path.read_bytes() != REPORT


@pytest.mark.parametrize("old, new, stale", [
    ("os.ftruncate(fd, len(data))", "pass", b"z" * (2 * len(REPORT))),
    ("if os.fstat(fd).st_size > len(data):", "if True:", None),  # a device refuses the cut
], ids=["no-cut", "cut-with-no-size-test"])
def test_planted_mutants_of_the_write_are_caught(tmp_path, old, new, stale, capsys):
    assert not goes_wrong(cli_mutant("_emit", old, old), tmp_path / "same", stale)
    assert goes_wrong(cli_mutant("_emit", old, new), tmp_path / "mutant", stale)
    capsys.readouterr()
