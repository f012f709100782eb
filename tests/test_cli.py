import json
import linecache
import re
import time

import pytest

from iwahori import cli, groups
from iwahori.axioms import (
    SUITES,
    check_compatibility_all_w,
    check_oracle_agreement,
    check_padic,
    check_pvaluation_axioms,
)
from iwahori.cli import build_parser, main
from iwahori.groups import ChevalleyGroup


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rootdata_json(capsys):
    code, out = run(capsys, "rootdata", "--group", "sp4")
    assert code == 0
    data = json.loads(out)
    assert data["coxeter_number"] == 4
    assert data["weyl_order"] == 8
    assert data["delta"] == ["2", "1"]


def test_omega_with_oracle(capsys):
    code, out = run(capsys, "omega", "--group", "sl2", "--p", "7",
                    "--element", '[["1","0"],["7","1"]]', "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["omega"] == "3/2"
    assert data["agreement"]


def test_omega_rejects_outsider(capsys):
    code, _ = run(capsys, "omega", "--group", "sl2",
                  "--element", '[["1","1"],["0","1"]]')
    assert code == 1


def test_factorize_round_trip(capsys):
    element = ("[[8310042483, 11069826243, 11969879208],"
               " [13417612307, 11596260964, 3897042877],"
               " [4957614081, 4178002876, 1291752323]]")
    code, out = run(capsys, "factorize", "--group", "sl3", "--w", "s1*s2",
                    "--element", element)
    assert code == 0
    data = json.loads(out)
    assert data["round_trip_ok"] and data["w"] == "s1*s2"


@pytest.mark.parametrize("command", ["omega", "factorize"])
@pytest.mark.parametrize("element, message", [
    # the top-left 2 x 2 block of the first matrix is in the pro-p Iwahori
    ("[[1,0,5],[7,1,3],[2,2,9]]", "a sl2 element is a 2 x 2 matrix"),
    ("[[1,0],[1]]", "a sl2 element is a 2 x 2 matrix"),
    ("5", "--element '5' is not a JSON list of rows"),
    ("[1,0]", "--element '[1,0]' is not a JSON list of rows"),
])
def test_an_element_of_the_wrong_shape_is_a_usage_error(command, element, message, capsys):
    code = main([command, "--group", "sl2", "--element", element])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_mistyped_element_path_is_named(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["factorize", "--group", "sl2", "--element", "nope.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: --element 'nope.json' is neither a file nor a JSON matrix\n"


@pytest.mark.parametrize("command", [
    ["factorize", "--group", "sl2", "--element"],
    ["omega", "--group", "sl2", "--element"],
    ["slope", "split", "--group", "sl2", "--series"],
])
@pytest.mark.parametrize("content", [b"not json", b"\xff\xfe"])
def test_an_input_file_that_is_not_json_is_named(command, content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code = main(command + [str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {command[-1]} file {str(path)!r} is not valid JSON: ")


def test_factorize_symplectic_word(capsys):
    # u_{a}(1) * u_{b}(2) is symplectic by construction
    from iwahori.groups import ChevalleyGroup
    G = ChevalleyGroup("sp4", p=7, prec=12)
    g = G.root_element((1, -1), 1) * G.root_element((0, 2), 2)
    mat = [[str(e.co) for e in row] for row in g.mat]
    code, out = run(capsys, "factorize", "--group", "sp4", "--element", json.dumps(mat))
    assert code == 0
    data = json.loads(out)
    assert data["round_trip_ok"]
    params = {tuple(e["root"]): e["parameter"] for e in data["positive_batch"]}
    assert params[(1, -1)].startswith("1 +")
    assert params[(0, 2)].startswith("2 +")


def test_basis_dimension(capsys):
    code, out = run(capsys, "basis", "--group", "sl3", "--p", "7")
    data = json.loads(out)
    assert code == 0 and data["dimension"] == 8


def test_verify_axioms_exit_codes(capsys):
    code, out = run(capsys, "verify", "axioms", "--group", "sl2", "--n-samples", "10")
    assert code == 0
    data = json.loads(out)
    assert data["ok"]


def test_gate_exit_code(capsys):
    code = main(["verify", "axioms", "--group", "sp4", "--p", "5"])
    capsys.readouterr()
    assert code == 2
    code = main(["verify-all", "--group", "sp4", "--p", "5"])
    capsys.readouterr()
    assert code == 2


def test_bgg_cli(capsys):
    code, out = run(capsys, "bgg", "--group", "sp4", "--c", "0,0")
    data = json.loads(out)
    assert code == 0 and data["simple"] is False
    code, out = run(capsys, "bgg", "--group", "sp4", "--c", "1/3,1/5")
    data = json.loads(out)
    assert data["simple"] is True


def test_verma_mult_cli(capsys):
    code, out = run(capsys, "verma-mult", "--group", "sl2", "--c", "3,-3",
                    "--lambda", "1,-1")
    data = json.loads(out)
    assert code == 0 and data["multiplicity"] == 1


@pytest.mark.parametrize("weight", ["-3", "1,2,3"])
def test_verma_mult_rejects_a_weight_of_the_wrong_length(weight, capsys):
    code = main(["verma-mult", "--group", "sp4", "--c", "0,0", f"--lambda={weight}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "sp4 weights need 2 coordinates" in captured.err


def test_summands_cli(capsys):
    code, out = run(capsys, "summands", "--group", "sp4")
    data = json.loads(out)
    assert code == 0 and data["count"] == 8 and len(data["witnesses"]) == 56


def test_slope_cli(tmp_path, capsys):
    series = [{"index": [0, 0, 0, 0], "coeff": "3"},
              {"index": [2, 0, 0, 1], "coeff": "7/3"}]
    path = tmp_path / "f.json"
    path.write_text(json.dumps(series))
    code, out = run(capsys, "slope", "split", "--group", "sp4", "--s", "1",
                    "--series", str(path))
    assert code == 0
    data = json.loads(out)
    assert {"coeff": "3", "index": [0, 0, 0, 0]} in data["at_least"]


@pytest.mark.parametrize("data", [
    {"terms": [{"index": [1], "coeff": "1"}]},
    [[1], "1"],
    [{"index": 1, "coeff": "1"}],
    [{"index": ["a"], "coeff": "1"}],
    [{"coeff": "1"}],
    [{"index": [1]}],
    "1",
    [{"index": [True], "coeff": "1"}],  # a JSON boolean is not an exponent
])
def test_slope_rejects_a_series_file_of_the_wrong_shape(data, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code = main(["slope", "split", "--group", "sl2", "--series", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: a series file holds a JSON list of") and '"index"' in err


@pytest.mark.parametrize("missing", [True, False])
def test_an_unreadable_series_file_is_a_usage_error(missing, tmp_path, capsys):
    path = tmp_path / "nope.json" if missing else tmp_path
    code = main(["slope", "split", "--group", "sl2", "--series", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: [Errno") and str(path) in err


def test_sp4_golden_cli(capsys):
    code, out = run(capsys, "sp4-golden")
    data = json.loads(out)
    assert code == 0 and data["ok"]
    assert all(data["checks"].values())


def test_sp4_golden_reads_the_verma_self_test(monkeypatch, capsys):
    # the two verma checks of sp4-golden are the verdicts of check_verma,
    # so a failure there shows in both
    from iwahori import axioms
    monkeypatch.setattr(axioms, "bgg_simple", lambda dchi: (True, []))
    monkeypatch.setattr(axioms, "summand_inventory", lambda name: {"count": 7})
    code, out = run(capsys, "sp4-golden")
    checks = json.loads(out)["checks"]
    assert code == 1
    assert [k for k, ok in checks.items() if not ok] == ["eight_summands",
                                                          "zero_character_not_simple"]


# each command takes only the options it reads; these settings had no effect
UNREAD_OPTIONS = ([(cmd, opt) for cmd in ("rootdata", "bgg", "verma-mult", "summands")
                   for opt in ("--p", "--precision", "--seed")]
                  + [(cmd, "--seed") for cmd in ("omega", "factorize", "basis", "slope",
                                                  "sp4-golden")]
                  + [("slope", "--char")])
COMMAND_ARGS = {
    "rootdata": ["rootdata", "--group", "sp4"],
    "bgg": ["bgg", "--c", "1/3,1/5"],
    "verma-mult": ["verma-mult", "--c", "0,0", "--lambda=-1,-1"],
    "summands": ["summands"],
    "omega": ["omega", "--element", '[["1","0"],["7","1"]]'],
    "factorize": ["factorize", "--element", '[["1","0"],["7","1"]]'],
    "basis": ["basis"],
    "slope": ["slope", "split", "--series", "f.json"],
    "sp4-golden": ["sp4-golden"],
}


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS)
def test_an_option_the_command_does_not_read_is_a_usage_error(command, option, capsys):
    assert len(UNREAD_OPTIONS) == 18
    with pytest.raises(SystemExit) as exit_info:
        main(COMMAND_ARGS[command] + [f"{option}=3"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {option}=3" in capsys.readouterr().err


def test_verify_all_reports_are_deterministic(tmp_path, capsys):
    for d in ("a", "b"):
        code = main(["verify-all", "--group", "sl2", "--n-samples", "20",
                     "--seed", "5", "--json", str(tmp_path / d)])
        capsys.readouterr()
        assert code == 0
    a = (tmp_path / "a" / "verify-all-sl2.json").read_bytes()
    b = (tmp_path / "b" / "verify-all-sl2.json").read_bytes()
    assert a == b


def test_internal_error_exit_code(monkeypatch, capsys):
    # a plan one root short leaves that root's entry to the remainder
    # self-check, which is a bug in the library, not bad input: exit 3, not 2.
    # The exact entries take the scalar route, whose kernel is built here
    # from the planted plan.
    from iwahori.padic import InternalError
    assert not issubclass(InternalError, ValueError)
    plan = ChevalleyGroup._factor_plan

    def one_root_short(self, w):
        full = plan(self, w)
        return full._replace(neg_strip=full.neg_strip[:-1])

    monkeypatch.setattr(ChevalleyGroup, "_factor_plan", one_root_short)
    monkeypatch.setattr(groups, "_SCALAR_KERNELS", {})
    monkeypatch.setattr(linecache, "cache", dict(linecache.cache))
    element = ("[[8310042483, 11069826243, 11969879208],"
               " [13417612307, 11596260964, 3897042877],"
               " [4957614081, 4178002876, 1291752323]]")
    code = main(["factorize", "--group", "sl3", "--element", element])
    err = capsys.readouterr().err
    assert code == 3 and len(groups._SCALAR_KERNELS) == 1
    assert err.startswith("internal error: unipotent strip left a remainder")


def test_verify_all_builds_no_scalar_kernel(monkeypatch, tmp_path, capsys):
    # its samples, products and powers stay on int rows, and the basis
    # generators that the et suite reads are only scanned, never factorized
    monkeypatch.setattr(groups, "_SCALAR_KERNELS", {})
    code = main(["verify-all", "--group", "sp4", "--n-samples", "5", "--json", str(tmp_path)])
    capsys.readouterr()
    assert code == 0 and groups._SCALAR_KERNELS == {}



@pytest.mark.parametrize("argv", [["sp4-golden"], ["verify", "verma", "--group", "sp4"]])
def test_a_broken_golden_table_is_an_internal_error(argv, monkeypatch, capsys):
    # the golden Cartan data is the library's own: a bad entry is a failed
    # self-check, exit 3, not a traceback
    from iwahori import verma
    monkeypatch.setitem(verma.SP4_CARTAN_DIAGONALS, (2, 0), (1, 0, 0, 1))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error: golden Cartan matrix is not in the torus algebra")


def test_exact_inputs_keep_their_exactness_at_the_cli(capsys):
    # the exact identity has omega infinity, not a cap marker, on both
    # routes, and an exact entry 0 is reported as the exact "0"
    code, out = run(capsys, "omega", "--group", "sl2", "--p", "7",
                    "--element", '[["1","0"],["0","1"]]', "--oracle")
    data = json.loads(out)
    assert code == 0 and data["omega"] == "inf" and data["omega_oracle"] == "inf"
    code, out = run(capsys, "factorize", "--group", "sl2", "--p", "7",
                    "--element", '[["1","0"],["7","1"]]')
    data = json.loads(out)
    assert code == 0
    assert data["negative_batch"] == [{"root": [-1, 1], "parameter": "0"}]
    assert data["positive_batch"] == [{"root": [1, -1], "parameter": "p + O(p^12)"}]
    assert data["torus_coordinates"] == ["1 + O(p^12)"]


@pytest.mark.parametrize("argv, series", [
    (["bgg", "--group", "sp4", "--c", "1/0,1"], None),
    (["verma-mult", "--group", "sp4", "--c", "0,0", "--lambda=1/0,0"], None),
    (["omega", "--group", "sl2", "--element", '[["1/0","0"],["0","1"]]'], None),
    (["slope", "split", "--group", "sp4", "--s", "0"], [{"index": [0, 0, 0, 0], "coeff": "1/0"}]),
])
def test_a_zero_denominator_is_a_usage_error(argv, series, tmp_path, capsys):
    if series is not None:
        path = tmp_path / "f.json"
        path.write_text(json.dumps(series))
        argv = argv + ["--series", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: '1/0' has a zero denominator\n"


@pytest.mark.parametrize("argv, series, shown", [
    (["omega", "--group", "sl2", "--element", "[[1.0,0],[7e0,1]]"], None, "1.0"),
    (["slope", "split", "--group", "sp4"], [{"index": [1, 0, 0, 0], "coeff": 1.5}], "1.5"),
])
def test_a_json_float_is_a_usage_error(argv, series, shown, tmp_path, capsys):
    # inputs are exact: a float is refused by value, not read as a rational
    if series is not None:
        path = tmp_path / "f.json"
        path.write_text(json.dumps(series))
        argv = argv + ["--series", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {shown} is a float")


def test_n_is_not_an_alias_of_precision(monkeypatch, capsys):
    # omega has no option that --n abbreviates; on verify it abbreviates
    # --n-samples alone
    with pytest.raises(SystemExit) as exit_info:
        main(["omega", "--group", "sl2", "--n", "5", "--element", "[[1,0],[0,1]]"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --n 5" in capsys.readouterr().err
    seen = []
    monkeypatch.setitem(SUITES, "axioms", (
        "pvaluation-axioms", lambda g, n, s: seen.append((g.ring.prec, n)) or check_padic(g), 1))
    assert main(["verify", "axioms", "--group", "sl2", "--p", "5", "--n", "3"]) == 0
    capsys.readouterr()
    assert seen == [(12, 3)]


def test_a_negative_exponent_is_a_usage_error(tmp_path, capsys):
    # on sp4 the index (1, -1, 0, 0) has weight 0: it was read as the
    # constant monomial, and the projection came out empty
    path = tmp_path / "f.json"
    path.write_text(json.dumps([{"index": [1, -1, 0, 0], "coeff": "1"},
                                {"index": [0, 0, 0, 0], "coeff": "2"}]))
    code = main(["slope", "project", "--group", "sp4", "--s", "0", "--series", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: index (1, -1, 0, 0) has a negative exponent\n"


@pytest.mark.parametrize("word", ["sx", "s", "s1*s", "s1 x2"])
def test_a_bad_weyl_word_token_is_named(word, capsys):
    code = main(["factorize", "--group", "sl2", "--w", word, "--element", "[[1,0],[0,1]]"])
    captured = capsys.readouterr()
    token = word.replace("*", " ").split()[-1]
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: bad Weyl word token {token!r}; use e or s1*s2...\n"

def test_slope_project_rejects_a_huge_exponent_quickly(tmp_path, capsys):
    # (p-1)*12! is about 2.9e9: the projector refuses before exponentiating
    path = tmp_path / "f.json"
    path.write_text(json.dumps([{"index": [1], "coeff": "1"}, {"index": [3], "coeff": "2"}]))
    t0 = time.perf_counter()
    code = main(["slope", "project", "--group", "sl2", "--s", "0", "--iterations", "12",
                 "--series", str(path)])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code == 2 and elapsed < 1
    assert "exceeds" in err and "--iterations" in err


def test_slope_project_names_iterations_when_the_report_is_too_large(tmp_path, capsys):
    # at n = 7 the exponent is under the cap, but 3^30240 has more digits
    # than the interpreter converts to text
    path = tmp_path / "f.json"
    path.write_text(json.dumps([{"index": [1], "coeff": "1"}, {"index": [3], "coeff": "2"}]))
    code = main(["slope", "project", "--group", "sl2", "--s", "0", "--iterations", "7",
                 "--series", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and "digits" in err and "--iterations" in err
    code = main(["slope", "project", "--group", "sl2", "--s", "0", "--iterations", "3",
                 "--series", str(path)])
    assert code == 0 and json.loads(capsys.readouterr().out)["iterations"] == 3


def test_slope_project_rejects_a_negative_iteration_count(tmp_path, capsys):
    # a usage error of its own: fewer iterations would not help
    path = tmp_path / "f.json"
    path.write_text(json.dumps([{"index": [1], "coeff": "1"}, {"index": [3], "coeff": "2"}]))
    code = main(["slope", "project", "--group", "sl2", "--s", "0", "--iterations", "-1",
                 "--series", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and err == "error: --iterations must be non-negative, got -1\n"


def test_verify_all_at_two_digits(tmp_path, capsys):
    # p^2 + p^3 reads as the cap marker >= 2 with two digits, which the
    # p-adic self-test expects there
    code = main(["verify-all", "--group", "sl2", "--p", "5", "--precision", "2",
                 "--n-samples", "5", "--json", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    data = json.loads((tmp_path / "verify-all-sl2.json").read_text())
    assert all(s["ok"] for s in data["suites"])


@pytest.mark.parametrize("command", [["verify", "axioms"], ["verify-all"]])
@pytest.mark.parametrize("n_samples", ["0", "-3"])
def test_verify_without_samples_is_a_usage_error(command, n_samples, capsys):
    # a run that checks nothing must not report ok
    code = main(command + ["--group", "sl2", "--p", "5", "--n-samples", n_samples])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--n-samples" in captured.err


def test_sampling_checks_reject_an_empty_sample():
    group = ChevalleyGroup("sl2", p=5, prec=6)
    for check in (check_pvaluation_axioms, check_compatibility_all_w, check_oracle_agreement):
        with pytest.raises(ValueError):
            check(group, 0)


def test_verify_reports_match_verify_all(tmp_path, capsys):
    config = ["--group", "sl2", "--p", "5", "--precision", "6", "--seed", "3"]
    assert main(["verify-all", *config, "--n-samples", "20", "--json", str(tmp_path)]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "verify-all-sl2.json").read_text())
    reports = {s["suite"]: s["report"] for s in data["suites"]}
    shares = {"compat": 2, "oracle": 4}
    assert len(reports) == len(SUITES)
    for key, (name, _run, divisor) in SUITES.items():
        samples = ["--n-samples", str(shares.get(key, 20))] if divisor else []
        code = main(["verify", key, *config, *samples, "--json", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        assert json.loads((tmp_path / f"verify-{key}-sl2.json").read_text()) == reports[name]


@pytest.mark.parametrize("suite", ["padic", "et", "series", "verma"])
def test_verify_refuses_samples_for_a_suite_that_draws_none(suite, capsys):
    assert SUITES[suite][2] is None
    code = main(["verify", suite, "--group", "sl2", "--p", "5", "--n-samples", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: verify {suite} takes no --n-samples" in captured.err


def test_verify_sampling_suites_default_to_200_samples(monkeypatch, capsys):
    # the axioms row with a runner that records its sample count
    seen = []
    monkeypatch.setitem(SUITES, "axioms", (
        "pvaluation-axioms", lambda g, n, s: seen.append(n) or check_padic(g), 1))
    assert main(["verify", "axioms", "--group", "sl2", "--p", "5"]) == 0
    capsys.readouterr()
    assert seen == [200]


@pytest.mark.parametrize("suite", ["padic", "series", "verma"])
def test_verify_self_test_suites(suite, capsys):
    code, out = run(capsys, "verify", suite, "--group", "sp4", "--p", "7", "--precision", "6")
    assert code == 0
    assert json.loads(out) == {"failures": []}


def test_verify_all_builds_one_group(monkeypatch, capsys):
    built = []
    init = ChevalleyGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChevalleyGroup, "__init__", counting_init)
    cli._gated_group.cache_clear()
    argv = ["verify-all", "--group", "sp4", "--p", "7", "--precision", "6", "--n-samples", "10"]
    assert main(argv) == 0
    assert len(built) == 1
    # a later run in the same process checks the same group, basis included
    assert main(argv) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_verify_all_times_its_suites_on_a_monotonic_clock(monkeypatch, capsys, tmp_path):
    # a wall clock that jumps back by a minute at every read
    wall = iter(range(10 ** 6, 0, -60))
    monkeypatch.setattr(time, "time", lambda: next(wall))
    code, out = run(capsys, "verify-all", "--group", "sl2", "--p", "5", "--precision", "4",
                    "--n-samples", "2", "--json", str(tmp_path))
    assert code == 0
    timings = [line.rsplit("(", 1)[1] for line in out.splitlines() if "(" in line]
    assert len(timings) == len(SUITES) + 1 and not any(t.startswith("-") for t in timings)


def test_verify_all_prints_each_suite_in_milliseconds(capsys, tmp_path):
    # one decimal in ms, so a suite that takes a fraction of a millisecond
    # does not print as zero seconds; the report bytes carry no timing
    code, out = run(capsys, "verify-all", "--group", "sl2", "--p", "5", "--precision", "4",
                    "--n-samples", "2", "--json", str(tmp_path))
    assert code == 0
    lines = [line for line in out.splitlines() if "(" in line]
    assert len(lines) == len(SUITES) + 1 and lines[-1].startswith("total ok (")
    assert all(re.fullmatch(r".* \(\d+\.\d ms\)", line) for line in lines), lines
    assert " ms)" not in (tmp_path / "verify-all-sl2.json").read_text()


def test_verify_all_factorizes_each_element_and_twist_once(monkeypatch, capsys):
    # the compat and oracle suites read the axiom suite's first draws and
    # their factorizations at w = 1: 200 for the axioms (five per sample)
    # and 7 twists for each of the 4 compat samples, none of them repeated
    seen = []
    factorize = ChevalleyGroup.iwahori_factorize

    def recording(self, g, w=None):
        twist = self.datum.identity_weyl() if w is None else w
        rows = g._ints
        seen.append((repr(g) if rows is None else rows, twist.matrix))
        return factorize(self, g, w)

    monkeypatch.setattr(ChevalleyGroup, "iwahori_factorize", recording)
    code = main(["verify-all", "--group", "sp4", "--p", "7", "--precision", "12",
                 "--n-samples", "40", "--seed", "1"])
    capsys.readouterr()
    assert code == 0
    assert len(seen) == 228 and len(set(seen)) == 228


def test_verify_all_checks_the_samples_that_verify_draws(monkeypatch, capsys):
    # the oracle and compat suites of verify-all check the elements that
    # verify oracle and verify compat draw themselves, in the same order
    checked = []
    oracle, factorize = (ChevalleyGroup.p_valuation_by_conjugation,
                         ChevalleyGroup.iwahori_factorize)

    def recording_oracle(self, g):
        checked.append(("oracle", g._ints))
        return oracle(self, g)

    def recording_factorize(self, g, w=None):
        if w is not None:  # only the compat suite names a twist
            checked.append(("compat", g._ints, w.matrix))
        return factorize(self, g, w)

    monkeypatch.setattr(ChevalleyGroup, "p_valuation_by_conjugation", recording_oracle)
    monkeypatch.setattr(ChevalleyGroup, "iwahori_factorize", recording_factorize)
    config = ["--group", "sl3", "--p", "5", "--precision", "6", "--seed", "3"]
    assert main(["verify-all", *config, "--n-samples", "20"]) == 0
    together = list(checked)
    checked.clear()
    assert main(["verify", "compat", *config, "--n-samples", "2"]) == 0
    assert main(["verify", "oracle", *config, "--n-samples", "4"]) == 0
    capsys.readouterr()
    assert len(together) == 2 * 5 + 4 and together == checked


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.fixture
def fresh_parser():
    """A parser built from the environment of the test, not of the session."""
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


@pytest.mark.parametrize("var,argv,code", [
    ("IWAHORI_P", ["bgg", "--group", "sp4", "--c", "1/3,1/5"], 0),
    ("IWAHORI_P", ["rootdata", "--group", "sl2"], 0),
    ("IWAHORI_P", ["basis", "--group", "sl2"], 2),
    ("IWAHORI_P", ["basis", "--group", "sl2", "--p", "7"], 0),
    ("IWAHORI_P", ["verify-all", "--group", "sl2", "--p", "5", "--precision", "3",
                   "--n-samples", "1"], 0),
    ("IWAHORI_PRECISION", ["summands", "--group", "sl2"], 0),
    ("IWAHORI_PRECISION", ["sp4-golden"], 2),
    ("IWAHORI_SEED", ["basis", "--group", "sl2"], 0),
    ("IWAHORI_SEED", ["verify", "et", "--group", "sl2"], 2),
])
def test_a_malformed_env_default_fails_only_the_commands_that_read_it(
        var, argv, code, monkeypatch, fresh_parser, capsys):
    monkeypatch.setenv(var, "abc")
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err
    else:
        assert main(argv) == 0
        capsys.readouterr()
