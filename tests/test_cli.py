"""End-to-end runs of the command-line interface."""

import json
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from ajlab.cli import MAX_VALUES, main
from ajlab.figure8 import a_polynomial_nonabelian
from ajlab.laurent import format_poly
from ajlab.qhg import jones_eval
from ajlab.ratfun import format_ratfun, parse_ratfun


@pytest.fixture()
def run():
    runner = CliRunner()

    def go(*args):
        return runner.invoke(main, list(args))

    return go


def test_jones_normalization(run):
    res = run("jones", "--n", "1")
    assert res.exit_code == 0
    assert res.output == "1\n"


def test_jones_ranges_and_values(run):
    res = run("jones", "--n", "2..3")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0].startswith("J(2) = q^2 - q + 1")
    assert len(lines) == 2
    res = run("jones", "--n", "2", "--q", "5/2,2")
    assert "J(2; q=5/2) = 451/100" in res.output
    assert "J(2; q=2) = 11/4" in res.output


def test_ratio_limit(run):
    res = run("ratio", "--which", "E", "--limit")
    assert res.exit_code == 0
    assert res.output.strip() == "(Q*Qt1 - 1) / (Q - Qt1)"


def test_system_report(run):
    res = run("system", "--longitude", "linear", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["coordinates"] == ["x"]
    assert doc["longitude_kind"] == "linear"
    assert len(doc["gluing"]) == 1
    assert "l" in doc["longitude"]


def test_eliminate_hits_the_known_curve(run):
    res = run("eliminate", "--longitude", "linear", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["poly"] == format_poly(a_polynomial_nonabelian())
    assert doc["dropped"] == []
    assert doc["order"] == ["x"]


def test_verify_battery(run):
    res = run("verify")
    assert res.exit_code == 0
    assert "5/5 checks passed" in res.output
    assert "FAIL" not in res.output


def test_ajcheck_both_operators(run):
    res = run("ajcheck", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["match"] is True
    assert doc["operator"] == doc["candidate"]
    res = run("ajcheck", "--operator", "cubic", "--format", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["match"] is True


def test_saddle_report(run):
    res = run("saddle", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert float(doc["coords"]["x"]["re"]) == pytest.approx(0.5)
    assert float(doc["coords"]["x"]["im"]) < 0
    assert float(doc["im_phi"]) == pytest.approx(2.029883212819307)
    assert isinstance(doc["iterations"], int)


def test_volume_output(run):
    res = run("volume")
    assert res.exit_code == 0
    assert float(res.output) == pytest.approx(2.029883212819307, abs=1e-9)


def test_propcheck_both_signs(run):
    for extra in ((), ("--negative",)):
        res = run("propcheck", *extra)
        assert res.exit_code == 0
        assert res.output.count("PASS") == 5


def test_json_ratfun_text_reads_back(run):
    # every ratio and form a JSON report carries parses back to itself
    res = run("ratio", "--which", "E", "--limit", "--format", "json")
    assert res.exit_code == 0
    texts = [json.loads(res.output)["ratio"]]
    for extra in ((), ("--negative",)):
        res = run("propcheck", *extra, "--format", "json")
        assert res.exit_code == 0
        texts += [row[k] for row in json.loads(res.output)["checks"]
                  for k in ("lhs", "rhs", "unit")]
    assert texts[0] == "(Q*Qt1 - 1) / (Q - Qt1)"
    for text in texts:
        assert format_ratfun(parse_ratfun(text)) == text


def test_asympt_rows(run):
    res = run("asympt", "--ns", "100,200", "--format", "json")
    assert res.exit_code == 0
    rows = json.loads(res.output)["rows"]
    assert [r["N"] for r in rows] == [100, 200]
    assert rows[0]["rel_err"] > rows[1]["rel_err"]
    assert set(rows[0]["discrete"]) == {"re", "im"}


def test_exit_codes(run):
    assert run("jones", "--n", "1", "--no-such-flag").exit_code == 2
    res = run("ratio", "--knot", "no-such-knot")
    assert res.exit_code == 1
    assert "Error" in res.output
    # Newton seeded exactly at the critical point of the gluing equation
    assert run("saddle", "--start", "0.5,0").exit_code == 1


@pytest.mark.parametrize("args", [
    ("jones", "--n", "abc"),
    ("jones", "--n", "1..x"),
    ("jones", "--n", "3..1"),
    ("jones", "--n", ","),
    ("jones", "--n", "2", "--q", "x"),
    ("jones", "--n", "2", "--q", "1/0"),
    ("jones", "--n", "2", "--q", ","),
    ("asympt", "--ns", "100,abc"),
    ("asympt", "--a", "x"),
    ("asympt", "--u", "1/0"),
    ("asympt", "--a", "1/4,1/3"),
    ("saddle", "--alpha", "x"),
    ("saddle", "--alpha", "1,2,3"),
    ("saddle", "--start", "1,x"),
    ("saddle", "--start", ";"),
    ("saddle", "--start", "@no-such-start-file.json"),
    ("saddle", "--max-iter", "0"),
    ("volume", "--alpha", "-1,x"),
    ("volume", "--start", "0.5;1,2,3"),
    ("jones", "--n", "2", "--q", ",".join(["2"] * (MAX_VALUES + 1))),
    ("saddle", "--max-iter", "10001"),
    ("saddle", "--max-iter", "1000000000"),
])
def test_malformed_values_are_usage_errors(run, args):
    res = run(*args)
    assert res.exit_code == 2
    assert "Invalid value for" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("args, message", [
    (("--alpha", "1e308"), "Newton overflowed"),
    (("--alpha", "nan"), "alpha = (nan+0j) is not finite"),
    (("--alpha", "inf"), "alpha = (inf+0j) is not finite"),
    (("--alpha", "-1,-inf"), "alpha = (-1-infj) is not finite"),
    (("--start", "nan,0.8"), "start x = (nan+0.8j) is not finite"),
    (("--start", "0.5,inf"), "start x = (0.5+infj) is not finite"),
    (("--alpha=-1,0", "--start", "1e300,1e300"),
     "Newton step x = (nan+nanj) is not finite at iteration 1"),
    (("--tol", "nan"), "tol = nan is not positive and finite"),
    (("--tol", "inf"), "tol = inf is not positive and finite"),
    (("--tol", "0"), "tol = 0.0 is not positive and finite"),
    (("--tol", "-1"), "tol = -1.0 is not positive and finite"),
])
def test_saddle_rejects_non_finite_and_overflowing_inputs(run, args, message):
    res = run("saddle", *args)
    assert res.exit_code == 1
    assert res.output.startswith("Error: ")
    assert message in res.output
    assert "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit)


def test_start_file(run, tmp_path):
    start = tmp_path / "start.json"
    start.write_text(json.dumps([[0.5, 0.8]]))
    res = run("saddle", "--start", f"@{start}", "--format", "json")
    assert res.exit_code == 0
    assert float(json.loads(res.output)["im_phi"]) == pytest.approx(
        2.029883212819307)
    for bad in ("{}", "[[1, 2, 3]]", "not json", "[true]", "[[0.5, false]]"):
        start.write_text(bad)
        res = run("saddle", "--start", f"@{start}")
        assert res.exit_code == 2
        assert "Invalid value for '--start'" in res.output


def test_range_length_limit(run):
    # a huge range is refused before any list is built
    res = run("jones", "--n", "1..10000000000000000000")
    assert res.exit_code == 2
    assert f"at most {MAX_VALUES}" in res.output
    assert run("jones", "--n", f"1..{MAX_VALUES + 1}").exit_code == 2
    listed = ",".join(["1"] * (MAX_VALUES + 1))
    assert run("jones", "--n", listed, "--q", "2").exit_code == 2
    res = run("asympt", "--ns", f"100..{100 + MAX_VALUES}")
    assert res.exit_code == 2
    res = run("jones", "--n", ",".join(["1"] * MAX_VALUES), "--q", "2")
    assert res.exit_code == 0
    assert res.output.count("= 1\n") == MAX_VALUES
    # --q takes as many values as --n, counted the same way
    res = run("jones", "--n", "1", "--q", ",".join(["2"] * (MAX_VALUES + 1)))
    assert res.exit_code == 2
    assert f"{MAX_VALUES + 1} values in" in res.output
    assert f"at most {MAX_VALUES}" in res.output
    res = run("jones", "--n", "1", "--q", ",".join(["2"] * MAX_VALUES))
    assert res.exit_code == 0
    assert res.output.count("= 1\n") == MAX_VALUES


def test_value_past_the_print_limit_is_an_error(run):
    # J(86) at q = 2 has more digits than Python prints by default
    res = run("jones", "--n", "86", "--q", "2")
    assert res.exit_code == 1
    assert res.output.startswith("Error: value has more than ")
    assert "limit" in res.output
    assert len(res.output.strip().splitlines()) == 1
    assert isinstance(res.exception, SystemExit)


def test_value_surely_past_the_print_limit_fails_fast(run):
    # J(400) at q = 2 takes about a minute to compute; its denominator
    # alone, 2^(400*399), is far past the limit, so it is refused first
    start = time.perf_counter()
    res = run("jones", "--n", "400", "--q", "2")
    assert time.perf_counter() - start < 1
    assert res.exit_code == 1
    assert res.output.startswith("Error: value has more than ")
    assert len(res.output.strip().splitlines()) == 1
    res = run("jones", "--n", "85", "--q", "2")
    assert res.exit_code == 0
    assert len(res.output.strip()) > 4000


@pytest.mark.parametrize("q", [Fraction(2), Fraction(-3, 2), Fraction(5, 7),
                               Fraction(-1, 4)])
def test_jones_denominator_is_the_height_power(q):
    # the premise of the fail-fast bound: J_n(a/b) has reduced
    # denominator exactly |ab|^(n(n-1))
    for n in range(1, 13):
        v = jones_eval(n, q)
        assert v.denominator == abs(q.numerator * q.denominator) ** (n * (n - 1))


def test_out_file_replaces_atomically(run, tmp_path):
    target = tmp_path / "report.json"
    target.write_text("stale")
    res = run("volume", "--format", "json", "--out", str(target))
    assert res.exit_code == 0
    assert res.output == ""
    assert json.loads(target.read_text())["volume"] == pytest.approx(
        2.029883212819307)
    assert list(tmp_path.iterdir()) == [target]  # no temp litter


def test_out_file_into_a_missing_directory(run, tmp_path):
    # a clean error naming the path, not a traceback, and no temp litter
    target = tmp_path / "missing" / "x.txt"
    res = run("jones", "--n", "2", "--out", str(target))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert res.output == (f"Error: Could not open file {str(target)!r}: "
                          "No such file or directory\n")
    assert list(tmp_path.iterdir()) == []


def test_knot_descriptor_files(run, tmp_path):
    crossing = tmp_path / "crossing.json"
    crossing.write_text(json.dumps({"crossing": {"positive": True}}))
    res = run("ratio", "--knot", str(crossing), "--which", "Em", "--limit")
    assert res.exit_code == 0
    assert "Qm" in res.output
    res = run("saddle", "--knot", str(crossing))
    assert res.exit_code == 1  # no start point given
    mirror = tmp_path / "mirror.json"
    mirror.write_text(json.dumps({"builtin": "figure8", "mirror": True}))
    res = run("volume", "--knot", str(mirror))
    assert res.exit_code == 0
    assert float(res.output) == pytest.approx(2.029883212819307, abs=1e-9)


@pytest.mark.parametrize("args", [("ratio", "--which", "E"), ("system",),
                                  ("eliminate",), ("verify",)])
def test_summand_commands_refuse_mirror(run, tmp_path, args):
    # every summand is unmirrored, so a mirrored knot is refused rather
    # than answered for its mirror image; 'mirror: false' still loads
    docs = [{"builtin": "figure8", "mirror": True},
            {"crossing": {"positive": False}, "mirror": True},
            {"crossing": {"positive": True, "mirror": True}}]
    for i, doc in enumerate(docs):
        path = tmp_path / f"mirror{i}.json"
        path.write_text(json.dumps(doc))
        res = run(*args, "--knot", str(path))
        assert res.exit_code == 1, doc
        assert "'mirror' applies only to volume and saddle" in res.output
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"builtin": "figure8", "mirror": False}))
    res = run(*args, "--knot", str(plain))
    assert res.exit_code == 0
    assert res.output == run(*args).output


def test_crossing_saddle_needs_a_start(run, tmp_path):
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({"crossing": {"positive": False}}))
    for cmd in ("saddle", "volume"):
        res = run(cmd, "--knot", str(negative))
        assert res.exit_code == 1
        assert res.output == ("Error: crossing potentials need an explicit "
                              "start\n")


def test_verify_needs_a_closed_diagram(run, tmp_path):
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({"crossing": {"positive": False}}))
    res = run("verify", "--knot", str(negative))
    assert res.exit_code == 1
    assert res.output == ("Error: verify needs a closed-diagram summand "
                          "(a builtin), not a single crossing\n")


def test_bad_knot_descriptors(run, tmp_path):
    # the summand and the potential readers share one descriptor reader
    cases = [({"crossing": 5}, "'crossing' must be an object"),
             ({"crossing": [True]}, "'crossing' must be an object"),
             ({"builtin": "trefoil"}, "unknown built-in knot 'trefoil'"),
             ({"builtin": "crossing"}, "unknown built-in knot 'crossing'"),
             ({"mirror": True}, "needs a 'builtin' or 'crossing' key"),
             ({"builtin": "figure8", "crossing": {"positive": True}},
              "needs a 'builtin' or 'crossing' key, and only one"),
             # a misspelled key is refused, not dropped
             ({"builtin": "figure8", "mirorr": True},
              "unknown key 'mirorr' in the knot descriptor"),
             ({"crossing": {"positiv": False}},
              "unknown key 'positiv' in the knot descriptor")]
    # 'positive' and 'mirror' are JSON booleans, at the top and nested
    for bad in ("false", "true", 0, 1, None, [True]):
        cases += [({"builtin": "figure8", "mirror": bad},
                   f"'mirror' must be true or false, got {bad!r}"),
                  ({"crossing": {"positive": True}, "mirror": bad},
                   f"'mirror' must be true or false, got {bad!r}"),
                  ({"crossing": {"positive": True, "mirror": bad}},
                   f"'mirror' must be true or false, got {bad!r}"),
                  ({"crossing": {"positive": bad}},
                   f"'positive' must be true or false, got {bad!r}")]
    for norm in ("two-color", "bogus"):
        cases.append(({"crossing": {"positive": True, "normalization": norm}},
                      f"unknown normalization {norm!r}"))
    for i, (doc, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        for args in (("ratio", "--which", "Et1"), ("system",), ("volume",),
                     ("saddle", "--start", "0.5;0.6;0.7;0.8")):
            res = run(*args, "--knot", str(path))
            assert res.exit_code == 1, (doc, args)
            assert message in res.output, (doc, args)


def test_version_flag(run):
    res = run("--version")
    assert res.exit_code == 0
    assert "ajlab" in res.output
