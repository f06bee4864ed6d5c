import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from apolar import load_table, search_min_h2
from apolar.cli import build_parser, run
from apolar.poly import MAX_NVARS
from apolar.search import MAX_SEARCH_R

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hf_pretty(capsys):
    code, out, err = _run(capsys, ["hf", "--form", "y0^4+y1^4", "--vars", "2"])
    assert code == 0
    assert "(1,2,2,2,1)" in out
    assert "field=p:2147483647" in out
    assert err == ""


def test_hf_json_embeds_provenance(capsys):
    code, out, _ = _run(
        capsys, ["hf", "--form", "y0^3+y1^3+y2^3", "--vars", "3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "hf"
    assert payload["field"] == "p:2147483647"
    assert payload["seed"] == 0
    assert payload["version"]
    assert payload["values"] == [1, 3, 3, 1]


def test_hf_rational_field(capsys):
    code, out, _ = _run(
        capsys, ["hf", "--form", "1/2*y0^4 - y0*y1^3", "--vars", "2", "--field", "q"]
    )
    assert code == 0
    assert "(1,2,3,2,1)" in out


def test_hf_tsv_is_flat(capsys):
    code, out, _ = _run(
        capsys, ["hf", "--form", "y0^2", "--vars", "1", "--format", "tsv"]
    )
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows["hf"] == "(1,1,1)"
    assert rows["command"] == "hf"


def test_hf_parse_error_exits_2(capsys):
    code, out, err = _run(capsys, ["hf", "--form", "y0^4 + y9", "--vars", "2"])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_hf_number_beyond_the_integer_string_limit_exits_2(capsys):
    code, out, err = _run(capsys, ["hf", "--form", "1" * 5000 + "*y0^4", "--vars", "1"])
    assert code == 2
    assert out == ""
    assert "number of 5000 digits is too long (at position 0)" in err


def test_hf_refuses_characteristic_not_above_degree(capsys):
    # mod 7 the factorials of a degree-7 form vanish; q gives (1,2,2,2,2,2,2,1)
    argv = ["hf", "--form", "y0^7+y1^7", "--vars", "2"]
    code, out, err = _run(capsys, argv + ["--field", "p:7"])
    assert code == 2
    assert out == ""
    assert "characteristic 7" in err
    code, out, _ = _run(capsys, argv + ["--field", "p:11"])
    assert code == 0
    assert "(1,2,2,2,2,2,2,1)" in out


@pytest.mark.parametrize("nvars", [10**30, 10**9])
@pytest.mark.parametrize("command", ["hf", "restrict"])
def test_huge_variable_counts_exit_2(capsys, command, nvars):
    # refused before an exponent list of that length is allocated
    code, out, err = _run(capsys, [command, "--form", "y0^4", "--vars", str(nvars)])
    assert (code, out) == (2, "")
    assert err == f"error: nvars {nvars} outside 0..{MAX_NVARS}\n"


def test_variable_count_at_the_limit_still_works(capsys):
    argv = ["hf", "--form", "y0^4+y1^4", "--vars", str(MAX_NVARS)]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert "(1,2,2,2,1)" in out


@pytest.mark.parametrize("e", [4, 5])
def test_search_f_refuses_a_codimension_above_its_limit(tmp_path, capsys, e):
    cache = tmp_path / "bounds.json"
    r = MAX_SEARCH_R[e] + 1
    argv = ["search-f", "--e", str(e), "--r", str(r), "--cache", str(cache)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: codimension {r} outside 1..{MAX_SEARCH_R[e]}\n"
    assert not cache.exists()


def test_cache_entry_with_huge_variable_count_is_dropped(tmp_path, capsys, caplog):
    good = search_min_h2(4, 3).to_dict()
    huge = dict(search_min_h2(4, 4).to_dict(), nvars=10**30)
    cache = tmp_path / "bounds.json"
    cache.write_text(json.dumps([good, huge]))
    caplog.set_level("WARNING", logger="apolar.cache")
    argv = ["gic", "--e", "4", "--rmin", "3", "--rmax", "3", "--cache", str(cache)]
    code, _, err = _run(capsys, argv)
    assert code == 0, err
    assert [rec.getMessage() for rec in caplog.records] == [
        f"dropping cache entry 1 in {cache}: certificate for e=4 r=4 "
        "failed re-verification"
    ]
    assert [(en.e, en.r) for en in load_table(str(cache))] == [(4, 3)]


def test_usage_errors_exit_2(capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["hf", "--vars", "2"]) == 2  # --form required
    capsys.readouterr()
    assert run(["hf", "--form", "y0^2", "--vars", "1", "--field", "p:6"]) == 2
    capsys.readouterr()
    assert run(["search-f", "--e", "3", "--r", "5"]) == 2
    capsys.readouterr()


def test_restrict_with_explicit_hyperplane(capsys):
    code, out, _ = _run(
        capsys,
        ["restrict", "--form", "y0^2*y1 + y1^2*y2 + y2^3", "--vars", "3",
         "--H", "0,0,1", "--field", "q"],
    )
    assert code == 0
    assert "restricted: y0^2*y1" in out
    assert "hf: (1,2,2,1)" in out


def test_restrict_hyperplane_length_mismatch(capsys):
    code, _, err = _run(
        capsys,
        ["restrict", "--form", "y0^3", "--vars", "3", "--H", "1,2"],
    )
    assert code == 2 and "error:" in err


def test_restrict_bad_hyperplane_coefficient_names_flag_and_token(capsys):
    argv = ["restrict", "--form", "y0^2 + y1^2", "--vars", "2", "--H"]
    code, out, err = _run(capsys, argv + ["1/0,1"])
    assert (code, out) == (2, "")
    assert err == "error: --H: '1/0' has a zero denominator over p:2147483647\n"
    code, out, err = _run(capsys, argv + ["a,1"])
    assert (code, out) == (2, "")
    assert err == "error: --H: 'a' is not a rational number\n"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cached_parser_matches_fresh_processes(capsys, monkeypatch):
    # one process reusing the parser after a usage error and --help prints
    # what a fresh process per call prints
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["hf", "--vars", "two", "--form", "y0^2"],
        ["--help"],
        ["hf", "--form", "y0^4 + y1^4", "--vars", "2"],
        ["restrict", "--form", "y0^3 + y1^3 + y2^3", "--vars", "3", "--seed", "4"],
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in calls:
        got = (run(argv), *capsys.readouterr())
        fresh = subprocess.run(
            [sys.executable, "-m", "apolar", *argv],
            capture_output=True, text=True, env=env,
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_restrict_random_hyperplane_is_seeded(capsys):
    argv = ["restrict", "--form", "y0^3 + y1^3 + y2^3", "--vars", "3", "--seed", "5"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


def test_negative_seed_exits_2(capsys):
    # a negative seed would replay the stream of its absolute value
    argv = ["restrict", "--form", "y0^3 + y1^3 + y2^3", "--vars", "3", "--seed"]
    code, out, err = _run(capsys, argv + ["-1"])
    assert code == 2 and out == "" and "seed" in err
    assert _run(capsys, argv + ["1"])[0] == 0


def test_check_lemmas_passes(capsys):
    code, out, _ = _run(capsys, ["check-lemmas", "--trials", "5", "--seed", "7"])
    assert code == 0
    assert "ok: true" in out
    assert "codim-drop: 5 trials, 0 failures" in out


@pytest.mark.parametrize("seed,trials", [(21, 1), (39, 1), (1, 6)])
def test_check_lemmas_small_field_keeps_multiplicities_below_char(
    capsys, seed, trials
):
    # multiplicities of 7 or more once made seed 21 report a false witness
    # and seeds 39 and 1 exit 2 with "gcd of all-zero forms"
    argv = ["check-lemmas", "--field", "p:7", "--trials", str(trials),
            "--seed", str(seed)]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert "partials-gcd: %d trials, 0 failures" % trials in out
    assert "ok: true" in out


@pytest.mark.parametrize("field,seed", [("p:11", 31), ("p:7", 32)])
def test_check_lemmas_small_field_redraws_rank_dropping_hyperplanes(
    capsys, field, seed
):
    # the first hyperplane drops the restricted rank; a later one keeps it
    argv = ["check-lemmas", "--field", field, "--trials", "1", "--seed", str(seed)]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert "restricted-rank: 1 trials, 0 failures" in out


def test_check_lemmas_small_field_redraws_codim_dropping_hyperplanes(capsys):
    # trial 11's first hyperplane drops the codimension to 1; a later one
    # keeps 2
    argv = ["check-lemmas", "--field", "p:7", "--trials", "30", "--seed", "1"]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert "codim-drop: 30 trials, 0 failures" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check-lemmas", "--trials", "-5"],
        ["check-lemmas", "--trials", "0"],
        ["check-lemmas", "--trials", "1048577"],  # 2^20 + 1
    ],
    ids=["trials-negative", "trials-zero", "trials-above-2^20"],
)
def test_out_of_range_trial_counts_exit_2(capsys, tmp_path, argv):
    # refused before any trial runs, never answered with exit 0
    code, out, err = _run(capsys, argv + ["--cache", str(tmp_path / "c.json")])
    assert code == 2 and out == ""
    assert "must be in [1, " in err
    assert not (tmp_path / "c.json").exists()


def test_search_f_writes_cache(tmp_path, capsys):
    cache = str(tmp_path / "bounds.json")
    code, out, _ = _run(
        capsys,
        ["search-f", "--e", "4", "--r", "13", "--budget", "5", "--cache", cache],
    )
    assert code == 0
    assert "bound=12 exact=true" in out
    table = load_table(cache)
    assert len(table) == 1 and table[0].bound == 12
    # reports never include cache timestamps
    assert "timestamp" not in out


def test_search_f_ignores_budget_and_accepts_a_negative_seed(tmp_path, capsys):
    argv = ["search-f", "--e", "4", "--r", "13", "--cache", str(tmp_path / "c.json")]
    _, low, _ = _run(capsys, argv + ["--budget", "1"])
    _, high, _ = _run(capsys, argv + ["--budget", "50"])
    assert low == high and "bound=12 exact=true" in low
    code, _, err = _run(capsys, argv + ["--seed", "-1"])
    assert code == 0 and err == ""


def test_gic_negative_seed_exits_2_before_storing(tmp_path, capsys):
    cache = tmp_path / "c.json"
    argv = ["gic", "--e", "4", "--rmin", "3", "--rmax", "4", "--seed", "-1",
            "--cache", str(cache)]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == "" and "--seed >= 0" in err
    assert not cache.exists()


def test_realize_reports_interval(tmp_path, capsys):
    cache = str(tmp_path / "bounds.json")
    code, out, _ = _run(
        capsys, ["realize", "--e", "4", "--r", "3", "--cache", cache]
    )
    assert code == 0
    assert "interval=[3, 6]" in out
    assert "realized: 4 of 4" in out
    assert "gaps: none" in out
    assert load_table(cache)[0].r == 3


def test_realize_draws_nothing_and_accepts_a_negative_seed(tmp_path, capsys):
    argv = ["realize", "--e", "4", "--r", "4", "--format", "json",
            "--cache", str(tmp_path / "bounds.json"), "--seed"]
    code, out, err = _run(capsys, argv + ["-1"])
    assert code == 0 and err == ""
    _, out0, _ = _run(capsys, argv + ["0"])
    assert json.loads(out)["realized"] == json.loads(out0)["realized"]


def test_gic_pretty_ends_nondecreasing(tmp_path, capsys):
    cache = str(tmp_path / "bounds.json")
    code, out, _ = _run(
        capsys,
        ["gic", "--e", "4", "--rmin", "3", "--rmax", "6", "--budget", "5",
         "--cache", cache],
    )
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "nondecreasing: true"
    # the run populated the table it verified
    assert {en.r for en in load_table(cache)} == {3, 4, 5, 6}


def test_gic_reuses_cache_and_stays_byte_identical(tmp_path, capsys):
    cache = str(tmp_path / "bounds.json")
    argv = ["gic", "--e", "4", "--rmin", "3", "--rmax", "5", "--budget", "5",
            "--cache", cache, "--format", "json"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2
    # every descent row names its hyperplane, so a failed row replays
    assert all("," in d["H"] for d in json.loads(out1)["descent"])


def test_env_var_sets_cache_path(tmp_path, capsys, monkeypatch):
    env_cache = tmp_path / "env.json"
    monkeypatch.setenv("APOLAR_CACHE", str(env_cache))
    code, _, _ = _run(
        capsys, ["search-f", "--e", "4", "--r", "4", "--budget", "5"]
    )
    assert code == 0
    assert env_cache.exists()
    # an explicit --cache wins over the environment
    flag_cache = tmp_path / "flag.json"
    code, _, _ = _run(
        capsys,
        ["search-f", "--e", "4", "--r", "5", "--budget", "5",
         "--cache", str(flag_cache)],
    )
    assert code == 0
    assert {en.r for en in load_table(str(env_cache))} == {4}
    assert {en.r for en in load_table(str(flag_cache))} == {5}


def test_corrupt_cache_exits_2(tmp_path, capsys):
    cache = tmp_path / "bad.json"
    cache.write_text("{broken")
    code, _, err = _run(
        capsys,
        ["gic", "--e", "4", "--rmin", "3", "--rmax", "3", "--cache", str(cache)],
    )
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "argv,cache",
    [
        (["search-f", "--e", "4", "--r", "3"], "missing/x.json"),
        (["gic", "--e", "4", "--rmin", "3", "--rmax", "3"], "missing/x.json"),
        (["realize", "--e", "4", "--r", "3"], "table"),
    ],
)
def test_bad_cache_path_exits_2(tmp_path, capsys, argv, cache):
    # a lock file in a missing directory, or a directory read as the table,
    # once escaped as an OSError traceback with exit 1
    path = tmp_path / cache
    (tmp_path / "table").mkdir()
    code, out, err = _run(capsys, argv + ["--cache", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "r,exact,row",
    [
        (14, True, "r=14  lower=?  upper=13  exact=false"),
        (14, "false", "r=14  lower=?  upper=13  exact=false"),
        (13, False, "r=13  lower=12  upper=12  exact=true"),
    ],
)
def test_gic_derives_exact_instead_of_reading_it(tmp_path, capsys, r, exact, row):
    # exact is true only where the bound is the known minimum, whatever the
    # file claims
    cache = tmp_path / "bounds.json"
    argv = ["--e", "4", "--cache", str(cache)]
    assert _run(capsys, ["search-f", "--r", str(r)] + argv)[0] == 0
    data = json.loads(cache.read_text())
    data[0]["exact"] = exact
    cache.write_text(json.dumps(data))
    code, out, err = _run(capsys, ["gic", "--rmin", str(r), "--rmax", str(r)] + argv)
    assert code == 0 and err == ""
    assert row in out.splitlines()


@pytest.mark.parametrize("key", ["e", "r", "bound", "nvars"])
@pytest.mark.parametrize(
    "token", ["true", "{}.9", "{}.0", '"{}"', "Infinity", "-Infinity", "NaN", "1e999"]
)
def test_cache_entry_numbers_must_be_json_integers(tmp_path, capsys, caplog, key, token):
    # a float bound of 13.9 once read as 13 and verified; Infinity crashed
    good = search_min_h2(4, 3).to_dict()
    bad = search_min_h2(4, 14).to_dict()
    cache = tmp_path / "bounds.json"
    text = json.dumps([good, dict(bad, **{key: "@"})])
    cache.write_text(text.replace('"@"', token.format(bad[key])))
    caplog.set_level("WARNING", logger="apolar.cache")
    for argv in (["gic", "--rmin", "3", "--rmax", "3"], ["search-f", "--r", "4"]):
        caplog.clear()
        code, _, err = _run(capsys, argv + ["--e", "4", "--cache", str(cache)])
        assert code == 0, err
        assert [rec.getMessage().split(":")[0] for rec in caplog.records] == [
            f"dropping malformed cache entry 1 in {cache}"
        ]
    assert [(en.e, en.r) for en in load_table(str(cache))] == [(4, 3), (4, 4)]


def test_reports_byte_identical_across_commands(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("APOLAR_CACHE", str(tmp_path / "c.json"))
    for argv in (
        ["hf", "--form", "y0^5+y1^5", "--vars", "2", "--format", "json"],
        ["check-lemmas", "--trials", "4", "--seed", "3", "--format", "tsv"],
        ["realize", "--e", "4", "--r", "4"],
    ):
        _, first, _ = _run(capsys, argv)
        _, second, _ = _run(capsys, argv)
        assert first == second, argv
