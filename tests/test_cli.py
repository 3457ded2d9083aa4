import functools
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsub import SCAN_CEILING, choose_params
from delsub.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_usage_error(capsys, *argv):
    """Run argv that argparse itself must refuse."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 1, f"expected one JSON document, got {out!r}"
    return code, json.loads(lines[0])


# --- construct -----------------------------------------------------------


def test_construct_json(capsys):
    code, doc = run_json(capsys, "construct", "--n", "8")
    assert code == 0
    p, stats = choose_params(8)
    assert doc == {
        "n": 8,
        "c0": p.c0,
        "c1": p.c1,
        "c2": p.c2,
        "size": stats.size,
        "redundancy": stats.redundancy,
    }
    assert list(doc) == ["n", "c0", "c1", "c2", "size", "redundancy"]


def test_construct_text_format(capsys):
    code, out, _ = run(capsys, "construct", "--n", "8", "--format", "text")
    assert code == 0
    assert out.startswith("n=8 params=(")


def test_construct_up_to_the_ceiling(capsys):
    code, doc = run_json(capsys, "construct", "--n", "62")
    assert code == 0
    assert doc["n"] == 62 and doc["size"] >= math.ceil((2**62 - 2) / (16 * 62**3))


def test_construct_above_the_ceiling_is_usage_error(capsys):
    code, out, err = run(capsys, "construct", "--n", "63")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_workers_option_is_gone(capsys):
    code, out, err = run_usage_error(capsys, "construct", "--n", "8", "--workers", "2")
    assert code == 2 and out == ""
    assert err.startswith("usage: ") and "--workers" in err


# --- check ------------------------------------------------------------------


def test_check_true(capsys):
    code, doc = run_json(capsys, "check", "--n", "4", "--params", "2,4,7", "--word", "1010")
    assert code == 0 and doc is True


def test_check_false_exits_one(capsys):
    code, doc = run_json(capsys, "check", "--n", "4", "--params", "2,4,7", "--word", "1001")
    assert code == 1 and doc is False


def test_check_wrong_length_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "--n", "4", "--params", "2,4,7", "--word", "10100")
    assert code == 2 and "length" in err


def test_check_bad_word_characters(capsys):
    code, _, err = run(capsys, "check", "--n", "4", "--params", "2,4,7", "--word", "10a0")
    assert code == 2 and "0/1" in err


def test_check_bad_params_triple(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--n", "4", "--params", "2,4", "--word", "1010"])
    assert exc.value.code == 2
    capsys.readouterr()


# --- decode -----------------------------------------------------------------


DECODE_ARGS = ["--n", "16", "--word", "110111100101110"]


def test_decode_json_schema(capsys):
    code, doc = run_json(capsys, "decode", "--params", "1,8,439", *DECODE_ARGS)
    assert code == 0
    assert set(doc) == {"candidates", "count"}
    assert doc["count"] == 1
    assert doc["candidates"] == [{"word": "1101101000101110", "d": 6, "e": 8}]


def test_decode_separate_residue_flags(capsys):
    """The --c0/--c1/--c2 alias is gone; --params is the one way in."""
    code, _, err = run_usage_error(
        capsys, "decode", "--params", "1,8,439", "--c0", "1", *DECODE_ARGS
    )
    assert code == 2 and "--c0" in err


def test_decode_missing_params(capsys):
    code, _, err = run_usage_error(capsys, "decode", *DECODE_ARGS)
    assert code == 2 and "--params" in err


def test_decode_wrong_length_word(capsys):
    code, _, err = run(
        capsys, "decode", "--params", "1,8,439", "--n", "16", "--word", "1101101000101110"
    )
    assert code == 2 and "length 15" in err


def test_decode_no_candidates(capsys):
    code, doc = run_json(
        capsys, "decode", "--params", "1,0,0", "--n", "8", "--word", "1111111"
    )
    assert code == 0
    assert doc == {"candidates": [], "count": 0}


# --- ball ----------------------------------------------------------------------


def test_ball_two_bit_word(capsys):
    code, doc = run_json(capsys, "ball", "--n", "2", "--word", "10")
    assert code == 0
    assert doc == {"n": 2, "word": "10", "size": 2, "ball": ["0", "1"]}


def test_ball_entries_sorted_and_sized(capsys):
    code, doc = run_json(capsys, "ball", "--n", "6", "--word", "101100")
    assert code == 0
    assert doc["size"] == len(doc["ball"]) <= 36
    assert doc["ball"] == sorted(doc["ball"], key=lambda t: int(t, 2))


def test_ball_up_to_the_length_bound(capsys):
    code, doc = run_json(capsys, "ball", "--n", str(SCAN_CEILING), "--word", "10" * 31)
    assert code == 0 and doc["size"] == len(doc["ball"]) > 0
    code, out, err = run(capsys, "ball", "--n", str(SCAN_CEILING + 1), "--word", "1" * 63)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, received", [("check", 0), ("decode", 1)])
def test_check_and_decode_up_to_the_length_bound(capsys, command, received):
    def argv(n):
        return [command, "--n", str(n), "--params", "0,0,0", "--word", ("10" * 40)[: n - received]]

    code, out, _ = run(capsys, *argv(SCAN_CEILING))
    assert code in (0, 1) and out
    code, out, err = run(capsys, *argv(SCAN_CEILING + 1))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"n <= {SCAN_CEILING}" in err


# The decode lines that CI's installed-entry-point step pins: (n, params,
# received word, exit code, stdout).
_DECODE_PINS = {
    # n = 24 in the bench's class, one received word per weight drop: each
    # drop takes its own inserted symbol and flip sign through the kernel.
    "n24-drop-1": (
        24, "0,6,142", "01100110100011110110110", 0,
        '{"candidates": [{"word": "011001101000111100010110", "d": 17, "e": 19}], "count": 1}\n',
    ),
    "n24-drop0": (
        24, "0,6,142", "10100100101101011100101", 0,
        '{"candidates": [{"word": "101001001101101011000101", "d": 9, "e": 19}], "count": 1}\n',
    ),
    "n24-drop1": (
        24, "0,6,142", "01001111100100001110100", 0,
        '{"candidates": [{"word": "010011111000100001111100", "d": 10, "e": 21}], "count": 1}\n',
    ),
    "n24-drop2": (
        24, "0,6,142", "10010110100000111100100", 0,
        '{"candidates": [{"word": "100101101001001111001001", "d": 24, "e": 12}, '
        '{"word": "100101101100000111101100", "d": 9, "e": 21}], "count": 2}\n',
    ),
    # n = 62, the top int64 length, where the 61 received bits fill 8 bytes.
    "n62": (
        62, "3,0,1232", "1011101110111011101110111011101110111011101110111011101110101", 0,
        '{"candidates": [{"word": "11011101110111011101110111011101110111011101110111011101110111", '
        '"d": 1, "e": 61}], "count": 1}\n',
    ),
    # n = 128: (1101)^32 under its own params with d = 5, e = 100.  list_decode
    # decodes it, but the command keeps its SCAN_CEILING guard.
    "n128-refused": (
        128, "0,32,5152", "1101101110111011101110111011101110111011101110111011101110111011"
        "101110111011101110111011101110111001101110111011101110111011101", 2, "",
    ),
}


@pytest.mark.parametrize("n, params, word, code, out", _DECODE_PINS.values(), ids=_DECODE_PINS)
def test_decode_matches_the_entry_point_pins(capsys, n, params, word, code, out):
    got = run(capsys, "decode", "--n", str(n), "--params", params, "--word", word)
    assert got[:2] == (code, out)


def test_decode_refuses_a_long_word_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "decode", "--n", "100001", "--params", "0,0,0", "--word", "10" * 50_000)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == "" and len(err.splitlines()) == 1


# --- verify --------------------------------------------------------------------


def test_verify_default_checks_pass(capsys):
    code, doc = run_json(capsys, "verify", "--n", "10")
    assert code == 0
    assert doc["pass"] is True
    assert doc["checks"] == ["list2", "lemma2", "deletion"]
    assert doc["max_list_size"] == 2
    assert doc["lemma2_violations"] == 0
    assert doc["single_deletion_ok"] is True
    assert doc["sign_counterexamples"] is None
    assert "elapsed" not in doc


def test_verify_all_checks_with_params(capsys):
    code, doc = run_json(
        capsys,
        "verify",
        "--n",
        "8",
        "--params",
        "0,0,53",
        "--checks",
        "list2,lemma2,sign,table1,deletion",
    )
    assert code == 0
    assert doc["auto_params"] is False
    assert doc["code_size"] == 2 and doc["collision_count"] > 0  # not the best class, (0, 0, 47)
    assert doc["table1_violations"] == 0
    assert doc["sign_counterexamples"] == 0


def test_verify_text_lines_are_the_json_pairs_in_order(capsys):
    code, doc = run_json(capsys, "verify", "--n", "12")
    text_code, out, _ = run(capsys, "verify", "--n", "12", "--format", "text")
    assert text_code == code == 0
    assert out.splitlines() == [f"{k}={v}" for k, v in doc.items()]
    assert doc["collision_pairs"]  # the records are among the lines


def test_main_builds_its_parser_once(capsys, monkeypatch):
    import delsub.cli as cli

    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._main_parser.cache_clear()
    for argv in (["construct", "--n", "8"], ["check", "--n", "4", "--params", "0,0,0", "--word", "0110"]):
        run(capsys, *argv)
        run(capsys, *argv)
    assert len(built) == 1
    assert build_parser() is not build_parser()  # the public builder stays fresh


def test_reused_parser_leaks_nothing_between_calls(capsys):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    fresh = subprocess.run(
        [sys.executable, "-m", "delsub.cli", "verify", "--n", "10"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    code, doc = run_json(capsys, "verify", "--n", "10", "--checks", "sign", "--timing")
    assert code == 0 and doc["checks"] == ["sign"] and "elapsed" in doc
    code, _, err = run_usage_error(capsys, "verify", "--n", "x")
    assert code == 2 and "invalid int value" in err
    code, out, _ = run(capsys, "construct", "--n", "8", "--format", "text")
    assert code == 0 and out.startswith("n=8 params=(")
    assert run(capsys, "verify", "--n", "10") == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_verify_timing_flag_adds_elapsed(capsys):
    code, doc = run_json(capsys, "verify", "--n", "8", "--timing")
    assert code == 0 and doc["elapsed"] > 0


def test_verify_seed_requires_smoke(capsys):
    code, _, err = run(capsys, "verify", "--n", "8", "--seed", "1")
    assert code == 2 and "smoke" in err


def test_verify_smoke_mode(capsys):
    code, doc = run_json(capsys, "verify", "--n", "10", "--smoke", "5", "--seed", "7")
    assert code == 0
    assert doc["mode"] == "smoke" and doc["seed"] == 7 and doc["pass"] is True
    code2, doc2 = run_json(capsys, "verify", "--n", "10", "--smoke", "5", "--seed", "7")
    assert doc2 == doc


def test_verify_smoke_mode_exits_1_on_a_failed_report(capsys, monkeypatch):
    import delsub.verifier as verifier

    real = verifier._decode_rows

    def lose_the_first_row(values, p):
        row, *rest = real(values, p)
        keep = row != 0  # member 0's corruption lists nothing
        return (row[keep], *(a[keep] for a in rest))

    monkeypatch.setattr(verifier, "_decode_rows", lose_the_first_row)
    code, doc = run_json(capsys, "verify", "--n", "10", "--smoke", "5", "--seed", "7")
    assert code == 1
    assert doc["completeness_failures"] == 1 and doc["pass"] is False


def test_verify_smoke_mode_above_the_full_check_range(capsys):
    code, doc = run_json(capsys, "verify", "--smoke", "20", "--n", "36")
    assert code == 0
    assert doc["mode"] == "smoke" and doc["n"] == 36 and doc["pass"] is True
    assert doc["decode_trials"] == 20


def test_verify_smoke_mode_at_the_counting_ceiling(capsys):
    code, doc = run_json(capsys, "verify", "--smoke", "5", "--n", str(SCAN_CEILING))
    assert code == 0
    assert doc["n"] == SCAN_CEILING and doc["pass"] is True
    code, out, err = run(capsys, "verify", "--smoke", "5", "--n", str(SCAN_CEILING + 1))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_verify_negative_max_collisions_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--n", "8", "--max-collisions", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "10", "--checks="],
        ["--n", "10", "--checks", ","],
        ["--n", "10", "--smoke", "0"],
        ["--n", "10", "--smoke", "-3"],
        ["--n", "8", "--params", "0,0,1", "--smoke", "5"],
        ["--n", "8", "--params", "0,0,0"],
        ["--n", "40", "--checks", "deletion"],
        ["--n", "12", "--smoke", "3", "--checks", "sign,bogus"],
        ["--n", "12", "--smoke", "3", "--checks", "list2"],
        ["--n", "12", "--smoke", "3", "--max-collisions", "5"],
        ["--n", "12", "--smoke", "3", "--timing"],
        ["--n", "12", "--checks", "sign,sign"],
    ],
)
def test_verify_refuses_vacuous_and_out_of_range_runs(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--n", "8", "--checks", "list2,nope")
    assert code == 2 and "unknown checks" in err


def test_verify_parser_builds_under_a_wrapped_full_report(monkeypatch, capsys):
    """A functools.wraps wrapper of full_report, as a call tracer installs, keeps verify's help and run."""
    import delsub.cli as cli

    real = cli.full_report

    @functools.wraps(real)
    def traced(*args, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "full_report", traced)
    parser = cli.build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "(default list2,lemma2,deletion)" in help_text and "(default 100)" in help_text
    args = parser.parse_args(["verify", "--n", "8"])
    assert args.handler(args) == 0


# --- table -----------------------------------------------------------------------


def test_table_rows(capsys):
    code, doc = run_json(capsys, "table", "--n-list", "8,12,16")
    assert code == 0
    assert [row["n"] for row in doc] == [8, 12, 16]
    for row in doc:
        assert set(row) == {"n", "size", "redundancy", "bound", "margin"}
        assert row["margin"] >= 0
    assert doc[2]["bound"] == 16.0


@pytest.mark.parametrize("n", [16, 24])
def test_table_passes_exactly_from_the_bound_size(capsys, monkeypatch, n):
    """table passes a class iff size * 16n^3 >= 2^n, tested on integers: the
    size ceil(2^n / 16n^3) passes and one less fails, whatever the floats read."""
    import delsub.cli as cli

    bound = -(-(2**n) // (16 * n**3))
    real = cli.redundancy_table
    for size, code in ((bound, 0), (bound - 1, 1)):
        monkeypatch.setattr(cli, "redundancy_table", lambda ns: [replace(r, size=size) for r in real(ns)])
        got, doc = run_json(capsys, "table", "--n-list", str(n))
        assert (got, doc[0]["size"]) == (code, size)


def test_table_empty_n_list_is_usage_error(capsys):
    code, out, err = run(capsys, "table", "--n-list", ",")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_table_n_list_names_its_format(capsys):
    for bad in ("x", "8,x", "8.0"):
        code, out, err = run(capsys, "table", "--n-list", bad)
        assert code == 2 and out == ""
        assert err == f"error: --n-list expects comma-separated integers, got {bad!r}\n", bad


def test_table_text_format(capsys):
    code, out, _ = run(capsys, "table", "--n-list", "8", "--format", "text")
    assert code == 0
    assert "redundancy" in out.splitlines()[0]


# --- examples ----------------------------------------------------------------------


def test_examples_json(capsys):
    code, doc = run_json(capsys, "examples")
    assert code == 0
    assert [entry["ok"] for entry in doc] == [True, True, True]
    assert doc[0]["u"] == [0, 0, -1, -1, -1, -1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0]


def test_examples_text_prints_vectors(capsys):
    code, out, _ = run(capsys, "examples", "--format", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "(0,0,-1,-1,-1,-1,0,0,0,0,1,0,1,1,0,0)" in lines[0]
    assert all(line.endswith("ok") for line in lines)


def test_examples_mismatch_exits_nonzero(capsys, monkeypatch):
    import delsub.cli as cli_module
    from delsub.scenarios import ScenarioCheck

    broken = ScenarioCheck("tampered", (0, 0), False, ["vector mismatch"])
    monkeypatch.setattr(cli_module, "replay", lambda: [broken])
    code, doc = run_json(capsys, "examples")
    assert code == 1
    assert doc[0]["ok"] is False


# --- global usage ------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


# --- argv fuzz -----------------------------------------------------------------

# Lengths stay at or below 10 so every example is cheap and no ball check
# ever meets a length above its range.
FLAG_VALUES = {
    "--n": ["2", "5", "8", "10"],
    "--params": ["0,0,0", "0,0,1", "2,4,7", "1,8,439", "4,0,0"],
    "--word": ["1", "10", "1010", "10110", "1111111", "10110100", "101101101", "1011010011"],
    "--format": ["json", "text"],
    "--workers": ["1", "3"],
    "--checks": ["list2", "lemma2,deletion", "sign,table1", "list2,", "bogus"],
    "--max-collisions": ["0", "3"],
    "--smoke": ["1", "4"],
    "--seed": ["7"],
    "--n-list": ["8", "2,6", "5,,9"],
    "--timing": [],
}
EDGE_VALUES = ["", "-3", "0", "1", ",", "1,2", "10a1", "x"]
REQUIRED = {
    "construct": ["--n"],
    "check": ["--n", "--params", "--word"],
    "decode": ["--n", "--params", "--word"],
    "ball": ["--n", "--word"],
    "verify": ["--n"],
    "table": ["--n-list"],
    "examples": [],
    "bogus": [],
}
OPTIONAL = {
    "construct": ["--format"],
    "check": ["--format"],
    "decode": ["--format"],
    "ball": ["--format"],
    "verify": [
        "--params", "--checks", "--max-collisions", "--smoke", "--seed", "--timing",
        "--format",
    ],
    "table": ["--format"],
    "examples": ["--format"],
    "bogus": [],
}


@st.composite
def argvs(draw):
    """A subcommand with its required flags (sometimes one dropped), some of
    its optional flags and sometimes a flag of another subcommand; some
    values are edge values."""
    sub = draw(st.sampled_from(sorted(REQUIRED)))
    flags = list(REQUIRED[sub])
    if flags and draw(st.integers(0, 9)) == 0:
        flags.remove(draw(st.sampled_from(flags)))
    flags += draw(st.lists(st.sampled_from(OPTIONAL[sub] or ["--format"]), unique=True, max_size=3))
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(sorted(FLAG_VALUES))))
    argv = [sub]
    for flag in flags:
        argv.append(flag)
        if flag != "--timing":
            edge = draw(st.integers(0, 5)) == 0
            argv.append(draw(st.sampled_from(EDGE_VALUES if edge else FLAG_VALUES[flag])))
    return argv


@given(argvs())
@settings(max_examples=300, deadline=None)
def test_cli_argv_fuzz(argv):
    """Any argv ends in exit 0, 1 or 2, never in a traceback."""
    out, err = io.StringIO(), io.StringIO()
    parse_error = False
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code, parse_error = exc.code, True
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2 and not parse_error:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1


# --- README ----------------------------------------------------------------------


def _readme_cli_lines():
    """The delsub command lines of README's CLI block, comments dropped."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("delsub ")]


def test_readme_cli_examples_run(capsys):
    lines = _readme_cli_lines()
    assert lines
    for argv in lines:
        code, out, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)
        json.loads(out)
