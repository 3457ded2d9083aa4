"""Mutation checks: each row breaks the package on purpose, and its tests must catch it.

Usage: python tools/mutants.py [NAME ...]

For each row of MUTANTS (or only the named rows) the runner copies src/ to
a temporary directory, replaces the row's snippet, which must occur exactly
once in its file, and runs only the row's tests with `pytest -x` against
the copy.  A row is caught when pytest reports a failing test (exit status
1); a snippet that is missing or repeated, a collection or usage error, or
passing tests all count against it, so a refactor that moves a snippet
fails loudly instead of skipping the row.  Exits 0 when every selected row
is caught and 1 otherwise.  Standard library only; the tests themselves
need numpy, pytest and hypothesis.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/delsub
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids under tests/


MUTANTS = (
    # --- corruption ball (channel._packed_deletions, channel._ball_keys, verifier._cover)
    Mutant(
        "run-end-drops-last-column",
        "channel.py",
        "run_end = np.ones(keys.shape, dtype=bool)",
        "run_end = np.zeros(keys.shape, dtype=bool)",
        ("test_verifier.py::test_cover_matches_the_oracle_on_best_classes",),
    ),
    Mutant(
        "run-end-keeps-non-ends",
        "channel.py",
        "run_end[:, :-1] = keys[:, :-1] != keys[:, 1:]",
        "run_end[:, :-1] = keys[:, :-1] == keys[:, 1:]",
        ("test_verifier.py::test_cover_matches_the_oracle_on_best_classes",),
    ),
    Mutant(
        "packing-without-run-end-cut",
        "channel.py",
        "return keys[run_end], k",
        "return keys.ravel(), k",
        ("test_verifier.py::test_deletion_within_a_run_is_no_collision",),
    ),
    Mutant(
        "ball-keys-unsorted",
        "channel.py",
        "    keys.sort()\n",
        "",
        ("test_verifier.py::test_ball_keys_match_the_dedupe_oracle_on_every_class",),
    ),
    Mutant(
        "ball-keys-keep-a-neighbour-repeat",
        "channel.py",
        "    keys[pair + 1, col[pair]] = _REPEAT\n"
        "    keys[pair, col[pair]] = _REPEAT\n"
        "    keys[chain + 2, col[chain]] = _REPEAT\n"
        "    keys = keys.ravel()\n"
        "    keys.sort()\n"
        "    return keys[: len(keys) - 2 * len(pair) - len(chain)]",
        "    keys[pair, col[pair]] = _REPEAT\n"
        "    keys[chain + 2, col[chain]] = _REPEAT\n"
        "    keys = keys.ravel()\n"
        "    keys.sort()\n"
        "    return keys[: len(keys) - len(pair) - len(chain)]",
        ("test_verifier.py::test_ball_keys_match_the_dedupe_oracle_on_every_class",),
    ),
    Mutant(
        "ball-keys-keep-the-chain-repeat",
        "channel.py",
        "    keys[chain + 2, col[chain]] = _REPEAT\n",
        "",
        ("test_verifier.py::test_ball_keys_match_the_dedupe_oracle_on_every_class",),
    ),
    Mutant(
        "cover-ignores-a-third-member",
        "verifier.py",
        "three = same[first + 1]",
        "three = same[first + 1] & False",
        ("test_verifier.py::test_cover_keeps_the_three_smallest_of_a_crowded_word",),
    ),
    # --- witnesses (channel._substitution_witnesses, decoder.canonical_witness)
    Mutant(
        "bit-length-without-the-rounding-fix",
        "channel.py",
        "return e - (v < (np.int64(1) << e >> 1))",
        "return e",
        ("test_verifier.py::test_witnesses_past_53_bits_match_the_oracle",),
    ),
    Mutant(
        "canonical-witness-takes-the-last",
        "decoder.py",
        "return ErrorEvent(int(d[0]), int(e[0]))",
        "return ErrorEvent(int(d[-1]), int(e[-1]))",
        ("test_decoder.py::test_canonical_witness_is_the_first_witness_on_every_reachable_pair",),
    ),
    Mutant(
        "witness-b1-without-its-where",
        "channel.py",
        "b1 = np.where(b != 0, n - _bit_length(b ^ rest), 0)",
        "b1 = n - _bit_length(b ^ rest)",
        ("test_verifier.py::test_substitution_witnesses_match_all_witnesses_on_every_ball",),
    ),
    Mutant(
        "witness-b2-without-its-where",
        "channel.py",
        "b2 = np.where(rest != 0, n - _bit_length(rest & -rest), 0)",
        "b2 = n - _bit_length(rest & -rest)",
        ("test_verifier.py::test_substitution_witnesses_match_all_witnesses_on_every_ball",),
    ),
    Mutant(
        "witness-a2-keeps-the-top-bit",
        "channel.py",
        "a2 = n - _bit_length(a ^ (np.int64(1) << a_len >> 1))",
        "a2 = n - _bit_length(a)",
        ("test_verifier.py::test_substitution_witnesses_match_all_witnesses_on_every_ball",),
    ),
    Mutant(
        "decoder-keeps-the-last-hit",
        "decoder.py",
        "found.setdefault(cand, ErrorEvent(d, e))",
        "found[cand] = ErrorEvent(d, e)",
        ("test_decoder.py::test_search_witnesses_are_canonical_on_every_class",),
    ),
    # --- the pruned search (decoder.list_decode)
    Mutant(
        "decoder-walk-keeps-position-d",
        "decoder.py",
        " & ~(1 << (n - d))",
        "",
        ("test_decoder.py::test_search_witnesses_are_canonical_on_every_class",),
    ),
    Mutant(
        "decoder-walk-reads-the-other-symbol",
        "decoder.py",
        "(base if flip_from else full ^ base)",
        "(full ^ base if flip_from else base)",
        ("test_decoder.py::test_search_witnesses_are_canonical_on_every_class",),
    ),
    Mutant(
        "decoder-keeps-the-constant-words",
        "decoder.py",
        " and 0 < cand < full",
        "",
        ("test_decoder.py::test_decoders_refuse_the_constant_words",),
    ),
    # --- collisions and lemma2 (verifier)
    Mutant(
        "record-tie-leads-with-x-prime",
        "verifier.py",
        "(b, a) if a[1] > b[1] else (a, b)",
        "(b, a) if a[1] >= b[1] else (a, b)",
        ("test_verifier.py::test_collision_ordering_matches_the_oracle_on_every_word",),
    ),
    Mutant(
        "case-range-e1-at-d2",
        "verifier.py",
        "a = np.add(e1 >= d1, e1 > d2, dtype=np.intp)",
        "a = np.add(e1 >= d1, e1 >= d2, dtype=np.intp)",
        ("test_verifier.py::test_case_indices_match_classify_case_on_every_valid_position",),
    ),
    Mutant(
        "empty-class-not-refused",
        "verifier.py",
        '        if size == 0:\n            raise ValueError(f"{params} has no members to check")\n',
        "",
        ("test_verifier.py::test_empty_class_report",),
    ),
    Mutant(
        "class-free-checks-list-the-class",
        "verifier.py",
        'if {"list2", "lemma2", "deletion"} & set(checks):',
        "if True:",
        ("test_verifier.py::test_class_free_checks_list_nothing",),
    ),
    # --- sign split (syndromes._mixed_starts, verifier._splittable)
    Mutant(
        "split-bisect-right",
        "verifier.py",
        "start = bisect_left(mixed, start)",
        'start = __import__("bisect").bisect_right(mixed, start)',
        ("test_verifier.py::test_sign_split_counts_are_pinned",),
    ),
    Mutant(
        "split-without-the-breakpoint-room-test",
        "verifier.py",
        "return m < len(mixed) and start == len(mixed)",
        "return start == len(mixed)",
        ("test_verifier.py::test_splittable_matches_sign_segments_on_every_difference_vector",),
    ),
    Mutant(
        "relaxed-split-starts-at-one",
        "verifier.py",
        "start = 1 if first_from_one else 2",
        "start = 1",
        ("test_verifier.py::test_relaxed_first_segment_admits_counterexamples",),
    ),
    Mutant(
        "mixed-starts-take-the-max",
        "syndromes.py",
        "mixed.append(last_pos if last_pos < last_neg else last_neg)",
        "mixed.append(last_pos if last_pos > last_neg else last_neg)",
        ("test_verifier.py::test_sign_split_counts_are_pinned",),
    ),
    # --- exact syndromes (syndromes._byte_tables, syndromes.wt_f1_f2)
    Mutant(
        "f2-field-one-bit-narrower",
        "syndromes.py",
        "s2 = s1 + (n * (n + 1) // 2).bit_length()",
        "s2 = s1 + (n * (n + 1) // 2).bit_length() - 1",
        ("test_syndromes.py::test_wt_f1_f2_matches_reference_routes",),
    ),
    Mutant(
        "byte-table-position-off-by-one",
        "syndromes.py",
        "wt, f1, f2 = _position_shift(n - q)",
        "wt, f1, f2 = _position_shift(n - q + 1)",
        ("test_syndromes.py::test_summation_orders_agree_exhaustively",),
    ),
    Mutant(
        "partial-top-byte-dropped",
        "syndromes.py",
        "for table in tables:",
        "for table in tables[: n // 8]:",
        ("test_syndromes.py::test_summation_orders_agree_exhaustively",),
    ),
    # --- the length guard (words._check_length) and the CLI refusals
    Mutant(
        "cli-check-and-decode-without-the-ceiling",
        "cli.py",
        "    _check_length(p.n, args.command)\n",
        "",
        ("test_cli.py::test_check_and_decode_up_to_the_length_bound",),
    ),
    Mutant(
        "length-guard-lets-the-ceiling-plus-one-through",
        "words.py",
        "if not lo <= n <= hi:",
        "if not lo <= n <= hi + 1:",
        (
            "test_channel.py::test_ball_stops_at_the_scan_ceiling",
            "test_cli.py::test_check_and_decode_up_to_the_length_bound",
        ),
    ),
    # --- class count, listing and sampling (code)
    Mutant(
        "fold-planes-ascending",
        "code.py",
        "for a in range(shape[0] - 1, 0, -1):",
        "for a in range(1, shape[0]):",
        ("test_code.py::test_counts_match_the_dense_product",),
    ),
    Mutant(
        "fold-copies-the-table",
        "code.py",
        "top[...] = table[-1]",
        "top[...] = table.copy()[-1]",
        ("test_code.py::test_count_memory_peak",),
    ),
    Mutant(
        "listing-argsort-unstable",
        "code.py",
        'order = np.argsort(suffix, kind="stable")',
        "order = np.argsort(suffix)",
        ("test_code.py::test_codeword_values_match_the_reachability_oracle_on_best_classes",),
    ),
    Mutant(
        "pick-rank-at-the-run-length",
        "code.py",
        "hit = m < count",
        "hit = m <= count",
        ("test_code.py::test_random_members_pick_each_member_from_exactly_one_draw",),
    ),
    Mutant(
        "sampler-keeps-constant-words",
        "code.py",
        "if value not in constant:",
        "if True:",
        ("test_code.py::test_random_members_skip_the_constant_words",),
    ),
)


def _run(m: Mutant, workdir: Path) -> str | None:
    """None when the row's tests catch the mutant, else what went wrong."""
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "delsub" / m.file
    text = path.read_text()
    count = text.count(m.snippet)
    if count != 1:
        return f"the snippet occurs {count} times in {m.file}, not once"
    path.write_text(text.replace(m.snippet, m.replacement))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tests")]))
    where = subprocess.run(
        [sys.executable, "-c", "import delsub; print(delsub.__file__)"],
        env=env, cwd=workdir, capture_output=True, text=True,
    )
    if not where.stdout.startswith(str(src)):
        return f"delsub imports from {where.stdout.strip() or where.stderr.strip()}, not the copy"
    # An empty config in the copy stands in for the repository's pytest
    # settings, whose pythonpath would put the unmutated src/ first.
    (workdir / "pytest.ini").write_text("[pytest]\n")
    tests = [str(ROOT / "tests" / t) for t in m.tests]
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-c", "pytest.ini"]
    done = subprocess.run(cmd + tests, env=env, cwd=workdir, capture_output=True, text=True)
    if done.returncode == 1:
        return None
    tail = "\n".join(done.stdout.splitlines()[-5:])
    return f"pytest exited {done.returncode} (1 means caught):\n{tail}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="rows to run (default: all)")
    args = parser.parse_args(argv)
    rows = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in rows]
    if unknown:
        parser.error(f"unknown rows {unknown}")
    missed = 0
    for m in (rows[name] for name in args.names) if args.names else MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="delsub-mutant-") as workdir:
            problem = _run(m, Path(workdir))
        verdict = "caught" if problem is None else "MISSED"
        print(f"{verdict:6} {m.name} ({time.perf_counter() - start:.1f} s)", flush=True)
        if problem is not None:
            missed += 1
            print("       " + problem.replace("\n", "\n       "), flush=True)
    print(f"{missed} of {len(args.names) or len(MUTANTS)} rows missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
