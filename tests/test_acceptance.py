"""Acceptance gates for the whole package.

One test per criterion; each prints a `[acceptance] criterion N: PASS/FAIL`
line (visible with `pytest tests/test_acceptance.py -v -s`).  Everything
here is exact: exhaustive enumeration at the stated lengths, no sampling
and no tolerances beyond exact (in)equalities.
"""

import json
import math
import time

from delsub import (
    ErrorEvent,
    Word,
    apply_del_sub,
    choose_params,
    enumerate_code,
    error_ball,
    full_report,
    list_decode,
    list_decode_brute,
    replay,
    suffix_diff,
    verify_sign_split,
    verify_weight_deltas,
)
from delsub.cli import main as cli_main
from oracles import all_witnesses

W = Word.from_text

_BEST: dict[int, tuple] = {}


def best(n):
    if n not in _BEST:
        _BEST[n] = choose_params(n)
    return _BEST[n]


def _finish(cid, ok, detail):
    print(f"[acceptance] criterion {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {cid} failed: {detail}"


def test_criterion_1_scenario_fidelity():
    """The bundled corruption scenarios replay exactly, in under a second."""
    fixtures = [
        ("1101101000101110", (10, 6), "1001111001011010", (14, 2), "110111100101110",
         (0, 0, -1, -1, -1, -1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0)),
        ("1001011101001110", (5, 2), "1101111000011010", (14, 9), "110111101001110",
         (0, 0, 1, 1, 1, 2, 2, 2, 1, 1, 0, 0, 1, 1, 0, 0)),
        ("1001010101001111", (5, 15), "1101101010001101", (10, 2), "100110101001101",
         (0, 0, 1, 1, 1, 2, 1, 2, 1, 2, 1, 1, 1, 1, 1, 0)),
    ]
    start = time.perf_counter()
    failures = []
    for x, ev1, xp, ev2, y, u in fixtures:
        if str(apply_del_sub(W(x), ErrorEvent(*ev1))) != y:
            failures.append(f"E({x},{ev1}) != {y}")
        if str(apply_del_sub(W(xp), ErrorEvent(*ev2))) != y:
            failures.append(f"E({xp},{ev2}) != {y}")
        if suffix_diff(W(x), W(xp)) != u:
            failures.append(f"u({x},{xp}) mismatch")
    if any(not c.ok for c in replay()):
        failures.append("bundled replay reported failures")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s")
    _finish(1, not failures, failures or f"3 scenarios exact in {elapsed:.3f}s")


def test_criterion_2_list_size_bound():
    """Exhaustive ball coverage shows list size <= 2 at n in {8,10,12,14,16}."""
    attained = {}
    for n in (8, 10, 12, 14, 16):
        p, _ = best(n)
        report, _ = full_report(n, p, checks=("list2",))
        attained[n] = report["max_list_size"]
    ok = all(v <= 2 for v in attained.values())
    _finish(2, ok, f"max list size per n: {attained}")


def test_criterion_3_redundancy_bound():
    """Best-class redundancy stays within 3 log2(n) + 4 at n in {8,12,16,20,24}."""
    rows = []
    ok = True
    for n in (8, 12, 16, 20, 24):
        _, stats = best(n)
        bound = 3 * math.log2(n) + 4
        r = stats.redundancy
        rows.append(f"n={n}: {r:.3f} <= {bound:.3f}")
        ok &= r <= bound
    _finish(3, ok, "; ".join(rows))


def test_criterion_4_collision_ordering():
    """Zero ordering violations over all collisions at n in {10,12,14}."""
    details = []
    ok = True
    for n in (10, 12, 14):
        p, _ = best(n)
        r, _ = full_report(n, p, checks=("list2", "lemma2"))
        cases = r["lemma2_cases"]
        details.append(
            f"n={n}: {r['collision_count']} collisions, {r['lemma2_violations']} violations, "
            f"cases={cases}"
        )
        ok &= r["lemma2_violations"] == 0 and set(cases) <= {"iv"}
        ok &= r["lemma2_weight_mismatches"] == 0 and r["lemma2_deleted_symbol_mismatches"] == 0
    _finish(4, ok, "; ".join(details))


def test_criterion_5_sign_split():
    """No equal-syndrome pair is sign-splittable: m=1 up to n=12, m=2 up to n=10."""
    bad = []
    pair_counts = {1: 0, 2: 0}
    for m, top in ((1, 12), (2, 10)):
        for n in range(2, top + 1):
            r = verify_sign_split(n, m)
            pair_counts[m] += r.pairs_checked
            if r.counterexamples:
                bad.append(f"m={m} n={n}: {r.counterexamples}")
    detail = (
        f"0 counterexamples over {pair_counts[1]} pairs (m=1), "
        f"{pair_counts[2]} pairs (m=2)"
    )
    _finish(5, not bad, bad or detail)


def test_criterion_6_weight_delta_table():
    """Weight-drop table and one-substitution re-expression hold for all n <= 10."""
    bad = [n for n in range(2, 11) if verify_weight_deltas(n) != 0]
    _finish(6, not bad, bad or "0 violations for n=2..10")


def test_criterion_7_decoder_equivalence():
    """Both decoders equal the definitional covering sets on every 11-bit word."""
    p, _ = best(12)
    covering: dict[Word, set[Word]] = {}
    for x in enumerate_code(p):
        for y in error_ball(x):
            covering.setdefault(y, set()).add(x)
    mismatches = 0
    for yv in range(1 << 11):
        y = Word(11, yv)
        brute = list_decode_brute(y, p)
        pruned = list_decode(y, p)
        if brute.candidates != pruned.candidates:
            mismatches += 1
        elif set(brute.words) != covering.get(y, set()):
            mismatches += 1
        elif pruned.examined > brute.examined:
            mismatches += 1
        else:
            for w, ev in pruned.candidates:
                if apply_del_sub(w, ev) != y or ev != all_witnesses(w, y)[0]:
                    mismatches += 1
                    break
    _finish(7, mismatches == 0, f"{mismatches} mismatches over all 2048 received words")


def test_criterion_8_single_deletion_correction():
    """Pure-deletion balls of distinct codewords stay disjoint for n <= 16."""
    bad = []
    for n in range(2, 17):
        p, _ = best(n)
        report, _ = full_report(n, p, checks=("deletion",))
        if report["single_deletion_ok"] is not True:
            bad.append(n)
    _finish(8, not bad, bad or "disjoint for n=2..16")


def test_criterion_9_scan_performance_and_determinism(capsys):
    """The n=24 construction scan fits in 60 s single-threaded and is repeatable."""
    start = time.perf_counter()
    single = choose_params(24)
    elapsed = time.perf_counter() - start
    _BEST[24] = single

    outputs = []
    for _ in range(3):
        code = cli_main(["construct", "--n", "24"])
        outputs.append(capsys.readouterr().out)
        assert code == 0
    identical = outputs[0] == outputs[1] == outputs[2]
    doc = json.loads(outputs[0])
    ok = elapsed <= 60.0 and identical and doc["size"] == single[1].size
    _finish(
        9,
        ok,
        f"scan took {elapsed:.2f}s (limit 60); byte-identical across 3 runs: {identical}",
    )
