"""Exhaustive verification at desk scale.

Nothing here is sampled: every codeword's ball, every collision's
witness pairs, every syndrome-equal word pair, every word/event combo.
The last section shows why the sign-split scan anchors its first
segment at position 1: the relaxed convention has real counterexamples.
"""

from delsub import (
    Word,
    full_report,
    suffix_diff,
    verify_sign_split,
    verify_weight_deltas,
    wt_f1_f2,
)

# One report per length lists the class once and covers its balls once.
for n in (10, 12, 14):
    r, _ = full_report(n)
    print(
        f"n={n}: size {r['code_size']}, max list {r['max_list_size']}, "
        f"{r['collision_count']} collisions, {r['lemma2_violations']} ordering violations, "
        f"cases {r['lemma2_cases']}, deletion balls disjoint: {r['single_deletion_ok']}"
    )
print()

print("weight-drop table violations:", [verify_weight_deltas(n) for n in range(2, 11)])
print()

for n in (10, 12):
    r = verify_sign_split(n, 1)
    print(
        f"sign split n={n}, m=1: {r.pairs_checked} syndrome-equal pairs, "
        f"{r.counterexamples} counterexamples anchored, "
        f"{r.relaxed_counterexamples} under the relaxed first segment"
    )

# The relaxed reading is genuinely weaker.  Smallest counterexample:
x, xp = Word.from_text("000110"), Word.from_text("110001")
(_, f1, f2), (_, f1p, f2p) = wt_f1_f2(x.value, x.n), wt_f1_f2(xp.value, xp.n)
print()
print(f"x={x} x'={xp}: f1 {f1}={f1p}, f2 {f2}={f2p}, u={suffix_diff(x, xp)}")
print("u splits into sign-constant halves only if u_1 is left out of the first segment.")
