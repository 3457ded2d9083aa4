"""Words, VT syndromes, and suffix-difference profiles.

The whole construction rests on three numbers per word: its weight, the
classic VT checksum f1 = sum(i * x_i), and the second-order checksum
f2 = sum(i(i+1)/2 * x_i).  This script computes them, reduces them to the
word's residue class, then shows the suffix-difference vectors of the
bundled scenario pairs.
"""

from delsub import (
    SCENARIOS,
    Word,
    params_of,
    sign_segments_ok,
    suffix_diff,
    wt_f1_f2,
)

x = Word.from_text("1101101000101110")
wt, f1, f2 = wt_f1_f2(x.value, x.n)
print(f"word      : {x}  (n={x.n}, weight {wt})")
print(f"f1        : {f1}  (sum of i over the 1-bits)")
print(f"f2        : {f2}  (sum of i(i+1)/2 over the 1-bits)")
print(f"residues  : {params_of(x)}  (weight mod 4, f1 mod 2n, f2 mod 2n^2)")
print()

# Two words agreeing on all three residues are hard to confuse: their
# suffix-difference vector u (u_i = suffix weight gap from position i)
# would have to be sign-splittable, and then it collapses to zero.
for s in SCENARIOS:
    u = suffix_diff(s.x, s.x_prime)
    split = [] if s.split_point is None else [s.split_point]
    print(f"{s.name}")
    print(f"  x  = {s.x}")
    print(f"  x' = {s.x_prime}")
    print(f"  u  = {u}")
    print(f"  sign-constant segments around {s.split_point}: {sign_segments_ok(u, split)}")
