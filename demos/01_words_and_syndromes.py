"""Words, VT syndromes, and suffix-difference profiles.

The whole construction rests on three numbers per word: its weight, the
classic VT checksum f1 = sum(i * x_i), and the second-order checksum
f2 = sum(i(i+1)/2 * x_i).  This script computes them both ways, then
shows the suffix-difference vectors of the bundled scenario pairs.
"""

from delsub import (
    SCENARIOS,
    Word,
    params_of,
    sign_segments_ok,
    suffix_diff,
    vt_syndrome,
    vt_syndrome_from_suffix_sums,
)

x = Word.from_text("1101101000101110")
print(f"word      : {x}  (n={x.n}, weight {x.weight})")
for j in (1, 2, 3):
    direct = vt_syndrome(x, j)
    rearranged = vt_syndrome_from_suffix_sums(x, j)
    print(f"f{j}        : {direct}  (suffix-sum route: {rearranged})")
print(f"residues  : {params_of(x)}")
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
