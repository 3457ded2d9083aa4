"""Constructing a code: count all 16n^3 classes, pick the biggest.

Every n-bit word (minus the two constant ones) lands in exactly one
residue class (wt mod 4, f1 mod 2n, f2 mod 2n^2).  The biggest class is
the code; pigeonhole says it holds at least (2^n - 2) / 16n^3 words, so
its redundancy stays within 3 log2(n) + 4.  The class sizes are the
coefficients of prod_i (1 + t^(1, i, i(i+1)/2)): the first floor(log2 n^3)
factors are expanded by counting the residues of every prefix, and each
later one is one pass over the 16n^3 counters, so they are all found
without visiting a single word.  At n = 16 the script first counts the
classes by definition, one word at a time, and choose_params must agree.
"""

import time

import numpy as np

from delsub import Word, choose_params, codeword_values, params_of, redundancy_table

# By definition first: the class of every non-constant 16-bit word, one at a time.
n = 16
classes = [params_of(Word(n, v)).bucket_index for v in range(1, (1 << n) - 1)]
counts = np.bincount(classes, minlength=16 * n**3)
print(f"n={n}: {counts.size} residue classes, sizes sum to {counts.sum()} = 2^{n} - 2")
print(f"class sizes: min {counts.min()}, mean {counts.mean():.3f}, max {counts.max()}")

params, stats = choose_params(n)
assert stats.size == counts.max() and params.bucket_index == counts.argmax()
print(f"winner: {params} with {stats.size} codewords, redundancy {stats.redundancy:.4f}")
print("first few codewords:")
for v in codeword_values(params)[:6].tolist():
    print(f"  {Word(n, v)}")
print()

print(f"{'n':>4} {'size':>8} {'redundancy':>11} {'bound':>8} {'margin':>7}")
for row in redundancy_table([8, 12, 16, 20, 24]):
    print(
        f"{row.n:>4} {row.size:>8} {row.redundancy:>11.4f} "
        f"{row.bound:>8.4f} {row.margin:>7.4f}"
    )
print()

for n in (24, 48):
    start = time.perf_counter()
    choose_params(n)
    print(f"counting all {16 * n**3} classes at n={n} takes {time.perf_counter() - start:.3f}s")
