"""Corrupt a codeword every possible way, then decode every result.

A corruption deletes one symbol and flips at most one other.  The
receiver sees an (n-1)-bit word and asks: which codewords could have
produced this?  The answer is never more than two, and the transmitted
word is always one of them.
"""

from delsub import (
    Word,
    apply_del_sub,
    choose_params,
    codeword_values,
    error_ball,
    iter_events,
    list_decode,
    list_decode_brute,
)

params, stats = choose_params(12)
print(f"{params}: {stats.size} codewords")

x = Word(12, int(codeword_values(params)[0]))
print(f"transmitting {x}; its corruption ball holds {len(error_ball(x))} distinct words")

worst = 0
brute_cost = tested = 0
for event in iter_events(x.n):
    received = apply_del_sub(x, event)
    result = list_decode(received, params)
    brute = list_decode_brute(received, params)
    assert result.candidates == brute.candidates, "the fast decoder must not change the answer"
    assert x in result.words, "the transmitted word must always be listed"
    worst = max(worst, len(result.candidates))
    tested += result.examined
    brute_cost += brute.examined
print(f"decoded all {12 * 12} corruption events; worst list size {worst}")
print(f"brute force ran {brute_cost} membership tests; the syndrome arithmetic "
      f"tested {tested} deletion positions, one O(1) check each")
print()

# A two-candidate list in action: find a received word claimed by two codewords.
for y_val in range(1 << 11):
    result = list_decode(Word(11, y_val), params)
    if len(result.candidates) == 2:
        (w1, ev1), (w2, ev2) = result.candidates
        print(f"received {Word(11, y_val)} is explained by both:")
        print(f"  {w1} via delete {ev1.d}, flip {ev1.e}")
        print(f"  {w2} via delete {ev2.d}, flip {ev2.e}")
        break
