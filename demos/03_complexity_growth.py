#!/usr/bin/env python3
"""How fast the minimal equilibrium denominator grows with game size.

Two families, two speeds: the prime-block construction reaches denominator
2^~(sqrt N) while the banded family reaches 2^~(0.55 n).  Everything here
is closed form; nothing is enumerated.  The worst-case bound from the
payoff magnitudes is printed alongside for scale.
"""

from math import log2

from nashrand import (
    beta_game,
    beta_ne,
    complexity_upper_bound,
    prime_block_ne,
)

print("banded family: imitation games with payoff matrices of 0/1 entries")
print("n    C(x_n)                 (1/n) log2 C    bound for player 1")
for n in range(8, 41, 4):
    _, c1 = beta_ne(n)
    bound = complexity_upper_bound(beta_game(n))[0]
    print(f"{n:<4} {c1:<22} {log2(c1) / n:<15.4f} ~2^{log2(bound):.0f}")

print("\nprime-block family: block sizes are the first k primes")
print("k  N    C1 = (k+1) prod(p) + sum prod(p)/p    C2 = N")
for k in range(1, 9):
    profile, c1 = prime_block_ne(k)
    n = profile.x.n
    print(f"{k:<2} {n:<4} {c1:<38} {n}")

print("\nthe uniform side stays linear while the structured side explodes:")
for n in (8, 20, 40):
    _, c1 = beta_ne(n)
    print(f"  n = {n:2d}: row player needs q = {c1}, column player needs q = {n}")
