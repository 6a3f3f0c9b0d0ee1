#!/usr/bin/env python3
"""Two 8x8 games where equilibrium play demands very different amounts of
randomness from the two players.

The first is an imitation game: the row player earns 1 for matching the
column player's choice, the column player's payoffs are a bordered banded
binary matrix.  Its unique equilibrium mixes the row player with
denominator 34 while the column player just plays uniform (denominator 8).
A permutation-symmetry transform then produces a constant-sum game where
BOTH players need denominator 34.
"""

from nashrand import (
    beta_game,
    constant_sum_beta,
    complexity,
    entropy,
    storage_bits,
    support_enumeration,
)


def show(game, title):
    print(f"\n=== {title} ===")
    for name, m in (("A", game.A), ("B", game.B)):
        print(f"{name} =")
        for row in m.rows:
            print("   ", " ".join(str(v) for v in row))
    report = support_enumeration(game)
    examined = report.enumerated_supports
    if game.constant_sum is not None and examined == 1:
        print("supports examined: 1 (the full-support pair certifies the"
              " unique equilibrium of this constant-sum game)")
    else:
        print(f"supports examined: {examined}")
    print(f"equilibria found: {len(report.equilibria)}")
    for prof in report.equilibria:
        print(f"  x = {prof.x.numerators} / {prof.x.denominator}"
              f"   C(x) = {complexity(prof.x)}")
        print(f"  y = {prof.y.numerators} / {prof.y.denominator}"
              f"   C(y) = {complexity(prof.y)}")
        print(f"  entropy: H(x) = {entropy(prof.x):.4f} bits,"
              f" H(y) = {entropy(prof.y):.4f} bits")
        print(f"  storage: x needs {storage_bits(prof.x)} bits,"
              f" y needs {storage_bits(prof.y)} bits")


imitation = beta_game(8)
show(imitation, "imitation game, n = 8")

constant_sum, profile, c = constant_sum_beta(8)
show(constant_sum, "constant-sum twin (A + B = all-ones)")
print(f"\nthe transform hands the row player's distribution (reversed) to the "
      f"column player:\n  common complexity C = {c}")
