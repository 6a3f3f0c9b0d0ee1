#!/usr/bin/env python3
"""Exact sampling from rational distributions, counting every random bit.

A Knuth-Yao sampler walks a binary tree one fair bit at a time and stops at
a leaf; level d has a leaf for each outcome whose d-th binary digit of p_i/q
is 1.  Frequencies are exact, and the expected bit consumption is the least
any exact sampler achieves, within two bits of the entropy.
"""

from nashrand import BitSource, DdgSampler, analyze, beta_ne, entropy, uniform

x = beta_ne(8)[0].x
print(f"target distribution: {x.numerators} / {x.denominator}")
print(f"entropy H = {entropy(x):.6f} bits")

sampler = DdgSampler(x)
report = analyze(sampler, depth=64)
print(f"\nresolution analysis to depth 64:")
print(f"  unresolved tail mass: {float(report.tail):.3e}"
      f" (bound {x.n}/2^64 = {x.n / 2**64:.3e})")
print(f"  expected bits per sample: {report.expected_bits:.6f}"
      f"  (window [H, H+2] = [{entropy(x):.3f}, {entropy(x) + 2:.3f}])")

draws = 50_000
bits = BitSource(seed=7)
counts = [0] * x.n
for _ in range(draws):
    counts[sampler.sample(bits) - 1] += 1
print(f"\n{draws} seeded draws:")
for i, (count, p) in enumerate(zip(counts, x.numerators), start=1):
    expected = p * draws / x.denominator
    print(f"  outcome {i}: {count:6d}  (expected {expected:8.1f})")
print(f"bits consumed: {bits.bits_consumed}"
      f" = {bits.bits_consumed / draws:.4f} per draw")

print("\ndyadic targets resolve with zero waste:")
u8 = DdgSampler(uniform(8))
b = BitSource(seed=1)
for _ in range(1000):
    u8.sample(b)
print(f"  uniform over 8: {b.bits_consumed / 1000:.3f} bits per draw (exactly 3)")
