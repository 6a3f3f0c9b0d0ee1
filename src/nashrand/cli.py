"""Command-line front end.

Subcommands: gen, solve, verify, scan, recurrence, sample, analyze, bound.
Each command returns its text; main alone writes it, to stdout or --out.
Exit codes: 0 success, 2 parse/validation error, 3 hypothesis violation,
4 resource limit.  The enumeration limit is --max-n, else NASHRAND_MAX_N,
else 10; no other module reads the environment.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import families
from .errors import (
    DepthTooLarge,
    DimensionMismatch,
    DimensionTooLarge,
    HypothesisViolation,
    NotADistribution,
    ParseError,
    SamplerStall,
    UnsupportedDimension,
)
from .games import (
    Game,
    capability_admissible,
    complexity,
    entropy,
    is_nash,
    storage_bits,
)
from .sampling import BitSource, DdgSampler, analyze
from .serialize import (
    decimal_str,
    dumps_game,
    load_distribution,
    load_game,
    load_profile,
    strategy_to_json,
)
from .solving import DEFAULT_MAX_N, complexity_upper_bound, support_enumeration


def _permutation_game(n: int) -> Game:
    if n < 1:
        raise UnsupportedDimension("permutation family needs n >= 1")
    pi = families.Permutation.identity(n)
    return families.permutation_game(pi, families.Permutation.forward_cycle(n))[0]


_GENERATORS = {
    "beta": families.beta_game,
    "primeblock": families.prime_block_game,
    "permutation": _permutation_game,
    "constsum-beta": lambda n: families.constant_sum_beta(n)[0],
    "constsum-primeblock": lambda n: families.constant_sum_prime_block(n)[0],
}
# the paper's two showcase games: a family game at n = 8, retagged
_EXAMPLES = {"example1": "beta", "example2": "constsum-beta"}
GEN_FAMILIES = (*_GENERATORS, *_EXAMPLES)
SCAN_FAMILIES = ("beta", "primeblock", "constsum-beta", "constsum-primeblock")
SCAN_COLUMNS = ("n", "c1", "c2", "log2_c1_over_n", "g_n", "abs_det", "abs_k", "wallclock_ms")
# largest `recurrence --to`: the CSV grows as N^2 / 4 bytes (24 MB at the cap)
RECURRENCE_CAP = 10_000
# largest `sample --count`: draws of uniform(1000) take about 1.5 s per
# million (shared 2-core host), so about 150 s at the cap
SAMPLE_CAP = 10**8
# largest side of a family payoff matrix that gen builds and scan admits;
# gen builds and writes both payoff matrices, side^2 entries each, and scan
# builds no matrix.  At the cap, beta at side 500 and primeblock at side
# 458, gen builds in 0.03 s and 0.03 s, or 0.05 s and 0.05 s as constant-sum
# games, and writes 1.5 MB and 1.3 MB of JSON; a scan row takes 0.2 to 2 ms
# (shared 2-core host)
FAMILY_CAP = 500
# most digits `bound` writes per bound; the bound has about n * log10(M)
# digits for largest |payoff| M, and at the cap computing and writing the
# two bounds take about 0.6 s (shared 2-core host)
BOUND_CAP = 100_000
MAX_N_ENV = "NASHRAND_MAX_N"


def resolve_max_n(max_n: int | None = None) -> int:
    """Explicit argument beats the NASHRAND_MAX_N environment variable.

    A limit below 1 from either source is a ValueError.
    """
    if max_n is not None:
        source, limit = "enumeration limit", max_n
    else:
        env = os.environ.get(MAX_N_ENV)
        if env is None:
            return DEFAULT_MAX_N
        try:
            source, limit = MAX_N_ENV, int(env)
        except ValueError:
            raise ValueError(f"{MAX_N_ENV} must be an integer, got {env!r}")
    if limit < 1:
        raise ValueError(f"{source} must be >= 1, got {limit}")
    return limit


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_family_size(family: str, n: int) -> None:
    """Refuse a family matrix above FAMILY_CAP before anything is built."""
    side, at_least = n, ""
    if family.endswith("primeblock"):
        # a block of p + 1 strategies per prime, plus the border; FAMILY_CAP
        # primes already overshoot the cap, so no more are sieved
        side = 1 + sum(p + 1 for p in families.first_primes(min(n, FAMILY_CAP)))
        at_least = "at least " if n > FAMILY_CAP else ""
    if side > FAMILY_CAP:
        raise DimensionTooLarge(
            f"{family} --n {n} has a payoff matrix of side {at_least}{side}, "
            f"above the family cap {FAMILY_CAP} (gen's output grows as the square)"
        )


def generate_family(family: str, n: int | None) -> Game:
    if family in _EXAMPLES:
        if n not in (None, 8):
            raise UnsupportedDimension(f"{family} is fixed at n = 8")
        game = _GENERATORS[_EXAMPLES[family]](8)
        return Game(game.A, game.B, family_tag=family, constant_sum=game.constant_sum)
    if n is None:
        raise UnsupportedDimension(f"family {family!r} requires --n")
    _check_family_size(family, n)
    return _GENERATORS[family](n)


def cmd_gen(args: argparse.Namespace) -> str:
    return dumps_game(generate_family(args.family, args.n))


def _solve_jsonable(game: Game, max_n: int | None) -> dict:
    report = support_enumeration(game, resolve_max_n(max_n))
    return {
        "n": game.n,
        "equilibria": [
            {
                "x": strategy_to_json(p.x),
                "y": strategy_to_json(p.y),
                "complexity_x": decimal_str(complexity(p.x)),
                "complexity_y": decimal_str(complexity(p.y)),
                "support_x": list(p.x.support()),
                "support_y": list(p.y.support()),
            }
            for p in report.equilibria
        ],
        "c1_min": None if report.c1_min is None else decimal_str(report.c1_min),
        "c2_min": None if report.c2_min is None else decimal_str(report.c2_min),
        "degenerate": report.degenerate_flag,
        "enumerated_supports": report.enumerated_supports,
    }


def _solve_csv(payload: dict) -> str:
    lines = [
        "index,complexity_x,complexity_y,"
        "x_numerators,x_denominator,y_numerators,y_denominator"
    ]
    for idx, eq in enumerate(payload["equilibria"], start=1):
        lines.append(
            ",".join(
                [
                    str(idx),
                    eq["complexity_x"],
                    eq["complexity_y"],
                    " ".join(eq["x"]["numerators"]),
                    eq["x"]["denominator"],
                    " ".join(eq["y"]["numerators"]),
                    eq["y"]["denominator"],
                ]
            )
        )
    return "\n".join(lines) + "\n"


def cmd_solve(args: argparse.Namespace) -> str:
    game = load_game(args.game)
    payload = _solve_jsonable(game, args.max_n)
    if payload["degenerate"]:
        print(
            "note: degeneracy detected; reported minima range over the "
            "equilibria found",
            file=sys.stderr,
        )
    if args.format == "csv":
        return _solve_csv(payload)
    return json.dumps(payload, indent=2) + "\n"


def cmd_verify(args: argparse.Namespace) -> str:
    game = load_game(args.game)
    profile = load_profile(args.profile)
    nash = is_nash(game, profile)
    payload: dict = {
        "nash": nash,
        "complexity_x": decimal_str(complexity(profile.x)),
        "complexity_y": decimal_str(complexity(profile.y)),
        "storage_bits_x": storage_bits(profile.x),
        "storage_bits_y": storage_bits(profile.y),
    }
    if args.c1 is not None:
        payload["capability_ok_1"] = capability_admissible(profile.x, args.c1)
    if args.c2 is not None:
        payload["capability_ok_2"] = capability_admissible(profile.y, args.c2)
    return json.dumps(payload, indent=2) + "\n"


def _scan_row(family: str, n: int) -> dict:
    """One scan row by column; the float columns come formatted."""
    start = time.perf_counter()
    profile, c1, g, absdet, abs_k = families.closed_form(family, n)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    side = profile.x.n
    fields = (side, c1, complexity(profile.y), f"{math.log2(c1) / side:.6g}",
              g, absdet, abs_k, f"{elapsed_ms:.6g}")
    return dict(zip(SCAN_COLUMNS, fields))


def cmd_scan(args: argparse.Namespace) -> str:
    if args.stop >= args.start:
        _check_family_size(args.family, args.stop)
    lines = [",".join(SCAN_COLUMNS)]
    for n in range(args.start, args.stop + 1):
        row = _scan_row(args.family, n).values()
        lines.append(",".join("" if v is None else str(v) for v in row))
    return "\n".join(lines) + "\n"


def cmd_recurrence(args: argparse.Namespace) -> str:
    if args.to < 8:
        raise UnsupportedDimension("recurrence table needs --to >= 8")
    if args.to > RECURRENCE_CAP:  # a, b, det_b have ~n/6 digits each in row n
        raise DimensionTooLarge(f"--to {args.to} exceeds the recurrence cap {RECURRENCE_CAP} "
                                f"(estimated output {args.to ** 2 // 4} bytes of CSV)")
    table = families.recurrence_table(args.to)
    lines = ["n,a,b,det_b,g,ratio_b_next_over_b"]
    # the one runtime check of the identities the trailer line names
    for n in range(1, args.to + 1):
        a, b, b_next = table.a(n), table.b(n), table.b(n + 1)
        ratio = "" if b == 0 else f"{b_next / b:.6g}"
        lines.append(f"{n},{a},{b},{table.det_b(n)},{table.g(n)},{ratio}")
        if a != b + b_next:
            raise HypothesisViolation(f"identity a(n) = b(n) + b(n+1) fails at n={n}")
        if n >= 3 and table.det_b(n - 1) != 2 * abs(b) + abs(a):
            raise HypothesisViolation(f"identity det_b(n-1) = 2|b(n)| + |a(n)| fails at n={n}")
        if n >= 4 and not (b > 0 if n % 2 == 0 else b < 0):
            raise HypothesisViolation(f"identity sign(b(n)) = (-1)^n fails at n={n}")
    lines.append("# identities verified: a(n) = b(n) + b(n+1); "
                 "det recurrence; sign(b(n)) = (-1)^n for n >= 4")
    return "\n".join(lines) + "\n"


def cmd_sample(args: argparse.Namespace) -> str:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    dist = load_distribution(args.dist)
    if args.count > SAMPLE_CAP:
        raise DimensionTooLarge(
            f"--count {args.count} exceeds the sample cap {SAMPLE_CAP} (estimated "
            f"{math.ceil(args.count * Fraction(entropy(dist) + 2))} bits, count * (H + 2))")
    sampler = DdgSampler(dist)
    bits = BitSource(args.seed)
    counts = [0] * dist.n
    for _ in range(args.count):
        counts[sampler.sample(bits) - 1] += 1
    payload = {
        "count": args.count,
        "seed": args.seed,
        "outcome_counts": counts,
        "bits_consumed": bits.bits_consumed,
        "bits_per_sample": bits.bits_consumed / args.count if args.count else 0.0,
        "entropy_bits": entropy(dist),
    }
    return json.dumps(payload, indent=2) + "\n"


def cmd_analyze(args: argparse.Namespace) -> str:
    dist = load_distribution(args.dist)
    report = analyze(DdgSampler(dist), args.depth)
    payload = {
        "depth": report.depth,
        "resolved": [f"{r.numerator}/{r.denominator}" for r in report.resolved],
        "tail": f"{report.tail.numerator}/{report.tail.denominator}",
        "tail_bound": f"{dist.n}/2^{args.depth}",
        "expected_bits_partial": report.expected_bits,
        "entropy_bits": entropy(dist),
    }
    return json.dumps(payload, indent=2) + "\n"


def cmd_bound(args: argparse.Namespace) -> str:
    game = load_game(args.game)
    n, m = game.n, max(1, game.A.max_abs(), game.B.max_abs())
    # complexity_upper_bound's n(n+1) * ceil(M^n (2n+1)^(n+1/2)), in digits
    digits = math.floor(n * math.log10(m) + (n + 0.5) * math.log10(2 * n + 1)
                        + math.log10(n * (n + 1))) + 1
    if digits > BOUND_CAP:
        raise DimensionTooLarge(
            f"the bounds of this {n}x{n} game have an estimated {digits} digits, "
            f"above the bound cap {BOUND_CAP}")
    b1, b2 = complexity_upper_bound(game)
    payload: dict = {
        "n": n,
        "bound_c1": decimal_str(b1),
        "bound_c2": decimal_str(b2),
        "measured_c1": None,
        "measured_c2": None,
    }
    max_n = resolve_max_n(args.max_n)
    try:
        report = support_enumeration(game, max_n)
        if report.c1_min is not None:
            payload["measured_c1"] = decimal_str(report.c1_min)
            payload["measured_c2"] = decimal_str(report.c2_min)
    except DimensionTooLarge:
        pass
    return json.dumps(payload, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nashrand",
        description="Exact Nash equilibria and the randomness they demand.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a family game as JSON")
    p.add_argument("family", choices=GEN_FAMILIES)
    p.add_argument("--n", type=int, default=None,
                   help="dimension (beta, permutation) or prime count (primeblock)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "solve", help="enumerate equilibria over equal-size supports "
        "(a set degenerate flag means degeneracy was seen; an unset one "
        "proves nothing)")
    p.add_argument("game", help="game JSON file")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a profile against a game")
    p.add_argument("game")
    p.add_argument("profile")
    p.add_argument("--c1", type=int, default=None)
    p.add_argument("--c2", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="closed-form complexity growth as CSV")
    p.add_argument("family", choices=SCAN_FAMILIES)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("recurrence", help="print the recurrence table")
    p.add_argument("--to", type=int, required=True)
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser("sample", help="draw seeded samples from a distribution")
    p.add_argument("dist", help="distribution JSON file")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("analyze", help="exact sampler resolution report")
    p.add_argument("dist")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bound", help="worst-case complexity bound for a game")
    p.add_argument("game")
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(func=cmd_bound)

    # declared last, so each command's usage and help list it last
    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


# built on the first main() call and reused: parse_args leaves a parser as it
# was, and the import does not pay for it
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one command: its text goes to stdout or --out; returns the exit code."""
    args = _parser().parse_args(argv)
    try:
        _write(args.func(args), args.out)
    except (ParseError, NotADistribution, UnsupportedDimension,
            DimensionMismatch, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except (DimensionTooLarge, DepthTooLarge, SamplerStall) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
