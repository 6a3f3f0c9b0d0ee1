"""Command-line front end.

Subcommands: gen, solve, verify, scan, recurrence, sample, analyze, bound.
Exit codes: 0 success, 2 parse/validation error, 3 hypothesis violation,
4 resource limit.  NASHRAND_MAX_N overrides the default enumeration limit;
an explicit --max-n beats both.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import families
from .errors import (
    DepthTooLarge,
    DimensionMismatch,
    DimensionTooLarge,
    HasPureNE,
    HypothesisViolation,
    NotADistribution,
    ParseError,
    SamplerStall,
    SymmetryViolation,
    UnknownFamily,
    UnsupportedDimension,
)
from .exact import eliminate
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
    dumps_game,
    load_distribution,
    load_game,
    load_profile,
    strategy_to_json,
)
from .solving import complexity_upper_bound, support_enumeration


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
# closed-form (profile, C_1) of each family scan covers
_SCAN_FORMS = {
    "beta": families.beta_ne,
    "primeblock": families.prime_block_ne,
    "constsum-beta": lambda n: families.constant_sum_beta(n)[1:],
    "constsum-primeblock": lambda n: families.constant_sum_prime_block(n)[1:],
}
SCAN_FAMILIES = tuple(_SCAN_FORMS)
# largest `recurrence --to`: the CSV grows as N^2 / 4 bytes (24 MB at the cap)
RECURRENCE_CAP = 10_000
# largest side of a family payoff matrix that gen and scan build; a scan
# row's elimination is cubic in the side (about 1 s for the largest admitted)
FAMILY_CAP = 500


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_family_size(family: str, n: int) -> None:
    """Refuse a family matrix above FAMILY_CAP before any of it is built."""
    side, at_least = n, ""
    if family.endswith("primeblock"):
        # a block of p + 1 strategies per prime, plus the border; FAMILY_CAP
        # primes already overshoot the cap, so no more are sieved
        side = 1 + sum(p + 1 for p in families.first_primes(min(n, FAMILY_CAP)))
        at_least = "at least " if n > FAMILY_CAP else ""
    if side > FAMILY_CAP:
        raise DimensionTooLarge(
            f"{family} --n {n} needs a payoff matrix of side {at_least}{side}, "
            f"above the family cap {FAMILY_CAP} (elimination cost grows as the cube)"
        )


def generate_family(family: str, n: int | None) -> Game:
    if family in _EXAMPLES:
        if n not in (None, 8):
            raise UnsupportedDimension(f"{family} is fixed at n = 8")
        game = _GENERATORS[_EXAMPLES[family]](8)
        return Game(game.A, game.B, family_tag=family, constant_sum=game.constant_sum)
    if family not in _GENERATORS:
        raise UnknownFamily(f"unknown family {family!r}; choose from {GEN_FAMILIES}")
    if n is None:
        raise UnsupportedDimension(f"family {family!r} requires --n")
    _check_family_size(family, n)
    return _GENERATORS[family](n)


def cmd_gen(args: argparse.Namespace) -> int:
    game = generate_family(args.family, args.n)
    _write(dumps_game(game), args.out)
    return 0


def _solve_jsonable(game: Game, max_n: int | None) -> dict:
    report = support_enumeration(game, max_n)
    return {
        "n": game.n,
        "equilibria": [
            {
                "x": strategy_to_json(p.x),
                "y": strategy_to_json(p.y),
                "complexity_x": str(complexity(p.x)),
                "complexity_y": str(complexity(p.y)),
                "support_x": list(p.x.support()),
                "support_y": list(p.y.support()),
            }
            for p in report.equilibria
        ],
        "c1_min": None if report.c1_min is None else str(report.c1_min),
        "c2_min": None if report.c2_min is None else str(report.c2_min),
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


def cmd_solve(args: argparse.Namespace) -> int:
    game = load_game(args.game)
    payload = _solve_jsonable(game, args.max_n)
    if payload["degenerate"]:
        print(
            "note: degeneracy detected; reported minima range over extreme "
            "equilibria only",
            file=sys.stderr,
        )
    if args.format == "csv":
        _write(_solve_csv(payload), args.out)
    else:
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    game = load_game(args.game)
    profile = load_profile(args.profile)
    nash = is_nash(game, profile)
    payload: dict = {
        "nash": nash,
        "complexity_x": str(complexity(profile.x)),
        "complexity_y": str(complexity(profile.y)),
        "storage_bits_x": storage_bits(profile.x),
        "storage_bits_y": storage_bits(profile.y),
    }
    if args.c1 is not None:
        payload["capability_ok_1"] = capability_admissible(profile.x, args.c1)
    if args.c2 is not None:
        payload["capability_ok_2"] = capability_admissible(profile.y, args.c2)
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _scan_row(family: str, n: int) -> dict:
    if family not in _SCAN_FORMS:
        raise UnknownFamily(
            f"family {family!r} has no closed-form scan; choose from {SCAN_FAMILIES}"
        )
    start = time.perf_counter()
    profile, c1 = _SCAN_FORMS[family](n)
    if family.endswith("beta"):
        table = families.recurrence_table(n)
        g = table.g(n)
        absdet = 2 * abs(table.b(n)) + abs(table.a(n))
        abs_k = c1 * g
    else:
        g = None
        b = families.prime_block_game(n).B
        d, y = eliminate([list(row) for row in b.rows], [1] * b.n)
        absdet = abs(d)
        abs_k = abs(sum(y))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return {
        "n": profile.x.n,
        "c1": c1,
        "c2": complexity(profile.y),
        "log2_c1_over_n": math.log2(c1) / profile.x.n if c1 >= 1 else 0.0,
        "g_n": g,
        "abs_det": absdet,
        "abs_k": abs_k,
        "wallclock_ms": elapsed_ms,
    }


def cmd_scan(args: argparse.Namespace) -> int:
    if args.stop >= args.start:
        _check_family_size(args.family, args.stop)
    rows = [_scan_row(args.family, n) for n in range(args.start, args.stop + 1)]
    lines = ["n,c1,c2,log2_c1_over_n,g_n,abs_det,abs_k,wallclock_ms"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row["n"]),
                    str(row["c1"]),
                    str(row["c2"]),
                    f"{row['log2_c1_over_n']:.6g}",
                    "" if row["g_n"] is None else str(row["g_n"]),
                    str(row["abs_det"]),
                    str(row["abs_k"]),
                    f"{row['wallclock_ms']:.6g}",
                ]
            )
        )
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_recurrence(args: argparse.Namespace) -> int:
    if args.to < 8:
        raise UnsupportedDimension("recurrence table needs --to >= 8")
    if args.to > RECURRENCE_CAP:  # a, b, det_b have ~n/6 digits each in row n
        raise DimensionTooLarge(f"--to {args.to} exceeds the recurrence cap {RECURRENCE_CAP} "
                                f"(estimated output {args.to ** 2 // 4} bytes of CSV)")
    table = families.recurrence_table(args.to)
    lines = ["n,a,b,det_b,g,ratio_b_next_over_b"]
    for n in range(1, args.to + 1):
        ratio = "" if table.b(n) == 0 else f"{table.b(n + 1) / table.b(n):.6g}"
        lines.append(
            f"{n},{table.a(n)},{table.b(n)},{table.det_b(n)},{table.g(n)},{ratio}"
        )
        if table.a(n) != table.b(n) + table.b(n + 1):
            raise HypothesisViolation(f"identity a(n) = b(n) + b(n+1) fails at n={n}")
    lines.append("# identities verified: a(n) = b(n) + b(n+1); "
                 "det recurrence; sign(b(n)) = (-1)^n for n >= 4")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    dist = load_distribution(args.dist)
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
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
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
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    game = load_game(args.game)
    b1, b2 = complexity_upper_bound(game)
    payload: dict = {
        "n": game.n,
        "bound_c1": str(b1),
        "bound_c2": str(b2),
        "measured_c1": None,
        "measured_c2": None,
    }
    try:
        report = support_enumeration(game, args.max_n)
        if report.c1_min is not None:
            payload["measured_c1"] = str(report.c1_min)
            payload["measured_c2"] = str(report.c2_min)
    except DimensionTooLarge:
        pass
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


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
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "solve", help="enumerate equilibria over equal-size supports "
        "(an incomplete answer is flagged degenerate)")
    p.add_argument("game", help="game JSON file")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a profile against a game")
    p.add_argument("game")
    p.add_argument("profile")
    p.add_argument("--c1", type=int, default=None)
    p.add_argument("--c2", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="closed-form complexity growth as CSV")
    p.add_argument("family", choices=SCAN_FAMILIES)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("recurrence", help="print the recurrence table")
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser("sample", help="draw seeded samples from a distribution")
    p.add_argument("dist", help="distribution JSON file")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("analyze", help="exact sampler resolution report")
    p.add_argument("dist")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bound", help="worst-case complexity bound for a game")
    p.add_argument("game")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, NotADistribution, UnknownFamily, UnsupportedDimension,
            DimensionMismatch, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HypothesisViolation, SymmetryViolation, HasPureNE) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except (DimensionTooLarge, DepthTooLarge, SamplerStall) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
