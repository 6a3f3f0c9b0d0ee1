import json
import math
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

import nashrand
from conftest import DATA, GOLDEN, X1_NUMERATORS, Y2_NUMERATORS, same_as_checked
from nashrand import cli
from nashrand.cli import generate_family, main
from nashrand.errors import ParseError
from nashrand.exact import IntMatrix
from nashrand.families import beta_ne
from nashrand.games import MixedStrategy, complexity, is_nash
from nashrand.serialize import (
    decimal_str,
    dumps_game,
    dumps_profile,
    load_game,
    parse_game,
    strategy_to_json,
)
from nashrand.solving import complexity_upper_bound, support_enumeration


def run_cli(capsys, *argv) -> tuple[int, str]:
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_gen_example1_matches_golden_bytes(capsys):
    rc, out = run_cli(capsys, "gen", "example1")
    assert rc == 0
    assert out == (GOLDEN / "example1.json").read_text()


def test_gen_example2_matches_golden_bytes(capsys):
    rc, out = run_cli(capsys, "gen", "example2")
    assert rc == 0
    assert out == (GOLDEN / "example2.json").read_text()


def test_gen_beta_eleven_display(capsys):
    rc, out = run_cli(capsys, "gen", "beta", "--n", "11")
    assert rc == 0
    obj = json.loads(out)
    assert obj["n"] == 11
    assert obj["B"][10] == [1] + [0] * 10
    assert obj["B"][0] == [0, 1, 1] + [0] * 8


def test_gen_primeblock_small(capsys):
    rc, out = run_cli(capsys, "gen", "primeblock", "--n", "1")
    obj = json.loads(out)
    assert obj["n"] == 4
    assert obj["B"] == [[0, 1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 0]]


def test_gen_writes_file(tmp_path, capsys):
    target = tmp_path / "game.json"
    rc, _ = run_cli(capsys, "gen", "example1", "--out", str(target))
    assert rc == 0
    assert target.read_text() == (GOLDEN / "example1.json").read_text()
    # the permutation family's one equilibrium mixes over the shortest cycle
    # of the forward cycle, all n strategies, for both players
    rc, _ = run_cli(capsys, "gen", "permutation", "--n", "6", "--out", str(target))
    assert rc == 0
    rc, out = run_cli(capsys, "solve", str(target))
    assert rc == 0
    assert json.loads(out)["c1_min"] == json.loads(out)["c2_min"] == "6"


def test_solve_example1(tmp_path, capsys):
    rc, out = run_cli(capsys, "solve", str(GOLDEN / "example1.json"))
    assert rc == 0
    obj = json.loads(out)
    assert obj["c1_min"] == "34"
    assert obj["c2_min"] == "8"
    assert len(obj["equilibria"]) == 1
    eq = obj["equilibria"][0]
    assert eq["x"]["numerators"] == [str(v) for v in X1_NUMERATORS]
    assert eq["y"]["denominator"] == "8"
    assert obj["degenerate"] is False


def test_solve_example2(capsys):
    rc, out = run_cli(capsys, "solve", str(GOLDEN / "example2.json"))
    obj = json.loads(out)
    assert obj["c1_min"] == obj["c2_min"] == "34"
    assert obj["equilibria"][0]["y"]["numerators"] == [str(v) for v in Y2_NUMERATORS]


def test_solve_example2_matches_pair_loop_bytes(capsys):
    # example2_solve.json is the output of the full pair loop, which examined
    # C(16, 8) - 1 = 12869 pairs; the certificate examines one, and every
    # other line must stay byte for byte the same
    rc, out = run_cli(capsys, "solve", str(GOLDEN / "example2.json"))
    assert rc == 0
    expected = (GOLDEN / "example2_solve.json").read_text()
    count = '"enumerated_supports": '
    assert out == expected.replace(count + "12869\n", count + "1\n")


def test_solve_coordination_csv(capsys):
    rc, out = run_cli(
        capsys, "solve", str(DATA / "coordination_2x2.json"), "--format", "csv"
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "index,complexity_x,complexity_y,"
        "x_numerators,x_denominator,y_numerators,y_denominator"
    )
    assert len(lines) == 4  # three equilibria
    assert lines[1].startswith("1,1,1,")


def test_gen_solve_verify_round_trip_bit_for_bit(tmp_path, capsys):
    game_path = tmp_path / "g.json"
    rc, _ = run_cli(capsys, "gen", "example1", "--out", str(game_path))
    assert rc == 0

    rc, solve_out = run_cli(capsys, "solve", str(game_path))
    assert rc == 0

    # library path produces the same JSON bytes
    from nashrand.cli import _solve_jsonable

    lib_payload = _solve_jsonable(load_game(str(game_path)), None)
    assert solve_out == json.dumps(lib_payload, indent=2) + "\n"

    profile, _ = beta_ne(8)
    profile_path = tmp_path / "p.json"
    profile_path.write_text(dumps_profile(profile))
    rc, verify_out = run_cli(capsys, "verify", str(game_path), str(profile_path))
    assert rc == 0
    verdict = json.loads(verify_out)
    assert verdict["nash"] is True
    assert verdict["complexity_x"] == "34"
    assert verdict["complexity_y"] == "8"


def test_verify_rejects_capability_below_complexity(tmp_path, capsys):
    profile, _ = beta_ne(8)
    profile_path = tmp_path / "p.json"
    profile_path.write_text(dumps_profile(profile))
    rc, out = run_cli(
        capsys,
        "verify", str(GOLDEN / "example1.json"), str(profile_path),
        "--c1", "33", "--c2", "8",
    )
    assert rc == 0
    verdict = json.loads(out)
    assert verdict["capability_ok_1"] is False
    assert verdict["capability_ok_2"] is True


def test_verify_uniform_profile_is_not_nash(tmp_path, capsys):
    from nashrand.games import Profile, uniform

    profile_path = tmp_path / "u.json"
    profile_path.write_text(dumps_profile(Profile(uniform(8), uniform(8))))
    rc, out = run_cli(capsys, "verify", str(GOLDEN / "example1.json"), str(profile_path))
    assert json.loads(out)["nash"] is False


def test_scan_beta(capsys):
    rc, out = run_cli(capsys, "scan", "beta", "--from", "8", "--to", "12")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,c1,c2,log2_c1_over_n,g_n,abs_det,abs_k,wallclock_ms"
    first = lines[1].split(",")
    assert first[0] == "8" and first[1] == "34" and first[2] == "8"
    assert first[4] == "1" and first[5] == "9" and first[6] == "34"


def test_scan_primeblock(capsys):
    rc, out = run_cli(capsys, "scan", "primeblock", "--from", "1", "--to", "3")
    lines = out.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    # closed form: (k+1) prod(p) + sum of prod(p)/p over first k primes
    assert [r[1] for r in rows] == ["5", "23", "151"]
    assert [r[2] for r in rows] == ["4", "8", "14"]
    assert rows[0][4] == ""  # no gcd column for this family


def test_scan_constsum_families(capsys):
    rc, out = run_cli(capsys, "scan", "constsum-beta", "--from", "8", "--to", "9")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert rows[0][1] == rows[0][2] == "34"
    rc, out = run_cli(capsys, "scan", "constsum-primeblock", "--from", "2", "--to", "2")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert rows[0][1] == rows[0][2] == "23"


def test_scan_rows_build_each_input_once(monkeypatch, capsys):
    # every column of a scan row comes from a closed form: no row builds a
    # payoff matrix or an identity, or eliminates, and a beta or constant-sum
    # beta row reads one recurrence table (exact is patched, so an eliminate
    # call from anywhere counts; families would count too if it imported it)
    from nashrand import exact, families

    counts: dict[str, int] = {}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        return wrapper

    for name in ("recurrence_table", "beta_matrix", "prime_block_matrix"):
        monkeypatch.setattr(families, name, counted(name, getattr(families, name)))
    eliminate = counted("eliminate", exact.eliminate)
    monkeypatch.setattr(exact, "eliminate", eliminate)
    monkeypatch.setattr(families, "eliminate", eliminate, raising=False)
    monkeypatch.setattr(exact.IntMatrix, "identity",
                        counted("identity", exact.IntMatrix.identity))
    expected = {
        "beta": {"recurrence_table": 1},
        "constsum-beta": {"recurrence_table": 1},
        "primeblock": {},
        "constsum-primeblock": {},
    }
    for family, builds in expected.items():
        counts.clear()
        n = "9" if family.endswith("beta") else "3"
        assert run_cli(capsys, "scan", family, "--from", n, "--to", n)[0] == 0
        assert counts == builds, family


def test_scan_closed_form_matches_enumeration(capsys):
    from nashrand import cli
    from nashrand.exact import eliminate
    from nashrand.families import closed_form, constant_sum_beta, constant_sum_prime_block
    from nashrand.solving import support_enumeration

    for family, params in (("beta", range(8, 15)), ("constsum-beta", range(8, 15)),
                           ("primeblock", range(1, 4)),
                           ("constsum-primeblock", range(1, 4))):
        rc, out = run_cli(capsys, "scan", family, "--from", str(params[0]),
                          "--to", str(params[-1]))
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert rc == 0 and len(rows) == len(params)
        for k, row in zip(params, rows):
            game = generate_family(family, k)
            assert int(row[0]) == game.n
            report = support_enumeration(game, max_n=14)
            assert (int(row[1]), int(row[2])) == (report.c1_min, report.c2_min), (family, k)
    # the constant-sum rows reuse the base family's columns; at the cap,
    # past enumeration, they must still describe the transformed game
    for family, k, build in (("constsum-beta", 500, constant_sum_beta),
                             ("constsum-primeblock", 17, constant_sum_prime_block)):
        game, profile, c1 = build(k)
        row = cli._scan_row(family, k)
        scanned = closed_form(family, k)[0]
        assert scanned == profile
        assert (row["n"], row["c1"], row["c2"]) == (game.n, c1, complexity(profile.y))
        d, y = eliminate([list(r) for r in game.B.rows], [1] * game.n)
        assert (row["abs_det"], row["abs_k"]) == (abs(d), abs(sum(y)))
        assert is_nash(game, scanned)


def test_solve_warns_on_degeneracy(tmp_path, capsys):
    from nashrand.exact import IntMatrix
    from nashrand.games import Game

    game = Game(IntMatrix([[1, 0], [1, 0]]), IntMatrix([[1, 1], [0, 0]]))
    path = tmp_path / "degen.json"
    path.write_text(dumps_game(game))
    rc = main(["solve", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "degeneracy detected" in captured.err
    assert json.loads(captured.out)["degenerate"] is True


def test_recurrence_rows(capsys):
    rc, out = run_cli(capsys, "recurrence", "--to", "9")
    assert rc == 0
    lines = out.strip().splitlines()
    b_column = [line.split(",")[2] for line in lines[1:10]]
    assert b_column == ["0", "1", "0", "1", "-1", "2", "-2", "4", "-5"]
    det_column = [line.split(",")[3] for line in lines[1:8]]
    assert det_column == ["1", "1", "2", "3", "4", "6", "9"]
    assert lines[-1].startswith("# identities verified")


def test_recurrence_identity_failure_exits_three(monkeypatch, capsys):
    # recurrence is the one runtime check of the three identities its trailer
    # names; each must survive python -O and end in the hypothesis exit code.
    # Each corrupted table below breaks exactly one identity.
    from nashrand import families

    good = families.recurrence_table(30)
    a, b, det_b = (list(v) for v in (good.a_values, good.b_values, good.det_b_values))
    a_bad, det_bad = a[:], det_b[:]
    a_bad[0] += 1
    det_bad[19] += 1  # det_b(20), read against a(21) and b(21)
    cases = (
        ((a_bad, b, det_b), "a(n) = b(n) + b(n+1) fails at n=1"),
        ((a, b, det_bad), "det_b(n-1) = 2|b(n)| + |a(n)| fails at n=21"),
        # negating both sequences keeps the sum and |.| identities, so only
        # the sign check (from n = 4 on) can catch it
        (([-v for v in a], [-v for v in b], det_b), "sign(b(n)) = (-1)^n fails at n=4"),
    )
    for (a_values, b_values, det_values), message in cases:
        bad = families.RecurrenceTable(good.upto, tuple(a_values), tuple(b_values),
                                       tuple(det_values), good.g_values)
        monkeypatch.setattr(families, "recurrence_table", lambda upto: bad)
        assert main(["recurrence", "--to", "30"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("hypothesis violation: ") and message in err, message


def test_sample_command(tmp_path, capsys):
    dist_path = tmp_path / "u8.json"
    from nashrand.games import uniform

    dist_path.write_text(json.dumps(strategy_to_json(uniform(8))))
    rc, out = run_cli(
        capsys, "sample", str(dist_path), "--count", "8000", "--seed", "11"
    )
    assert rc == 0
    payload = json.loads(out)
    assert sum(payload["outcome_counts"]) == 8000
    # binomial 5-sigma band around 1000 per outcome
    sigma = (8000 * (1 / 8) * (7 / 8)) ** 0.5
    for count in payload["outcome_counts"]:
        assert abs(count - 1000) <= 5 * sigma
    assert payload["bits_consumed"] == 24000


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("name", ["beta8", "beta40", "primeblock5", "uniform1000"])
def test_sample_matches_golden_bytes(tmp_path, capsys, name, seed):
    # Frozen from the bit-by-bit Knuth-Yao walk: counts and bits consumed
    # must survive any change to how the walk reads its bits.
    from nashrand.families import prime_block_ne
    from nashrand.games import uniform

    dist = {"beta8": beta_ne(8)[0].x, "beta40": beta_ne(40)[0].x,
            "primeblock5": prime_block_ne(5)[0].x, "uniform1000": uniform(1000)}[name]
    dist_path = tmp_path / f"{name}.json"
    dist_path.write_text(json.dumps(strategy_to_json(dist)))
    rc, out = run_cli(capsys, "sample", str(dist_path), "--count", "20000",
                      "--seed", str(seed))
    assert rc == 0
    assert out == (GOLDEN / f"sample_{name}_seed{seed}.json").read_text()


def test_sample_point_mass_consumes_no_bits(tmp_path, capsys):
    from nashrand.games import MixedStrategy

    dist_path = tmp_path / "point.json"
    dist_path.write_text(json.dumps(strategy_to_json(MixedStrategy((1, 0), 1))))
    rc, out = run_cli(capsys, "sample", str(dist_path), "--count", "50", "--seed", "1")
    payload = json.loads(out)
    assert payload["bits_consumed"] == 0
    assert payload["outcome_counts"] == [50, 0]


def test_analyze_command(tmp_path, capsys):
    profile, _ = beta_ne(8)
    dist_path = tmp_path / "x1.json"
    dist_path.write_text(json.dumps(strategy_to_json(profile.x)))
    rc, out = run_cli(capsys, "analyze", str(dist_path), "--depth", "64")
    payload = json.loads(out)
    assert payload["depth"] == 64
    num, den = payload["tail"].split("/")
    assert int(num) / int(den) <= 8 / 2**64


def test_analyze_refuses_depth_beyond_cap(tmp_path, capsys):
    profile, _ = beta_ne(8)
    dist_path = tmp_path / "x1.json"
    dist_path.write_text(json.dumps(strategy_to_json(profile.x)))
    start = time.perf_counter()
    rc = main(["analyze", str(dist_path), "--depth", "100000"])
    assert time.perf_counter() - start < 1.0
    assert rc == 4
    err = capsys.readouterr().err
    assert "depth 100000" in err and "cap 4096" in err and "800000" in err


def test_analyze_refuses_work_beyond_cap(tmp_path, capsys):
    # the depth is within its cap, but n * depth = 8.2e8 remainder steps
    # would run for minutes; the refusal comes before any of them
    dist_path = tmp_path / "uniform200000.json"
    dist_path.write_text(json.dumps({"numerators": [1] * 200_000,
                                     "denominator": 200_000}))
    start = time.perf_counter()
    rc = main(["analyze", str(dist_path), "--depth", "4096"])
    assert time.perf_counter() - start < 2.0
    assert rc == 4
    err = capsys.readouterr().err
    assert "200000 * 4096 = 819200000 remainder steps" in err
    assert f"cap {2**26}" in err


def test_analyze_runs_at_the_work_cap(tmp_path, capsys):
    # n * depth = 16384 * 4096 = 2^26, the most the cap admits, on 300-bit
    # numerators: analyze takes one floor and a few masked adds per distinct
    # numerator, about 0.5 s, and printing the fractions about 1 s more on a
    # shared 2-core host; a level-by-level remainder loop takes 8 s or more
    rng = random.Random(26)
    nums = [rng.getrandbits(300) for _ in range(16_384)]
    dist_path = tmp_path / "wide16384.json"
    dist_path.write_text(json.dumps({"numerators": [str(p) for p in nums],
                                     "denominator": str(sum(nums))}))
    start = time.perf_counter()
    rc = main(["analyze", str(dist_path), "--depth", "4096",
               "--out", str(tmp_path / "report.json")])
    assert time.perf_counter() - start < 5.0
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_sample_and_analyze_report_entropy_of_an_underflowing_outcome(tmp_path, capsys):
    # p = 1 / 2^1100 rounds to 0.0; entropy must skip it, not fail on log2
    dist_path = tmp_path / "tiny.json"
    dist_path.write_text(json.dumps(strategy_to_json(
        MixedStrategy((1, 2**1100 - 1), 2**1100))))
    for argv in (("sample", "--count", "10"), ("analyze", "--depth", "64")):
        rc, out = run_cli(capsys, argv[0], str(dist_path), *argv[1:])
        assert rc == 0
        assert json.loads(out)["entropy_bits"] == 0.0
        assert "-0.0" not in out


def test_bound_command(capsys):
    rc, out = run_cli(capsys, "bound", str(DATA / "matching_pennies.json"))
    payload = json.loads(out)
    assert payload["bound_c1"] == payload["bound_c2"] == "336"
    assert payload["measured_c1"] == "2"
    rc, out = run_cli(capsys, "bound", str(GOLDEN / "example1.json"))
    payload = json.loads(out)
    assert int(payload["bound_c1"]) >= 34


def test_bound_writes_bounds_past_the_digit_limit(tmp_path, capsys):
    # the bound of a valid 400x400 game with payoffs in +-10^9 has about
    # 4,800 digits, past the 4,300 that str() of an int allows by default
    import random

    from nashrand.solving import complexity_upper_bound

    rng = random.Random(400)
    n, m = 400, 10**9
    a, b = ([[rng.randint(-m, m) for _ in range(n)] for _ in range(n)] for _ in "AB")
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": n, "A": a, "B": b}))
    rc, out = run_cli(capsys, "bound", str(path))
    assert rc == 0
    payload = json.loads(out)
    expected = complexity_upper_bound(load_game(str(path)))
    for key, value in zip(("bound_c1", "bound_c2"), expected):
        digits = payload[key]
        assert len(digits) > 4300 and digits[0] != "0"
        parsed = 0  # int() of the whole string would hit the same limit
        for start in range(0, len(digits), 1000):
            part = digits[start:start + 1000]
            parsed = parsed * 10 ** len(part) + int(part)
        assert parsed == value


def test_bound_refuses_a_bound_beyond_cap(tmp_path, capsys):
    # one payoff of 4,299 nines: computing and writing the bounds would take
    # about 20 s for 860k digits each, 200 * 4299 + 200.5 * log10(401)
    # + log10(200 * 201) = 860326.5, so the estimate is 860327 digits
    n = 200
    a = [[0] * n for _ in range(n)]
    a[0][0] = int("9" * 4299)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": n, "A": a, "B": [[0] * n for _ in range(n)]}))
    start = time.perf_counter()
    rc = main(["bound", str(path)])
    assert time.perf_counter() - start < 2.0
    assert rc == 4
    err = capsys.readouterr().err
    assert "estimated 860327 digits" in err and "cap 100000" in err


def test_decimal_str_matches_decimal():
    # libmpdec converts ints exactly and ignores the interpreter's digit
    # limit; the cases sit at the 512-digit chunk edges, and 10^1024 + 5 has
    # an all-zero middle chunk
    for v in (0, 1, 10**511, 10**512 - 1, 10**512, 10**512 + 1, 10**1024 + 5, 3**20000):
        assert decimal_str(v) == str(Decimal(v))


def test_dumps_profile_matches_the_json_encoder():
    # the direct writer against json.dumps(..., indent=2) of the same objects:
    # seeded profiles with n = 1..8, point masses, and numerators past the
    # interpreter's 4,300-digit limit (so the writer never calls str() on them)
    from nashrand.games import Profile

    def encoded(p: Profile) -> str:
        obj = {"x": strategy_to_json(p.x), "y": strategy_to_json(p.y)}
        return json.dumps(obj, indent=2) + "\n"

    def strategy(nums: list[int]) -> MixedStrategy:
        g = math.gcd(*nums)
        return MixedStrategy(tuple(v // g for v in nums), sum(nums) // g)

    rng = random.Random(4401)
    profiles = [
        Profile(MixedStrategy((1,), 1), MixedStrategy((1,), 1)),
        Profile(MixedStrategy((0, 1, 0), 1), MixedStrategy((1, 0, 0), 1)),
        beta_ne(40)[0],
        Profile(strategy([10**4400 + 7, 3]), strategy([1, 1])),
    ]
    for _ in range(300):
        n = rng.randint(1, 8)
        x, y = ([rng.randint(0, 10 ** rng.randint(1, 40)) for _ in range(n)]
                for _ in "xy")
        x[rng.randrange(n)] += 1
        y[rng.randrange(n)] += 1
        profiles.append(Profile(strategy(x), strategy(y)))
    for p in profiles:
        assert dumps_profile(p) == encoded(p)
    assert len(decimal_str(profiles[3].x.denominator)) > 4300


def _large_payoff_game(path) -> None:
    """Rock-paper-scissors times 10^3000 plus noise: payoffs of 3,001 digits
    parse, while the unique equilibrium's denominators have about 6,000."""
    rng = random.Random(21)
    rps = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
    a, b = ([[s * r * 10**3000 + rng.randint(1, 10**50) for r in row] for row in rps]
            for s in (1, -1))
    path.write_text(json.dumps({"n": 3, "A": a, "B": b}))


def test_solve_and_bound_write_numbers_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "large.json"
    _large_payoff_game(path)
    game = load_game(str(path))
    report = support_enumeration(game)
    (eq,) = report.equilibria

    def dec(v: int) -> str:
        return str(Decimal(v))

    assert len(dec(report.c1_min)) > 4300

    rc, out = run_cli(capsys, "solve", str(path))
    assert rc == 0
    payload = json.loads(out)
    assert (payload["c1_min"], payload["c2_min"]) == (dec(report.c1_min), dec(report.c2_min))
    (row,) = payload["equilibria"]
    for key, x in (("x", eq.x), ("y", eq.y)):
        assert row[key] == {"numerators": [dec(p) for p in x.numerators],
                            "denominator": dec(x.denominator)}
        assert row[f"complexity_{key}"] == dec(x.denominator)

    rc, out = run_cli(capsys, "solve", str(path), "--format", "csv")
    assert rc == 0
    assert out.splitlines()[1] == ",".join([
        "1", dec(eq.x.denominator), dec(eq.y.denominator),
        " ".join(map(dec, eq.x.numerators)), dec(eq.x.denominator),
        " ".join(map(dec, eq.y.numerators)), dec(eq.y.denominator)])

    rc, out = run_cli(capsys, "bound", str(path))
    assert rc == 0
    payload = json.loads(out)
    expected = (*complexity_upper_bound(game), report.c1_min, report.c2_min)
    assert [payload[k] for k in ("bound_c1", "bound_c2", "measured_c1", "measured_c2")] == [
        dec(v) for v in expected]


def _child_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this nashrand.

    pyproject's ``pythonpath`` reaches this process's ``sys.path``, not a
    child's environment, so the directory holding the imported package goes
    first on the child's PYTHONPATH.  PYTHONINTMAXSTRDIGITS is dropped, so
    the child has the interpreter's default digit limit.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    src = str(Path(nashrand.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_verify_reads_a_long_profile_only_when_the_limit_is_lifted(tmp_path, capsys):
    game_path, profile_path = tmp_path / "large.json", tmp_path / "profile.json"
    _large_payoff_game(game_path)
    rc, out = run_cli(capsys, "solve", str(game_path))
    assert rc == 0
    solved = json.loads(out)
    (eq,) = solved["equilibria"]
    profile_path.write_text(json.dumps({"x": eq["x"], "y": eq["y"]}))
    env = _child_env()
    argv = [sys.executable, "-m", "nashrand.cli", "verify", str(game_path), str(profile_path)]

    result = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert result.returncode == 2
    assert result.stderr.count("\n") == 1
    assert "field 'numerators'" in result.stderr and "limit of 4300" in result.stderr
    assert "PYTHONINTMAXSTRDIGITS" in result.stderr
    assert "sys.set_int_max_str_digits" not in result.stderr

    result = subprocess.run(argv, capture_output=True, text=True,
                            env={**env, "PYTHONINTMAXSTRDIGITS": "0"})
    assert result.returncode == 0
    verified = json.loads(result.stdout)
    assert verified["nash"] is True
    assert verified["complexity_x"] == solved["c1_min"]


def test_number_past_the_digit_limit_in_a_game_exits_two(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"n": 1,\n "A": [[1]], "B": [[' + "7" * 5000 + "]]}")
    err = _rejects(capsys, "solve", str(path))
    assert "line 2, column 21" in err and "5000 digits" in err
    assert "limit of 4300" in err and "PYTHONINTMAXSTRDIGITS" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "A": [[1, 0], [0, 1]], "B": [[1, 0], [0]]}')
    rc, _ = run_cli(capsys, "solve", str(bad))
    assert rc == 2
    missing = tmp_path / "missing.json"
    rc, _ = run_cli(capsys, "solve", str(missing))
    assert rc == 2


def _rejects(capsys, *argv) -> str:
    """Run the CLI, require exit 2 with a one-line error, return the error."""
    rc = main(list(argv))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


# payoff grids that parse_game must refuse, each put in place of A or of B
BAD_PAYOFFS = {
    "float": [[1, 2.0], [0, 1]],
    "fraction": [[1, 0], [0, 1.5]],
    "string": [["7", 0], [0, 1]],
    "true": [[1, 0], [True, 1]],
    "false": [[False, 0], [0, 1]],
    "null": [[1, None], [0, 1]],
    "nested list": [[1, [0]], [0, 1]],
    "short row": [[1, 0], [0]],
    "long row": [[1, 0, 0], [0, 1]],
    "row not a list": [[1, 0], 7],
    "too few rows": [[1, 0]],
    "too many rows": [[1, 0], [0, 1], [1, 1]],
    "not a list": {"0": [1, 0]},
}


def test_parse_game_refuses_non_integer_and_ragged_payoffs(tmp_path, capsys):
    # _int_matrix is the only check of a payoff on this path: the IntMatrix
    # it builds does not check its entries again
    good = [[1, 0], [0, 1]]
    path = tmp_path / "bad.json"
    for name, grid in BAD_PAYOFFS.items():
        for field in ("A", "B"):
            obj = {"n": 2, "A": good, "B": good, field: grid}
            text = json.dumps(obj)
            with pytest.raises(ParseError, match=f"field '{field}'"):
                parse_game(text)
            path.write_text(text)
            assert f"field '{field}'" in _rejects(capsys, "solve", str(path)), name
    game = parse_game(json.dumps({"n": 2, "A": good, "B": [[2**70, -3], [0, 1]]}))
    assert game.B.rows == ((2**70, -3), (0, 1)) and same_as_checked(game.B)


def test_parsed_games_equal_checked_matrices():
    paths = sorted(DATA.glob("*.json")) + [GOLDEN / "example1.json",
                                           GOLDEN / "example2.json"]
    for path in paths:
        obj = json.loads(path.read_text())
        game = load_game(str(path))
        for name in ("A", "B"):
            m = getattr(game, name)
            assert same_as_checked(m) and m == IntMatrix(obj[name]), (path.name, name)


_UNIT = '{"numerators": [1], "denominator": 1}'
_GAME = '"n": 1, "A": [[1]], "B": [[1]]'
# object-level refusals of the game, distribution and profile readers:
# (command, file text, the whole error line after "error: PATH: ")
BAD_FILES = {
    "game not an object": ("solve", "[1]", "top level must be an object"),
    "game without n": ("solve", '{"A": [[1]], "B": [[1]]}', "field 'n' is missing"),
    "game without B": ("solve", '{"n": 1, "A": [[1]]}', "fields 'A' and 'B' are required"),
    "game without A": ("solve", '{"n": 1, "B": [[1]]}', "fields 'A' and 'B' are required"),
    "tag not a string": ("solve", '{' + _GAME + ', "family_tag": 7}',
                         "field 'family_tag': expected a string or null"),
    "constant sum not an integer": ("solve", '{' + _GAME + ', "constant_sum": 2.0}',
                                    "field 'constant_sum': expected an integer or null"),
    "constant sum contradicted": ("solve", '{' + _GAME + ', "constant_sum": 3}',
                                  "constant_sum tag does not match payoffs"),
    "malformed json": ("solve", '{"n": 1,\n "A" [[1]]}',
                       "line 2, column 6: Expecting ':' delimiter"),
    "distribution not an object": ("sample", "[1, 1]", "top level must be an object"),
    "no denominator": ("sample", '{"numerators": [1, 1]}', "field 'denominator' is missing"),
    "no numerators": ("analyze", '{"denominator": "3"}', "field 'numerators' is missing"),
    "not a distribution": ("analyze", '{"numerators": [1, 1], "denominator": 3}',
                           "bad distribution object: numerators must sum to the denominator"),
    "profile x not an object": ("verify", '{"x": [1], "y": ' + _UNIT + '}',
                                "a distribution must be an object"),
    "profile without x": ("verify", '{"y": ' + _UNIT + '}',
                          "profile object needs fields 'x' and 'y'"),
    "profile without y": ("verify", '{"x": ' + _UNIT + '}',
                          "profile object needs fields 'x' and 'y'"),
    # the one reader refuses any non-object first, as for games and distributions
    "profile not an object": ("verify", "[]", "top level must be an object"),
    # verify reads two files; the line names the one it refused
    "verify game not an object": ("verify game", "[1]", "top level must be an object"),
    "verify game without n": ("verify game", '{"A": [[1]], "B": [[1]]}',
                              "field 'n' is missing"),
}


@pytest.mark.parametrize("case", BAD_FILES)
def test_readers_refuse_malformed_objects(tmp_path, capsys, case):
    command, text, message = BAD_FILES[case]
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = {
        "solve": ["solve", str(path)],
        "sample": ["sample", str(path), "--count", "1"],
        "analyze": ["analyze", str(path), "--depth", "4"],
        "verify": ["verify", str(GOLDEN / "example1.json"), str(path)],
        "verify game": ["verify", str(path), str(GOLDEN / "example1.json")],
    }[command]
    assert _rejects(capsys, *argv) == f"error: {path}: {message}\n"


def _every_command(tmp_path) -> dict[str, list[str]]:
    """One successful argv per subcommand, on inputs written to tmp_path."""
    game = str(GOLDEN / "example1.json")
    profile, dist = tmp_path / "profile.json", tmp_path / "dist.json"
    profile.write_text(dumps_profile(beta_ne(8)[0]))
    dist.write_text(json.dumps(strategy_to_json(beta_ne(8)[0].x)))
    return {
        "gen": ["gen", "beta", "--n", "9"],
        "solve": ["solve", game, "--format", "csv"],
        "verify": ["verify", game, str(profile), "--c1", "34"],
        "scan": ["scan", "primeblock", "--from", "1", "--to", "4"],
        "recurrence": ["recurrence", "--to", "12"],
        "sample": ["sample", str(dist), "--count", "100", "--seed", "5"],
        "analyze": ["analyze", str(dist), "--depth", "12"],
        "bound": ["bound", game],
    }


@pytest.mark.parametrize("command", ["gen", "solve", "verify", "scan", "recurrence",
                                     "sample", "analyze", "bound"])
def test_out_file_gets_the_bytes_stdout_gets(tmp_path, capsys, command):
    # one write site: --out FILE receives exactly the bytes stdout would, and
    # with --out nothing reaches stdout; scan's wallclock_ms column is cut
    def cut(text: str) -> bytes:
        if command == "scan":
            text = "".join(line.rpartition(",")[0] + "\n" for line in text.splitlines())
        return text.encode()

    argv = _every_command(tmp_path)[command]
    rc, out = run_cli(capsys, *argv)
    assert rc == 0 and out
    target = tmp_path / "out.txt"
    rc, written = run_cli(capsys, *argv, "--out", str(target))
    assert rc == 0 and written == ""
    assert cut(target.read_bytes().decode()) == cut(out)


def test_successive_main_calls_dispatch_each_command(tmp_path, capsys):
    # main() builds its parser once and reuses it: each call must see its own
    # arguments and the defaults, whatever the calls before it, an argparse
    # exit included
    game = tmp_path / "example1.json"
    golden = (GOLDEN / "example1.json").read_text()
    calls = [
        ["gen", "example1", "--out", str(game)],
        ["gen", "example1"],
        ["scan", "beta", "--from", "8"],
        ["scan", "beta", "--from", "8", "--to", "9"],
        ["solve", str(game), "--format", "csv"],
        ["solve", str(game)],
        ["nope"],
        ["recurrence", "--to", "9"],
        ["solve", str(game)],
    ]
    outputs = []
    for argv in calls:
        fresh = cli.build_parser()
        try:
            expected = vars(fresh.parse_args(argv))
        except SystemExit as exc:
            assert exc.code == 2
            capsys.readouterr()
            with pytest.raises(SystemExit) as reused:
                main(argv)
            assert reused.value.code == 2, argv
            assert "usage: nashrand" in capsys.readouterr().err
            outputs.append(None)
            continue
        assert vars(cli._parser().parse_args(argv)) == expected, argv
        rc, out = run_cli(capsys, *argv)
        assert rc == 0, argv
        outputs.append(out)
    assert cli._parser() is cli._parser()
    assert game.read_text() == golden and outputs[:3] == ["", golden, None]
    assert outputs[3].splitlines()[0] == ",".join(cli.SCAN_COLUMNS)
    assert len(outputs[3].splitlines()) == 3
    assert outputs[4].startswith("index,complexity_x")
    assert outputs[5] == outputs[8] and json.loads(outputs[5])["n"] == 8
    assert outputs[7].splitlines()[9].startswith("9,")


def test_solve_directory_exits_two(tmp_path, capsys):
    _rejects(capsys, "solve", str(tmp_path))


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert "nested too deeply" in _rejects(capsys, "solve", str(deep))


def test_float_numerators_exit_two(tmp_path, capsys):
    dist = tmp_path / "float.json"
    dist.write_text('{"numerators": [1.9, 1.1], "denominator": 2}')
    assert "float" in _rejects(capsys, "sample", str(dist), "--count", "5")


def test_string_numerators_exit_two(tmp_path, capsys):
    dist = tmp_path / "string.json"
    dist.write_text('{"numerators": "12", "denominator": "3"}')
    assert "'numerators'" in _rejects(capsys, "analyze", str(dist), "--depth", "4")
    dist.write_text('{"numerators": ["1", "x2"], "denominator": "3"}')
    assert "'x2'" in _rejects(capsys, "analyze", str(dist), "--depth", "4")


def test_negative_sample_count_exits_two(tmp_path, capsys):
    dist = tmp_path / "u2.json"
    dist.write_text('{"numerators": [1, 1], "denominator": 2}')
    assert "--count must be >= 0, got -1" in _rejects(
        capsys, "sample", str(dist), "--count", "-1"
    )


def test_sample_refuses_oversized_count(tmp_path, capsys):
    dist = tmp_path / "u2.json"
    dist.write_text('{"numerators": [1, 1], "denominator": 2}')
    start = time.perf_counter()
    rc = main(["sample", str(dist), "--count", str(10**15)])
    assert time.perf_counter() - start < 1.0
    assert rc == 4
    err = capsys.readouterr().err
    # H = 1 bit, so count * (H + 2) = 3e15 bits
    assert f"--count {10**15}" in err and "cap 100000000" in err
    assert "3000000000000000 bits" in err


def test_boolean_dimension_exits_two(tmp_path, capsys):
    game = tmp_path / "bool.json"
    game.write_text('{"n": true, "A": [[1]], "B": [[1]]}')
    assert "'n'" in _rejects(capsys, "solve", str(game))


def test_unsupported_dimension_exit_code(capsys):
    rc, _ = run_cli(capsys, "gen", "beta", "--n", "1")
    assert rc == 2
    err = _rejects(capsys, "gen", "permutation", "--n", "0")
    assert err == "error: permutation family needs n >= 1\n"


def test_dimension_mismatch_exit_code(tmp_path, capsys):
    from nashrand.games import Profile, uniform

    profile_path = tmp_path / "p2.json"
    profile_path.write_text(dumps_profile(Profile(uniform(2), uniform(2))))
    rc, _ = run_cli(capsys, "verify", str(GOLDEN / "example1.json"), str(profile_path))
    assert rc == 2


def test_gen_fixed_example_rejects_other_n(capsys):
    rc, _ = run_cli(capsys, "gen", "example1", "--n", "9")
    assert rc == 2


def test_resource_limit_exit_code(tmp_path, capsys):
    game_path = tmp_path / "beta12.json"
    run_cli(capsys, "gen", "beta", "--n", "12", "--out", str(game_path))
    rc, _ = run_cli(capsys, "solve", str(game_path))
    assert rc == 4


def test_max_n_env_override(tmp_path, capsys, monkeypatch):
    game_path = tmp_path / "beta11.json"
    run_cli(capsys, "gen", "beta", "--n", "11", "--out", str(game_path))
    monkeypatch.setenv("NASHRAND_MAX_N", "10")
    rc, _ = run_cli(capsys, "solve", str(game_path))
    assert rc == 4
    monkeypatch.setenv("NASHRAND_MAX_N", "11")
    rc, out = run_cli(capsys, "solve", str(game_path))
    assert rc == 0
    assert json.loads(out)["c1_min"] == "131"  # closed form at n = 11
    # explicit flag beats the environment
    monkeypatch.setenv("NASHRAND_MAX_N", "11")
    rc, _ = run_cli(capsys, "solve", str(game_path), "--max-n", "10")
    assert rc == 4


def test_max_n_below_one_exits_two(tmp_path, capsys, monkeypatch):
    game_path = tmp_path / "beta8.json"
    run_cli(capsys, "gen", "beta", "--n", "8", "--out", str(game_path))
    for argv in (("solve", str(game_path), "--max-n", "-3"),
                 ("solve", str(game_path), "--max-n", "0"),
                 ("bound", str(game_path), "--max-n", "-3")):
        rc, out = run_cli(capsys, *argv)
        assert rc == 2 and out == ""
    monkeypatch.setenv("NASHRAND_MAX_N", "0")
    assert main(["solve", str(game_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "NASHRAND_MAX_N" in err


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "nashrand.cli"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 2


def test_module_invocation_gen():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; from nashrand.cli import main; sys.exit(main(['gen', 'example1']))"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert '"family_tag": "example1"' in result.stdout


def test_negative_seed_exits_two(tmp_path, capsys):
    # random.Random would seed with abs(seed) and replay the stream of --seed 5
    dist = tmp_path / "u2.json"
    dist.write_text('{"numerators": [1, 1], "denominator": 2}')
    assert "seed must be >= 0, got -5" in _rejects(
        capsys, "sample", str(dist), "--count", "20", "--seed", "-5"
    )


def test_recurrence_refuses_oversized_table(capsys):
    start = time.perf_counter()
    rc = main(["recurrence", "--to", "100000000"])
    assert time.perf_counter() - start < 1.0
    assert rc == 4
    err = capsys.readouterr().err
    assert "--to 100000000" in err and "cap 10000" in err
    assert "2500000000000000 bytes" in err


def test_gen_refuses_oversized_family_matrix(capsys):
    start = time.perf_counter()
    rc = main(["gen", "beta", "--n", "20000"])
    assert time.perf_counter() - start < 1.0
    assert rc == 4
    err = capsys.readouterr().err
    assert "side 20000" in err and "cap 500" in err


def test_scan_refuses_oversized_family_matrix(capsys):
    # the k = 40 row would be a 3128 x 3128 elimination; nothing is built
    start = time.perf_counter()
    rc = main(["scan", "primeblock", "--from", "1", "--to", "40"])
    assert time.perf_counter() - start < 1.0
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "primeblock --n 40" in captured.err and "side 3128" in captured.err


def test_family_cap_admits_the_sizes_in_use():
    # largest gen/scan sizes of the tests, demos and benchmark, and the
    # largest prime-block instance under the cap (side 458)
    from nashrand.cli import _check_family_size

    for family, n in (("beta", 400), ("primeblock", 12), ("constsum-beta", 119),
                      ("constsum-primeblock", 17)):
        _check_family_size(family, n)
