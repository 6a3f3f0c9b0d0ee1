import json
import subprocess
import sys
import time

from conftest import DATA, GOLDEN, X1_NUMERATORS, Y2_NUMERATORS
from nashrand.cli import main
from nashrand.families import beta_ne
from nashrand.serialize import dumps_distribution, dumps_game, dumps_profile, load_game


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


def test_scan_closed_form_matches_enumeration(capsys):
    from nashrand.families import beta_game, prime_block_game
    from nashrand.solving import min_complexities

    rc, out = run_cli(capsys, "scan", "beta", "--from", "8", "--to", "14")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(8, 15))
    for row in rows:
        game = beta_game(int(row[0]))
        assert (int(row[1]), int(row[2])) == min_complexities(game, max_n=14)
    rc, out = run_cli(capsys, "scan", "primeblock", "--from", "1", "--to", "3")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [4, 8, 14]  # N for k = 1..3
    for k, row in enumerate(rows, start=1):
        game = prime_block_game(k)
        assert (int(row[1]), int(row[2])) == min_complexities(game, max_n=14)


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
    # the check must survive python -O and end in the hypothesis exit code
    from nashrand import families

    good = families.recurrence_table(9)
    bad_a = (good.a_values[0] + 1,) + good.a_values[1:]
    bad = families.RecurrenceTable(
        good.upto, bad_a, good.b_values, good.det_b_values, good.g_values
    )
    monkeypatch.setattr(families, "recurrence_table", lambda upto: bad)
    assert main(["recurrence", "--to", "9"]) == 3
    assert "a(n) = b(n) + b(n+1) fails at n=1" in capsys.readouterr().err


def test_sample_command(tmp_path, capsys):
    dist_path = tmp_path / "u8.json"
    from nashrand.games import uniform

    dist_path.write_text(dumps_distribution(uniform(8)))
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


def test_sample_point_mass_consumes_no_bits(tmp_path, capsys):
    from nashrand.games import MixedStrategy

    dist_path = tmp_path / "point.json"
    dist_path.write_text(dumps_distribution(MixedStrategy((1, 0), 1)))
    rc, out = run_cli(capsys, "sample", str(dist_path), "--count", "50", "--seed", "1")
    payload = json.loads(out)
    assert payload["bits_consumed"] == 0
    assert payload["outcome_counts"] == [50, 0]


def test_analyze_command(tmp_path, capsys):
    profile, _ = beta_ne(8)
    dist_path = tmp_path / "x1.json"
    dist_path.write_text(dumps_distribution(profile.x))
    rc, out = run_cli(capsys, "analyze", str(dist_path), "--depth", "64")
    payload = json.loads(out)
    assert payload["depth"] == 64
    num, den = payload["tail"].split("/")
    assert int(num) / int(den) <= 8 / 2**64


def test_analyze_refuses_depth_beyond_cap(tmp_path, capsys):
    profile, _ = beta_ne(8)
    dist_path = tmp_path / "x1.json"
    dist_path.write_text(dumps_distribution(profile.x))
    start = time.perf_counter()
    rc = main(["analyze", str(dist_path), "--depth", "100000"])
    assert time.perf_counter() - start < 1.0
    assert rc == 4
    err = capsys.readouterr().err
    assert "depth 100000" in err and "cap 4096" in err and "800000" in err


def test_bound_command(capsys):
    rc, out = run_cli(capsys, "bound", str(DATA / "matching_pennies.json"))
    payload = json.loads(out)
    assert payload["bound_c1"] == payload["bound_c2"] == "336"
    assert payload["measured_c1"] == "2"
    rc, out = run_cli(capsys, "bound", str(GOLDEN / "example1.json"))
    payload = json.loads(out)
    assert int(payload["bound_c1"]) >= 34


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


def test_boolean_dimension_exits_two(tmp_path, capsys):
    game = tmp_path / "bool.json"
    game.write_text('{"n": true, "A": [[1]], "B": [[1]]}')
    assert "'n'" in _rejects(capsys, "solve", str(game))


def test_unsupported_dimension_exit_code(capsys):
    rc, _ = run_cli(capsys, "gen", "beta", "--n", "1")
    assert rc == 2


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


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "nashrand.cli"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2


def test_module_invocation_gen():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; from nashrand.cli import main; sys.exit(main(['gen', 'example1']))"],
        capture_output=True,
        text=True,
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
