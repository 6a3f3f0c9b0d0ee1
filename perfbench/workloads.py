"""The benchmark's workloads: seeded inputs, the op each one times, its checks.

A workload is built from the freshly imported ``nashrand`` package, a seed
and a tracer.  ``ops`` is the fixed list of ops of one pass; a run repeats
passes, and ``begin_pass`` resets the state a pass must not inherit (the
enumeration cache, the seeded bit streams, the per-pass counters), so
every pass does the same work.  Ops raise ``CheckFailed`` when an output
is wrong.

Why these workloads:

* ``solve-imitation``: the paper's imitation games and random ones, solved
  by support enumeration and put through the capability gate.  A one-sided
  imitation-game solver would act here.
* ``solve-general``: the same op on games that are not imitation games,
  many of them degenerate, plus batches of tiny 4x4 screens.  An imitation
  fast path must leave it unchanged; per-call overhead in ``exact`` shows.
* ``scan``: the closed forms and the Bareiss kernel on large big-integer
  matrices, as ``nashrand scan`` computes them.  The solver is never called.
* ``sample``: the fair-bit sampler alone, where bits per sample is the
  quantity the paper is about.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random
import time

from checks import (
    check_analyze,
    check_equilibrium,
    check_profile_json,
    chi_square,
    profile_text,
    require,
)

DEFAULT_SEED = 1
# Not used while the benchmark was written; confirm a claimed gain on it.
HELD_OUT_SEED = 7919

NAMES = ("solve-imitation", "solve-general", "scan", "sample")

# Scan rows check the profile with the library's is_nash only up to this
# dimension: above it the check would cost as much as the row itself.
IS_NASH_MAX_DIM = 48

_NIBBLE_ROWS = tuple(tuple((v >> j) & 1 for j in range(4)) for v in range(16))


def game_key(a_rows, b_rows) -> str:
    """Reference key of a game: a digest of its two payoff matrices."""
    return hashlib.sha256(repr((a_rows, b_rows)).encode()).hexdigest()[:20]


def solve_result(report) -> dict:
    """What the references freeze of a solve: enumerated_supports excluded."""
    return {
        "equilibria": sorted(profile_text(p) for p in report.equilibria),
        "c1": str(report.c1_min),
        "c2": str(report.c2_min),
        "degenerate": report.degenerate_flag,
    }


def scan_row(n, c1, c2, g, abs_det, abs_k) -> list:
    return [str(n), str(c1), str(c2), None if g is None else str(g),
            str(abs_det), str(abs_k)]


COUNTERS = (
    "solves", "enumerated_supports", "equilibria", "degenerate",
    "gate_calls", "repeat_calls", "repeat_busy_s",
    "screen_pairs", "screen_hits", "det_mac", "result_bits",
    "samples", "bits_consumed", "sample_s", "reference_checks",
)


class GameItem:
    def __init__(self, label, game, serialize, closed_form=None):
        self.label = label
        self.a = game.A.rows
        self.b = game.B.rows
        self.text = serialize.dumps_game(game)
        self.closed_form = closed_form
        self.key = game_key(self.a, self.b)


class Workload:
    """Common state: library handle, tracer, references, per-pass counters."""

    def __init__(self, nr, seed: int, tracer, refs: dict, tiny: bool):
        self.nr = nr
        self.seed = seed
        self.tracer = tracer
        self.refs = refs
        self.tiny = tiny
        self.rng = random.Random(f"{self.name}:{seed}")
        self.recorded_seed = seed in refs.get("seeds", ())
        self.counters: dict[str, float] = {}
        self.ops: list[tuple[str, object]] = []

    def begin_pass(self) -> None:
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.nr.solving._enumerate.cache_clear()

    def finish(self) -> list[str]:
        """Checks over the whole run; returns the problems found."""
        return []

    def call(self, name, fn, *args, **kwargs):
        return self.tracer.call(name, fn, *args, **kwargs)


class _Solve(Workload):
    """One op: parse, enumerate, verify, capability gate, write."""

    def _cache_hits(self) -> int:
        return self.nr.solving._enumerate.cache_info().hits

    def _first_solve(self, game, who: str):
        hits = self._cache_hits()
        report = self.call(
            "solving.support_enumeration", self.nr.solving.support_enumeration, game
        )
        require(self._cache_hits() == hits,
                f"{who}: first solve was served by the enumeration cache")
        c = self.counters
        c["solves"] += 1
        c["enumerated_supports"] += report.enumerated_supports
        c["equilibria"] += len(report.equilibria)
        c["degenerate"] += report.degenerate_flag
        return report

    def _gate(self, name, fn, *args):
        hits = self._cache_hits()
        t0 = time.perf_counter()
        out = self.call(name, fn, *args)
        c = self.counters
        c["gate_calls"] += 1
        if self._cache_hits() > hits:
            c["repeat_calls"] += 1
            c["repeat_busy_s"] += time.perf_counter() - t0
        return out

    def solve_op(self, item: GameItem) -> None:
        nr = self.nr
        who = item.label
        game = self.call("serialize.parse_game", nr.serialize.parse_game, item.text)
        require(game.A.rows == item.a and game.B.rows == item.b,
                f"{who}: parsed payoffs differ from the written ones")
        report = self._first_solve(game, who)
        eqs = report.equilibria
        require(len(eqs) > 0, f"{who}: no equilibrium found")
        for p in eqs:
            require(self.call("games.is_nash", nr.games.is_nash, game, p),
                    f"{who}: is_nash rejects a reported equilibrium")
            check_equilibrium(item.a, item.b, p, who)
        require(report.c1_min == min(p.x.denominator for p in eqs)
                and report.c2_min == min(p.y.denominator for p in eqs),
                f"{who}: reported minima are not the least denominators")
        if item.closed_form is not None:
            require(item.closed_form in eqs, f"{who}: closed form not enumerated")
        solving = nr.solving
        c1, c2 = self._gate("solving.min_complexities", solving.min_complexities, game)
        require((c1, c2) == (report.c1_min, report.c2_min),
                f"{who}: min_complexities disagrees with the solve")
        # The two minima may come from different equilibria, so the gate at
        # (c1, c2) is open only if one equilibrium attains both.
        both = any(p.x.denominator <= c1 and p.y.denominator <= c2 for p in eqs)
        require(self._gate("solving.bounded_ne_exists", solving.bounded_ne_exists,
                           game, c1, c2) is both,
                f"{who}: capability gate at the minima should be {both}")
        if c1 > 1:
            require(self._gate("solving.bounded_ne_exists", solving.bounded_ne_exists,
                               game, c1 - 1, c2) is False,
                    f"{who}: an equilibrium admitted below the minimal capability")
        for p in eqs:
            text = self.call("serialize.dumps_profile", nr.serialize.dumps_profile, p)
            check_profile_json(text, p, who)
        self._check_reference(item, report)

    def _check_reference(self, item: GameItem, report) -> None:
        ref = self.refs["games"].get(item.key)
        if ref is None:
            require(not self.recorded_seed,
                    f"{item.label}: no reference, though seed {self.seed} is recorded")
            return
        got = solve_result(report)
        require(all(ref[k] == v for k, v in got.items()),
                f"{item.label}: result differs from the frozen reference")
        self.counters["reference_checks"] += 1

    def _random_games(self, count: int, make, label: str) -> list[GameItem]:
        """``count`` distinct games ``make(rng)``, from a stream per label."""
        rng = random.Random(f"{self.name}:{self.seed}:{label}")
        ser = self.nr.serialize
        seen = set()
        items = []
        while len(items) < count:
            game = make(rng)
            if (game.A.rows, game.B.rows) in seen:
                continue  # a repeat would be served by the cache
            seen.add((game.A.rows, game.B.rows))
            items.append(GameItem(f"{label}#{len(items)}", game, ser))
        return items

    def _matrix(self, rng, lo: int, hi: int, n: int):
        return self.nr.exact.IntMatrix(
            [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


class SolveImitation(_Solve):
    name = "solve-imitation"

    # (n, count) of random imitation games; the many small ones keep ops
    # short and above 100 per pass.
    RANDOM = ((7, 24), (6, 72))

    def __init__(self, *args):
        super().__init__(*args)
        nr = self.nr
        fam, ser = nr.families, nr.serialize
        paper = [("prime_block_game(1)", 1), ("prime_block_game(2)", 2)]
        betas = [] if self.tiny else [8, 9]
        items = []
        for label, k in paper:
            profile, _ = self.call("families.prime_block_ne", fam.prime_block_ne, k)
            game = self.call("families.prime_block_game", fam.prime_block_game, k)
            items.append(GameItem(label, game, ser, profile))
        for n in betas:
            profile, _ = self.call("families.beta_ne", fam.beta_ne, n)
            game = self.call("families.beta_game", fam.beta_game, n)
            items.append(GameItem(f"beta_game({n})", game, ser, profile))
            if n == 8:
                example1 = nr.games.Game(game.A, game.B, family_tag="example1")
                items.append(GameItem("example1", example1, ser, profile))
        for n, count in self.RANDOM:
            eye = nr.exact.IntMatrix.identity(n)
            items += self._random_games(
                min(count, 2) if self.tiny else count,
                lambda rng, eye=eye, n=n: nr.games.Game(eye, self._matrix(rng, 0, 99, n)),
                f"random-imitation-{n}")
        self.items = items
        self.ops = [("solve", lambda it=it: self.solve_op(it)) for it in items]
        self.rng.shuffle(self.ops)


class SolveGeneral(_Solve):
    name = "solve-general"

    RANDOM = ((7, 8), (6, 12))  # (n, count) of each kind: int and binary
    SCREEN_BATCHES = 58
    SCREEN_PAIRS = 250

    def __init__(self, *args):
        super().__init__(*args)
        nr = self.nr
        fam, ser = nr.families, nr.serialize
        items = []
        paper = [("constant_sum_prime_block(2)", fam.constant_sum_prime_block, 2)]
        if not self.tiny:
            paper += [("constant_sum_beta(8)", fam.constant_sum_beta, 8),
                      ("constant_sum_beta(9)", fam.constant_sum_beta, 9)]
        for label, fn, n in paper:
            game, profile, _ = self.call(f"families.{fn.__name__}", fn, n)
            items.append(GameItem(label, game, ser, profile))
        game = nr.games.Game
        for lo, kind in ((-99, "int"), (0, "binary")):
            hi = -lo or 1
            for n, count in self.RANDOM:
                items += self._random_games(
                    1 if self.tiny else count,
                    lambda rng, lo=lo, hi=hi, n=n: game(self._matrix(rng, lo, hi, n),
                                                        self._matrix(rng, lo, hi, n)),
                    f"random-{kind}-{n}")
        self.items = items
        ops = [("solve", lambda it=it: self.solve_op(it)) for it in items]
        batches, pairs = (1, 300) if self.tiny else (self.SCREEN_BATCHES,
                                                     self.SCREEN_PAIRS)
        # Each code is one pair of 4x4 binary matrices, four bits a row.
        # Codes are distinct, so no cross-check solve can hit the cache.
        seen: set[int] = set()
        for b in range(batches):
            codes = []
            while len(codes) < pairs:
                code = self.rng.getrandbits(32)
                if code not in seen:
                    seen.add(code)
                    codes.append(code)
            ops.append(("screen", lambda b=b, codes=codes: self.screen_op(b, codes)))
        self.rng.shuffle(ops)
        self.ops = ops

    def screen_op(self, batch: int, codes: list[int]) -> None:
        """Random 4x4 binary pairs through det and fully_mixed_ne."""
        nr = self.nr
        IntMatrix, det = nr.exact.IntMatrix, nr.exact.det
        fully_mixed_ne, Game = nr.solving.fully_mixed_ne, nr.games.Game
        SingularMatrix = nr.errors.SingularMatrix
        rows = _NIBBLE_ROWS
        call = self.call
        c = self.counters
        hits = 0
        for code in codes:
            a_rows = (rows[code & 15], rows[code >> 4 & 15],
                      rows[code >> 8 & 15], rows[code >> 12 & 15])
            b_rows = (rows[code >> 16 & 15], rows[code >> 20 & 15],
                      rows[code >> 24 & 15], rows[code >> 28 & 15])
            a = call("exact.IntMatrix", IntMatrix, a_rows)
            b = call("exact.IntMatrix", IntMatrix, b_rows)
            da = call("exact.det", det, a)
            c["det_mac"] += 64 / 3
            c["result_bits"] += da.bit_length()
            if da == 0:
                continue
            db = call("exact.det", det, b)
            c["det_mac"] += 64 / 3
            c["result_bits"] += db.bit_length()
            if db == 0:
                continue
            game = Game(a, b)
            try:
                profile = call("solving.fully_mixed_ne", fully_mixed_ne, game)
            except SingularMatrix:
                continue  # a documented outcome of the screen, not a failure
            if profile is None:
                continue
            hits += 1
            who = f"screen batch {batch} pair {code:#010x}"
            check_equilibrium(a_rows, b_rows, profile, who)
            report = self._first_solve(game, who)
            require(profile in report.equilibria,
                    f"{who}: fully mixed equilibrium missing from enumeration")
        c["screen_pairs"] += len(codes)
        c["screen_hits"] += hits


class Scan(Workload):
    """The rows of ``nashrand scan``, row by row and through the CLI."""

    name = "scan"

    def __init__(self, *args, tmpdir: str):
        super().__init__(*args)
        self.tmpdir = tmpdir
        r = self.rng.randint
        if self.tiny:
            betas, csbs, blocks = [8, 9, 20], [8], [1, 2, 3]
            cli = [("beta", 8, 9)]
        else:
            # Every small n, then one n per stratum: the pass cost is nearly
            # seed-independent and most ops are short.  The large n are
            # dense enough that the slowest tenth of ops barely moves.
            betas = [*range(8, 44), *(r(lo, lo + 1) for lo in range(44, 88, 2)),
                     *(r(lo, lo + 3) for lo in range(88, 152, 4))]
            csbs = [*(r(lo, lo + 3) for lo in range(8, 56, 4)),
                    *(r(lo, lo + 7) for lo in range(56, 120, 8))]
            blocks = list(range(1, 13))
            b0, b1, c0, c1 = r(8, 40), r(41, 60), r(8, 30), r(31, 50)
            cli = [("beta", b0, b0 + 5), ("beta", b1, b1 + 3), ("primeblock", 1, 8),
                   ("constsum-beta", c0, c0 + 2), ("constsum-beta", c1, c1 + 1),
                   ("constsum-primeblock", 1, 3)]
        ops = [("scan-beta", lambda n=n: self.beta_op(n)) for n in betas]
        ops += [("scan-constsum-beta", lambda n=n: self.constsum_beta_op(n))
                for n in csbs]
        ops += [("scan-primeblock", lambda k=k: self.primeblock_op(k)) for k in blocks]
        ops += [("scan-cli", lambda a=a: self.cli_op(*a)) for a in cli]
        self.rng.shuffle(ops)
        self.ops = ops

    def _check_row(self, family: str, param: int, row: list) -> None:
        ref = self.refs["scan"].get(f"{family}:{param}")
        require(ref is not None, f"scan {family} {param}: no reference row")
        require(row == ref, f"scan {family} {param}: row {row} differs from {ref}")
        self.counters["reference_checks"] += 1

    def _check_nash(self, game, profile, who: str) -> None:
        if game.n <= IS_NASH_MAX_DIM:
            require(self.call("games.is_nash", self.nr.games.is_nash, game, profile),
                    f"{who}: is_nash rejects the closed form")

    def _recurrence(self, n: int):
        t = self.call("families.recurrence_table", self.nr.families.recurrence_table, n)
        require(t.a(n) == t.b(n) + t.b(n + 1), f"recurrence {n}: a(n) != b(n) + b(n+1)")
        return t.g(n), 2 * abs(t.b(n)) + abs(t.a(n))

    def beta_op(self, n: int) -> None:
        fam = self.nr.families
        profile, c1 = self.call("families.beta_ne", fam.beta_ne, n)
        require(profile.x.denominator == c1, f"beta_ne({n}): C is not x's denominator")
        g, abs_det = self._recurrence(n)
        self._check_row("beta", n, scan_row(n, c1, n, g, abs_det, c1 * g))
        if n <= IS_NASH_MAX_DIM:
            game = self.call("families.beta_game", fam.beta_game, n)
            self._check_nash(game, profile, f"beta_ne({n})")

    def constsum_beta_op(self, n: int) -> None:
        fam = self.nr.families
        game, profile, c1 = self.call("families.constant_sum_beta",
                                      fam.constant_sum_beta, n)
        g, abs_det = self._recurrence(n)
        self._check_row("constsum-beta", n, scan_row(n, c1, c1, g, abs_det, c1 * g))
        self._check_nash(game, profile, f"constant_sum_beta({n})")

    def primeblock_op(self, k: int) -> None:
        nr = self.nr
        fam, exact = nr.families, nr.exact
        profile, c1 = self.call("families.prime_block_ne", fam.prime_block_ne, k)
        game = self.call("families.prime_block_game", fam.prime_block_game, k)
        d = self.call("exact.det", exact.det, game.B)
        cof = self.call("exact.cofactor_sum", exact.cofactor_sum, game.B, method="solve")
        c = self.counters
        c["det_mac"] += game.n ** 3 / 3
        c["result_bits"] += d.bit_length() + cof.bit_length()
        n = game.n
        self._check_row("primeblock", k, scan_row(n, c1, n, None, abs(d), abs(cof)))
        self._check_nash(game, profile, f"prime_block_ne({k})")

    def cli_op(self, family: str, start: int, stop: int) -> None:
        path = os.path.join(self.tmpdir, "scan.csv")
        argv = ["scan", family, "--from", str(start), "--to", str(stop), "--out", path]
        code = self.call("cli.main", self.nr.cli.main, argv)
        require(code == 0, f"nashrand {' '.join(argv[:6])}: exit code {code}")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        require(len(rows) == stop - start + 1, f"cli scan {family}: wrong row count")
        for param, row in zip(range(start, stop + 1), rows):
            got = [row["n"], row["c1"], row["c2"], row["g_n"] or None,
                   row["abs_det"], row["abs_k"]]
            # wallclock_ms is not deterministic, and log2_c1_over_n follows c1
            self._check_row(family, param, got)


class Sample(Workload):
    """Batches of DdgSampler draws over seeded bit streams, and analyze."""

    name = "sample"

    BATCHES = 25
    BATCH = 800
    DEPTHS = (16, 32, 64)

    def __init__(self, *args):
        super().__init__(*args)
        nr = self.nr
        fam = nr.families
        beta40, _ = self.call("families.beta_ne", fam.beta_ne, 40)
        beta200, _ = self.call("families.beta_ne", fam.beta_ne, 200)
        block10, _ = self.call("families.prime_block_ne", fam.prime_block_ne, 10)
        self.dists = {
            "beta40": beta40.x,
            "beta200": beta200.x,
            "primeblock10": block10.x,
            "uniform1000": nr.games.uniform(1000),
        }
        self.samplers = {
            name: self.call("sampling.DdgSampler", nr.sampling.DdgSampler, x)
            for name, x in self.dists.items()
        }
        self.entropy = {name: _entropy(x) for name, x in self.dists.items()}
        batches, size = (2, 200) if self.tiny else (self.BATCHES, self.BATCH)
        depths = self.DEPTHS[:1] if self.tiny else self.DEPTHS
        ops = []
        for b in range(batches):
            for name in self.dists:
                ops.append(("sample", lambda name=name: self.sample_op(name, size)))
        for name in self.dists:
            for d in depths:
                ops.append(("analyze", lambda name=name, d=d: self.analyze_op(name, d)))
        self.ops = ops
        self.pass_counts: list[dict[str, list[int]]] = []
        self.per_dist: dict[str, list[int]] = {}

    def begin_pass(self) -> None:
        super().begin_pass()
        # Every pass replays the same seeded bit streams.
        self.bits = {name: self.nr.sampling.BitSource(self.seed * 64 + i)
                     for i, name in enumerate(self.dists)}
        self.counts = {name: [0] * x.n for name, x in self.dists.items()}
        self.pass_counts.append(self.counts)
        self.per_dist = {name: [0, 0] for name in self.dists}  # samples, bits

    def sample_op(self, name: str, size: int) -> None:
        sampler, bits, counts = self.samplers[name], self.bits[name], self.counts[name]
        n = len(counts)
        before = bits.bits_consumed
        t0 = time.perf_counter()
        token = self.tracer.open("sampling.sample")
        draw = sampler.sample
        out = [draw(bits) for _ in range(size)]
        self.tracer.close(token, size)
        c = self.counters
        c["sample_s"] += time.perf_counter() - t0
        for i in out:
            require(1 <= i <= n, f"{name}: outcome {i} outside 1..{n}")
            counts[i - 1] += 1
        used = bits.bits_consumed - before
        c["samples"] += size
        c["bits_consumed"] += used
        self.per_dist[name][0] += size
        self.per_dist[name][1] += used

    def analyze_op(self, name: str, depth: int) -> None:
        report = self.call("sampling.analyze", self.nr.sampling.analyze,
                           self.samplers[name], depth)
        check_analyze(report, self.dists[name], depth, f"analyze {name} depth {depth}")

    def excess(self) -> float:
        """Mean bits per sample minus the entropy of the distribution drawn."""
        samples = sum(s for s, _ in self.per_dist.values())
        bits = sum(b for _, b in self.per_dist.values())
        ent = sum(s * self.entropy[name] for name, (s, _) in self.per_dist.items())
        return (bits - ent) / samples

    def finish(self) -> list[str]:
        problems = []
        first = self.pass_counts[0]
        for name, x in self.dists.items():
            stat, limit = chi_square(first[name], x.numerators, x.denominator)
            if not stat <= limit:
                problems.append(f"{name}: chi-square {stat:.1f} above {limit:.1f}")
        if any(counts != first for counts in self.pass_counts[1:]):
            problems.append("a replayed bit stream gave different outcomes")
        return problems


def _entropy(x) -> float:
    q = x.denominator
    return -sum(p / q * math.log2(p / q) for p in x.numerators if p)


def build(name: str, nr, seed: int, tracer, refs: dict, *, tiny: bool = False,
          tmpdir: str | None = None) -> Workload:
    if name == "solve-imitation":
        return SolveImitation(nr, seed, tracer, refs, tiny)
    if name == "solve-general":
        return SolveGeneral(nr, seed, tracer, refs, tiny)
    if name == "scan":
        return Scan(nr, seed, tracer, refs, tiny, tmpdir=tmpdir)
    if name == "sample":
        return Sample(nr, seed, tracer, refs, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
