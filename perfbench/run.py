"""Benchmark of the nashrand library: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve-imitation --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it imports ``nashrand`` from the
checkout's ``src/`` and from nowhere else.  One process, one thread, closed
loop: the next op starts when the previous one has finished.

A run sets the workload up several times (a fresh ``import nashrand`` and
fresh inputs each time): once before the first pass, then between passes
every few seconds, at least five times in all, and reports the median as
``setup_s``.  It repeats passes over the workload's fixed op list until
``--seconds`` is used up, and at least three times.  Every half second of an untraced
pass it also times a fixed reference loop (``reference.py``); each op's
latency is divided by the loop's median time in the seconds around the
op, so that the host's slow stretches cancel, and the timed metrics are
medians over passes in those reference units.  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes, prints the per-layer metrics of the traced ones and writes their spans to
``.perfbench-out/`` in the checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time

from checks import CheckFailed
from spans import SETUP_OP, Tracer, Untraced
import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

MIN_SETUPS = 5
SETUP_EVERY_S = 3.0  # a further set-up between passes this often
MIN_PASSES = 3
REFERENCE_EVERY_S = 0.5
REFERENCE_WINDOW = 2  # reference samples on each side of an op
UNTRACED = Untraced()

LAYERS = ("exact", "games", "solving", "families", "sampling", "serialize", "cli")
FAMILY_FUNCTIONS = ("beta_ne", "constant_sum_beta", "prime_block_ne",
                    "constant_sum_prime_block", "recurrence_table")
DISTRIBUTIONS = ("beta40", "beta200", "primeblock10", "uniform1000")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("op_p50_ref", "ref"),
    ("op_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    *((f"{layer}.{kind}", "s") for layer in LAYERS for kind in ("busy_s", "self_s")),
    ("op.self_s", "s"),
    ("solving.support_enumeration.calls", "count"),
    ("solving.support_enumeration.busy_s", "s"),
    ("solving.enumerated_supports", "count"),
    ("solving.pairs_per_s", "1/s"),
    ("solving.equilibria", "count"),
    ("solving.degenerate_share", "ratio"),
    ("solving.repeat_calls", "count"),
    ("solving.repeat_busy_s", "s"),
    ("solving.repeat_share", "ratio"),
    ("solving.fully_mixed_ne.calls", "count"),
    ("solving.fully_mixed_ne.busy_s", "s"),
    ("solving.screen_hit_ratio", "ratio"),
    ("exact.det.calls", "count"),
    ("exact.det.busy_s", "s"),
    ("exact.det.mac_per_s", "1/s"),
    ("exact.cofactor_sum.calls", "count"),
    ("exact.cofactor_sum.busy_s", "s"),
    ("exact.result_bits", "bits"),
    *((f"families.{f}.{kind}", unit) for f in FAMILY_FUNCTIONS
      for kind, unit in (("calls", "count"), ("busy_s", "s"))),
    ("games.is_nash.calls", "count"),
    ("games.is_nash.busy_s", "s"),
    ("serialize.parse_game.busy_s", "s"),
    ("serialize.dumps_profile.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("sampling.sample.calls", "count"),
    ("sampling.sample.busy_s", "s"),
    ("sampling.samples_per_s", "1/s"),
    ("sampling.bits_consumed", "bits"),
    *((f"sampling.bits_per_sample.{d}", "bits") for d in DISTRIBUTIONS),
    ("sampling.bits_per_sample_excess", "bits"),
    ("sampling.analyze.calls", "count"),
    ("sampling.analyze.busy_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def import_nashrand():
    """A fresh import of the checkout's nashrand: no module state survives."""
    for name in [m for m in sys.modules if m == "nashrand" or m.startswith("nashrand.")]:
        del sys.modules[name]
    nr = importlib.import_module("nashrand")
    for layer in ("serialize", "cli"):  # not imported by the package itself
        importlib.import_module(f"nashrand.{layer}")
    return nr


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Run:
    def __init__(self, args, refs: dict, tmpdir: str, tiny: bool = False):
        self.args = args
        self.tracer = Tracer() if args.trace else None
        self.refs, self.tmpdir, self.tiny = refs, tmpdir, tiny
        self.setup_s: list[float] = []
        self.wl = self._set_up(UNTRACED if self.tracer is None else self.tracer)
        nr = self.wl.nr
        if not os.path.abspath(nr.__file__).startswith(SRC + os.sep):
            raise RuntimeError(f"nashrand was imported from {nr.__file__}, not {SRC}")
        self.modules = {name: sys.modules[name] for name in list(sys.modules)
                        if name == "nashrand" or name.startswith("nashrand.")}
        self.last_setup = time.perf_counter()
        self.walls: list[float] = []          # untraced passes
        self.traced_walls: list[float] = []
        self.pass_ops: list[list[tuple[float, float]]] = []  # untraced: (start, latency)
        self.reference_at: list[float] = []   # when each reference sample ended
        self.reference_s: list[float] = []    # and how long it took
        self.counters: list[dict] = []        # untraced passes
        self.traced_counters: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self, index: int, traced: bool) -> None:
        wl = self.wl
        tracer = wl.tracer = self.tracer if traced else UNTRACED
        wl.begin_pass()
        latencies = []
        starts = []
        last_reference = -REFERENCE_EVERY_S
        for i, (kind, op) in enumerate(wl.ops):
            if not traced and time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                self.reference_s.append(reference.run_once())
                last_reference = time.perf_counter()
                self.reference_at.append(last_reference)
            token = tracer.open(f"op.{kind}", index * len(wl.ops) + i)
            t0 = time.perf_counter()
            starts.append(t0)
            try:
                op()
            except CheckFailed as exc:
                self._fail(f"pass {index} op {i} ({kind}): {exc}")
            except Exception as exc:  # any raise other than a documented result
                self._fail(f"pass {index} op {i} ({kind}): {type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
            tracer.close(token)
        self.attempted += len(latencies)
        wall = sum(latencies)
        if traced:
            self.traced_walls.append(wall)
            self.traced_counters = dict(wl.counters)
        else:
            self.walls.append(wall)
            self.pass_ops.append(list(zip(starts, latencies)))
            self.counters.append(dict(wl.counters))

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def measure(self) -> None:
        step = 1 if self.tracer is None else 2
        start = time.perf_counter()
        index = 0
        while True:
            t0 = time.perf_counter()
            self.one_pass(index, traced=step == 2 and index % 2 == 1)
            index += 1
            now = time.perf_counter()
            if (index >= MIN_PASSES and index % step == 0
                    and now - start + step * (now - t0) > self.args.seconds):
                break
            if now - self.last_setup >= SETUP_EVERY_S:
                self._extra_set_up()
        while len(self.setup_s) < MIN_SETUPS:
            self._extra_set_up()
        self.problems += self.wl.finish()

    def _set_up(self, tracer):
        """One timed set-up: a fresh import of nashrand and fresh inputs."""
        t0 = time.perf_counter()
        nr = import_nashrand()
        wl = workloads.build(self.args.workload, nr, self.args.seed, tracer,
                             self.refs, tiny=self.tiny, tmpdir=self.tmpdir)
        self.setup_s.append(time.perf_counter() - t0)
        return wl

    def _extra_set_up(self) -> None:
        """A set-up between passes, so that the median of the set-up times
        covers the whole run and not one slow or fast second of the host.
        Its workload is dropped and the run goes on with its own modules."""
        self._set_up(UNTRACED)
        sys.modules.update(self.modules)
        self.last_setup = time.perf_counter()

    def _local_reference(self, t: float) -> float:
        """The reference loop's median time in the samples around time t."""
        k = bisect.bisect_right(self.reference_at, t) - 1
        lo = max(k - REFERENCE_WINDOW, 0)
        return statistics.median(self.reference_s[lo:k + REFERENCE_WINDOW + 1])

    def timings(self) -> tuple[list[float], list[float]]:
        """Per op, the median over untraced passes of its latency in
        seconds and in reference units."""
        seconds, refs = [], []
        for samples in zip(*self.pass_ops):
            seconds.append(statistics.median(lat for _, lat in samples))
            refs.append(statistics.median(lat / self._local_reference(t)
                                          for t, lat in samples))
        return seconds, refs

    @staticmethod
    def _summary(lat: list[float]) -> tuple[float, float, float]:
        """Pass total, median and 90th percentile."""
        return sum(lat), statistics.median(lat), statistics.quantiles(lat, n=10)[8]

    def end_to_end(self) -> dict[str, float]:
        wall, p50, p90 = self._summary(self.timings()[1])
        return {
            "setup_s": statistics.median(self.setup_s),
            "wall_ref": wall,
            "op_p50_ref": p50,
            "op_p90_ref": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def reported(self) -> dict[str, float | None]:
        """End-to-end figures printed beside the bounded metrics."""
        sample = isinstance(self.wl, workloads.Sample)
        rates = [_ratio(c["samples"], c["sample_s"]) for c in self.counters]
        wall, p50, p90 = self._summary(self.timings()[0])
        return {
            "wall_s": wall,
            "op_p50_ms": 1000 * p50,
            "op_p90_ms": 1000 * p90,
            "reference_ms": 1000 * statistics.median(self.reference_s),
            "op_fail_ratio": self.failed / self.attempted,
            "samples_per_s": statistics.median(rates) if sample else None,
            "bits_per_sample_excess": self.wl.excess() if sample else None,
        }

    def per_layer(self) -> dict[str, float]:
        passes = len(self.traced_walls)
        by_name, layers = self.tracer.summarize(1 / passes)
        c = self.traced_counters

        def calls(name):
            return by_name.get(name, (0, 0.0))[0]

        def busy(name):
            return by_name.get(name, (0, 0.0))[1]

        m: dict[str, float] = {}
        for layer in LAYERS:
            busy_s, self_s = layers.get(layer, (0.0, 0.0))
            m[f"{layer}.busy_s"] = busy_s
            m[f"{layer}.self_s"] = self_s
        m["op.self_s"] = layers.get("op", (0.0, 0.0))[1]
        se = "solving.support_enumeration"
        m[f"{se}.calls"] = calls(se)
        m[f"{se}.busy_s"] = busy(se)
        m["solving.enumerated_supports"] = c["enumerated_supports"]
        m["solving.pairs_per_s"] = _ratio(c["enumerated_supports"], busy(se))
        m["solving.equilibria"] = c["equilibria"]
        m["solving.degenerate_share"] = _ratio(c["degenerate"], c["solves"])
        m["solving.repeat_calls"] = c["repeat_calls"]
        m["solving.repeat_busy_s"] = c["repeat_busy_s"]
        m["solving.repeat_share"] = _ratio(c["repeat_calls"],
                                           c["solves"] + c["gate_calls"])
        for name in ("solving.fully_mixed_ne", "exact.det", "exact.cofactor_sum",
                     "games.is_nash", "cli.main", "sampling.sample",
                     "sampling.analyze",
                     *(f"families.{f}" for f in FAMILY_FUNCTIONS)):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.busy_s"] = busy(name)
        m["solving.screen_hit_ratio"] = _ratio(c["screen_hits"], c["screen_pairs"])
        m["exact.det.mac_per_s"] = _ratio(c["det_mac"], busy("exact.det"))
        m["exact.result_bits"] = c["result_bits"]
        m["serialize.parse_game.busy_s"] = busy("serialize.parse_game")
        m["serialize.dumps_profile.busy_s"] = busy("serialize.dumps_profile")
        m["sampling.samples_per_s"] = _ratio(calls("sampling.sample"),
                                             busy("sampling.sample"))
        m["sampling.bits_consumed"] = c["bits_consumed"]
        per_dist = getattr(self.wl, "per_dist", {})
        for d in DISTRIBUTIONS:
            samples, bits = per_dist.get(d, (0, 0))
            m[f"sampling.bits_per_sample.{d}"] = _ratio(bits, samples)
        m["sampling.bits_per_sample_excess"] = (
            self.wl.excess() if isinstance(self.wl, workloads.Sample) else 0.0)
        m["trace.overhead_s"] = (statistics.median(self.traced_walls)
                                 - statistics.median(self.walls))
        m["trace.spans"] = sum(op != SETUP_OP for op in self.tracer.op) / passes
        if m.keys() != dict(PER_LAYER).keys():
            raise RuntimeError(f"per-layer names differ: {set(m) ^ dict(PER_LAYER).keys()}")
        return {name: m[name] for name, _ in PER_LAYER}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring time; passes are whole, at least three")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nashrand", "__init__.py")):
        print(f"error: no nashrand source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmpdir:
        run = Run(args, refs, tmpdir)
        run.measure()
    for message in run.problems[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    wl = run.wl
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(run.walls)} untraced, {len(run.traced_walls)} traced  "
          f"ops {run.attempted}  ops per pass {len(wl.ops)}  "
          f"reference checks per pass {run.counters[-1]['reference_checks']}")
    if args.trace:
        metrics = run.per_layer()
        units = dict(PER_LAYER)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
        run.tracer.write_csv(spans_path, f"workload={args.workload} seed={args.seed} "
                             f"traced_passes={len(run.traced_walls)}")
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics = run.end_to_end()
        units = dict(END_TO_END)
        extra_units = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                       "reference_ms": "ms", "op_fail_ratio": "ratio",
                       "samples_per_s": "1/s", "bits_per_sample_excess": "bits"}
        for name, value in run.reported().items():
            shown = "n/a (sample workload only)" if value is None else f"{value:.6g}"
            print(f"  {name:<34} {shown} {extra_units[name] if value is not None else ''}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g} {units[name]}")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
