"""Benchmark of the exact residue engine: certified jets per second.

Run from the repository root:

    python3 bench/run.py --workload certify-m3 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

One closed-loop client in one process certifies one jet at a time through
the public ``wres_torsion`` API, imported from ``src/`` of the checkout.
Set-up (import, seeded jet generation, ``validate_symmetries`` of every
jet) is repeated SETUP_REPS times and its median reported as ``setup_s``.
Every jet's results are checked exactly; a wrong result or an exception is
a failed jet.

Every reported time is scaled to a reference machine speed measured by the
interleaved probe of ``probe.py``; the unscaled values are in the record.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` a fixed number of jets is run untraced and then again
with the layer wrappers of ``spans.py`` installed, and the last line carries
the per-layer metrics, per jet.  The line before it is a JSON record of the
run: commit, Python, CPU count, seed, sample counts, units, the workload's
reason, the unscaled times and the full span table.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from probe import REFERENCE_S, probe
from spans import Tracer, installed
from workloads import WORKLOADS, Workload, no_span

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "wres_torsion"
SETUP_REPS = 3
PROBE_EVERY_S = 0.25   # jet time between two probes in a timed loop
MAX_TRACEBACKS = 3

END_TO_END_UNITS = {
    "jets_per_s": "jets/s",
    "jet_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "certified_share": "ratio",
}
LAYERS = ("geometry", "symbols", "residue", "clifford", "cli")
# spans and counters reported per jet by a traced run, with their fields
PER_LAYER_SPANS = (
    ("geometry.derived_scalars", ("calls", "self_ms")),
    ("symbols.build_sigma_dtpow", ("calls", "self_ms", "terms")),
    ("symbols.build_sigma_delta_inv", ("calls", "self_ms", "terms")),
    ("symbols.build_sigma_ab_printed", ("calls", "self_ms", "terms")),
    ("symbols.build_sigma_ab_composed", ("calls", "terms")),
    ("symbols.symbol_mul", ("calls", "self_ms")),
    ("symbols.leibniz", ("calls", "self_ms")),
    ("residue.part1_density", ("self_ms",)),
    ("residue.part2_density", ("self_ms",)),
    ("residue.metric_density", ("calls",)),
    ("residue.audit", ("calls",)),
    ("residue.sphere_moment", ("calls",)),
    ("clifford.element_mul", ("calls", "self_ms")),
    ("cli.report_json", ("calls",)),
)


class SetupError(RuntimeError):
    pass


def engine_on_path() -> bool:
    """Put the checkout's src/ first on sys.path; False if it is missing."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def import_engine():
    """A fresh import of the engine, so set-up time includes the import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    wt = importlib.import_module(PACKAGE)
    if not Path(wt.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"{PACKAGE} imported from {wt.__file__}, not from src/")
    return wt


def probe_burst() -> float:
    """Median of three probes: the machine speed at one point in time."""
    return statistics.median(probe() for _ in range(3))


@dataclass
class SetUp:
    seconds: float         # at reference speed
    build_seconds: float   # jet generation and validation only, at reference speed
    raw_seconds: float


def set_up(workload: Workload, seed: int, count: int):
    """Import, generate and validate SETUP_REPS times, with probes between.

    Returns the set-up timings and the last set-up's engine, jets and info.
    """
    timings: List[SetUp] = []
    before = probe_burst()
    for _ in range(SETUP_REPS):
        start = perf_counter()
        wt = import_engine()
        built = perf_counter()
        jets, info = workload.make_jets(wt, seed, count)
        for i, jet in enumerate(jets):
            report = wt.validate_symmetries(jet)
            if not report.ok:
                raise SetupError(f"{workload.name} jet {i}: {report.violations[0]}")
        end = perf_counter()
        after = probe_burst()
        scale = REFERENCE_S / ((before + after) / 2)
        timings.append(SetUp((end - start) * scale, (end - built) * scale, end - start))
        before = after
    return timings, wt, jets, info


@dataclass
class Loop:
    samples: List[float] = field(default_factory=list)  # wall seconds per jet
    marks: List[Tuple[int, float]] = field(default_factory=list)  # (jets done, probe s)
    failed: int = 0
    elapsed: float = 0.0
    stats: Counter = field(default_factory=Counter)

    @property
    def scale(self) -> float:
        """Factor that turns this loop's summed wall time into reference time."""
        return REFERENCE_S / statistics.mean(p for _, p in self.marks)

    def scaled(self) -> List[float]:
        """Each jet's time at reference speed, by the probes on either side."""
        out = []
        k = 0
        for i, seconds in enumerate(self.samples):
            while self.marks[k + 1][0] <= i:
                k += 1
            out.append(seconds * 2 * REFERENCE_S / (self.marks[k][1] + self.marks[k + 1][1]))
        return out


def run_jets(wt, workload: Workload, jets, seconds: float = float("inf"),
             span=no_span, probing: bool = True) -> Loop:
    """Certify jets one at a time until `seconds` pass or the jets run out.

    With `probing`, a probe runs before the first jet, after the last and
    whenever PROBE_EVERY_S of jet time has passed, so the probes sample the
    machine's speed evenly over the loop.
    """
    loop = Loop()
    since_probe = float("inf")
    start = perf_counter()
    deadline = start + seconds
    for jet in jets:
        if probing and since_probe >= PROBE_EVERY_S:
            loop.marks.append((len(loop.samples), probe()))
            since_probe = 0.0
        t0 = perf_counter()
        try:
            with span("jet"):
                ok = workload.check(wt, jet, loop.stats, span)
        except Exception:
            ok = False
            if loop.failed < MAX_TRACEBACKS:
                traceback.print_exc()
        t1 = perf_counter()
        loop.samples.append(t1 - t0)
        since_probe += t1 - t0
        if not ok:
            loop.failed += 1
        if t1 >= deadline:
            break
    loop.elapsed = perf_counter() - start
    if probing:
        loop.marks.append((len(loop.samples), probe()))
    return loop


def _percentile_ms(samples: List[float], q: int):
    """The q-th percentile in ms, or None without ten samples beyond it."""
    if len(samples) * (100 - q) < 1000:
        return None
    return statistics.quantiles(samples, n=100)[q - 1] * 1000


def _freeze_setup() -> None:
    """Keep the collector from rescanning the set-up's objects in the loop."""
    gc.collect()
    gc.freeze()


def measure(workload: Workload, seed: int, seconds: float):
    """The untraced run: (attempted, failed, metrics, record)."""
    setups, wt, (warm, *jets), info = set_up(workload, seed, workload.pool + 1)
    warm_loop = run_jets(wt, workload, [warm], probing=False)
    _freeze_setup()
    loop = run_jets(wt, workload, jets, seconds)
    attempted = 1 + len(loop.samples)
    failed = warm_loop.failed + loop.failed
    # The machine switches between a fast and a slow state within a second:
    # the summed time takes the loop's mean probe, while the percentiles of
    # single jets take the probes next to each jet.
    scaled = loop.scaled()
    metrics = {
        "jets_per_s": len(loop.samples) / (sum(loop.samples) * loop.scale),
        "jet_ms_p50": statistics.median(scaled) * 1000,
        "setup_s": statistics.median(s.seconds for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "certified_share": (attempted - failed) / attempted,
    }
    record = {
        "jets_timed": len(loop.samples),
        "jets_in_pool": len(jets),
        "pool_exhausted": len(loop.samples) == len(jets),
        "timed_seconds": loop.elapsed,
        "setup_reps": len(setups),
        "jet_ms_p90": _percentile_ms(scaled, 90),
        "samples": {"jets_per_s": len(loop.samples), "jet_ms_p50": len(loop.samples),
                    "setup_s": len(setups), "probes": len(loop.marks)},
        "unscaled": {
            "jets_per_s": len(loop.samples) / sum(loop.samples),
            "jet_ms_p50": statistics.median(loop.samples) * 1000,
            "setup_s": statistics.median(s.raw_seconds for s in setups),
            "probe_ms_median": statistics.median(p for _, p in loop.marks) * 1000,
        },
        **info,
        **_loop_info(loop),
    }
    return attempted, failed, metrics, record


def _loop_info(loop: Loop) -> dict:
    if "nonzero_density" not in loop.stats:
        return {}
    return {"nonzero_density_jets": loop.stats["nonzero_density"],
            "nonzero_density_share": loop.stats["nonzero_density"] / len(loop.samples)}


def measure_traced(workload: Workload, seed: int, jets_count: int = 0):
    """The traced run: (attempted, failed, per-layer metrics, record)."""
    count = jets_count or workload.traced_jets
    setups, wt, (warm, *jets), info = set_up(workload, seed, count + 1)
    warm_loop = run_jets(wt, workload, [warm], probing=False)
    _freeze_setup()
    before = probe_burst()
    plain = run_jets(wt, workload, jets, probing=False)
    between = probe_burst()
    tracer = Tracer()
    with installed(tracer, PACKAGE):
        traced = run_jets(wt, workload, jets, span=tracer.span, probing=False)
    after = probe_burst()
    plain_scale = REFERENCE_S / ((before + between) / 2)
    traced_scale = REFERENCE_S / ((between + after) / 2)
    attempted = 1 + 2 * count
    failed = warm_loop.failed + plain.failed + traced.failed
    metrics, spans = layer_metrics(tracer, count, traced.elapsed, traced_scale)
    metrics["geometry.jet_build.ms"] = (
        statistics.median(s.build_seconds for s in setups) * 1000 / (count + 1))
    metrics["trace.overhead_ratio"] = (
        (traced.elapsed * traced_scale) / (plain.elapsed * plain_scale))
    record = {"jets_traced": count, "setup_reps": len(setups), "spans": spans,
              "unscaled": {"plain_s": plain.elapsed, "traced_s": traced.elapsed,
                           "probe_ms": [before * 1000, between * 1000, after * 1000]},
              **info, **_loop_info(traced)}
    return attempted, failed, metrics, record


def layer_metrics(tracer: Tracer, jets: int, traced_seconds: float, scale: float):
    """Per-jet layer metrics and the full span table (times at reference speed)."""
    ms = 1000 * scale / jets
    table = {name: {"calls": s.calls / jets, "self_ms": s.self_time * ms,
                    "total_ms": s.total * ms, "terms": s.terms / jets,
                    "self_share": s.self_time / traced_seconds}
             for name, s in sorted(tracer.stats.items())}
    table.update({name: {"calls": c / jets} for name, c in sorted(tracer.counts.items())})
    metrics: Dict[str, float] = {}
    for name, fields in PER_LAYER_SPANS:
        for f in fields:
            metrics[f"{name}.{f}"] = table.get(name, {}).get(f, 0.0)
    for name in ("numerics.gaussian_mul", "numerics.fraction_mul"):
        metrics[name] = table[name]["calls"]
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = sum(
            (row.get("self_share", 0.0) for name, row in table.items()
             if name.startswith(layer + ".")), 0.0)
    metrics["bench.self_share"] = table["jet"]["self_share"]
    return metrics, table


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    if args.trace:
        attempted, failed, metrics, record = measure_traced(workload, args.seed)
        units = {name: _layer_unit(name) for name in metrics}
    else:
        attempted, failed, metrics, record = measure(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    header = {
        "workload": workload.name, "why": workload.why, "m": workload.m,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": _commit(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "client": "one closed-loop client",
        "units": units,
    }
    print(json.dumps({"record": {**header, **record}}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, check=False, text=True, timeout=900)
        if proc.returncode:
            sys.stderr.write(f"workload {name} exited with {proc.returncode}\n")
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not engine_on_path():
        sys.stderr.write(f"error: engine sources not found at {SRC}\n")
        return 2
    try:
        return run_one(args)
    except SetupError as exc:
        sys.stderr.write(f"error: set-up failed: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
