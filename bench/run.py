"""Benchmark command for arthurcalc.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src and
nothing else.  One process, one thread, one closed-loop client: each
operation starts when the previous one has returned.  A run repeats
whole rounds of the workload's fixed seeded operation list until S
seconds have passed.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are a readable table that also gives the raw figures.  With
``--trace 1`` the run reports the per-layer metrics of tracer.py
instead.  Raw per-run figures go to .bench_out/ in the checkout.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

import calibrate
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
LAYERS = ("halfint", "labels", "params", "charspace", "signs", "endoscopy",
          "segments", "elementary", "packets", "formal", "weyl", "io_json",
          "cli")
SETUP_REPEATS = 5
END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MiB"),
              ("setup_s", "s"))


def load_package() -> SimpleNamespace:
    """A fresh import of every layer module from ./src."""
    for name in [m for m in sys.modules
                 if m == "arthurcalc" or m.startswith("arthurcalc.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module("arthurcalc." + name)
            for name in LAYERS}
    for mod in mods.values():
        if not Path(mod.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"arthurcalc imported from {mod.__file__}, "
                             f"not from {SRC}")
    return SimpleNamespace(**mods)


def setup(clock: calibrate.Clock, name: str, seed: int):
    """Import the package and build the workload's inputs.

    Returns (package, workload, outcome, scaled seconds, raw seconds).
    """
    clock.sample(3)
    t0 = time.perf_counter()
    pkg = load_package()
    outcome = workloads.Outcome()
    wl = workloads.WORKLOADS[name](pkg, seed, outcome)
    t1 = time.perf_counter()
    clock.sample(3)
    return pkg, wl, outcome, clock.scaled(t1 - t0, (t0 + t1) / 2), t1 - t0


class Rounds:
    """Timings of whole rounds; every round runs the same steps."""

    def __init__(self) -> None:
        self.steps: list = []        # (kind, label) of the first round
        self.failed = array("b")     # per step of the first round
        self.raw = array("d")        # seconds, every step of every round
        self.mid = array("d")
        self.count = 0

    def run(self, clock: calibrate.Clock, wl) -> None:
        first = not self.count
        n = 0
        for step in wl.rounds():
            result, raw, mid = clock.time(step.fn, *step.args)
            self.raw.append(raw)
            self.mid.append(mid)
            if first:
                self.steps.append((step.kind, step.label))
                self.failed.append(isinstance(result, workloads.Raised))
            n += 1
            if step.check is not None:
                step.check(result)
        if n != len(self.steps):
            raise RuntimeError("rounds differ in their steps")
        self.count += 1

    def summary(self, clock: calibrate.Clock) -> dict:
        """End-to-end figures, reference-scaled and raw.

        An operation's latency is the median over the rounds of its
        times; the percentiles run over the operations of the list.
        """
        n = len(self.steps)
        ops = [i for i, (kind, _) in enumerate(self.steps) if kind == "op"]
        done = [i for i in ops if not self.failed[i]]
        out = {"attempted": len(ops) * self.count,
               "failed": (len(ops) - len(done)) * self.count,
               "rounds": self.count}
        for prefix, scale in (("", clock.scaled), ("raw_", lambda r, t: r)):
            times = [scale(r, t) for r, t in zip(self.raw, self.mid)]
            lat = [statistics.median(times[k * n + i]
                                     for k in range(self.count))
                   for i in done]
            out[prefix + "ops_per_s"] = len(done) * self.count / sum(times)
            out[prefix + "latency_p50_ms"] = 1e3 * statistics.median(lat)
            out[prefix + "latency_p90_ms"] = \
                1e3 * statistics.quantiles(lat, n=10)[8]
            out[prefix + "op_ms"] = [round(1e3 * x, 4) for x in lat]
        out["op_labels"] = [self.steps[i][1] for i in done]
        return out

    def by_label(self) -> dict:
        """Raw seconds per step label, for the per-run output file."""
        n = len(self.steps)
        table: dict = {}
        for i, (kind, label) in enumerate(self.steps):
            row = table.setdefault(label, {"kind": kind, "per_round": 0,
                                           "raw_s": 0.0})
            row["per_round"] += 1
            row["raw_s"] += sum(self.raw[k * n + i]
                                for k in range(self.count))
        return table


def measure(name: str, seed: int, seconds: float) -> dict:
    clock = calibrate.Clock(workloads.WORKLOADS[name].REFERENCE)
    clock.sample(calibrate.REF_EDGE)
    times = []
    for _ in range(SETUP_REPEATS):
        # drop the previous set-up's package before the next import
        _, wl, outcome, scaled, raw = setup(clock, name, seed)
        times.append((scaled, raw))
    rounds = Rounds()
    gc.collect()
    start = time.perf_counter()
    while not rounds.count or time.perf_counter() - start < seconds:
        rounds.run(clock, wl)
    clock.sample(calibrate.REF_EDGE)
    res = rounds.summary(clock)
    res.update(
        outcome=outcome,
        setup_s=statistics.median(t[0] for t in times),
        raw_setup_s=statistics.median(t[1] for t in times),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        ref_mean_ms=1e3 * statistics.mean(clock.ref_s),
        ref_min_ms=1e3 * min(clock.ref_s),
        ref_max_ms=1e3 * max(clock.ref_s),
        by_label=rounds.by_label())
    return res


def trace_run(name: str, seed: int) -> dict:
    """One untraced and one traced round, each on freshly built inputs;
    the difference between the two is the tracing overhead."""
    clock = calibrate.Clock(workloads.WORKLOADS[name].REFERENCE)
    clock.sample(calibrate.REF_EDGE)
    _, wl, outcome, _, _ = setup(clock, name, seed)
    plain = Rounds()
    plain.run(clock, wl)
    pkg, wl, outcome2, _, _ = setup(clock, name, seed)
    tr = tracer.Tracer(pkg)
    traced = Rounds()
    with tr.installed():
        traced.run(clock, wl)
    clock.sample(calibrate.REF_EDGE)
    before, after = plain.summary(clock), traced.summary(clock)
    metrics = tr.metrics(clock.scaled)
    metrics["trace.overhead_pct"] = \
        100.0 * (before["ops_per_s"] / after["ops_per_s"] - 1.0)
    outcome.errors += outcome2.errors
    return {"attempted": before["attempted"] + after["attempted"],
            "failed": before["failed"] + after["failed"],
            "outcome": outcome, "metrics": metrics,
            "untraced": before, "traced": after, "tracer": tr}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "arthurcalc" / "__init__.py").is_file():
        sys.stderr.write(f"no package source under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        res = trace_run(args.workload, args.seed)
        metrics = {k: {"value": v, "unit": tracer.unit(k)}
                   for k, v in sorted(res["metrics"].items())}
        for key, m in metrics.items():
            print(f"  {key:30s} {m['value']:14.4f} {m['unit']}")
        res["tracer"].write(out_file.with_suffix(".functions.json"))
        raw = {"untraced": res["untraced"], "traced": res["traced"],
               "metrics": res["metrics"]}
    else:
        res = measure(args.workload, args.seed, args.seconds)
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END}
        print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds, "
              f"{res['attempted']} operations, {res['failed']} failed")
        for key, u in END_TO_END:
            print(f"  {key:16s} {res[key]:12.4f} {u}")
        print(f"  raw: {res['raw_ops_per_s']:.2f} 1/s, p50 "
              f"{res['raw_latency_p50_ms']:.3f} ms, p90 "
              f"{res['raw_latency_p90_ms']:.3f} ms, setup "
              f"{res['raw_setup_s']:.4f} s; reference loop mean "
              f"{res['ref_mean_ms']:.3f} ms (min {res['ref_min_ms']:.3f}, "
              f"max {res['ref_max_ms']:.3f})")
        raw = {k: v for k, v in res.items() if k != "outcome"}
        raw["operations"] = sorted(zip(raw.pop("op_ms"),
                                       raw.pop("raw_op_ms"),
                                       raw.pop("op_labels")))
    outcome = res["outcome"]
    for err in outcome.errors:
        sys.stderr.write(f"check failed: {err}\n")
    with open(out_file.with_suffix(".json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    print(json.dumps({"correct": not outcome.errors,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
