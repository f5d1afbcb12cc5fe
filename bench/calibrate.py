"""Timing against an interleaved reference loop.

The speed of a shared machine drifts by up to a factor of two, both
between processes and within one process, on a scale of seconds.  The
benchmark therefore interleaves a fixed pure-Python reference loop with
the operations it measures and reports every time in *reference-scaled*
units: a raw time is multiplied by ``nominal / r``, where ``r`` is the
mean reference time measured around it and ``nominal`` is what the
reference takes at the nominal speed.  A reported millisecond is thus a
millisecond on a machine where the reference takes exactly its nominal
time; the raw seconds are reported next to it.

The reference is made of parts with different footprints, and a slow
phase of the machine slows them by different amounts.  Each workload
names the parts that resemble its own code.  None of them uses the
package, so a change to the package cannot move the reference.
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

# Seconds of measured work between two reference samples.
REF_PERIOD_S = 0.04
# Seconds on each side of a time point whose reference samples set its
# speed, and the fewest samples to use.
REF_WINDOW_S = 0.5
REF_MIN_SAMPLES = 8
# Samples taken before and after a run, so that its ends have a window.
REF_EDGE = 12


@dataclass(frozen=True)
class _Pt:
    x: int
    y: tuple

    def moved(self, d: int) -> "_Pt":
        return _Pt(self.x + d, (self.y[1], (self.y[0] * 3 + d) % 17))


def _arith() -> int:
    """Small-tuple arithmetic and dict/set lookups in a tight loop."""
    seen = {}
    marks = set()
    pt = _Pt(0, (1, 2))
    acc = 0
    for i in range(150):
        key = (i & 15, i % 7, -(i & 3))
        seen[key] = seen.get(key, 0) + 1
        acc += sum(a * b for a, b in zip(key, key[1:]))
        pt = pt.moved(i & 3)
        marks.add(pt)
    return acc + len(seen) + len(marks)


def _objects() -> int:
    """Frozen-object construction, grouping and sorting."""
    rng = random.Random(5)
    objs = [_Pt(rng.randrange(1000), (rng.randrange(9), rng.randrange(9)))
            for _ in range(150)]
    groups = {}
    for o in objs:
        groups.setdefault(o.y, []).append(o)
    ordered = sorted(objs, key=lambda o: (o.y, o.x))
    return len(groups) + len(set(ordered))


def _library() -> int:
    """Large-footprint library code: a small argparse parser and a JSON
    round trip."""
    ap = argparse.ArgumentParser(prog="reference")
    ap.add_argument("--format", choices=("json", "table"), default="json")
    sub = ap.add_subparsers(dest="command")
    for name in ("one", "two", "three"):
        p = sub.add_parser(name)
        p.add_argument("input")
        p.add_argument("--eps")
    args = ap.parse_args(["two", "{}", "--eps=+-"])
    text = json.dumps({"k": [args.input, args.eps] * 20}, sort_keys=True)
    return len(json.loads(text)["k"])


# The reference parts and what each takes at the nominal speed.
PARTS = {"arith": (_arith, 0.0006), "objects": (_objects, 0.0007),
         "library": (_library, 0.0010)}


class Clock:
    """Times operations and keeps the reference samples taken between
    them."""

    def __init__(self, parts: Tuple[str, ...]) -> None:
        self.parts = [PARTS[p][0] for p in parts]
        self.nominal = sum(PARTS[p][1] for p in parts)
        self.ref_t: List[float] = []
        self.ref_s: List[float] = []
        self._work_since_ref = REF_PERIOD_S
        self._factors: Dict[int, float] = {}

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            for part in self.parts:
                part()
            t1 = time.perf_counter()
            self.ref_t.append((t0 + t1) / 2)
            self.ref_s.append(t1 - t0)
        self._work_since_ref = 0.0

    def time(self, fn: Callable, *args) -> Tuple[object, float, float]:
        """Run fn(*args); return (result, raw seconds, midpoint)."""
        if self._work_since_ref >= REF_PERIOD_S:
            self.sample()
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self._work_since_ref += t1 - t0
        return out, t1 - t0, (t0 + t1) / 2

    def factor(self, t: float) -> float:
        """The nominal reference time over the mean one around t.

        The window is REF_WINDOW_S on each side of t, widened to the
        REF_MIN_SAMPLES nearest samples where sampling is sparse.  The
        mean, not the median: the speed switches between a fast and a
        slow state, and a sum of work follows the time spent in each.
        """
        key = round(t * 100)
        if key not in self._factors:
            ts = self.ref_t
            lo = bisect.bisect_left(ts, t - REF_WINDOW_S)
            hi = bisect.bisect_right(ts, t + REF_WINDOW_S)
            while hi - lo < REF_MIN_SAMPLES and (lo > 0 or hi < len(ts)):
                if lo > 0 and (hi == len(ts) or t - ts[lo - 1] < ts[hi] - t):
                    lo -= 1
                else:
                    hi += 1
            near = self.ref_s[lo:hi]
            # a sample more than twice the window median was descheduled
            cap = 2 * statistics.median(near)
            near = [x for x in near if x <= cap]
            self._factors[key] = self.nominal * len(near) / sum(near)
        return self._factors[key]

    def scaled(self, raw: float, t: float) -> float:
        return raw * self.factor(t)
