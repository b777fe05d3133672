"""Spans around mebkit's public functions, recorded from outside the package.

Modules bind names at import time (``from .meb import exact_meb``), so a
function is looked up through every module that imported it.  ``patched``
replaces each of those bindings with one wrapper and puts the originals back
on exit; ``src/`` is never edited.  Spans are kept in memory and written out
once the run ends.

Which end-to-end metric each layer should move, and on which workload:

=========== ======================== =================================== ==================
layer       should move              on                                  about 0 on
=========== ======================== =================================== ==================
pointio     wall_s                   ingest                              kernel
cli         wall_s, peak_rss_mb      ingest (render), kernel (self time) exact
diameter    wall_s                   ingest                              exact, kernel
meb         wall_s, call_s_max       exact; kernel through the testers   ingest
geometry    wall_s                   kernel, exact                       ingest, box body
mkeb        wall_s                   kernel, exact                       ingest
testers     wall_s                   kernel                              ingest, exact
seeding     wall_s                   kernel                              ingest
convexity   wall_s                   kernel; exact (jung_bound)          ingest
generators  wall_s                   ingest                              exact, kernel
=========== ======================== =================================== ==================
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

TRACED = {
    "pointio": ("read_points", "write_points"),
    "cli": ("dispatch", "render_report"),
    "diameter": ("stream_eps_2d", "stream_2approx", "diameter_doublesweep", "diameter_bruteforce"),
    "meb": ("exact_meb", "hopp_reeve_meb", "elzinga_hearn_dual", "badoiu_clarkson", "kt_residuals"),
    "geometry": ("circumball", "fits_in_translate"),
    "mkeb": ("exact_mkeb", "outlier_meb_sample"),
    "testers": ("one_s_tester", "k_g_tester"),
    "seeding": ("derive_rng",),
    "convexity": ("caratheodory_reduce", "nodim_caratheodory", "dist_to_hull", "jung_bound",
                  "barycentric_circumradius"),
    "generators": ("gen_instance",),
}

# Counts read from the arguments or results of the traced functions; the
# iteration and round counts are the fields the CLI reports carry as
# "iterations" and "rounds_used".  Name -> (metric suffix, count).
_COUNTS = {
    "pointio.read_points": ("bytes", lambda args, result: os.path.getsize(args[0])),
    "meb.exact_meb": ("iterations", lambda args, result: result.iterations),
    "meb.hopp_reeve_meb": ("iterations", lambda args, result: result.iterations),
    "meb.elzinga_hearn_dual": ("iterations", lambda args, result: result[0].iterations),
    "testers.one_s_tester": ("rounds", lambda args, result: result.rounds_used),
    "testers.k_g_tester": ("rounds", lambda args, result: result.rounds_used),
}

# Per-layer metrics: (name, unit).  Every one is reported on every workload.
PER_LAYER = (
    ("pointio.read_points.s", "s"), ("pointio.read_points.mb_per_s", "MB/s"),
    ("pointio.write_points.s", "s"),
    ("cli.render_report.s", "s"), ("cli.report_bytes", "bytes"), ("cli.dispatch.self_s", "s"),
    ("diameter.stream_eps_2d.s", "s"), ("diameter.stream_2approx.s", "s"),
    ("diameter.diameter_doublesweep.s", "s"), ("diameter.diameter_bruteforce.s", "s"),
    ("meb.exact_meb.s", "s"), ("meb.exact_meb.self_s", "s"), ("meb.exact_meb.calls", "count"),
    ("meb.exact_meb.iterations", "count"),
    ("meb.hopp_reeve_meb.self_s", "s"), ("meb.hopp_reeve_meb.iterations", "count"),
    ("meb.elzinga_hearn_dual.s", "s"), ("meb.elzinga_hearn_dual.iterations", "count"),
    ("meb.badoiu_clarkson.s", "s"), ("meb.kt_residuals.s", "s"),
    ("geometry.circumball.s", "s"), ("geometry.circumball.calls", "count"),
    ("geometry.fits_in_translate.self_s", "s"), ("geometry.fits_in_translate.calls", "count"),
    ("mkeb.exact_mkeb.s", "s"), ("mkeb.outlier_meb_sample.self_s", "s"),
    ("testers.one_s_tester.self_s", "s"), ("testers.one_s_tester.rounds", "count"),
    ("testers.k_g_tester.self_s", "s"), ("testers.k_g_tester.rounds", "count"),
    ("seeding.derive_rng.s", "s"), ("seeding.derive_rng.calls", "count"),
    ("convexity.caratheodory_reduce.s", "s"), ("convexity.nodim_caratheodory.s", "s"),
    ("convexity.dist_to_hull.s", "s"), ("convexity.jung_bound.s", "s"),
    ("convexity.barycentric_circumradius.s", "s"),
    ("generators.gen_instance.s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Collects spans: [name, start, end, parent index, call id, child time, count, outermost]."""

    def __init__(self):
        self.spans: list[list] = []
        self.call_id = 0
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter
        count = _COUNTS.get(name, (None, None))[1]

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id, 0.0, 0, depth[name] == 0]
            stack.append(len(spans))
            spans.append(record)
            depth[name] += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = clock()
                stack.pop()
                depth[name] -= 1
                if record[3] >= 0:
                    spans[record[3]][5] += end - record[1]
            if count is not None:
                record[6] = count(args, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Totals per span name: s (outermost spans), self_s, calls and counts."""
        total: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _call, child, count, outermost in self.spans:
            if outermost:
                total[f"{name}.s"] += end - start
            total[f"{name}.self_s"] += end - start - child
            total[f"{name}.calls"] += 1
            if name in _COUNTS:
                total[f"{name}.{_COUNTS[name][0]}"] += count
        seconds = total["pointio.read_points.s"]
        total["pointio.read_points.mb_per_s"] = (
            total["pointio.read_points.bytes"] / 1e6 / seconds if seconds > 0.0 else 0.0
        )
        return dict(total)

    def write(self, path: str) -> None:
        """One JSON line per span, times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, call, _child, _count, _outer) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "call": call, "name": name,
                                     "start": start - origin, "end": end - origin}) + "\n")


@contextmanager
def patched(tracer: Tracer):
    """Route every mebkit binding of a TRACED function through the tracer."""
    importlib.import_module("mebkit.cli")  # binds every module's names
    wrappers = {}
    for module_name, names in TRACED.items():
        module = importlib.import_module(f"mebkit.{module_name}")
        for name in names:
            fn = getattr(module, name)
            wrappers[id(fn)] = (fn, tracer.wrap(f"{module_name}.{name}", fn))
    saved = []
    modules = [m for key, m in list(sys.modules.items()) if key == "mebkit" or key.startswith("mebkit.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, hit[1])
    try:
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)
