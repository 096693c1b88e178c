"""In-memory call tracer for the benchmark's traced runs.

The tracer wraps public functions of the pipedream layers and rebinds each
wrapped name in every ``pipedream.*`` module that imported it, so calls
between layers go through the wrapper too.  Nothing under ``src/`` changes.

Coarse calls (a table build, a check, a query, a cache read) are kept as
spans: (id, name, start, end, parent id, run id).  Hot calls that fire once
per matrix, grid or polynomial operation are aggregated as count, inclusive
time and self time only.  Everything stays in memory until ``dump``.

Inclusive time of a name counts only its outermost calls, so a recursive
function is not counted twice.  Self time is a call's duration minus the
time of the wrapped calls made directly inside it.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

ASM_ROWS = "enumeration.asm_rows"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}     # name -> [calls, inclusive_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack = [[0, 0.0]]              # frames: [span id, child time]
        self._depth: dict[str, int] = {}
        self._ids = itertools.count(1)

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def wrap(self, name, fn, hot=False, name_of=None, snapshot=None, on_result=None):
        """Wrap ``fn``; ``name_of(args)`` may name each call instead of ``name``.

        ``snapshot()`` runs at entry and its value reaches
        ``on_result(args, result, snap)``, which runs after a normal return.
        """
        stack, stats, depth, spans = self._stack, self.stats, self._depth, self.spans
        ids, run_id, clock = self._ids, self.run_id, time.perf_counter

        def wrapper(*args, **kwargs):
            key = name if name_of is None else name_of(args)
            parent = stack[-1]
            frame = [parent[0] if hot else next(ids), 0.0]
            snap = snapshot() if snapshot is not None else None
            stack.append(frame)
            depth[key] = depth.get(key, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                parent[1] += d
                row = stats.get(key)
                if row is None:
                    row = stats[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[2] += d - frame[1]
                depth[key] -= 1
                if not depth[key]:
                    row[1] += d
                if not hot:
                    spans.append((frame[0], key, t0, t1, parent[0], run_id))
            if on_result is not None:
                on_result(args, result, snap)
            return result

        return wrapper

    def wrap_generator(self, name, fn, item_counter):
        """Wrap a generator function, timing only the work inside ``next``."""
        stack, stats, counters, clock = self._stack, self.stats, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            row = stats.get(name)
            if row is None:
                row = stats[name] = [0, 0.0, 0.0]
            row[0] += 1
            while True:
                parent = stack[-1]
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    d = clock() - t0
                    parent[1] += d
                    row[1] += d
                    row[2] += d
                counters[item_counter] = counters.get(item_counter, 0) + 1
                yield item

        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a coarse span of the given name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def dump(self, path) -> None:
        payload = {"run_id": self.run_id, "stats": self.stats,
                   "counters": self.counters, "spans": self.spans}
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _rebind(original, wrapped) -> None:
    """Point every pipedream module attribute bound to ``original`` at ``wrapped``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "pipedream" or mod_name.startswith("pipedream.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


_BETA_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__neg__", "__pow__")
_MULTI_OPS = ("__add__", "__sub__", "__mul__", "__rmul__")


def install(tracer: Tracer) -> None:
    """Wrap the layer functions the per-layer metrics are taken from."""
    from pipedream import (cache, checks, cli, enumeration, grid, ktheory, perms,
                           polynomials, removal, specialization)

    def census_hook(args, result, snap):
        tracer.count("perms.pattern_census.subsets", 1 << len(args[0]))

    def bumps_hook(args, result, snap):
        tracer.count("ktheory.bumps", result[4])

    def rows_seen():
        return tracer.counters.get(ASM_ROWS, 0)

    def nu_table_hook(args, result, rows_before):
        if rows_seen() > rows_before:
            tracer.count("specialization.nu_table.builds")
            tracer.count("specialization.types", len(result))

    def check_hook(args, result, snap):
        tracer.count(f"checks.{args[0]}.instances", result.instances_checked)

    def store_hook(args, result, snap):
        tracer.count("cache.store.bytes", os.path.getsize(result))

    hot = dict(hot=True)
    plan = [
        (perms, "pattern_census", dict(hot=True, on_result=census_hook)),
        (perms, "pattern_count", hot),
        (grid, "tiles_from_asm_rows", hot),
        (grid, "trace", hot),
        (grid, "validate", hot),
        (grid, "render", hot),
        (ktheory, "resolve_stats", dict(hot=True, on_result=bumps_hook)),
        (ktheory, "resolve", hot),
        (ktheory, "nonreduced_witness", hot),
        (enumeration, "removable_pipes", hot),
        (enumeration, "query", {}),
        (removal, "remove", hot),
        (removal, "insert", hot),
        (specialization, "nu_table", dict(snapshot=rows_seen, on_result=nu_table_hook)),
        (specialization, "coefficient", hot),
        (specialization, "coefficient_table", {}),
        (specialization, "coefficient_values", {}),
        (specialization, "grothendieck_table", {}),
        (specialization, "minimal_summary", {}),
        (specialization, "minimal_sets", {}),
        (checks, "maxima_table", {}),
        (checks, "run_check", dict(name_of=lambda args: f"checks.{args[0]}",
                                   on_result=check_hook)),
        (cache, "load_cache", {}),
        (cache, "store_cache", dict(on_result=store_hook)),
    ]
    for module, attr, opts in plan:
        original = getattr(module, attr)
        layer = module.__name__.rsplit(".", 1)[1]
        _rebind(original, tracer.wrap(f"{layer}.{attr}", original, **opts))
    original = enumeration.iter_asm_rows
    _rebind(original, tracer.wrap_generator("enumeration.iter_asm_rows", original, ASM_ROWS))
    for cls, name, ops in ((polynomials.BetaPolynomial, "polynomials.beta", _BETA_OPS),
                           (polynomials.MultivariatePolynomial, "polynomials.multi",
                            _MULTI_OPS)):
        for op in ops:
            setattr(cls, op, tracer.wrap(name, cls.__dict__[op], hot=True))
    original = cli.main
    _rebind(original, tracer.wrap("cli.main", original))
