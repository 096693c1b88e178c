#!/usr/bin/env python3
"""The pipedream benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload tables-n7 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout; the program is imported from ``src/``.
Each workload is a closed loop with one client: run.py starts one
fresh interpreter at a time and waits for it to exit.

- ``tables-n7``: one process runs ``maxima_table(7, 1)``, then
  ``coefficient_table(7)``.
- ``grid-checks-n6``: one process runs the six grid-level checks at n = 6.
- ``cli-session``: 120 seeded ``python -m pipedream.cli`` commands, each a
  fresh process, starting from an empty json-lines cache.

With ``--trace 0`` run.py repeats whole passes of the workload until the
next one would end after ``--seconds``, and reports medians.  With
``--trace 1`` it makes one untraced pass and one traced pass and reports
the per-layer metrics of the traced one.  perfbench/README.md explains the
workloads and every metric.

Every result is checked against pins.json and golden.py.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from session import GRID_CHECKS, session_commands

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = str(HERE / "worker.py")
PYTHON = sys.executable
WORKLOADS = ("tables-n7", "grid-checks-n6", "cli-session")
SETUP_PROBES = 6  # before the passes, and as many again after them
CHILD_TIMEOUT_S = 170


@dataclass
class Proc:
    """One finished child process."""

    argv: list
    rc: int
    stdout: bytes
    stderr: bytes
    spawn: float
    exit: float
    maxrss_mb: float

    @property
    def latency_ms(self) -> float:
        return (self.exit - self.spawn) * 1000.0

    def last_json(self):
        lines = self.stdout.decode(errors="replace").strip().splitlines()
        try:
            return json.loads(lines[-1]) if self.rc == 0 and lines else None
        except json.JSONDecodeError:
            return None


@dataclass
class Pass:
    """One pass of a workload: one worker process or one whole session."""

    wall_s: float
    procs: list
    attempted: int
    failed: int
    notes: list = field(default_factory=list)
    cache_entries: int = 0


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # the user's ~/.cache is never touched, not even by the table workers
    env["PIPEDREAM_CACHE"] = str(work / "nu.jsonl")
    # every process hashes strings alike, so traced counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, env, stdio_dir: Path) -> Proc:
    """Run one process to its end, with its own max-RSS from wait4."""
    with open(stdio_dir / "stdout", "w+b") as out, open(stdio_dir / "stderr", "w+b") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(list(argv), proc.returncode, out.read(), err.read(), spawn, end,
                    usage.ru_maxrss / 1024.0)


def setup_times(env, work: Path) -> list[float]:
    """Spawn-to-``import pipedream`` of SETUP_PROBES fresh interpreters, in seconds."""
    values = []
    for _ in range(SETUP_PROBES):
        proc = run_child([PYTHON, WORKER, "probe"], env, work)
        info = proc.last_json()
        if info is None or not Path(info["file"]).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"pipedream does not import from {SRC}: "
                             f"{proc.stderr.decode(errors='replace')[-500:]}")
        values.append(info["imported"] - proc.spawn)
    return values


# -- workloads ------------------------------------------------------------------

OPS_PER_PASS = {"tables-n7": 2, "grid-checks-n6": 6}


def worker_pass(workload, env, work, trace_file=None) -> Pass:
    argv = [PYTHON, WORKER, workload] + (["--trace", str(trace_file)] if trace_file else [])
    proc = run_child(argv, env, work)
    result = proc.last_json()
    expected = OPS_PER_PASS[workload]
    if result is None:
        return Pass(proc.latency_ms / 1000.0, [proc], expected, expected,
                    [f"worker exited {proc.rc}: {proc.stderr.decode(errors='replace')[-500:]}"])
    bad = [op for op in result["ops"] if not op["ok"]]
    return Pass(result["done"] - proc.spawn, [proc], expected,
                len(bad) + expected - len(result["ops"]),
                [f"{op['op']} gave {op['got']}" for op in bad])


class CliSession:
    """The seeded command list and its golden outputs."""

    def __init__(self, seed, env, work):
        self.commands = [list(argv) for argv in session_commands(seed)]
        path = work / "commands.json"
        path.write_text(json.dumps(self.commands))
        proc = run_child([PYTHON, WORKER, "golden", "--commands", str(path)], env, work)
        self.golden = proc.last_json()
        if self.golden is None:
            raise SystemExit(f"golden outputs failed: {proc.stderr.decode(errors='replace')[-500:]}")
        self.bad_checks = [name for name, ok in self.golden["checks"].items() if not ok]

    def run(self, chains, work) -> list[Pass]:
        """Every command once, in order, in each chain, each from an empty cache.

        A chain is (env, trace directory or None).  With two chains the
        commands alternate between them, so both see the same machine.
        A session's wall time is the sum of its command latencies.
        """
        caches = [Path(env["PIPEDREAM_CACHE"]) for env, _ in chains]
        for cache in caches:
            cache.unlink(missing_ok=True)
        procs = [[] for _ in chains]
        notes = [[f"golden cross-check failed: {name}" for name in self.bad_checks]
                 for _ in chains]
        failed = [0] * len(chains)
        for i, argv in enumerate(self.commands):
            for k, (env, trace_dir) in enumerate(chains):
                if trace_dir is None:
                    cmd = [PYTHON, "-m", "pipedream.cli", *argv]
                else:
                    cmd = [PYTHON, WORKER, "cli", "--trace", str(trace_dir / f"{i:03d}.json"),
                           "--", *argv]
                proc = run_child(cmd, env, work)
                procs[k].append(proc)
                digest = hashlib.sha256(proc.stdout).hexdigest()
                if self.bad_checks or proc.rc != 0 or digest != self.golden["expect"][i]:
                    failed[k] += 1
                    notes[k].append(f"command {' '.join(argv)} exited {proc.rc}; "
                                    f"stdout {proc.stdout[:80]!r}")
        return [Pass(sum(p.latency_ms for p in procs[k]) / 1000.0, procs[k], len(procs[k]),
                     failed[k], notes[k],
                     len(cache.read_text().splitlines()) if cache.exists() else 0)
                for k, cache in enumerate(caches)]


# -- metrics --------------------------------------------------------------------


def quantile(values, q):
    """Inclusive quantile, as statistics.quantiles(method="inclusive") gives."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(passes, setups) -> dict:
    latencies = [p.latency_ms for ps in passes for p in ps.procs]
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(p.maxrss_mb for ps in passes for p in ps.procs), "MB"),
        "cmd_p50_ms": (quantile(latencies, 0.5), "ms"),
        "cmd_p90_ms": (quantile(latencies, 0.9), "ms"),
    }


def _merge(traces):
    stats, counters = {}, {}
    for t in traces:
        for name, (calls, inclusive, self_s) in t["stats"].items():
            row = stats.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += inclusive
            row[2] += self_s
        for name, value in t["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return stats, counters


def layer_metrics(traces, argvs, traced: Pass, untraced: Pass) -> dict:
    """The per-layer metrics of one traced pass; see README.md for each."""
    stats, counters = _merge(traces)

    def calls(name):
        return (stats.get(name, [0])[0], "count")

    def busy(*names):
        return (sum(stats.get(n, [0, 0.0])[1] for n in names), "s")

    def self_time(*names):
        return (sum(stats.get(n, [0, 0.0, 0.0])[2] for n in names), "s")

    def count(name, unit="count"):
        return (counters.get(name, 0), unit)

    table_cmds = [t for t, argv in zip(traces, argvs) if argv and argv[0] in ("nu", "coeff")]
    hits = sum(1 for t in table_cmds
               if not t["counters"].get("specialization.nu_table.builds"))
    pipeline = (busy("enumeration.iter_asm_rows", "grid.tiles_from_asm_rows",
                     "ktheory.resolve_stats")[0]
                + self_time("specialization.nu_table")[0])
    m = {
        "perms.pattern_census.calls": calls("perms.pattern_census"),
        "perms.pattern_census.s": busy("perms.pattern_census"),
        "perms.pattern_census.subsets": count("perms.pattern_census.subsets"),
        "perms.pattern_count.calls": calls("perms.pattern_count"),
        "perms.pattern_count.s": busy("perms.pattern_count"),
        "grid.tiles_from_asm_rows.calls": calls("grid.tiles_from_asm_rows"),
        "grid.tiles_from_asm_rows.s": busy("grid.tiles_from_asm_rows"),
        "grid.trace.calls": calls("grid.trace"),
        "grid.trace.s": busy("grid.trace"),
        "grid.validate.s": busy("grid.validate"),
        "grid.render.s": busy("grid.render"),
        "ktheory.resolve_stats.calls": calls("ktheory.resolve_stats"),
        "ktheory.resolve_stats.s": busy("ktheory.resolve_stats"),
        "ktheory.bumps": count("ktheory.bumps"),
        "ktheory.resolve.calls": calls("ktheory.resolve"),
        "ktheory.resolve.s": busy("ktheory.resolve"),
        "ktheory.nonreduced_witness.s": busy("ktheory.nonreduced_witness"),
        "enumeration.asm_rows": count("enumeration.asm_rows"),
        "enumeration.iter_asm_rows.s": busy("enumeration.iter_asm_rows"),
        "enumeration.removable_pipes.calls": calls("enumeration.removable_pipes"),
        "enumeration.removable_pipes.s": busy("enumeration.removable_pipes"),
        "enumeration.query.calls": calls("enumeration.query"),
        "enumeration.query.s": busy("enumeration.query"),
        "removal.remove.calls": calls("removal.remove"),
        "removal.remove.s": busy("removal.remove"),
        "removal.insert.calls": calls("removal.insert"),
        "removal.insert.s": busy("removal.insert"),
        "specialization.nu_table.builds": count("specialization.nu_table.builds"),
        "specialization.nu_table.self_s": self_time("specialization.nu_table"),
        "specialization.types": count("specialization.types"),
        "specialization.coefficient.self_s": self_time(
            "specialization.coefficient", "specialization.coefficient_table",
            "specialization.coefficient_values"),
        "specialization.grothendieck_table.self_s": self_time(
            "specialization.grothendieck_table"),
        "specialization.minimal.s": busy("specialization.minimal_summary",
                                         "specialization.minimal_sets"),
        "specialization.nu.memo_hit_ratio": (hits / len(table_cmds) if table_cmds else 0.0,
                                             "ratio"),
        "polynomials.beta.ops": calls("polynomials.beta"),
        "polynomials.beta.s": busy("polynomials.beta"),
        "polynomials.multi.ops": calls("polynomials.multi"),
        "polynomials.multi.s": busy("polynomials.multi"),
    }
    for cid in GRID_CHECKS:
        m[f"checks.{cid}.s"] = busy(f"checks.{cid}")
        m[f"checks.{cid}.instances"] = count(f"checks.{cid}.instances")
    m.update({
        "checks.maxima_table.self_s": self_time("checks.maxima_table"),
        "cli.main.s": busy("cli.main"),
        "cache.load.s": busy("cache.load_cache"),
        "cache.store.s": busy("cache.store_cache"),
        "cache.store.bytes": count("cache.store.bytes", "B"),
        "cache.entries": (traced.cache_entries, "count"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
        "share.nu_pipeline": (pipeline / traced.wall_s, "ratio"),
    })
    return m


# -- one measurement ------------------------------------------------------------


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True)
        commit = probe.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "commit": commit,
            "src_sha256": digest.hexdigest()}


def measure(workload, seed, seconds, trace, work: Path) -> dict:
    env = child_env(work)
    setups = setup_times(env, work)
    session = CliSession(seed, env, work) if workload == "cli-session" else None
    if trace:
        trace_dir = work / "trace"
        trace_dir.mkdir()
        if session is not None:
            untraced, traced = session.run([(env, None),
                                            (child_env(work / "traced"), trace_dir)], work)
        else:
            untraced = worker_pass(workload, env, work)
            traced = worker_pass(workload, env, work, trace_dir / "worker.json")
        traces = [json.loads(f.read_text()) for f in sorted(trace_dir.glob("*.json"))]
        argvs = [p.argv[p.argv.index("--") + 1:] if "--" in p.argv else []
                 for p in traced.procs]
        metrics = layer_metrics(traces, argvs, traced, untraced)
        with open(OUT / f"trace-{workload}-seed{seed}.jsonl", "w") as handle:
            for t in traces:
                for span in t["spans"]:
                    handle.write(json.dumps(span) + "\n")
        passes = [untraced, traced]
    else:
        # whole passes only: start another while it is expected to end in time
        passes, durations, start = [], [], time.monotonic()
        while True:
            began = time.monotonic()
            passes.append(session.run([(env, None)], work)[0] if session is not None
                          else worker_pass(workload, env, work))
            durations.append(time.monotonic() - began)
            if time.monotonic() - start + statistics.median(durations) > seconds:
                break
        setups += setup_times(env, work)
        metrics = end_to_end(passes, setups)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "machine": machine(), "setup_probes_s": setups,
            "pass_walls_s": [p.wall_s for p in passes],
            "latencies_ms": [[" ".join(proc.argv[1:]), round(proc.latency_ms, 3)]
                             for p in passes for proc in p.procs],
            "attempted": attempted, "failed": failed,
            "notes": [n for p in passes for n in p.notes][:20],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def report(record) -> None:
    mach = record["machine"]
    print(f"# workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={len(record['pass_walls_s'])}")
    print(f"# machine: nproc={mach['nproc']} cpu={mach['cpu']!r} python={mach['python']} "
          f"commit={mach['commit']} src_sha256={mach['src_sha256'][:16]}")
    for note in record["notes"]:
        print(f"# FAILED: {note}")
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:>15} {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    fail_frac = record["failed"] / record["attempted"]
    print(f"{record['workload']:>15} {'fail_frac':<42} {fail_frac:>14.6g} "
          f"({record['failed']}/{record['attempted']} operations)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pipedream" / "__init__.py").is_file():
        print(f"error: no pipedream sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    records = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        work = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT))
        try:
            record = measure(workload, args.seed, args.seconds, args.trace, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        (OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        report(record)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
