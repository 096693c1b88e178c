"""One fresh interpreter of the pipedream benchmark.

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py tables-n7 [--trace FILE]
    python3 perfbench/worker.py grid-checks-n6 [--trace FILE]
    python3 perfbench/worker.py golden --commands FILE
    python3 perfbench/worker.py cli --trace FILE -- <pipedream arguments>

``import pipedream`` is the first thing the worker does, so the monotonic
clock reading taken right after it, minus run.py's reading at spawn,
is the interpreter's set-up time.  The modes other than ``cli`` print one
JSON object on stdout; run.py starts them and checks what they report.
"""

import time

import pipedream  # noqa: F401  (timed: the import is the set-up being measured)

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from pipedream import checks, specialization  # noqa: E402

from golden import build_golden, table_digest  # noqa: E402

PINS = json.loads((Path(__file__).parent / "pins.json").read_text())


def _maxima_check(row):
    got = [row.max_nu, row.max_c, [w.text() for w in row.argmax_nu],
           [w.text() for w in row.argmax_c]]
    return got, got == PINS["tables-n7"]["maxima_7_beta_1"]


def _coefficient_check(table):
    got = table_digest(table)
    return got, got == PINS["tables-n7"]["coefficient_table_7_sha256"]


def run_tables(tracer):
    """maxima_table(7, 1), then coefficient_table(7): `pipedream maxima --n 7`."""
    return _run_ops(tracer, [
        ("maxima_table(7,1)", lambda: checks.maxima_table(7, 1), _maxima_check),
        ("coefficient_table(7)", lambda: specialization.coefficient_table(7),
         _coefficient_check)])


def run_grid_checks(tracer):
    """The six grid-level checks at n = 6, each against its pinned instances."""
    pinned = PINS["grid-checks-n6"]["instances"]

    def check(report):
        got = [report.passed, report.instances_checked]
        return got, report.passed and report.instances_checked == pinned[report.check_id]

    return _run_ops(tracer, [(f"verify {cid} --n 6",
                              lambda cid=cid: checks.run_check(cid, 6), check)
                             for cid in pinned])


def _run_ops(tracer, ops):
    """Time each call, then check every result once all of them are done.

    The calls look their functions up on the pipedream modules, so a traced
    run goes through the tracer's wrappers.
    """
    timed = []
    for name, call, check in ops:
        start = time.perf_counter()
        value = call() if tracer is None else tracer.span(f"op.{name}", call)
        timed.append((name, time.perf_counter() - start, value, check))
    done = time.monotonic()
    records = []
    for name, seconds, value, check in timed:
        got, ok = check(value)
        records.append({"op": name, "s": seconds, "ok": ok, "got": got})
    return {"imported": IMPORTED, "done": done, "ops": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["probe", "tables-n7", "grid-checks-n6",
                                         "golden", "cli"])
    parser.add_argument("--trace", default=None)
    parser.add_argument("--commands", default=None)
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    if args.mode == "probe":
        print(json.dumps({"imported": IMPORTED, "file": pipedream.__file__}))
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer(run_id=Path(args.trace).stem)
        install(tracer)
    if args.mode == "cli":
        from pipedream import cli

        try:
            return cli.main(argv[cut + 1:])
        finally:
            if tracer is not None:
                tracer.dump(args.trace)
    if args.mode == "golden":
        commands = json.loads(Path(args.commands).read_text())
        print(json.dumps(build_golden(commands, PINS["cli-session"])))
        return 0
    run = run_tables if args.mode == "tables-n7" else run_grid_checks
    result = run(tracer)
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
