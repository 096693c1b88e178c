"""Rebuild perfbench/pins.json, cross-checking every value before it is pinned.

    python3 perfbench/make_pins.py          # from the repository root, ~1 min

- tables-n7: the beta = 1 maxima row at n = 7 (the acceptance suite's pin)
  and the sha256 of ``coefficient_table(7)``, after every coefficient of
  size <= 7 is checked against ``coefficient(w, mode="ie")``.
- grid-checks-n6: every report passes with the published instance counts.
- cli-session: the reference digests of golden.py, with the README pins
  and both cross-checks holding on every word of sizes 3..6, and the
  instance counts of the six grid checks at n = 5.

Exits 1 without writing when any cross-check fails.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from pipedream.checks import maxima_table, run_check  # noqa: E402
from pipedream.perms import all_perms  # noqa: E402
from pipedream.specialization import coefficient, coefficient_table  # noqa: E402

from golden import build_golden, table_digest  # noqa: E402
from session import GRID_CHECKS, SIZES, VERIFY_N  # noqa: E402

MAXIMA_7 = [38259, 32160, ["1327654"], ["1327654"]]
GRID_INSTANCES_6 = dict(zip(GRID_CHECKS, (7436, 2964, 6080, 1356, 513, 7436)))


def main() -> int:
    problems = []
    row = maxima_table(7, 1)
    got = [row.max_nu, row.max_c, [w.text() for w in row.argmax_nu],
           [w.text() for w in row.argmax_c]]
    if got != MAXIMA_7:
        problems.append(f"maxima row {got} != {MAXIMA_7}")
    table = coefficient_table(7)
    bad = [w.text() for w in table if coefficient(w, mode="ie") != table[w]]
    if bad:
        problems.append(f"recursive != ie coefficient for {bad[:5]}")
    for check_id, expected in GRID_INSTANCES_6.items():
        report = run_check(check_id, 6)
        if not report.passed or report.instances_checked != expected:
            problems.append(report.text())
    verify_instances = {}
    for check_id in GRID_CHECKS:
        report = run_check(check_id, VERIFY_N)
        if not report.passed:
            problems.append(report.text())
        verify_instances[check_id] = report.instances_checked
    universe = [["nu", "--perm", w.text()] for m in SIZES for w in all_perms(m)]
    universe += [["coeff", "--perm", w.text()] for m in SIZES for w in all_perms(m)]
    golden = build_golden(universe, {"digests": None, "verify_instances": verify_instances})
    problems += [f"cross-check {name} failed" for name, ok in golden["checks"].items()
                 if not ok and name != "pinned-tables"]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    pins = {
        "tables-n7": {"maxima_7_beta_1": MAXIMA_7,
                      "coefficient_table_7_sha256": table_digest(table)},
        "grid-checks-n6": {"instances": GRID_INSTANCES_6},
        "cli-session": {"digests": golden["digests"], "verify_instances": verify_instances},
    }
    path = Path(__file__).parent / "pins.json"
    path.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
