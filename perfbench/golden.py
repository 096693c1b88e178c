"""Expected outputs of a ``cli-session``, built in-process by a second route.

The CLI answers each command on its own, through ``query``, the nu memo and
the json-lines cache.  Here every table of sizes 3..6 is built once and the
grid families come from one grouping pass over each size's grids.  What
this route produces is trusted because of:

- pinned sha256 digests of the full nu, coefficient and Grothendieck
  tables, the enumerate listings and the index-0 svg renders, for every
  word of sizes 3..6 (``pins.json``; ``make_pins.py`` rebuilds them);
- the README pins: nu 1243 = b^2+3b+3, coeff 1243 = b^2+b and
  poly 132 = x1+x2+b*x1*x2;
- for every ``coeff`` word of the session, the recursive coefficient equals
  the inclusion-exclusion one (``mode="ie"``);
- for every ``nu`` word of the session, the constant term of nu equals the
  number of reduced grids (the ``enumerate --kind bpd`` count).
"""

from __future__ import annotations

import hashlib

from pipedream.enumeration import bpd_stream, removable_pipes
from pipedream.grid import render, trace
from pipedream.ktheory import resolve
from pipedream.perms import Permutation, all_perms
from pipedream.specialization import (coefficient, coefficient_table,
                                      grothendieck_table, nu_table)

from session import README_PINS, SIZES

KINDS = ("BPD", "bpd", "mBPD", "BPD_K")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def table_digest(table) -> str:
    """sha256 of a {Permutation: value} map, one sorted line per entry."""
    return sha256("\n".join(f"{w.text()} {table[w]}" for w in sorted(table)))


def _families(m: int) -> dict[str, dict[Permutation, list]]:
    """The four enumerate families of size m, grouped in one pass."""
    fam: dict[str, dict[Permutation, list]] = {kind: {} for kind in KINDS}
    for grid in bpd_stream(m):
        tr = trace(grid)
        fam["BPD"].setdefault(tr.perm, []).append(grid)
        if tr.is_reduced:
            fam["bpd"].setdefault(tr.perm, []).append(grid)
        if removable_pipes(grid).minimal:
            fam["mBPD"].setdefault(tr.perm, []).append(grid)
        _, typ = resolve(grid)
        fam["BPD_K"].setdefault(typ, []).append(grid)
    return fam


def _listing(grids) -> str:
    """stdout of ``pipedream enumerate`` in the default ascii format."""
    return "\n\n".join(render(g, "ascii") for g in grids) + f"\n# {len(grids)} grid(s)\n"


class Reference:
    """Every answer a session can ask for, for words of sizes 3..6."""

    def __init__(self):
        coeffs = coefficient_table(max(SIZES))
        self.nu, self.coeff, self.poly, self.listing, self.svg = {}, {}, {}, {}, {}
        self.bpd_count = {}
        self.digests = {"nu": {}, "coefficient": {}, "grothendieck": {},
                        "enumerate": {}, "svg": {}}
        for m in SIZES:
            perms = all_perms(m)
            nus, groth, fam = nu_table(m), grothendieck_table(m), _families(m)
            for w in perms:
                word = w.text()
                self.nu[word], self.coeff[word] = str(nus[w]), str(coeffs[w])
                self.poly[word] = str(groth[w])
                for kind in KINDS:
                    self.listing[word, kind] = _listing(fam[kind].get(w, []))
                self.svg[word] = render(fam["BPD"][w][0], "svg")
                self.bpd_count[word] = len(fam["bpd"].get(w, []))
            self.digests["nu"][str(m)] = table_digest(nus)
            self.digests["coefficient"][str(m)] = table_digest({w: coeffs[w] for w in perms})
            self.digests["grothendieck"][str(m)] = table_digest(groth)
            self.digests["enumerate"][str(m)] = sha256("".join(
                f"{kind} {w.text()}\n{self.listing[w.text(), kind]}"
                for w in perms for kind in KINDS))
            self.digests["svg"][str(m)] = sha256("\n".join(self.svg[w.text()] for w in perms))

    def stdout(self, argv, verify_instances) -> str:
        """The exact stdout of ``pipedream <argv>``."""
        command = argv[0]
        if command == "verify":
            check, n = argv[1], argv[argv.index("--n") + 1]
            return f"{check} n={n}: PASS ({verify_instances[check]} instances)\n"
        opts = dict(zip(argv[1::2], argv[2::2]))
        word = opts["--perm"]
        if command == "nu":
            return self.nu[word] + "\n"
        if command == "coeff":
            return self.coeff[word] + "\n"
        if command == "poly":
            return self.poly[word] + "\n"
        if command == "enumerate":
            return self.listing[word, opts["--kind"]]
        if command == "render":
            return self.svg[word] + "\n"
        raise ValueError(f"no reference for {argv}")


def build_golden(commands, pins) -> dict:
    """sha256 of each command's expected stdout, and the cross-checks' verdicts."""
    ref = Reference()
    readme = {tuple(argv): out for argv, out in README_PINS}
    words = {cmd: {argv[argv.index("--perm") + 1] for argv in commands if argv[0] == cmd}
             for cmd in ("nu", "coeff")}
    checks = {
        "pinned-tables": ref.digests == pins["digests"],
        "readme-pins": all(ref.stdout(list(argv), {}) == out for argv, out in readme.items()),
        "coeff-recursive-equals-ie": all(
            str(coefficient(Permutation.from_text(w), mode="ie")) == ref.coeff[w]
            for w in sorted(words["coeff"])),
        "nu-constant-equals-bpd-count": all(
            nu_table(len(w))[Permutation.from_text(w)].constant_term == ref.bpd_count[w]
            for w in sorted(words["nu"])),
    }
    expect = [sha256(readme.get(tuple(argv)) or ref.stdout(argv, pins["verify_instances"]))
              for argv in commands]
    return {"expect": expect, "checks": checks, "digests": ref.digests}
