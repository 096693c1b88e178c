"""Removing hook pipes from a grid and putting them back.

``remove`` erases every removable pipe and contracts the freed rows and
columns; on grids with permutation w it lands in the minimal grids of the
flattened subword, and ``insert`` is its two-sided inverse.  Both work on
the alternating sign matrix of elbows.  A removable pipe y->x is a lone +1
at (x, y), alone in its row and its column, so removal deletes those rows
and columns from the matrix, and insertion puts them back as unit rows and
columns.  This equals the stepwise contraction of the hooks and keeps the
code small.  The entries and bump flags of the input come from its row
records (``grid.grid_records``), kept on a grid up to size 6.  Each new
row is a lookup in a table kept per size in the table store: ``remove``
contracts a kept row through the table of its removed columns (entries
to contracted entries), and ``insert`` takes each removed pipe's unit
row from the one tuple of its size and spreads each image row through
the table of the image's columns.  The new matrix's path of moves is
read off the table of moves (``enumeration.table_path``), which builds
only the moves the matrix takes and rejects a row that may not follow
the rows above it, so the cost stays in the rows touched at any size.
The new grid comes from ``enumeration.table_grid``: up to size 6 it is
the stream's own grid of those rows, traced at most once, so
``insert(*remove(B))`` of a streamed grid B is B itself; above it a new
grid that skips the public constructor's per-tile coercion.  Each call
reads its input's row records once and traces the input; the trace
stays on the grid for later callers, and so does the (image, subword)
of ``remove`` when the image is another grid.  ``remove`` makes one
removability pass over the records (``enumeration._removable``).
``insert`` needs only to know that its image has no removable pipe, so
it compares the image's permutation with the flattened subword and then
asks the +1 masks of the records whether any pipe is removable
(``enumeration._lone_plus``), building no report.
"""

from __future__ import annotations

from .enumeration import _lone_plus, _removable, table_grid, table_path
from .errors import NotMinimal, SubwordMismatch
from .grid import BpdGrid, _set_removal, bumped, grid_records, trace, validate
from .perms import Permutation, SubwordSelection
from .store import stored


def _no_tables(n: int) -> dict:
    return {}


def _unit_rows(n: int) -> tuple:
    """The unit rows of size n, the one with its 1 in column y at y - 1."""
    return tuple((0,) * (y - 1) + (1,) + (0,) * (n - y) for y in range(1, n + 1))


def remove(grid: BpdGrid) -> tuple[BpdGrid, SubwordSelection]:
    """Erase all removable pipes; returns the contracted grid and subword.

    The result is a minimal grid whose permutation is the flattening of
    the returned subword.  Grids that are already minimal come back
    unchanged with the full-word selection.  Bump tiles are faults.  The
    result is kept on a grid that is not minimal and returned again on
    later calls.
    """
    kept = grid._removal
    if kept is not None:
        return kept
    records = grid_records(grid)
    if bumped(records):
        validate(grid)
    report = _removable(grid, records)
    if not report.pipes:
        return grid, report.subword
    n = grid.n
    removed = 0
    for y, _ in report.pipes:
        removed |= 1 << y - 1
    # the kept rows' entries with the removed columns deleted
    contractions = stored("contractions", n, _no_tables)
    contract = contractions.get(removed)
    if contract is None:
        contract = contractions[removed] = {}
    sub = []
    for x in report.indices:
        entries = records[x - 1].entries
        row = contract.get(entries)
        if row is None:
            row = contract[entries] = tuple(
                [e for j, e in enumerate(entries) if not removed >> j & 1])
        sub.append(row)
    # deleting unit rows and columns leaves a matrix, so the table of
    # moves takes every row
    kept = table_grid(table_path(sub, len(sub))), report.subword
    _set_removal(grid, kept)
    return kept


def insert(image: BpdGrid, w: Permutation, v: SubwordSelection) -> BpdGrid:
    """Expand ``image`` into the grid of w whose removable pipes realize v.

    The image's matrix is spread over the subword's index rows and value
    columns, and each removed pipe y->x comes back as a unit row x and
    unit column y of the matrix, a +1 at (x, y): row x of the result is
    the unit row with its 1 in column w(x) when x is not one of the
    subword's indices, and otherwise the next row of the image's matrix.
    Bump tiles in the image are faults.
    """
    if v.host != w:
        raise SubwordMismatch("selection does not live in the target permutation")
    m = image.n
    if m != len(v):
        raise SubwordMismatch(f"image size {m} != subword size {len(v)}")
    perm = trace(image).perm
    if perm != v.pattern():
        raise SubwordMismatch("image permutation differs from the flattened subword")
    records = grid_records(image)
    lone = _lone_plus(records)
    for record, y in zip(records, perm):
        if record.plus & lone and record.plus == 1 << y - 1:
            raise NotMinimal("image still has removable pipes")
    if bumped(records):
        validate(image)

    n = w.size
    values = v.values()
    cols = 0  # the columns the image occupies
    for c in values:
        cols |= 1 << c - 1
    # the image rows' entries spread over those columns
    spreads = stored("spreads", n, _no_tables)
    spread = spreads.get(cols)
    if spread is None:
        spread = spreads[cols] = {}
    units = stored("unit rows", n, _unit_rows)
    rows = [units[y - 1] for y in w]
    for x, record in zip(v.indices, records):
        entries = record.entries
        row = spread.get(entries)
        if row is None:
            row = [0] * n
            for c, e in zip(sorted(values), entries):
                row[c - 1] = e
            row = spread[entries] = tuple(row)
        rows[x - 1] = row
    # each column holds the image's column or one unit +1, so the rows form
    # a matrix, and the tiles of a matrix make a well-formed grid
    return table_grid(table_path(rows, n))
