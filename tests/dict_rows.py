"""The CLI's CSV from rows as dicts: the test oracle of ``cli._to_csv``.

``eulerian_bounds.cli`` builds each command's columns once and its rows
as value tuples in that order.  The writer here takes the same rows as
dicts, one per row, the way the CLI wrote them before: the first row's
keys are the header, and every row must repeat them in order.
``flatten_bounds`` turns a ``bounds`` JSON row into its CSV row: D and N
as decimals, every other enclosure as a ``<key>_lo``, ``<key>_hi`` pair.
"""

import csv
import io
import itertools
from fractions import Fraction

from eulerian_bounds.cli import _dec

# bounds' JSON keys in CSV column order.
BOUNDS_CSV_KEYS = (
    "n", "kind", "y", "D", "N", "lin_bound", "xmin", "q_right", "q_left",
    "un", "diff", "prec_bits",
)


def to_csv(rows: list[dict]) -> str:
    header = list(rows[0])
    if any(list(row) != header for row in rows):
        raise ValueError(f"a CSV row's keys differ, in set or order, from the header {header}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(itertools.chain([header], map(dict.values, rows)))
    return buf.getvalue()


def flatten_bounds(row: dict, prec: int) -> dict:
    flat = {}
    for key in BOUNDS_CSV_KEYS:
        value = row[key]
        if key in ("D", "N"):
            flat[key] = _dec((Fraction(value["lo"]) + Fraction(value["hi"])) / 2, prec)
        elif isinstance(value, dict):
            flat.update({f"{key}_{end}": cell for end, cell in value.items()})
        else:
            flat[key] = value
    return flat
