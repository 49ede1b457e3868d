#!/usr/bin/env python3
"""Compare two `rislink run` output trees by the golden-output rule.

    python3 scripts/diff_outputs.py NEW REFERENCE

Both trees must hold the same files.  In every sweep CSV the header, the row
count and the variable, value and config_digest columns must match exactly;
the dB columns must match within 1e-12 relative, with a 1e-12 dB absolute
floor near 0 dB.  Every number in a summary.json follows the dB rule and
everything else in it must be equal; any other file must match byte for byte.
A row of NEW whose dBm is -inf beside a finite dB is a mismatch on its own: only
an exact null reads -inf dBm, and its path loss is inf.

Prints the worst gap of each dB column (and of the summary.json numbers),
relative to REFERENCE, with where it occurs; then every mismatch.  Exits 1
on any mismatch, 0 otherwise.
"""

import argparse
import csv
import json
import math
import os
import sys

TOL = 1e-12
EXACT_COLUMNS = ("variable", "value", "config_digest")
DB_COLUMNS = ("received_power_dBm", "path_loss_dB")


class Comparison:
    """Worst gap per column and the mismatches found so far."""

    def __init__(self):
        self.worst: dict[str, tuple[float, float, str]] = {}  # column -> (rel, abs, where)
        self.problems: list[str] = []

    def number(self, column: str, where: str, got: float, want: float) -> None:
        if got == want or (math.isnan(got) and math.isnan(want)):
            gap = rel = 0.0
        else:
            gap = abs(got - want)
            rel = gap / abs(want) if want else math.inf
            if math.isnan(gap) or not math.isclose(got, want, rel_tol=TOL, abs_tol=TOL):
                self.problems.append(f"{where} {column}: {got!r} vs {want!r}")
        if column not in self.worst or rel > self.worst[column][0]:
            self.worst[column] = (rel, gap, where)

    def csv_file(self, name: str, got_path: str, want_path: str) -> None:
        got, want = _read_csv(got_path), _read_csv(want_path)
        if got[0] != want[0]:
            self.problems.append(f"{name}: header {got[0]} vs {want[0]}")
            return
        if len(got) != len(want):
            self.problems.append(f"{name}: {len(got) - 1} rows vs {len(want) - 1}")
            return
        header = want[0]
        dbm_db = [header.index(c) for c in DB_COLUMNS] if set(DB_COLUMNS) <= set(header) else None
        for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:])):
            where = f"{name} row {i}"
            for column, g, w in zip(header, g_row, w_row):
                if column in DB_COLUMNS:
                    self.number(column, where, float(g), float(w))
                elif g != w:
                    self.problems.append(f"{where} {column}: {g} vs {w}")
            if dbm_db:  # a CSV with both dB columns (a search trace has neither)
                dbm, db = (float(g_row[j]) for j in dbm_db)
                if dbm == -math.inf and math.isfinite(db):
                    self.problems.append(f"{where}: -inf dBm beside a finite {db!r} dB")

    def json_value(self, where: str, got, want) -> None:
        if type(got) is not type(want):
            self.problems.append(f"{where}: {got!r} vs {want!r}")
        elif isinstance(want, dict):
            if sorted(got) != sorted(want):
                self.problems.append(f"{where}: keys {sorted(got)} vs {sorted(want)}")
                return
            for key in want:
                self.json_value(f"{where}.{key}", got[key], want[key])
        elif isinstance(want, list):
            if len(got) != len(want):
                self.problems.append(f"{where}: {len(got)} entries vs {len(want)}")
                return
            for i, (g, w) in enumerate(zip(got, want)):
                self.json_value(f"{where}[{i}]", g, w)
        elif isinstance(want, float):
            self.number("summary.json numbers", where, got, want)
        elif got != want:
            self.problems.append(f"{where}: {got!r} vs {want!r}")


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _files(root) -> list[str]:
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


def compare(new_root, ref_root) -> Comparison:
    cmp = Comparison()
    new_files, ref_files = _files(new_root), _files(ref_root)
    for name in sorted(set(new_files) ^ set(ref_files)):
        side = "reference" if name in ref_files else "new tree"
        cmp.problems.append(f"{name}: only in the {side}")
    for name in sorted(set(new_files) & set(ref_files)):
        got, want = os.path.join(new_root, name), os.path.join(ref_root, name)
        if name.endswith(".csv"):
            cmp.csv_file(name, got, want)
        elif os.path.basename(name) == "summary.json":
            with open(got) as g, open(want) as w:
                cmp.json_value(name, json.load(g), json.load(w))
        else:
            with open(got, "rb") as g, open(want, "rb") as w:
                if g.read() != w.read():
                    cmp.problems.append(f"{name}: bytes differ")
    return cmp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("new", help="output tree to check")
    parser.add_argument("reference", help="output tree to check against")
    args = parser.parse_args(argv)
    for root in (args.new, args.reference):
        if not os.path.isdir(root):
            print(f"not a directory: {root}", file=sys.stderr)
            return 2

    cmp = compare(args.new, args.reference)
    for column, (rel, gap, where) in sorted(cmp.worst.items()):
        print(f"{column}: worst relative gap {rel:.3g} (absolute {gap:.3g}) at {where}")
    for problem in cmp.problems:
        print(f"MISMATCH {problem}")
    print(f"{len(cmp.problems)} mismatches")
    return 1 if cmp.problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
