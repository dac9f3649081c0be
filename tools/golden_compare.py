#!/usr/bin/env python3
"""Run the package's golden-compare commands on two source trees and
compare their report files.

    python tools/golden_compare.py PARENT_SRC CHANGE_SRC [--out DIR]

Each tree is a checkout of this repository (holding ``src/pmufdi`` and
``configs``) or a source directory holding ``pmufdi`` itself, whose
configs are then taken from the repository this script sits in. Both
trees run the same commands, each command into its own directory under
DIR/parent and DIR/change:

- ``experiment`` on ``configs/ieee24.yaml`` and ``configs/ieee118.yaml``;
- ``experiment`` on the 24-bus config at block seeds 3, 7 and 13 with
  ``--limit 10``;
- ``generate``, ``attack --buses 8`` and ``detect --injected 8`` on that
  attacked block, all on the 24-bus config;
- ``sweep --lambdas 0.5,1.05,2,5`` on both configs.

For every file written (``timings.csv`` aside, which holds wall times),
it prints whether the two trees wrote it byte for byte alike. For a CSV
table that differs it prints the columns that moved and on how many rows.
It exits 1 where an ``outcome`` or ``flagged_buses`` cell differs, where
a table's rows do not line up, where a file is written by one tree only,
or where a command's exit status differs; otherwise 0. Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
IGNORED = {"timings.csv"}
VERDICT_COLUMNS = ("outcome", "flagged_buses")
LAMBDAS = "0.5,1.05,2,5"


def commands(configs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every golden-compare command, writing
    under *out*; ``detect`` reads the block that ``attack`` wrote."""
    ieee24, ieee118 = str(configs / "ieee24.yaml"), str(configs / "ieee118.yaml")
    runs = [("experiment-ieee24", ["experiment", "--config", ieee24]),
            ("experiment-ieee118", ["experiment", "--config", ieee118])]
    runs += [(f"experiment-ieee24-seed{seed}",
              ["experiment", "--config", ieee24, "--seed", str(seed), "--limit", "10"])
             for seed in (3, 7, 13)]
    runs += [("generate", ["generate", "--config", ieee24]),
             ("attack", ["attack", "--config", ieee24, "--buses", "8"]),
             ("detect", ["detect", "--config", ieee24, "--injected", "8",
                         "--block", str(out / "attack" / "attacked_block.csv")]),
             ("sweep-ieee24", ["sweep", "--config", ieee24, "--lambdas", LAMBDAS]),
             ("sweep-ieee118", ["sweep", "--config", ieee118, "--lambdas", LAMBDAS])]
    return [(name, args + ["--out-dir", str(out / name)]) for name, args in runs]


def locate(tree: Path) -> tuple[Path, Path]:
    """(directory holding ``pmufdi``, configs directory) of *tree*."""
    if (tree / "src" / "pmufdi").is_dir():
        src, root = tree / "src", tree
    elif (tree / "pmufdi").is_dir():
        src, root = tree, tree.parent
    else:
        raise SystemExit(f"{tree}: neither {tree}/src/pmufdi nor {tree}/pmufdi exists")
    configs = root / "configs"
    return src, configs if configs.is_dir() else HERE / "configs"


def run_tree(tree: Path, out: Path) -> dict[str, int]:
    """Run every command on *tree* into *out*; the exit status of each."""
    src, configs = locate(tree)
    env = dict(os.environ, PYTHONPATH=str(src))
    status = {}
    for name, args in commands(configs, out):
        done = subprocess.run([sys.executable, "-m", "pmufdi.cli", *args], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        status[name] = done.returncode
        if done.returncode:
            tail = done.stderr.strip().splitlines()[-1:] or ["(no message)"]
            print(f"  {tree.name}: {name} exited {done.returncode}: {tail[0]}")
    return status


def table(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return (rows[0], rows[1:]) if rows else ([], [])


def compare_tables(a: Path, b: Path) -> bool:
    """Print the columns of two CSV tables that moved; True where the
    verdict columns differ or the tables do not line up."""
    head_a, rows_a = table(a)
    head_b, rows_b = table(b)
    if head_a != head_b or len(rows_a) != len(rows_b):
        print(f"    header or row count differs: {len(rows_a)} against {len(rows_b)} rows")
        return True
    moved = {}
    for row_a, row_b in zip(rows_a, rows_b):
        for column, cell_a, cell_b in zip(head_a, row_a, row_b):
            if cell_a != cell_b:
                moved[column] = moved.get(column, 0) + 1
    for column, count in moved.items():
        print(f"    {column}: {count} of {len(rows_a)} rows moved")
    return any(column in moved for column in VERDICT_COLUMNS)


def compare(out: Path, names: list[str]) -> bool:
    """Print the verdict for every file of every command; True where the
    trees disagree on a verdict or a file."""
    failed = False
    for name in names:
        a, b = out / "parent" / name, out / "change" / name
        files = sorted({p.relative_to(side) for side in (a, b) if side.is_dir()
                        for p in side.rglob("*") if p.is_file()})
        for rel in files:
            if rel.name in IGNORED:
                continue
            fa, fb = a / rel, b / rel
            label = f"{name}/{rel}"
            if not (fa.is_file() and fb.is_file()):
                print(f"{label}: written by the {'parent' if fa.is_file() else 'change'} only")
                failed = True
            elif fa.read_bytes() == fb.read_bytes():
                print(f"{label}: identical")
            else:
                print(f"{label}: differs")
                if rel.suffix == ".csv":
                    failed |= compare_tables(fa, fb)
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for both trees' reports (default: a new temporary one)")
    args = parser.parse_args(argv)
    out = (args.out or Path(tempfile.mkdtemp(prefix="golden-"))).resolve()
    print(f"reports under {out}")
    status = {side: run_tree(tree.resolve(), out / side)
              for side, tree in (("parent", args.parent), ("change", args.change))}
    failed = False
    for name in status["parent"]:
        if status["parent"][name] != status["change"][name]:
            print(f"{name}: exit status {status['parent'][name]} against {status['change'][name]}")
            failed = True
    failed |= compare(out, list(status["parent"]))
    print("verdicts differ" if failed else "outcomes and flagged sets identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
