#!/usr/bin/env python3
"""Checks that docs/observability.md lists exactly the fixed metric names.

Collects each string literal of the form "service/...", "engine/...",
"net/...", "sqo/..." or "eval/..." (a complete literal: lowercase letters,
digits and underscores after the namespace, possibly nested as in
"sqo/phase/lower_ns") from src/**/*.cc and fails when one of them does not
appear in docs/observability.md as a whole name. Names built at run time
(the tenant/<name>/... family, the configurable eval/ prefix, per-pass
names such as "sqo/phase/" + pass + "_ns", per-rule names) are not literals
of that form and are out of scope.

The other direction holds too: a catalogue-table row (a Markdown table
line whose first cell is a `name` in one of those namespaces) must name a
metric some src/**/*.cc literal emits, so a deleted metric cannot linger in
the docs. Rows whose name contains "<" (built at run time) are skipped.

Exits 0 when the catalogue matches; otherwise prints each missing or stale
name and exits 1. Stdlib only.

usage: check_metric_catalogue.py [--root <repo root>]
"""

import argparse
import pathlib
import re
import sys

NAME = r"(?:service|engine|net|sqo|eval)/[a-z0-9_]+(?:/[a-z0-9_]+)*"
LITERAL = re.compile(r'"(' + NAME + r')"')
# The first cell of a table row, when it is one backquoted fixed name.
ROW = re.compile(r"^\|\s*`(" + NAME + r")`\s*\|", re.MULTILINE)


def emitted_names(src):
    names = {}
    for path in sorted(src.rglob("*.cc")):
        for name in LITERAL.findall(path.read_text(encoding="utf-8")):
            names.setdefault(name, path)
    return names


def documented(name, doc):
    # A whole name: not a prefix of a longer one, not the tail of a path.
    pattern = r"(?<![a-z0-9_/])" + re.escape(name) + r"(?![a-z0-9_/])"
    return re.search(pattern, doc) is not None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: the parent of scripts/)")
    args = parser.parse_args()

    names = emitted_names(args.root / "src")
    if not names:
        print("no metric literals found under", args.root / "src")
        return 1
    doc = (args.root / "docs" / "observability.md").read_text(encoding="utf-8")
    missing = sorted(n for n in names if not documented(n, doc))
    for name in missing:
        rel = names[name].relative_to(args.root)
        print(f"missing from docs/observability.md: {name} (emitted in {rel})")
    stale = sorted(set(ROW.findall(doc)) - set(names))
    for name in stale:
        print(f"docs/observability.md lists {name}, which no src/**/*.cc "
              "literal emits")
    if missing or stale:
        return 1
    print(f"metric catalogue complete: {len(names)} names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
