#!/usr/bin/env python3
"""Checks that docs/observability.md lists every fixed metric name.

Collects each string literal of the form "service/...", "engine/...",
"net/...", "sqo/..." or "eval/..." (a complete literal: lowercase letters,
digits and underscores after the namespace, possibly nested as in
"sqo/phase/lower_ns") from src/**/*.cc and fails when one of them does not
appear in docs/observability.md as a whole name. Names built at run time
(the tenant/<name>/... family, the configurable eval/ prefix, per-pass
names such as "sqo/phase/" + pass + "_ns", per-rule names) are not literals
of that form and are out of scope.

Exits 0 when the catalogue is complete; otherwise prints each missing name
with the file that emits it and exits 1. Stdlib only.

usage: check_metric_catalogue.py [--root <repo root>]
"""

import argparse
import pathlib
import re
import sys

LITERAL = re.compile(
    r'"((?:service|engine|net|sqo|eval)/[a-z0-9_]+(?:/[a-z0-9_]+)*)"')


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
    if missing:
        return 1
    print(f"metric catalogue complete: {len(names)} names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
