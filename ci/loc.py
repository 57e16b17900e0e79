#!/usr/bin/env python3
"""Counts the workspace's non-test Rust lines, per crate and in total.

A counted file is a git-tracked `*.rs` file outside `perfbench/` and
outside every `tests/` directory. Its lines count in full, blank and
comment lines too, less each `#[cfg(test)]` module: the attribute line,
the `mod` line and every line up to the module's closing brace.

    python3 ci/loc.py          # run from anywhere inside the repository
"""

import collections
import subprocess
import sys


def counted(path):
    parts = path.split("/")
    return path.endswith(".rs") and parts[0] != "perfbench" and "tests" not in parts[:-1]


def group(path):
    """The crate a file belongs to: `crates/<name>`, `shims/<name>`, or the root package."""
    parts = path.split("/")
    if parts[0] in ("crates", "shims") and len(parts) > 2:
        return "/".join(parts[:2])
    return "(root)"


def non_test_lines(text):
    """Lines of `text` outside its `#[cfg(test)] mod` blocks. A block
    ends at the first line holding only the closing brace at the `mod`
    line's indentation, as rustfmt writes it."""
    lines = text.splitlines()
    count = 0
    i = 0
    while i < len(lines):
        if lines[i].strip() == "#[cfg(test)]" and lines[i + 1].lstrip().startswith("mod "):
            mod = lines[i + 1]
            close = mod[: len(mod) - len(mod.lstrip())] + "}"
            i += 2
            while lines[i - 1] != close and not mod.endswith(";"):
                i += 1
            continue
        count += 1
        i += 1
    return count


def main():
    root = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True, capture_output=True, text=True
    ).stdout.strip()
    files = subprocess.run(
        ["git", "-C", root, "ls-files", "*.rs"], check=True, capture_output=True, text=True
    ).stdout.split()
    totals = collections.Counter()
    for path in filter(counted, files):
        with open(f"{root}/{path}", encoding="utf-8") as f:
            totals[group(path)] += non_test_lines(f.read())
    for name in sorted(totals):
        print(f"{totals[name]:>7}  {name}")
    print(f"{sum(totals.values()):>7}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
