#!/usr/bin/env python3
"""Byte-codec lint: keeps little-endian field assembly in one module.

Every binary format in gems (GraQL IR, net and GBSP frames, diagnostics,
stats bodies, snapshots, WAL records, rank payloads) is written with
ByteWriter and read with ByteReader from src/common/bytes.hpp. That pair
owns the byte-order policy and the bounds checks. This lint flags code
elsewhere that assembles or takes apart integers byte by byte, which is
how a second, unchecked codec would creep back in:

  shift-by-byte   `>> (8 * i)` / `<< (8 * i)`: a per-byte loop over an
                  integer's bytes.
  byte-push       `push_back(static_cast<uint8_t>(...))` of a shifted
                  integer: appending one byte of a wider field.
  memcpy-decode   `memcpy(&v, ... + pos ...)`: reading a scalar at a
                  cursor into a buffer, past any bounds check.

src/common/bytes.hpp and src/common/bytes.cpp are exempt. A
`// codec-lint: allow` comment on the flagged line or the line above it
suppresses a finding.

Usage:
  scripts/codec_lint.py [file-or-dir ...]   # default: src/
  scripts/codec_lint.py --self-test

Exit codes: 0 clean, 1 findings, 2 usage error. Pure stdlib.
"""

from __future__ import annotations

import pathlib
import re
import sys

ALLOW_MARKER = "codec-lint: allow"
EXEMPT = ("common/bytes.hpp", "common/bytes.cpp")

RULES = [
    ("shift-by-byte", re.compile(r"(?:>>|<<)\s*\(\s*8\s*\*\s*\w+\s*\)")),
    (
        "byte-push",
        re.compile(
            r"push_back\s*\(\s*static_cast<\s*(?:std::)?"
            r"(?:u?int8_t|(?:unsigned\s+)?char|byte)\s*>[^;]*(?:>>|<<)"
        ),
    ),
    (
        "memcpy-decode",
        re.compile(r"memcpy\s*\(\s*&\s*\w+\s*,[^;]*\+\s*\w*pos\w*"),
    ),
]

LINE_COMMENT_RE = re.compile(r"//.*$")


def lint_text(text: str, path: str = "<memory>"):
    """Returns a list of "path:line: [rule] source" findings."""
    if path.replace("\\", "/").endswith(EXEMPT):
        return []
    lines = text.splitlines()
    findings = []
    for i, raw in enumerate(lines):
        code = LINE_COMMENT_RE.sub("", raw)
        for rule, pattern in RULES:
            if not pattern.search(code):
                continue
            context = raw + (lines[i - 1] if i > 0 else "")
            if ALLOW_MARKER in context:
                continue
            findings.append(f"{path}:{i + 1}: [{rule}] {raw.strip()}")
    return findings


def lint_paths(paths):
    findings = []
    for p in paths:
        path = pathlib.Path(p)
        files = sorted(path.rglob("*.[ch]pp")) if path.is_dir() else [path]
        for f in files:
            findings.extend(lint_text(f.read_text(encoding="utf-8"), str(f)))
    return findings


# --- self-test -------------------------------------------------------------

_SELF_TEST_CASES = [
    # (name, path, source, expected rule or None)
    (
        "shift-loop-encode",
        "src/store/wal.cpp",
        "for (i = 0; i < 8; ++i) head[i] = uint8_t(seq >> (8 * i));",
        "shift-by-byte",
    ),
    (
        "shift-loop-decode",
        "src/store/format.hpp",
        "v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8*i));",
        "shift-by-byte",
    ),
    (
        "byte-push",
        "src/dist/runtime.hpp",
        "out.push_back(static_cast<std::uint8_t>(v >> 16));",
        "byte-push",
    ),
    (
        "memcpy-at-cursor",
        "src/net/wire.cpp",
        "std::memcpy(&v, bytes_.data() + pos_, sizeof(T));",
        "memcpy-decode",
    ),
    (
        "bit-cast-ok",
        "src/relational/row_key.cpp",
        "std::memcpy(&bits, &v, sizeof(bits));",
        None,
    ),
    (
        "crc-table-ok",
        "src/common/crc32.cpp",
        "state = t[(state ^ b) & 0xffu] ^ (state >> 8);",
        None,
    ),
    (
        "plain-push-ok",
        "src/exec/matcher.cpp",
        "frontier.push_back(static_cast<std::uint32_t>(v >> 1));",
        None,
    ),
    (
        "template-close-ok",
        "src/exec/executor.cpp",
        "merged.push_back({name, std::vector<std::optional<Ref>>(n)});",
        None,
    ),
    (
        "comment-ok",
        "src/store/format.hpp",
        "// fields were once written as v >> (8 * i), one byte at a time",
        None,
    ),
    (
        "exempt-module-ok",
        "src/common/bytes.hpp",
        "std::memcpy(&v, bytes_.data() + pos_, sizeof(T));",
        None,
    ),
    (
        "allow-comment-ok",
        "src/graph/builder.cpp",
        "// codec-lint: allow (hash mixing, not a field)\n"
        "key.push_back(static_cast<char>(h >> 8));",
        None,
    ),
]


def self_test() -> int:
    failures = 0
    for name, path, source, expected in _SELF_TEST_CASES:
        findings = lint_text(source, path)
        rules = sorted({f.split("[", 1)[1].split("]", 1)[0] for f in findings})
        if expected is None and findings:
            print(f"self-test FAIL {name}: unexpected findings {rules}")
            failures += 1
        elif expected is not None and rules != [expected]:
            print(f"self-test FAIL {name}: wanted [{expected}], got {rules}")
            failures += 1
    if failures:
        return 1
    print(f"self-test: all {len(_SELF_TEST_CASES)} cases pass")
    return 0


def main(argv) -> int:
    if "--self-test" in argv:
        return self_test()
    unknown = [a for a in argv if a.startswith("-")]
    if unknown:
        print(f"unknown option(s): {unknown}", file=sys.stderr)
        print(__doc__, file=sys.stderr)
        return 2
    findings = lint_paths(argv or ["src"])
    for f in findings:
        print(f)
    if findings:
        print(f"codec_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("codec_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
