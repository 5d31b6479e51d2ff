#!/usr/bin/env python3
"""Epoch-pin escape lint for the gems MVCC layer.

An mvcc::EpochPin defers retirement of a published graph snapshot: while
a pin is live the epoch manager must keep that epoch's memory alive, and
`drain()` (database close, final checkpoint) blocks until every pin is
released. Two usage patterns therefore break the system in ways the
type system cannot express and clang's thread safety analysis cannot
see (the pin is not a capability):

  1. **Escaped pins** — an EpochPin stored as a class/struct member
     outlives the statement scope it was meant for, pinning an epoch for
     the owner's whole lifetime (unbounded memory growth, drain() hangs).
     Pins must be locals: taken, used, released.

  2. **Blocking acquisitions while pinned** — taking a lock
     (sync::MutexLock, ExclusiveAccessLock, bare .lock()) while a live
     pin is in scope inverts the documented order "locks before pins".
     The exclusive path publishes epochs and may
     wait on readers; a reader that pins and *then* blocks on a lock held
     by that path deadlocks the retire/drain protocol.

The checkpoint capture pattern — acquire exclusive access first, pin
*inside* the critical section, let the guard go while the pin stays
live — is legal and must pass: liveness starts at the `.pin()` call
(assignment or initialization), not at the EpochPin declaration, and
ends at `.release()` or end of the declaring scope.

False-positive escape hatch: a `// epoch-pin-lint: allow` comment on the
flagged line or one of the three lines above it suppresses the finding.

Usage:
  scripts/epoch_pin_lint.py [file-or-dir ...]   # default: src/
  scripts/epoch_pin_lint.py --self-test

Exit codes: 0 clean, 1 findings, 2 usage error. Pure stdlib; no clang
needed (this lint runs on gcc-only machines and in the static-analysis
CI job next to clang-tidy).
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
import sys

ALLOW_MARKER = "epoch-pin-lint: allow"
ALLOW_LOOKBACK = 3  # lines above a finding that an allow comment covers

# Lock acquisitions whose constructors/calls block: scoped holders from
# common/sync.hpp and server/access.hpp, plus direct .lock() calls.
ACQUIRE_RE = re.compile(
    r"\b(?:sync::)?MutexLock\s+\w+\s*[({]"
    r"|\bExclusiveAccessLock\s+\w+\s*[({]"
    r"|[\w\)\]]\s*(?:\.|->)lock\s*\(\s*\)"
)

# `mvcc::EpochPin name ...` declarations (not function declarations —
# those have a parameter list right after the name).
PIN_DECL_RE = re.compile(
    r"\b(?:mvcc::)?EpochPin\s+(\w+)\s*(=|;|\{)"
)
# `name = <expr>.pin()` — liveness begins here (also matches the
# initializer form because PIN_DECL_RE leaves the `= ...` tail in place).
PIN_ASSIGN_RE = re.compile(r"\b(\w+)\s*=\s*[^;]*\.pin\s*\(\s*\)")
PIN_RELEASE_RE = re.compile(r"\b(\w+)\s*\.\s*release\s*\(\s*\)")

CLASS_HEAD_RE = re.compile(r"\b(class|struct)\s+[A-Za-z_]\w*[^;(]*$")
NAMESPACE_HEAD_RE = re.compile(r"\bnamespace\b[^;]*$")


@dataclasses.dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclasses.dataclass
class _Scope:
    kind: str  # "class" | "func" | "ns" | "block"
    pins: dict  # name -> live (bool), pins declared in this scope


def _strip_line_noise(line: str, in_block_comment: bool):
    """Removes comments and string/char literals; returns (code, still_in_block)."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            break
        if c == "/" and nxt == "*":
            in_block_comment = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block_comment


def _scope_kind(prefix: str, stack) -> str:
    """Classifies the brace that `prefix` (code before '{' on its logical
    line) opens."""
    if NAMESPACE_HEAD_RE.search(prefix):
        return "ns"
    if CLASS_HEAD_RE.search(prefix):
        return "class"
    if ")" in prefix or prefix.rstrip().endswith("else") or "try" in prefix:
        # Function/lambda body, or control-flow block inside one.
        inside_code = any(s.kind in ("func", "block") for s in stack)
        return "block" if inside_code else "func"
    return "block" if any(s.kind in ("func", "block") for s in stack) else "ns"


def lint_text(text: str, path: str = "<memory>"):
    findings = []
    lines = text.splitlines()
    allow_lines = {
        i + 1 for i, raw in enumerate(lines) if ALLOW_MARKER in raw
    }

    def allowed(lineno: int) -> bool:
        return any(
            lineno - k in allow_lines for k in range(0, ALLOW_LOOKBACK + 1)
        )

    stack = [_Scope("ns", {})]  # file scope
    in_block_comment = False
    logical = ""  # code accumulated since the last brace/semicolon

    for lineno, raw in enumerate(lines, start=1):
        code, in_block_comment = _strip_line_noise(raw, in_block_comment)

        # Rule 1: EpochPin declared at class scope (member) escapes
        # statement discipline entirely.
        m = PIN_DECL_RE.search(code)
        if m and stack[-1].kind == "class" and not allowed(lineno):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "pin-escapes-scope",
                    f"EpochPin member '{m.group(1)}' pins an epoch for the "
                    "owner's lifetime; pins must be function-locals "
                    "(taken, used, released)",
                )
            )
        elif m and stack[-1].kind != "class":
            scope = stack[-1]
            scope.pins[m.group(1)] = False  # declared, not yet live

        # Liveness transitions (before the acquisition check so a pin
        # taken on this line guards *later* acquisitions, and a release
        # on this line already clears it — matches statement order only
        # approximately, which is fine at this granularity).
        for m in PIN_RELEASE_RE.finditer(code):
            for scope in reversed(stack):
                if m.group(1) in scope.pins:
                    scope.pins[m.group(1)] = False
                    break
        pin_taken_here = None
        for m in PIN_ASSIGN_RE.finditer(code):
            name = m.group(1)
            for scope in reversed(stack):
                if name in scope.pins:
                    scope.pins[name] = True
                    pin_taken_here = name
                    break

        # Rule 2: blocking acquisition while a pin is live.
        if ACQUIRE_RE.search(code):
            live = [
                name
                for scope in stack
                for name, is_live in scope.pins.items()
                if is_live and name != pin_taken_here
            ]
            if live and not allowed(lineno):
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "lock-under-pin",
                        f"lock acquired while epoch pin(s) {', '.join(live)} "
                        "are live; release the pin first (lock order is "
                        "locks before pins — see DESIGN.md §5j)",
                    )
                )

        # Brace/scope tracking on the stripped code.
        for ch in code:
            if ch == "{":
                stack.append(_Scope(_scope_kind(logical, stack), {}))
                logical = ""
            elif ch == "}":
                if len(stack) > 1:
                    stack.pop()
                logical = ""
            elif ch == ";":
                logical = ""
            else:
                logical += ch
        logical += " "

    return findings


def lint_paths(paths):
    findings = []
    for p in paths:
        path = pathlib.Path(p)
        files = (
            sorted(path.rglob("*.[ch]pp")) if path.is_dir() else [path]
        )
        for f in files:
            findings.extend(
                lint_text(f.read_text(encoding="utf-8"), str(f))
            )
    return findings


# --- self-test -------------------------------------------------------------

_SELF_TEST_CASES = [
    # (name, source, expected rule or None)
    (
        "member-pin",
        """
        class Cache {
         public:
          void warm();
         private:
          mvcc::EpochPin pin_;
        };
        """,
        "pin-escapes-scope",
    ),
    (
        "lock-under-pin",
        """
        void f(EpochManager& epochs, sync::Mutex& mu) {
          mvcc::EpochPin pin = epochs.pin();
          sync::MutexLock lock(mu);  // deadlock shape
        }
        """,
        "lock-under-pin",
    ),
    (
        "exclusive-under-pin",
        """
        void g(Database& db) {
          auto pin = db.epochs().pin();
          const ExclusiveAccessLock lock(access_);
        }
        """,
        None,  # `auto` declarations are invisible; documents the limit
    ),
    (
        "exclusive-under-typed-pin",
        """
        void g(Database& db) {
          mvcc::EpochPin pin = db.epochs().pin();
          const ExclusiveAccessLock lock(access_);
        }
        """,
        "lock-under-pin",
    ),
    (
        "release-then-lock-ok",
        """
        void h() {
          mvcc::EpochPin pin = epochs_.pin();
          use(pin.ctx());
          pin.release();
          const ExclusiveAccessLock commit(access_);
        }
        """,
        None,
    ),
    (
        "checkpoint-pattern-ok",
        """
        Status checkpoint() {
          mvcc::EpochPin pin;
          {
            const ExclusiveAccessLock lock(access_);
            pin = epochs_.pin();
          }
          encode(pin.ctx());
          pin.release();
          const ExclusiveAccessLock lock(access_);
          return finish();
        }
        """,
        None,
    ),
    (
        "scope-end-kills-pin",
        """
        void k() {
          {
            mvcc::EpochPin pin = epochs_.pin();
            use(pin.ctx());
          }
          sync::MutexLock lock(mu_);
        }
        """,
        None,
    ),
    (
        "allow-comment",
        """
        void m() {
          mvcc::EpochPin pin = epochs_.pin();
          // epoch-pin-lint: allow (proven lock-free fast path)
          sync::MutexLock lock(mu_);
        }
        """,
        None,
    ),
    (
        "function-returning-pin-ok",
        """
        class Database {
         public:
          mvcc::EpochPin pin_epoch() const { return epochs_.pin(); }
        };
        """,
        None,
    ),
]


def self_test() -> int:
    failures = 0
    for name, source, expected in _SELF_TEST_CASES:
        findings = lint_text(source, name)
        rules = sorted({f.rule for f in findings})
        if expected is None and findings:
            print(f"self-test FAIL {name}: unexpected findings {rules}")
            for f in findings:
                print(f"    {f}")
            failures += 1
        elif expected is not None and expected not in rules:
            print(
                f"self-test FAIL {name}: wanted [{expected}], got {rules}"
            )
            failures += 1
    if failures:
        return 1
    print(f"self-test: all {len(_SELF_TEST_CASES)} cases pass")
    return 0


def main(argv) -> int:
    if "--self-test" in argv:
        return self_test()
    paths = [a for a in argv if not a.startswith("-")] or ["src"]
    unknown = [a for a in argv if a.startswith("-")]
    if unknown:
        print(f"unknown option(s): {unknown}", file=sys.stderr)
        print(__doc__, file=sys.stderr)
        return 2
    findings = lint_paths(paths)
    for f in findings:
        print(f)
    if findings:
        print(f"epoch_pin_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("epoch_pin_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
