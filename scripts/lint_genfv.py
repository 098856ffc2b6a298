#!/usr/bin/env python3
"""Repo-specific lint for genfv: invariants the compiler cannot check.

Rules (see docs/static-analysis.md for the rationale behind each):

  thread-capture   No NodeManager access inside a lambda handed to a thread.
                   `NodeManager` is not thread-safe and is never shared; work
                   crossing a thread boundary runs against a per-thread
                   `ir::SystemClone` translated before the thread starts
                   (mc/portfolio.cpp). The lint scans every lambda
                   that appears in a `std::thread(...)` / `std::jthread(...)`
                   / `workers.emplace_back(...)` argument list and rejects
                   bodies that mention `NodeManager`, `nm_ptr(`,
                   `node_manager(`, `.to_clone(` or `.to_original(` (clone
                   translation is single-threaded-phase work by contract).

  bare-mutex       No `std::mutex` / `std::condition_variable` /
                   `std::lock_guard` / `std::unique_lock` / `std::scoped_lock`
                   outside util/thread_safety.hpp. Every lock goes through the
                   annotated `util::Mutex` / `util::MutexLock` /
                   `util::CondVar`, so clang thread-safety analysis sees every
                   acquisition and the lock order documented in
                   util/thread_safety.hpp covers every mutex.

  frontend-throw   Every `throw` in src/frontend/ is either a located
                   `ParseError(location, message)` (two arguments — reader
                   diagnostics always point at the offending input) or a
                   `UsageError` (writer-side API misuse: there is no input
                   position to point at).

  no-endl          No `std::endl` anywhere in src/, tools/ or bench/.
                   Engine code logs through util/log.hpp and writes files
                   through buffered streams; `std::endl` is a hidden flush
                   that has no place on any path a solver loop might reach.

Exit status: 0 when clean, 1 when any violation is found (one line each,
`file:line: [rule] message`). `--self-test` seeds one violation per rule in a
temp tree and verifies the linter catches all of them (and accepts a clean
file), so CI proves the teeth work before trusting a green run.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent

BARE_MUTEX_ALLOWED = {"src/util/thread_safety.hpp"}

BARE_MUTEX_TOKENS = [
    "std::mutex",
    "std::recursive_mutex",
    "std::shared_mutex",
    "std::timed_mutex",
    "std::condition_variable",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
]

THREAD_SPAWN_RE = re.compile(r"std::j?thread\b|workers\s*\.\s*emplace_back\s*\(")

THREAD_BODY_FORBIDDEN = [
    "NodeManager",
    "nm_ptr(",
    "node_manager(",
    ".to_clone(",
    ".to_original(",
]

FRONTEND_THROW_RE = re.compile(r"\bthrow\b\s*(\w[\w:]*)")


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments and string literals, preserving line
    structure so reported line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # unterminated; recover
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def extract_lambda_bodies(code: str, start: int) -> list[tuple[int, str]]:
    """All `[...](...){...}` lambda bodies inside the call whose argument list
    opens at `start` (the offset of its '('). Returns (body_offset, body)."""
    # Find the extent of the call's parenthesized argument list.
    depth = 0
    end = start
    for i in range(start, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                end = i
                break
    else:
        end = len(code)
    args = code[start:end]
    bodies = []
    for m in re.finditer(r"\[[^\[\]]*\]", args):
        # Skip ahead over an optional parameter list to the body brace.
        j = m.end()
        while j < len(args) and args[j] in " \t\n":
            j += 1
        if j < len(args) and args[j] == "(":
            pdepth = 0
            while j < len(args):
                if args[j] == "(":
                    pdepth += 1
                elif args[j] == ")":
                    pdepth -= 1
                    if pdepth == 0:
                        j += 1
                        break
                j += 1
        while j < len(args) and args[j] in " \t\n":
            j += 1
        # Tolerate specifiers (mutable, noexcept, -> T) before the brace.
        k = args.find("{", j)
        if k < 0:
            continue
        bdepth = 0
        for e in range(k, len(args)):
            if args[e] == "{":
                bdepth += 1
            elif args[e] == "}":
                bdepth -= 1
                if bdepth == 0:
                    bodies.append((start + k, args[k : e + 1]))
                    break
    return bodies


def lint_file(path: pathlib.Path, rel: str, violations: list[str]) -> None:
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        violations.append(f"{rel}:0: [io] cannot read file: {e}")
        return
    code = strip_comments(raw)

    # no-endl
    for m in re.finditer(r"std::endl", code):
        violations.append(
            f"{rel}:{line_of(code, m.start())}: [no-endl] std::endl is a hidden "
            "flush; use '\\n' (and util/log.hpp for diagnostics)"
        )

    # bare-mutex
    if rel not in BARE_MUTEX_ALLOWED:
        for token in BARE_MUTEX_TOKENS:
            for m in re.finditer(re.escape(token) + r"\b", code):
                violations.append(
                    f"{rel}:{line_of(code, m.start())}: [bare-mutex] {token} outside "
                    "util/thread_safety.hpp; use util::Mutex / util::MutexLock / "
                    "util::CondVar so thread-safety analysis sees the lock"
                )

    # thread-capture
    for m in THREAD_SPAWN_RE.finditer(code):
        # The spawn's argument list is the next '(' in this statement (covers
        # both `std::thread t(...)` and direct `std::thread(...)` temporaries).
        paren = code.find("(", m.end() - 1)
        if paren < 0:
            continue
        between = code[m.end() : paren]
        if ";" in between or "{" in between or "}" in between:
            continue  # a declaration like std::vector<std::thread> workers;
        for body_off, body in extract_lambda_bodies(code, paren):
            for token in THREAD_BODY_FORBIDDEN:
                if token in body:
                    violations.append(
                        f"{rel}:{line_of(code, body_off)}: [thread-capture] lambda "
                        f"passed to a thread uses '{token}' — NodeManager never "
                        "crosses a thread; serialize to manager-neutral form or "
                        "translate before spawning"
                    )

    # frontend-throw
    if rel.startswith("src/frontend/"):
        for m in FRONTEND_THROW_RE.finditer(code):
            what = m.group(1)
            base = what.rsplit("::", 1)[-1]
            if base == "UsageError":
                continue  # writer-side misuse: no input position exists
            if base != "ParseError":
                violations.append(
                    f"{rel}:{line_of(code, m.start())}: [frontend-throw] throws "
                    f"'{what}' — frontend diagnostics must be a located ParseError "
                    "(or UsageError on the writer side)"
                )
                continue
            # Located = the two-argument (location, message) constructor:
            # require a top-level comma in the argument list.
            j = code.find("(", m.end(1))
            if j < 0:
                continue
            depth, has_comma = 0, False
            for e in range(j, len(code)):
                if code[e] in "([{":
                    depth += 1
                elif code[e] in ")]}":
                    depth -= 1
                    if depth == 0:
                        break
                elif code[e] == "," and depth == 1:
                    has_comma = True
            if not has_comma:
                violations.append(
                    f"{rel}:{line_of(code, m.start())}: [frontend-throw] ParseError "
                    "without a location argument — use ParseError(location, message)"
                )


def lint_tree(root: pathlib.Path) -> list[str]:
    violations: list[str] = []
    for sub in ("src", "tools", "bench"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in {".cpp", ".hpp", ".h", ".cc"}:
                continue
            rel = path.relative_to(root).as_posix()
            lint_file(path, rel, violations)
    return violations


def self_test() -> int:
    """Seed one violation per rule and verify each is caught."""
    seeded = {
        "no-endl": 'void f(std::ostream& os) { os << "x" << std::endl; }\n',
        "bare-mutex": "#include <mutex>\nstd::mutex mu;\n",
        "thread-capture": (
            "void spawn(genfv::ir::TransitionSystem& ts) {\n"
            "  std::thread t([&] { auto nm = ts.nm_ptr(); (void)nm; });\n"
            "  t.join();\n"
            "}\n"
        ),
        "frontend-throw": 'void g() { throw Error("boom"); }\n',
    }
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "src" / "frontend").mkdir(parents=True)
        (root / "src" / "frontend" / "bad.cpp").write_text(
            seeded["frontend-throw"], encoding="utf-8"
        )
        (root / "src" / "bad.cpp").write_text(
            seeded["no-endl"] + seeded["bare-mutex"] + seeded["thread-capture"],
            encoding="utf-8",
        )
        # A clean file: comments and strings must not trip any rule, and a
        # located ParseError must be accepted.
        (root / "src" / "frontend" / "good.cpp").write_text(
            "// std::endl in a comment is fine; so is std::mutex\n"
            'const char* s = "std::endl";\n'
            'void h() { throw ParseError(loc(), "bad token"); }\n'
            'void h2() { throw UsageError("writer misuse"); }\n',
            encoding="utf-8",
        )
        found = lint_tree(root)
        for rule in seeded:
            if not any(f"[{rule}]" in v for v in found):
                print(f"self-test FAILED: seeded {rule} violation not detected")
                failures += 1
        for v in found:
            if "good.cpp" in v:
                print(f"self-test FAILED: clean file flagged: {v}")
                failures += 1
    if failures == 0:
        print("self-test OK: all seeded violations detected, clean file accepted")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=REPO,
                        help="repository root to lint (default: this repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter catches seeded violations")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    violations = lint_tree(args.root)
    for v in violations:
        print(v)
    if violations:
        print(f"lint_genfv: {len(violations)} violation(s)")
        return 1
    print("lint_genfv: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
