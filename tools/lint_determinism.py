#!/usr/bin/env python3
"""Project-specific determinism lints that clang-tidy cannot express.

The simulators promise bit-identical results for a given (seed, block size)
on any worker count — every block replays its own RNG substream, and the
cross-method estimator comparisons rely on reproducible Monte-Carlo
statistics. A handful of C++ constructs silently break that promise without
failing any test on the machine that introduced them. This linter bans them
at review time:

  rand            std::rand / srand / std::random_device inside the
                  simulation stack. All randomness must flow from util/rng
                  (counter-based, journaled, substream-splittable).
  wallclock       Wall-clock reads (system_clock, time(), gettimeofday,
                  localtime) inside the simulation stack. Simulated time is
                  event time; elapsed-time measurement uses steady_clock,
                  which stays allowed.
  unordered-iter  Range-for iteration over a std::unordered_{map,set,...}
                  inside the simulation stack. Iteration order is
                  implementation-defined; feeding it into floating-point
                  accumulation, RNG draws, or journaled output makes results
                  hash-seed dependent. Keyed lookups and .size()/.contains()
                  stay allowed (declarations alone are not flagged).
  float-eq        == / != where either operand is a floating-point literal
                  or a variable the file declares as float/double, in
                  sim/analysis logic. Exact comparison is almost always a
                  latent nondeterminism (or a tolerance bug); the rare
                  intentional case (strict-weak-order tie-breaks) must be
                  annotated.
  task-throw      A naked `throw` inside a lambda passed to
                  ThreadPool::submit. Worker threads run tasks unprotected —
                  an escaping exception is std::terminate. (parallel_for /
                  parallel_chunks bodies are exempt: the pool wraps them in
                  its batch-abandon try/catch.)
  jitter          Un-seeded randomness (rand, random_device) or any clock
                  read — steady_clock included — on a line that computes
                  retry backoff or jitter, in src/{sim,analysis,runtime,util}.
                  Retry timing must derive from the campaign seed
                  (splitmix64 over (seed, block, attempt)) so a resumed run
                  retries on the same schedule and fault-injection sweeps
                  replay bit-identically; clock-derived jitter silently
                  breaks both.
  raw-sync        Raw std synchronization types (std::mutex, lock_guard,
                  unique_lock, scoped_lock, condition_variable, ...)
                  anywhere in src/ outside util/thread_safety.hpp. All
                  locking must go through mlec::Mutex / MutexLock / CondVar
                  so Clang's thread-safety analysis sees every acquisition;
                  a raw std::mutex is invisible to the annotations and
                  silently exempts its critical sections from the
                  compile-time contract.
  tsa-escape      Any use of MLEC_NO_THREAD_SAFETY_ANALYSIS in src/. The
                  escape hatch disables the analysis for a whole function
                  body, so every use must carry a justified allow explaining
                  why the access is safe without the capability (e.g.
                  quiescent-state accessors used only after drain()).

Suppression: append `// lint:allow(<rule>): <justification>` to the flagged
line, or place it alone on the preceding line. The justification is
mandatory — a bare allow is itself a finding.

Usage:
  tools/lint_determinism.py [--root DIR]     lint the tree (exit 1 on findings)
  tools/lint_determinism.py --self-test      run the embedded rule tests
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Directories each rule applies to, relative to the repo root.
SIM_STACK = ("src/sim", "src/analysis", "src/runtime")
SIM_LOGIC = ("src/sim", "src/analysis")
JITTER_STACK = SIM_STACK + ("src/util",)
ALL_SRC = ("src",)

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)(:?\s*(.*))?")

RAND_RE = re.compile(r"\b(?:std::)?(?:rand|srand)\s*\(|\brandom_device\b")
WALLCLOCK_RE = re.compile(
    r"\bsystem_clock\b|\bgettimeofday\s*\(|\blocaltime\b|\bgmtime\b"
    r"|(?<![_\w])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0|&)"
)
UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;=]*?\b(\w+)\s*[;({=]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*?[&\s]\[?\w*.*?:\s*(\w+)\s*\)")
FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*(?:=|;|,|\{|\))")
FLOAT_LITERAL = r"[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?[fF]?"
FLOAT_CMP_RE = re.compile(
    r"([A-Za-z_][\w.\[\]()>-]*|" + FLOAT_LITERAL + r")\s*([!=]=)\s*"
    r"([A-Za-z_][\w.\[\]()>-]*|" + FLOAT_LITERAL + r")"
)
FLOAT_LITERAL_RE = re.compile(r"^" + FLOAT_LITERAL + r"$")
JITTER_CONTEXT_RE = re.compile(r"\b(?:jitter|backoff)\w*", re.IGNORECASE)
JITTER_NONDET_RE = re.compile(
    r"\b(?:std::)?(?:rand|srand)\s*\(|\brandom_device\b"
    r"|\b(?:system|steady|high_resolution)_clock\b"
    r"|(?<![_\w])(?:std::)?time\s*\("
)
RAW_SYNC_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|condition_variable|condition_variable_any)\b"
)
TSA_ESCAPE_RE = re.compile(r"\bMLEC_NO_THREAD_SAFETY_ANALYSIS\b")
# The one file allowed to touch the raw std types: it defines the wrappers.
SYNC_WRAPPER_FILE = "src/util/thread_safety.hpp"


def strip_comments_and_strings(line: str) -> str:
    """Blank out string/char literals and // comments (keeps column count)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == '/' and i + 1 < n and line[i + 1] == '/':
            out.append(' ' * (n - i))
            break
        if c in ('"', "'"):
            quote = c
            out.append(' ')
            i += 1
            while i < n:
                if line[i] == '\\':
                    out.append('  ')
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(' ')
                    i += 1
                    break
                out.append(' ')
                i += 1
            continue
        out.append(c)
        i += 1
    return ''.join(out)


class Finding:
    def __init__(self, path: str, lineno: int, rule: str, message: str):
        self.path, self.lineno, self.rule, self.message = path, lineno, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


def parse_allows(lines: list[str]) -> tuple[dict[int, set[str]], list[tuple[int, str]]]:
    """Map line numbers -> allowed rules (self + next line); bare allows."""
    allowed: dict[int, set[str]] = {}
    bare: list[tuple[int, str]] = []
    for idx, line in enumerate(lines, start=1):
        for m in ALLOW_RE.finditer(line):
            rule = m.group(1)
            justification = (m.group(3) or "").strip()
            if not justification:
                bare.append((idx, rule))
            allowed.setdefault(idx, set()).add(rule)
            # An allow on its own comment line covers the following line.
            if strip_comments_and_strings(line).strip() == "":
                allowed.setdefault(idx + 1, set()).add(rule)
    return allowed, bare


def float_identifiers(code_lines: list[str]) -> set[str]:
    names: set[str] = set()
    for line in code_lines:
        for m in FLOAT_DECL_RE.finditer(line):
            names.add(m.group(1))
    return names


def operand_is_float(op: str, float_names: set[str]) -> bool:
    if FLOAT_LITERAL_RE.match(op):
        return True
    # Last member-access component: `a.key` / `heap_[i].key` -> `key`.
    last = re.split(r"[.\[\]()]+|->", op)
    last = [t for t in last if t]
    return bool(last) and last[-1] in float_names


def lint_file(path: Path, rel: str, findings: list[Finding]) -> None:
    try:
        raw_lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError as e:
        findings.append(Finding(rel, 0, "io", f"unreadable: {e}"))
        return
    allowed, bare = parse_allows(raw_lines)
    for lineno, rule in bare:
        findings.append(Finding(rel, lineno, rule,
                                "lint:allow without a justification (add ': <reason>')"))
    code_lines = [strip_comments_and_strings(l) for l in raw_lines]

    in_sim_stack = rel.startswith(SIM_STACK)
    in_sim_logic = rel.startswith(SIM_LOGIC)
    in_jitter_stack = rel.startswith(JITTER_STACK)
    in_src = rel.startswith(ALL_SRC) and rel != SYNC_WRAPPER_FILE

    def report(lineno: int, rule: str, message: str) -> None:
        if rule in allowed.get(lineno, set()):
            return
        findings.append(Finding(rel, lineno, rule, message))

    unordered_names: set[str] = set()
    float_names = float_identifiers(code_lines) if in_sim_logic else set()

    for lineno, line in enumerate(code_lines, start=1):
        if in_sim_stack:
            if RAND_RE.search(line):
                report(lineno, "rand",
                       "libc/std randomness in the simulation stack; use util/rng")
            if WALLCLOCK_RE.search(line):
                report(lineno, "wallclock",
                       "wall-clock read in the simulation stack; use event time or steady_clock")
            for m in UNORDERED_DECL_RE.finditer(line):
                unordered_names.add(m.group(1))
            m = RANGE_FOR_RE.search(line)
            if m and m.group(1) in unordered_names:
                report(lineno, "unordered-iter",
                       f"iteration over unordered container '{m.group(1)}' is "
                       "implementation-ordered; use a dense index or sort first")
        if in_jitter_stack and JITTER_CONTEXT_RE.search(line) and JITTER_NONDET_RE.search(line):
            report(lineno, "jitter",
                   "backoff/jitter computed from un-seeded randomness or a clock; "
                   "derive it from the campaign seed (splitmix64 over "
                   "(seed, block, attempt)) so resumed runs retry identically")
        if in_src:
            if RAW_SYNC_RE.search(line):
                report(lineno, "raw-sync",
                       "raw std synchronization type outside util/thread_safety.hpp; "
                       "use mlec::Mutex / MutexLock / CondVar so the thread-safety "
                       "analysis sees the acquisition")
            if TSA_ESCAPE_RE.search(line):
                report(lineno, "tsa-escape",
                       "MLEC_NO_THREAD_SAFETY_ANALYSIS disables the analysis for the "
                       "whole function; justify it with lint:allow(tsa-escape): <why>")
        if in_sim_logic:
            for m in FLOAT_CMP_RE.finditer(line):
                lhs, op, rhs = m.group(1), m.group(2), m.group(3)
                if operand_is_float(lhs, float_names) or operand_is_float(rhs, float_names):
                    report(lineno, "float-eq",
                           f"exact floating-point comparison '{lhs} {op} {rhs}'; "
                           "compare with a tolerance or annotate the tie-break")

    # task-throw: lambdas passed to ThreadPool::submit anywhere under src/.
    if rel.startswith(ALL_SRC):
        text = "\n".join(code_lines)
        for m in re.finditer(r"\bsubmit\s*\(\s*\[", text):
            start = text.index("[", m.start())
            brace = text.find("{", start)
            if brace < 0:
                continue
            depth, i = 0, brace
            while i < len(text):
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            body = text[brace:i]
            if re.search(r"\bthrow\b", body) and "catch" not in body:
                lineno = text.count("\n", 0, brace) + 1
                report(lineno, "task-throw",
                       "naked throw in a ThreadPool::submit task body would "
                       "std::terminate the worker; catch locally")


def run_lint(root: Path) -> int:
    findings: list[Finding] = []
    for top in ALL_SRC:
        for path in sorted((root / top).rglob("*")):
            if path.suffix in (".cpp", ".hpp", ".h", ".cc"):
                lint_file(path, path.relative_to(root).as_posix(), findings)
    for f in findings:
        print(f)
    if findings:
        print(f"\n{len(findings)} determinism-lint finding(s).", file=sys.stderr)
        return 1
    print("determinism lint: clean")
    return 0


# --- embedded self-test ----------------------------------------------------

SELF_TEST_CASES = [
    # (relative path, source, expected rule or None)
    ("src/sim/a.cpp", "int x = rand();", "rand"),
    ("src/sim/a.cpp", "std::random_device rd;", "rand"),
    ("src/core/a.cpp", "int x = rand();", None),  # outside the sim stack
    ("src/runtime/a.cpp", "auto t = std::chrono::system_clock::now();", "wallclock"),
    ("src/runtime/a.cpp", "auto t = std::chrono::steady_clock::now();", None),
    ("src/analysis/a.cpp",
     "std::unordered_map<int, int> groups;\nfor (const auto& [k, v] : groups) {}",
     "unordered-iter"),
    ("src/analysis/a.cpp",
     "std::unordered_map<int, int> groups;\nint v = groups.size();", None),
    ("src/sim/a.hpp", "double key;\nbool eq = a.key == b.key;", "float-eq"),
    ("src/sim/a.hpp", "double key;\nbool lt = a.key < b.key;", None),
    ("src/analysis/a.cpp", "if (x == 1.0) {}", "float-eq"),
    ("src/analysis/a.cpp", "if (it != v.end()) {}", None),
    ("src/sim/a.hpp",
     "double key;\nbool eq = a.key == b.key;  // lint:allow(float-eq): tie-break\n", None),
    ("src/sim/a.hpp",
     "double key;\nbool eq = a.key == b.key;  // lint:allow(float-eq)\n", "float-eq"),
    ("src/util/a.cpp", "pool.submit([&] { throw Error{}; });", "task-throw"),
    ("src/util/a.cpp",
     "pool.submit([&] { try { f(); } catch (...) { log(); } });", None),
    ("src/sim/a.cpp", 'printf("rand() is banned");', None),  # strings ignored
    ("src/util/a.cpp", "double jitter = rand() / double(RAND_MAX);", "jitter"),
    ("src/runtime/a.cpp",
     "backoff_ms *= 1 + std::chrono::steady_clock::now().time_since_epoch().count() % 7;",
     "jitter"),
    ("src/runtime/a.cpp",
     "const double jitter = 0.5 + (splitmix64(state) >> 11) * 0x1.0p-53;", None),
    ("src/util/a.cpp",
     "auto elapsed = std::chrono::steady_clock::now() - start;", None),  # not jitter code
    ("src/server/a.cpp", "std::mutex m;", "raw-sync"),
    ("src/server/a.cpp", "std::unique_lock lock(m);", "raw-sync"),
    ("src/server/a.cpp", "std::condition_variable cv;", "raw-sync"),
    ("src/server/a.hpp", "mlec::Mutex m;\nMutexLock lock(m);", None),
    ("src/util/thread_safety.hpp", "std::mutex raw_;", None),  # the wrapper itself
    ("src/server/a.hpp",
     "void peek() const MLEC_NO_THREAD_SAFETY_ANALYSIS;", "tsa-escape"),
    ("src/server/a.hpp",
     "// lint:allow(tsa-escape): quiescent accessor, only valid after drain\n"
     "void peek() const MLEC_NO_THREAD_SAFETY_ANALYSIS;", None),
    ("src/server/a.hpp",
     "// lint:allow(tsa-escape)\n"
     "void peek() const MLEC_NO_THREAD_SAFETY_ANALYSIS;", "tsa-escape"),  # bare allow
]


def self_test() -> int:
    import tempfile

    failures = 0
    for idx, (rel, source, expected) in enumerate(SELF_TEST_CASES):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source + "\n", encoding="utf-8")
            findings: list[Finding] = []
            lint_file(target, rel, findings)
            rules = {f.rule for f in findings}
            ok = (expected in rules) if expected else not rules
            if not ok:
                failures += 1
                print(f"self-test case {idx} FAILED: expected "
                      f"{expected or 'no finding'}, got {sorted(rules) or 'none'}\n"
                      f"  source: {source!r}")
    if failures:
        print(f"{failures} self-test failure(s)", file=sys.stderr)
        return 1
    print(f"self-test: {len(SELF_TEST_CASES)} cases ok")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                    help="repository root (default: the checkout containing this script)")
    ap.add_argument("--self-test", action="store_true", help="run the embedded rule tests")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    return run_lint(Path(args.root))


if __name__ == "__main__":
    sys.exit(main())
