#!/usr/bin/env python3
"""Project lint gate: protocol-level rules clang cannot express.

Nine rules, each a pure function over file text so --self-test can exercise
them on synthetic inputs:

  bare-double         public time-quantity signatures in src/service and
                      src/runtime headers must use the core:: strong types
                      (RealTime/ClockTime/Duration/ErrorBound/Offset), never
                      bare double.  Dimensionless quantities (drift rates,
                      probabilities, tolerances) stay double; a deliberate
                      raw-seconds boundary opts out with
                      `// lint-allow: bare-double` on the declaration line.
  transport-coverage  every runtime::Runtime implementation must be
                      exercised by tests/runtime_parity_test.cc (named
                      directly, or via a `transport-coverage: Name` marker
                      when exercised through a wrapper).
  trace-docs          every trace event name emitted by
                      src/sim/trace.cc::to_string must be a row of the
                      event table in docs/TRACING.md (a table line whose
                      first cell is the name in backticks); a mention in
                      some other document does not count.
  lock-order          state_mutex_ is the outer lock, timer_mutex_ the
                      inner: no scope may acquire state_mutex_ while
                      timer_mutex_ is held, and std::recursive_mutex must
                      not reappear in src/ (the audit replaced it with an
                      annotated util::Mutex).
  cross-thread        shared-state primitives outside src/util must go
                      through the annotated wrappers: raw std::mutex /
                      std::condition_variable declarations are banned
                      (util::Mutex and util::CondVar carry the clang
                      thread-safety attributes the analysis job enforces),
                      and every std::atomic must carry an
                      `mtds:lock-free(...)` comment tag on its line or
                      within the three lines above, naming the protocol
                      that makes the lock-free access safe (util/seqlock.h
                      shows the idiom).
  bench-items         every google-benchmark in bench/ must call
                      SetItemsProcessed: items/sec is the regression metric
                      tools/bench_report.py tracks in BENCH_core.json, and a
                      benchmark that forgets it silently drops out of the
                      tracked baseline (see docs/PERFORMANCE.md).
  tag-grammar         `mtds:` analysis tags must be well-formed: the bare
                      tag (mtds:no-alloc) takes no argument, the reason
                      tags (mtds:alloc-ok, mtds:nondet-ok, mtds:seconds-ok,
                      mtds:lock-held, mtds:lock-free, mtds:test-api)
                      require a non-empty
                      `(reason)` closed on the same line, and unknown
                      mtds: tags are rejected outright - a misspelt tag
                      would otherwise silently fail to suppress (or seed)
                      anything in tools/analyze.py.
  adversary-docs      every class deriving publicly from AdversaryStrategy
                      must carry a `fault-bound:` line in the comment block
                      above it, stating the assumption under which the
                      attack works and the defense that defeats it - an
                      attack whose failure boundary is undocumented reads
                      as unconditionally fatal (see runtime/adversary.h and
                      docs/FAULTS.md).
  src-reachable       every src/**/*.{h,cc} must be reachable by #include
                      from a program root: the .cc/.cpp files under
                      examples/, bench/, perfbench/ and tools/ (tests/ is
                      not a root).  A reached header also reaches its
                      same-named .cc.  A module only tests include is dead
                      code: delete it with its tests.

Exit status 0 = clean, 1 = violations (printed one per line), 2 = usage.
Run from anywhere: paths are resolved relative to the repo root (the parent
of this script's directory).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


class Violation:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Rule 1: bare-double
# --------------------------------------------------------------------------

# Identifier fragments that mark a parameter / function as a time quantity.
_TIME_WORDS = (
    "time|clock|now|tau|delay|timeout|deadline|offset|error|epsilon|"
    "period|window|horizon|rtt|elapsed|interval|seconds"
)
_TIME_PARAM = re.compile(
    r"\bdouble\s+(\w*(?:%s)\w*)\s*[,)=]" % _TIME_WORDS, re.IGNORECASE
)
_TIME_RETURN = re.compile(
    r"^\s*(?:(?:inline|static|virtual|constexpr|explicit|friend)\s+)*"
    r"double\s+(\w*(?:%s)\w*)\s*\(" % _TIME_WORDS,
    re.IGNORECASE,
)
_ALLOW_MARK = "lint-allow: bare-double"


def check_bare_double(path: str, text: str) -> list[Violation]:
    """Flags bare-double time quantities in one header's text."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        code = line.split("//", 1)[0]
        if _ALLOW_MARK in line:
            continue
        if "(" not in code:
            continue  # fields and using-decls are not signatures
        m = _TIME_RETURN.search(code)
        if m:
            out.append(
                Violation(
                    path, lineno, "bare-double",
                    f"function '{m.group(1)}' returns bare double; "
                    "use a core:: time type or mark the line "
                    f"'// {_ALLOW_MARK}'",
                )
            )
        for m in _TIME_PARAM.finditer(code):
            out.append(
                Violation(
                    path, lineno, "bare-double",
                    f"parameter '{m.group(1)}' is bare double; "
                    "use a core:: time type or mark the line "
                    f"'// {_ALLOW_MARK}'",
                )
            )
    return out


# --------------------------------------------------------------------------
# Rule 2: transport-coverage
# --------------------------------------------------------------------------

_TRANSPORT_IMPL = re.compile(
    r"\bclass\s+(\w+)\s*(?:final\s*)?:\s*[^({;]*\bpublic\s+Runtime\b"
)


def transport_impls(header_text: str) -> list[str]:
    """Class names in one header that derive publicly from Runtime."""
    return _TRANSPORT_IMPL.findall(header_text)


def check_transport_coverage(
    impls: list[tuple[str, str]], parity_text: str
) -> list[Violation]:
    """impls: (header_path, class_name) pairs; parity_text: the parity test."""
    out = []
    for path, name in impls:
        if name in parity_text:
            continue
        if f"transport-coverage: {name}" in parity_text:
            continue
        out.append(
            Violation(
                path, 1, "transport-coverage",
                f"Runtime implementation '{name}' is not exercised by "
                "tests/runtime_parity_test.cc (name it there, or add a "
                f"'// transport-coverage: {name}' marker next to the code "
                "that exercises it through a wrapper)",
            )
        )
    return out


# --------------------------------------------------------------------------
# Rule 3: trace-docs
# --------------------------------------------------------------------------

_EVENT_NAME = re.compile(r'return\s+"([a-z-]+)"\s*;')


def trace_event_names(trace_cc_text: str) -> list[str]:
    """Event names returned by to_string in trace.cc."""
    return _EVENT_NAME.findall(trace_cc_text)


_TABLE_ROW = re.compile(r"^\|\s*`([a-z-]+)`\s*\|", re.MULTILINE)


def check_trace_docs(names: list[str], tracing_md: str) -> list[Violation]:
    """Every event name must head a row of docs/TRACING.md's table."""
    rows = set(_TABLE_ROW.findall(tracing_md))
    out = []
    for name in names:
        if name not in rows:
            out.append(
                Violation(
                    "src/sim/trace.cc", 1, "trace-docs",
                    f"trace event '{name}' has no row in the event table of "
                    f"docs/TRACING.md (no line starting '| `{name}` |')",
                )
            )
    return out


# --------------------------------------------------------------------------
# Rule 4: lock-order
# --------------------------------------------------------------------------

_LOCK_ACQ = re.compile(
    r"\b(?:util::MutexLock|MutexLock|std::lock_guard|lock_guard|"
    r"std::unique_lock|unique_lock|std::scoped_lock|scoped_lock)"
    r"(?:<[^>]*>)?\s+\w+\s*\(\s*(?:\w+(?:->|\.))*(\w*(?:state|timer)_mutex_?)"
)
_RECURSIVE = re.compile(r"\brecursive_mutex\b")


def check_lock_order(path: str, text: str) -> list[Violation]:
    """Brace-scoped scan: state_mutex_ may not be taken under timer_mutex_."""
    out = []
    held: list[tuple[int, str]] = []  # (brace depth at acquisition, mutex)
    depth = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        code = line.split("//", 1)[0]
        if _RECURSIVE.search(code):
            out.append(
                Violation(
                    path, lineno, "lock-order",
                    "std::recursive_mutex is banned in src/ (the runtime "
                    "audit replaced it with util::Mutex + REQUIRES "
                    "annotations; see docs/STATIC_ANALYSIS.md)",
                )
            )
        m = _LOCK_ACQ.search(code)
        if m:
            mutex = "timer" if "timer" in m.group(1) else "state"
            if mutex == "state" and any(h[1] == "timer" for h in held):
                out.append(
                    Violation(
                        path, lineno, "lock-order",
                        "state_mutex_ acquired while timer_mutex_ is held; "
                        "the required order is state -> timer",
                    )
                )
            held.append((depth, mutex))
        depth += code.count("{") - code.count("}")
        held = [h for h in held if h[0] <= depth]
    return out


# --------------------------------------------------------------------------
# Rule 5: cross-thread
# --------------------------------------------------------------------------

_ATOMIC = re.compile(r"\bstd::atomic\b")
_RAW_SYNC = re.compile(r"\bstd::(mutex|condition_variable(?:_any)?)\b")
_LOCKFREE_TAG = "mtds:lock-free("


def check_cross_thread(path: str, text: str) -> list[Violation]:
    """Cross-thread primitives outside src/util: annotated wrappers or a
    documented lock-free protocol, nothing in between."""
    out = []
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        code = line.split("//", 1)[0]
        m = _RAW_SYNC.search(code)
        if m:
            out.append(
                Violation(
                    path, lineno, "cross-thread",
                    f"raw std::{m.group(1)} outside src/util; use the "
                    "annotated util::Mutex / util::CondVar so the clang "
                    "thread-safety job sees the locking contract",
                )
            )
        if _ATOMIC.search(code):
            window = lines[max(0, lineno - 4):lineno]
            if not any(_LOCKFREE_TAG in w for w in window):
                out.append(
                    Violation(
                        path, lineno, "cross-thread",
                        "std::atomic without an 'mtds:lock-free(...)' tag "
                        "on the line or within the three lines above; "
                        "document the protocol that makes unlocked access "
                        "safe (see util/seqlock.h) or guard the state "
                        "with util::Mutex + GUARDED_BY",
                    )
                )
    return out


# --------------------------------------------------------------------------
# Rule 6: bench-items
# --------------------------------------------------------------------------

_BENCH_REG = re.compile(r"\bBENCHMARK\s*\(\s*(\w+)\s*\)")


def check_bench_items(path: str, text: str) -> list[Violation]:
    """Every BENCHMARK()-registered function must call SetItemsProcessed."""
    out = []
    for name in _BENCH_REG.findall(text):
        m = re.search(
            r"void\s+%s\s*\(\s*benchmark::State\s*&[^)]*\)\s*\{"
            % re.escape(name),
            text,
        )
        if not m:
            continue  # registered from another TU; out of scope here
        depth = 0
        end = len(text)
        for j in range(m.end() - 1, len(text)):
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    end = j + 1
                    break
        body = text[m.end() - 1:end]
        if "SetItemsProcessed" not in body:
            lineno = text[: m.start()].count("\n") + 1
            out.append(
                Violation(
                    path, lineno, "bench-items",
                    f"benchmark '{name}' never calls SetItemsProcessed; "
                    "items/sec is the metric tools/bench_report.py tracks "
                    "(see docs/PERFORMANCE.md)",
                )
            )
    return out


# --------------------------------------------------------------------------
# Rule 7: tag-grammar
# --------------------------------------------------------------------------

# Shared with tools/analyze.py: its parser only honours a reason tag whose
# closing paren sits on the same line, so this rule enforces exactly that.
_TAG_SCAN = re.compile(r"mtds:[\w-]+")
_BARE_TAGS = {"mtds:no-alloc"}
_REASON_TAGS = {
    "mtds:alloc-ok", "mtds:nondet-ok", "mtds:seconds-ok",
    "mtds:lock-held", "mtds:lock-free", "mtds:test-api",
}


def check_tag_grammar(path: str, text: str) -> list[Violation]:
    """Malformed mtds: tags never suppress (or seed) anything in
    tools/analyze.py; reject them before they can lie silently."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "//" not in line:
            continue
        comment = line.split("//", 1)[1]
        for m in _TAG_SCAN.finditer(comment):
            tag = m.group(0)
            rest = comment[m.end():]
            if tag in _BARE_TAGS:
                if rest.lstrip().startswith("("):
                    out.append(
                        Violation(
                            path, lineno, "tag-grammar",
                            f"'{tag}' is a bare tag and takes no argument",
                        )
                    )
            elif tag in _REASON_TAGS:
                pm = re.match(r"\(([^)]*)\)", rest)
                if pm is None:
                    out.append(
                        Violation(
                            path, lineno, "tag-grammar",
                            f"'{tag}' requires a (reason) closed on the "
                            "same line; tools/analyze.py ignores anything "
                            "else",
                        )
                    )
                elif not pm.group(1).strip():
                    out.append(
                        Violation(
                            path, lineno, "tag-grammar",
                            f"'{tag}' has an empty reason; say why the "
                            "suppression is sound",
                        )
                    )
            else:
                known = ", ".join(sorted(_BARE_TAGS | _REASON_TAGS))
                out.append(
                    Violation(
                        path, lineno, "tag-grammar",
                        f"unknown tag '{tag}' (known: {known})",
                    )
                )
    return out


# --------------------------------------------------------------------------
# Rule 8: adversary-docs
# --------------------------------------------------------------------------

_ADVERSARY_IMPL = re.compile(
    r"\bclass\s+(\w+)\s*(?:final\s*)?:\s*[^({;]*\bpublic\s+AdversaryStrategy\b"
)
_FAULT_BOUND_TAG = "fault-bound:"


def check_adversary_docs(path: str, text: str) -> list[Violation]:
    """Every AdversaryStrategy subclass documents its failure boundary: a
    'fault-bound:' comment line within the 15 lines above the class."""
    out = []
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        m = _ADVERSARY_IMPL.search(line.split("//", 1)[0])
        if not m:
            continue
        window = lines[max(0, lineno - 16):lineno - 1]
        if not any("//" in w and _FAULT_BOUND_TAG in w for w in window):
            out.append(
                Violation(
                    path, lineno, "adversary-docs",
                    f"adversary strategy '{m.group(1)}' has no "
                    f"'{_FAULT_BOUND_TAG}' line in the comment above it; "
                    "state the assumption the attack needs and the defense "
                    "that defeats it (see runtime/adversary.h for the idiom)",
                )
            )
    return out


# --------------------------------------------------------------------------
# Rule 9: src-reachable
# --------------------------------------------------------------------------

_INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
_ROOT_DIRS = ("examples", "bench", "perfbench", "tools")


def check_src_reachable(
    sources: dict[str, str], roots: list[str]
) -> list[Violation]:
    """sources: src-relative path ("util/stats.h") -> text for every src/
    file; roots: texts of the program root files.  Follows quoted includes
    (resolved against src/) from the roots; a reached header pulls in its
    same-named .cc.  Every src/ file left unreached is reported."""
    reached: set[str] = set()
    work = [inc for text in roots for inc in _INCLUDE.findall(text)]
    while work:
        path = work.pop()
        if path in reached or path not in sources:
            continue
        reached.add(path)
        work += _INCLUDE.findall(sources[path])
        if path.endswith(".h"):
            work.append(path[:-2] + ".cc")
    return [
        Violation(
            f"src/{path}", 1, "src-reachable",
            "no program reaches this file by #include from examples/, "
            "bench/, perfbench/ or tools/; delete it (and the tests that "
            "exercise only it) or use it",
        )
        for path in sorted(set(sources) - reached)
    ]


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

RULES = {
    "bare-double": "public time-quantity signatures use core:: strong types",
    "transport-coverage": "every Runtime impl is exercised by the parity "
                          "test",
    "trace-docs": "every trace event name is a row of docs/TRACING.md",
    "lock-order": "state_mutex_ before timer_mutex_, never the reverse",
    "cross-thread": "annotated wrappers or a documented lock-free protocol",
    "bench-items": "every benchmark reports items/sec for the tracked "
                   "baseline",
    "tag-grammar": "mtds: analysis tags are well-formed (bare vs (reason))",
    "adversary-docs": "every adversary strategy documents its fault-bound",
    "src-reachable": "every src/ file is reachable by #include from a "
                     "program",
}


def run_repo() -> list[Violation]:
    out = []
    for header in sorted(
        list((REPO / "src" / "service").glob("*.h"))
        + list((REPO / "src" / "runtime").glob("*.h"))
    ):
        out += check_bare_double(
            str(header.relative_to(REPO)), header.read_text()
        )

    impls = []
    for header in sorted((REPO / "src").rglob("*.h")):
        for name in transport_impls(header.read_text()):
            impls.append((str(header.relative_to(REPO)), name))
    parity = REPO / "tests" / "runtime_parity_test.cc"
    out += check_transport_coverage(
        impls, parity.read_text() if parity.exists() else ""
    )

    trace_cc = REPO / "src" / "sim" / "trace.cc"
    out += check_trace_docs(
        trace_event_names(trace_cc.read_text()),
        (REPO / "docs" / "TRACING.md").read_text(),
    )

    for cc in sorted((REPO / "src").rglob("*.cc")):
        out += check_lock_order(str(cc.relative_to(REPO)), cc.read_text())

    util_dir = REPO / "src" / "util"
    for source in sorted(
        list((REPO / "src").rglob("*.h")) + list((REPO / "src").rglob("*.cc"))
    ):
        if util_dir in source.parents:
            continue  # util/ is where the wrappers themselves live
        out += check_cross_thread(
            str(source.relative_to(REPO)), source.read_text()
        )

    for cc in sorted((REPO / "bench").glob("*.cc")):
        text = cc.read_text()
        if "benchmark::State" in text:
            out += check_bench_items(str(cc.relative_to(REPO)), text)

    for source in sorted(
        list((REPO / "src").rglob("*.h")) + list((REPO / "src").rglob("*.cc"))
    ):
        out += check_adversary_docs(
            str(source.relative_to(REPO)), source.read_text()
        )

    for source in sorted(
        list((REPO / "src").rglob("*.h"))
        + list((REPO / "src").rglob("*.cc"))
        + list((REPO / "tests").rglob("*.cc"))
    ):
        out += check_tag_grammar(
            str(source.relative_to(REPO)), source.read_text()
        )

    src = REPO / "src"
    sources = {
        str(p.relative_to(src)): p.read_text()
        for p in sorted(list(src.rglob("*.h")) + list(src.rglob("*.cc")))
    }
    roots = [
        p.read_text()
        for d in _ROOT_DIRS
        for p in sorted(
            list((REPO / d).rglob("*.cc")) + list((REPO / d).rglob("*.cpp"))
        )
    ]
    out += check_src_reachable(sources, roots)
    return out


def self_test() -> int:
    """Seeds one violation per rule and asserts each is caught (and that the
    clean twin of each snippet passes)."""
    failures = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    bad_header = "core::Duration poll(double timeout);\n" \
                 "double clock_at(core::RealTime t);\n"
    good_header = (
        "core::Duration poll(core::Duration timeout);\n"
        "double host_seconds() noexcept;  // lint-allow: bare-double\n"
        "double slew_rate() const;\n"   # dimensionless: not a time quantity
        "double claimed_delta = 1e-5;\n"  # field, not a signature
    )
    got = check_bare_double("fake.h", bad_header)
    expect(len(got) == 2, f"bare-double: expected 2 hits, got {len(got)}")
    expect(not check_bare_double("fake.h", good_header),
           "bare-double: clean header flagged")

    expect(transport_impls(
        "class SimRuntime final : public Runtime {\n"
        "class Other : public Transport {\n") == ["SimRuntime"],
        "transport-coverage: Runtime implementations not recognised")
    impls = [("a.h", "SimRuntime"), ("b.h", "GhostRuntime")]
    parity = "uses SimRuntime directly\n"
    got = check_transport_coverage(impls, parity)
    expect(len(got) == 1 and "GhostRuntime" in got[0].message,
           "transport-coverage: missing impl not caught")
    expect(not check_transport_coverage(
        impls, parity + "// transport-coverage: GhostRuntime\n"),
        "transport-coverage: marker not honoured")

    trace_cc = ('case A: return "reset";\ncase B: return "phantom-event";\n'
                'case C: return "elsewhere";\n')
    tracing_md = (
        "| event | emitted when |\n|---|---|\n"
        "| `reset` | a round rebased the clock |\n"
        "Prose mentions `elsewhere` but gives it no row.\n"
    )
    got = check_trace_docs(trace_event_names(trace_cc), tracing_md)
    expect(len(got) == 2 and "phantom-event" in got[0].message,
           "trace-docs: undocumented event not caught")
    expect(len(got) == 2 and "elsewhere" in got[1].message,
           "trace-docs: event named outside the table not caught")
    expect(not check_trace_docs(
        ["reset"], tracing_md + "| `elsewhere` | ... |\n"),
        "trace-docs: tabled event flagged")

    bad_cc = (
        "void f() {\n"
        "  util::MutexLock a(timer_mutex_);\n"
        "  util::MutexLock b(state_mutex_);\n"
        "}\n"
    )
    good_cc = (
        "void f() {\n"
        "  {\n"
        "    util::MutexLock a(timer_mutex_);\n"
        "  }\n"
        "  util::MutexLock b(state_mutex_);\n"
        "}\n"
    )
    got = check_lock_order("fake.cc", bad_cc)
    expect(len(got) == 1, "lock-order: inversion not caught")
    expect(not check_lock_order("fake.cc", good_cc),
           "lock-order: sequential locking flagged")
    got = check_lock_order("fake.cc", "std::recursive_mutex m;\n")
    expect(len(got) == 1, "lock-order: recursive_mutex not caught")

    bad_sync = (
        "class Pool {\n"
        "  std::mutex mu_;\n"
        "  std::atomic<bool> stop_{false};\n"
        "};\n"
    )
    good_sync = (
        "class Pool {\n"
        "  util::Mutex mu_;\n"
        "  // mtds:lock-free(flag: set once at shutdown, workers only poll)\n"
        "  std::atomic<bool> stop_{false};\n"
        "};\n"
    )
    got = check_cross_thread("fake.h", bad_sync)
    expect(len(got) == 2,
           f"cross-thread: expected 2 hits, got {len(got)}")
    expect(not check_cross_thread("fake.h", good_sync),
           "cross-thread: tagged atomic / util::Mutex flagged")

    bad_bench = (
        "void BM_Quiet(benchmark::State& state) {\n"
        "  for (auto _ : state) {}\n"
        "}\n"
        "BENCHMARK(BM_Quiet);\n"
    )
    good_bench = (
        "void BM_Counted(benchmark::State& state) {\n"
        "  for (auto _ : state) {}\n"
        "  state.SetItemsProcessed(state.iterations());\n"
        "}\n"
        "BENCHMARK(BM_Counted);\n"
    )
    got = check_bench_items("fake_bench.cc", bad_bench)
    expect(len(got) == 1 and "BM_Quiet" in got[0].message,
           "bench-items: missing SetItemsProcessed not caught")
    expect(not check_bench_items("fake_bench.cc", good_bench),
           "bench-items: counted benchmark flagged")

    bad_adversary = (
        "// A very scary attack with no documented boundary.\n"
        "class Silent final : public AdversaryStrategy {\n"
        "};\n"
    )
    good_adversary = (
        "// A scary attack.\n"
        "//\n"
        "// fault-bound: defeated by IMFT coverage whenever f < n/2.\n"
        "class Documented final : public AdversaryStrategy {\n"
        "};\n"
    )
    got = check_adversary_docs("fake.h", bad_adversary)
    expect(len(got) == 1 and "Silent" in got[0].message,
           "adversary-docs: undocumented strategy not caught")
    expect(not check_adversary_docs("fake.h", good_adversary),
           "adversary-docs: documented strategy flagged")

    bad_tags = (
        "// mtds:no-alloc(engine)\n"          # bare tag with argument
        "// mtds:alloc-ok\n"                  # reason tag without reason
        "// mtds:alloc-ok()\n"                # empty reason
        "// mtds:alloc-ok(spans two\n"        # paren not closed on the line
        "// mtds:no-aloc\n"                   # misspelt tag
        "// mtds:test-api\n"                 # test-only code needs a reason
    )
    good_tags = (
        "// mtds:no-alloc\n"
        "// mtds:alloc-ok(capacity reserved at round start)\n"
        "int x;  // mtds:lock-free(set once at shutdown, workers poll)\n"
        "// mtds:test-api(a test builds adversarial input with it)\n"
        "// prose without any tag at all\n"
    )
    got = check_tag_grammar("fake.h", bad_tags)
    expect(len(got) == 6,
           f"tag-grammar: expected 6 hits, got {len(got)}")
    expect(not check_tag_grammar("fake.h", good_tags),
           "tag-grammar: well-formed tags flagged")

    sources = {
        "core/a.h": '#include "core/b.h"\n',
        "core/a.cc": '#include "core/a.h"\n',
        "core/b.h": "",
        "util/orphan.h": "",
        "util/orphan.cc": '#include "util/orphan.h"\n',
    }
    roots = ['#include "core/a.h"\n#include <vector>\n']
    got = check_src_reachable(sources, roots)
    expect([v.path for v in got] == ["src/util/orphan.cc",
                                     "src/util/orphan.h"],
           f"src-reachable: expected the orphan pair, got "
           f"{[v.path for v in got]}")
    expect(not check_src_reachable(
        sources, roots + ['#include "util/orphan.h"\n']),
        "src-reachable: reached module flagged")

    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}", file=sys.stderr)
        return 1
    print("lint self-test: all rules detect their seeded violations")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule catches a seeded violation")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names with one-line summaries")
    args = parser.parse_args(argv)
    if args.list_rules:
        for name, summary in RULES.items():
            print(f"{name:20s} {summary}")
        return 0
    if args.self_test:
        return self_test()
    violations = run_repo()
    for v in violations:
        print(v)
    if violations:
        print(f"lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
