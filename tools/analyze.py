#!/usr/bin/env python3
"""Whole-program analyzer: cross-TU proofs the per-file lint cannot express.

tools/lint.py matches lines; this tool builds a program model (functions,
classes, members, a cross-TU call graph with class-hierarchy dispatch) over
every translation unit named by CMake's compile_commands.json, plus the
program roots, and runs five checks on it:

  no-alloc-reachability   functions tagged `// mtds:no-alloc` (engine round
                          and receive paths, the sharded epoch loop, the
                          Marzullo scratch overloads, the SlabHeap/InlineVec/
                          EventQueue hot methods) must not REACH
                          `operator new`, allocating STL members or throwing
                          paths through any call chain.  This is the static
                          complement of tests/alloc_test.cc: the runtime gate
                          samples 5 configurations, the reachability proof
                          covers every path in every configuration.  Escape
                          hatch: `// mtds:alloc-ok(reason)` on the offending
                          line (suppresses the site) or above a function
                          signature (the function is a proven-elsewhere
                          barrier: traversal stops, e.g. the SlabHeap slot
                          grow path that tests/alloc_test.cc shows is
                          amortized away in steady state).
  determinism-taint       inside src/sim/ and any function feeding
                          sim::Trace: no iteration over unordered containers,
                          no pointer-keyed ordering/hashing, no
                          std::chrono::*_clock, no rand()/random_device/
                          mt19937 outside the sim::Rng implementation.  The
                          determinism goldens pin that seeded traces are
                          identical from run to run; this check turns the
                          golden from a sampled property into an analyzed
                          one.
                          Escape hatch: `// mtds:nondet-ok(reason)`.
  seconds-escape          a `.seconds()` result must not flow back into a
                          time-type constructor or a time-typed parameter in
                          the same expression: that launders the PR 3 clock
                          algebra (take the double out, wrap it back in,
                          axis information lost).  The algebra's own
                          implementation (src/core/time_types.h) is the one
                          sanctioned crossing and is exempt.  Escape hatch:
                          `// mtds:seconds-ok(reason)`.
  callback-lock-discipline  a lambda that touches a GUARDED_BY(mu) member
                          and escapes its defining scope (timer callbacks,
                          thread bodies, stored std::functions) is invisible to
                          clang's -Wthread-safety, which checks the lambda
                          where it is *written*, not where it *runs*.  Such
                          a lambda must acquire the mutex in its own body or
                          carry `// mtds:lock-held(mu: reason)` stating the
                          contract that delivers the lock.
  dead-code               every src/ function must be in the call-graph
                          closure of the program roots (every function
                          under examples/, bench/, perfbench/src/, tools/).
                          tests/ is no root: a function only a test calls
                          is dead.  The graph carries the calls C++ makes
                          implicitly (constructors of a built class, its
                          destructor and operators, overrides of a reached
                          virtual).  Escape hatch:
                          `// mtds:test-api(reason)` on a function a test
                          needs; it is kept, and so is what it calls.

Frontend: a built-in comment/string-aware tokenizer tuned to this
codebase's style.  It needs nothing beyond the Python standard library, so
the analyzer runs the same everywhere and never silently skips.

Exit status 0 = clean, 1 = violations (one per line), 2 = usage/setup error.
See docs/STATIC_ANALYSIS.md for the full catalog and the suppression policy:
every escape hatch must carry a reason, and the tag-grammar lint rule
rejects hatches without one.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tools" / "analyze_fixtures"

RULES = {
    "no-alloc-reachability":
        "mtds:no-alloc functions must not reach new/alloc-STL/throw "
        "(hatch: mtds:alloc-ok(reason))",
    "determinism-taint":
        "sim/ and Trace-feeding code: no unordered iteration, pointer "
        "keys, chrono clocks or non-Rng randomness "
        "(hatch: mtds:nondet-ok(reason))",
    "seconds-escape":
        ".seconds() must not re-enter a time-type constructor/parameter "
        "in the same expression (hatch: mtds:seconds-ok(reason))",
    "callback-lock-discipline":
        "escaping lambdas touching GUARDED_BY members must lock or carry "
        "mtds:lock-held(mu: reason)",
    "dead-code":
        "every src/ function is reached from a program root "
        "(hatch: mtds:test-api(reason))",
}

TIME_TYPES = {"RealTime", "ClockTime", "Duration", "ErrorBound", "Offset"}

# std members that (may) allocate when called on a growable std container.
ALLOC_METHODS = {
    "push_back", "emplace_back", "emplace", "insert", "resize", "reserve",
    "assign", "append", "push", "push_front", "emplace_front", "emplace_back",
    "shrink_to_fit", "operator+=",
}
# std containers the above applies to (by type-key; see _type_key).
STD_GROWABLE = {
    "std::vector", "std::string", "std::deque", "std::map", "std::set",
    "std::multimap", "std::multiset", "std::unordered_map",
    "std::unordered_set", "std::list", "std::queue", "std::stack",
    "std::priority_queue", "std::function", "std::basic_string",
}
# std members that build their element in place (dead-code: a construction).
EMPLACE_METHODS = {"emplace_back", "emplace_front", "emplace", "try_emplace",
                   "push_back", "resize"}
MAP_TYPES = {"std::map", "std::unordered_map", "std::multimap"}
# free functions that always allocate.
ALLOC_FREE = {"make_unique", "make_shared", "to_string", "getenv_string"}

UNORDERED = {"std::unordered_map", "std::unordered_set",
             "std::unordered_multimap", "std::unordered_multiset"}
BANNED_CLOCKS = {"steady_clock", "system_clock", "high_resolution_clock"}
BANNED_RANDOM = {"rand", "srand", "random_device", "mt19937", "mt19937_64",
                 "default_random_engine"}

# Tag grammar (shared contract with tools/lint.py's tag-grammar rule):
# bare tags take no argument, reason tags require a non-empty one.
BARE_TAGS = {"mtds:no-alloc"}
REASON_TAGS = {"mtds:alloc-ok", "mtds:nondet-ok", "mtds:seconds-ok",
               "mtds:lock-held", "mtds:lock-free", "mtds:test-api"}
_TAG_RE = re.compile(r"mtds:[\w-]+(?:\([^)]*\))?")

# Program roots (the same set as lint's src-reachable gate): every function
# defined under these directories seeds the dead-code closure.  tests/ is
# not a root: a function only a test calls is dead unless tagged.
ROOT_DIRS = ("examples", "bench", "perfbench/src", "tools")


def _is_root(rel: str) -> bool:
    rel = rel.replace("\\", "/")
    return any(rel.startswith(d + "/") for d in ROOT_DIRS)


class Violation:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Program model (the frontend produces this)
# --------------------------------------------------------------------------

@dataclass
class CallSite:
    name: str                 # simple callee name
    recv: str | None          # receiver type-key, "" unknown-member, None free
    arity: int
    line: int
    seconds_args: list[int] = field(default_factory=list)  # args with .seconds()
    in_lambda: int = -1       # index into Function.lambdas, -1 = body proper
    alloc_ok: str | None = None    # mtds:alloc-ok reason on/above this line
    seconds_ok: str | None = None  # mtds:seconds-ok reason on/above this line


@dataclass
class Site:
    line: int
    what: str
    suppressed: str | None = None  # reason when an escape hatch covers it


@dataclass
class Lambda:
    line: int
    member_reads: list[tuple[str, int]] = field(default_factory=list)
    locks: list[str] = field(default_factory=list)   # mutexes acquired in body
    lock_held: str | None = None                     # mtds:lock-held(...) tag
    immediate: bool = False                          # invoked in place: }(...)


@dataclass
class Function:
    name: str
    cls: str | None
    file: str
    line: int
    arity: int
    min_arity: int
    param_types: list[str]
    tags: dict[str, str]      # tag name -> reason ("" for bare tags)
    calls: list[CallSite] = field(default_factory=list)
    alloc_sites: list[Site] = field(default_factory=list)
    throw_sites: list[Site] = field(default_factory=list)
    taint_sites: list[Site] = field(default_factory=list)
    lambdas: list[Lambda] = field(default_factory=list)
    constructs: set[str] = field(default_factory=set)  # class keys built here
    touches_trace: bool = False

    @property
    def key(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name


@dataclass
class ClassInfo:
    name: str
    file: str
    bases: list[str] = field(default_factory=list)
    members: dict[str, str] = field(default_factory=dict)   # name -> type text
    guarded: dict[str, str] = field(default_factory=dict)   # member -> mutex


class Program:
    def __init__(self) -> None:
        self.functions: list[Function] = []   # src/: what the checks judge
        self.roots: list[Function] = []       # program roots: dead-code seeds
        self.classes: dict[str, ClassInfo] = {}
        self.aliases: dict[str, str] = {}      # using Alias = Type;
        self.by_name: dict[str, list[Function]] = {}
        self.by_cls: dict[str, dict[str, list[Function]]] = {}
        self.subclasses: dict[str, set[str]] = {}
        # (class or None, name, arity) of a declaration -> (fewest arguments
        # it accepts, its tags): an out-of-line definition repeats neither
        # the default arguments nor the comment above the declaration
        self.decls: dict[tuple, tuple[int, dict[str, str]]] = {}
        # (class or None, name) -> declared return type text, for typing
        # chained calls (`svc.server(i).start()`) and `auto` locals
        self.returns: dict[tuple[str | None, str], str] = {}
        self._seen_fns: set[tuple] = set()

    def add(self, fn: Function) -> None:
        ident = (fn.file, fn.line, fn.key)
        if ident in self._seen_fns:
            return
        self._seen_fns.add(ident)
        (self.roots if _is_root(fn.file) else self.functions).append(fn)

    def finalize(self) -> None:
        self.by_name.clear()
        self.by_cls.clear()
        for fn in self.functions:
            decl = self.decls.get((fn.cls, fn.name, fn.arity))
            if decl is not None:
                fn.min_arity = min(fn.min_arity, decl[0])
                fn.tags = {**decl[1], **fn.tags}
            self.by_name.setdefault(fn.name, []).append(fn)
            if fn.cls:
                self.by_cls.setdefault(fn.cls, {}).setdefault(
                    fn.name, []).append(fn)
        self.subclasses = {name: set() for name in self.classes}
        for name, info in self.classes.items():
            for base in info.bases:
                base = base.split("::")[-1]
                if base in self.subclasses:
                    self.subclasses[base].add(name)

    def all_subclasses(self, cls: str) -> set[str]:
        out, work = set(), [cls]
        while work:
            c = work.pop()
            for sub in self.subclasses.get(c, ()):  # transitive closure
                if sub not in out:
                    out.add(sub)
                    work.append(sub)
        return out

    def resolve_alias(self, type_text: str) -> str:
        key = _type_key(type_text)
        seen = set()
        while key in self.aliases and key not in seen:
            seen.add(key)
            key = _type_key(self.aliases[key])
        return key

    def methods(self, cls: str, name: str, arity: int,
                strict: bool = False) -> list[Function]:
        """Class-hierarchy resolution: defs in `cls`, its subclasses (virtual
        dispatch) and its bases (inherited), filtered by arity with default
        arguments honoured.  Unknown receivers resolve to nothing here and
        fall back to the external policy at the call site.  `strict` keeps
        the arity filter hard (no same-name fallback): the unknown-receiver
        union uses it so a 0-arg method elsewhere in the program never
        becomes a candidate for a 1-arg call."""
        cands: list[Function] = []
        classes = {cls} | self.all_subclasses(cls)
        # inherited implementation: walk up until a def exists anywhere
        work = [cls]
        seen = set()
        while work:
            c = work.pop()
            if c in seen:
                continue
            seen.add(c)
            classes.add(c)
            for base in self.classes.get(c, ClassInfo(c, "")).bases:
                work.append(base.split("::")[-1])
        for c in classes:
            for fn in self.by_cls.get(c, {}).get(name, []):
                if fn.min_arity <= arity <= fn.arity:
                    cands.append(fn)
        if not cands and not strict:
            # arity mismatch (vararg-ish/defaulted): fall back
            for c in classes:
                cands.extend(self.by_cls.get(c, {}).get(name, []))
        return cands

    def free(self, name: str, arity: int) -> list[Function]:
        cands = [f for f in self.by_name.get(name, [])
                 if f.min_arity <= arity <= f.arity]
        if not cands:
            cands = list(self.by_name.get(name, []))
        return cands


def _type_key(type_text: str) -> str:
    """`const std::vector<Pending>&` -> `std::vector`; `util::InlineVec<T,4>`
    -> `InlineVec`; `PeerTable*` -> `PeerTable`.  std:: keys keep their
    namespace (the external policy matches on it); first-party keys drop it
    (class names are unique in this codebase)."""
    t = re.sub(r"\s*::\s*", "::", type_text.strip())
    t = re.sub(r"\b(const|volatile|constexpr|mutable|static|typename)\b", "", t)
    t = t.split("<", 1)[0].strip().rstrip("&* ")
    # unwrap smart pointers to their pointee
    m = re.match(r"(?:std::)?(unique_ptr|shared_ptr)\s*$", t)
    if m:
        inner = type_text.split("<", 1)
        if len(inner) == 2:
            return _type_key(inner[1].rsplit(">", 1)[0])
    if t.startswith("std::"):
        return t
    return t.split("::")[-1]


def _elem_of(type_text: str, index: int = 0) -> str:
    """Top-level template argument `index` of a container type; the first
    is what a subscript yields.  `std::vector<EventQueue*>` -> `EventQueue*`,
    `std::vector<std::vector<InFlight>>` -> `std::vector<InFlight>`.
    Empty when the type has no such template argument."""
    m = re.search(r"<(.*)>", type_text, re.S)
    if not m:
        return ""
    d = 0
    args: list[list[str]] = [[]]
    for ch in m.group(1):
        if ch in "<([":
            d += 1
        elif ch in ">)]":
            d -= 1
        elif ch == "," and d == 0:
            args.append([])
            continue
        args[-1].append(ch)
    return "".join(args[index]).strip() if index < len(args) else ""


# --------------------------------------------------------------------------
# Builtin frontend: comment/string-aware tokenizer + scope tracker
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*|::|->|\+\+|--|<<=?|>>=?|<=|>=|==|!=|&&|\|\||[-+*/%&|^!~]=?"
    r"|\d[\w.+-]*|[{}()\[\];,:<>=.?#\\]|\"|'")

_KEYWORDS_NOT_CALLS = {
    "if", "for", "while", "switch", "catch", "sizeof", "alignof", "decltype",
    "static_assert", "alignas", "noexcept", "return", "defined", "assert",
    "co_await", "co_return", "throw", "delete", "new", "operator",
}
_ACCESS = {"public", "protected", "private"}
# tokens after which `&` takes an address rather than and-ing two operands
_ADDRESS_OF_PREV = {"(", ",", "=", "return", "{", "?", ":"}
# the arity of a call through a taken address: matches no overload, so
# resolution falls back to every function of the name
_ANY_ARITY = -1
_SPECIFIERS = {
    "inline", "static", "virtual", "constexpr", "explicit", "friend",
    "extern", "typedef", "const", "volatile", "mutable", "register",
    "thread_local", "consteval", "constinit", "override", "final",
    "noexcept", "public", "private", "protected",
}


def strip_comments(text: str) -> tuple[list[str], dict[int, str]]:
    """Returns (code lines with comments/strings blanked, {line: comment})."""
    code_lines: list[str] = []
    comments: dict[int, str] = {}
    i, n = 0, len(text)
    line_no = 1
    code: list[str] = []
    comment: list[str] = []

    def flush() -> None:
        nonlocal code, comment, line_no
        code_lines.append("".join(code))
        if comment:
            comments[line_no] = "".join(comment)
        code, comment = [], []
        line_no += 1

    while i < n:
        c = text[i]
        if c == "\n":
            flush()
            i += 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            comment.append(text[i:j])
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if k < n and text[k] == "\n":
                    flush()
                else:
                    comment.append(text[k] if k < n else "")
            i = j + 2
        elif c in "\"'":
            # blank string/char literal contents (keep delimiters' width)
            code.append(c)
            i += 1
            while i < n and text[i] != c:
                if text[i] == "\\":
                    code.append("  ")
                    i += 2
                elif text[i] == "\n":  # unterminated; bail to line end
                    break
                else:
                    code.append(" ")
                    i += 1
            if i < n and text[i] == c:
                code.append(c)
                i += 1
        else:
            code.append(c)
            i += 1
    flush()
    return code_lines, comments


def _line_tags(comments: dict[int, str]) -> dict[int, dict[str, str]]:
    """{line: {tag-name: reason}} for every mtds: tag in a comment."""
    out: dict[int, dict[str, str]] = {}
    for line, comment in comments.items():
        for m in _TAG_RE.finditer(comment):
            tag = m.group(0)
            name, _, rest = tag.partition("(")
            reason = rest[:-1] if rest.endswith(")") else rest
            out.setdefault(line, {})[name] = reason.strip()
    return out


@dataclass
class _Tok:
    text: str
    line: int


class BuiltinFrontend:
    """Parses each first-party file into the Program model.  Not a C++
    parser: a scope tracker over tokens, tuned to this codebase's style
    (clang-format layout, `_`-suffixed members, no macros that open braces).
    Where it cannot resolve a receiver it unions candidates, which is
    conservative for reachability; the escape hatches absorb the rare
    false positive and must state why (see docs/STATIC_ANALYSIS.md)."""

    _collect_only = False

    def parse(self, files: list[Path], rel_to: Path) -> Program:
        prog = Program()
        texts: list[tuple[str, str]] = []
        for path in files:
            try:
                text = path.read_text()
            except (OSError, UnicodeDecodeError):
                continue
            rel = str(path.relative_to(rel_to)) if path.is_relative_to(rel_to) \
                else str(path)
            texts.append((rel, text))
        # Two passes: this codebase declares members at the bottom of each
        # class, so receiver types (and GUARDED_BY mutexes) are only known
        # once every class body has been seen.  Pass 1 collects classes,
        # members and aliases across ALL files; pass 2 builds functions and
        # resolves call receivers against the completed registry.
        self._collect_only = True
        for rel, text in texts:
            self._parse_file(prog, rel, text)
        self._collect_only = False
        for rel, text in texts:
            self._parse_file(prog, rel, text)
        prog.finalize()
        return prog

    # -- per-file ----------------------------------------------------------

    def _parse_file(self, prog: Program, rel: str, text: str) -> None:
        code_lines, comments = strip_comments(text)
        tags = _line_tags(comments)
        toks: list[_Tok] = []
        for ln, line in enumerate(code_lines, start=1):
            if line.lstrip().startswith("#"):
                continue  # preprocessor
            for m in _TOKEN_RE.finditer(line):
                toks.append(_Tok(m.group(0), ln))

        # using Alias = Type; (file scope is fine: names are unique here)
        for m in re.finditer(r"\busing\s+(\w+)\s*=\s*([^;]+);",
                             "\n".join(code_lines)):
            prog.aliases[m.group(1)] = m.group(2).strip()

        # scope stack entries: (kind, name, ClassInfo|Function|None, depth)
        stack: list[dict] = []
        depth = 0
        i = 0
        stmt_start = 0  # token index where the current statement began

        def cur(kind: str):
            for entry in reversed(stack):
                if entry["kind"] == kind:
                    return entry
            return None

        n = len(toks)
        while i < n:
            t = toks[i]
            if t.text == "{":
                header = toks[stmt_start:i]
                if cur("fn") is None and self._in_init_list(header):
                    # a brace inside a constructor initializer list
                    # (`peers_(Options{.a = 1})`, `t_([this] { loop(); })`)
                    # belongs to the header; the body is the next brace.
                    e = self._match(toks, i, "{", "}")
                    i = n if e is None else e + 1
                    continue
                floor = toks[stmt_start - 1].line if stmt_start else 0
                entry = self._classify(prog, rel, header, tags, cur, floor)
                entry["depth"] = depth
                stack.append(entry)
                depth += 1
                i += 1
                stmt_start = i
                continue
            if t.text == "}":
                depth -= 1
                while stack and stack[-1]["depth"] >= depth:
                    closed = stack.pop()
                    if closed["kind"] == "lambda" and i + 1 < n and \
                            toks[i + 1].text == "(":
                        closed["lambda"].immediate = True
                i += 1
                stmt_start = i
                continue
            if t.text == ";":
                fn_entry = cur("fn")
                cls_entry = cur("class")
                stmt = toks[stmt_start:i]
                in_cls = cls_entry is not None and stack[-1]["kind"] == "class"
                at_ns = not stack or stack[-1]["kind"] == "ns"
                if fn_entry is None and (in_cls or at_ns):
                    floor = toks[stmt_start - 1].line if stmt_start else 0
                    if not self._fn_decl(
                            prog, cls_entry["name"] if in_cls else None, stmt,
                            tags, floor) and in_cls:
                        self._member_decl(cls_entry["class"], stmt, tags)
                i += 1
                stmt_start = i
                continue
            fn_entry = cur("fn")
            if fn_entry is not None:
                i = self._body_token(prog, rel, toks, i, fn_entry, tags, stack)
            else:
                i += 1
        # nothing to return; prog mutated in place

    # -- scope classification ---------------------------------------------

    def _classify(self, prog: Program, rel: str, header: list[_Tok],
                  tags, cur, floor: int) -> dict:
        words = [t.text for t in header]
        # A scope opened right after an access label ("private: class X
        # {") starts its statement at the label: no ';' separates them.
        while len(words) > 1 and words[0] in _ACCESS and words[1] == ":":
            header = header[2:]
            words = words[2:]
        # strip template<...> prefixes
        while words and words[0] == "template":
            d, j = 0, 1
            while j < len(words):
                if words[j] == "<":
                    d += 1
                elif words[j] == ">":
                    d -= 1
                    if d == 0:
                        j += 1
                        break
                j += 1
            header = header[j:]
            words = words[j:]
        if words[:1] == ["namespace"]:
            return {"kind": "ns", "name": words[1] if len(words) > 1 else ""}
        if words and words[0] in ("class", "struct", "union") and \
                cur("fn") is None:
            # the last identifier before the base list: skips attribute
            # macros (`class SCOPED_CAPABILITY MutexLock`), `alignas(64)`,
            # `final` and the outer class of `struct Outer::Inner`
            head = words[1:words.index(":")] if ":" in words else words[1:]
            idents = [w for w in head
                      if re.match(r"[A-Za-z_]\w*$", w) and w != "final"]
            name = idents[-1] if idents else "<anon>"
            info = prog.classes.setdefault(name, ClassInfo(name, rel))
            if ":" in words:
                base_part = words[words.index(":") + 1:]
                d = 0
                base_toks: list[str] = []
                for w in base_part:
                    if w == "<":
                        d += 1
                    elif w == ">":
                        d -= 1
                    elif d == 0 and w not in ("public", "private", "protected",
                                              "virtual", ",", "::"):
                        base_toks.append(w)
                info.bases.extend(b for b in base_toks if b[0].isalpha())
            return {"kind": "class", "name": name, "class": info}
        if words and words[0] == "enum":
            return {"kind": "block"}
        # function definition?  find first top-level '(' and the name before
        fn = self._try_function(prog, rel, header, tags, cur, floor)
        if fn is not None:
            return {"kind": "fn", "fn": fn, "locals": dict(fn._params)}
        return {"kind": "block"}

    def _try_function(self, prog: Program, rel: str, header: list[_Tok],
                      tags, cur, floor: int) -> Function | None:
        if cur("fn") is not None:
            return None  # nested braces inside a body are blocks/lambdas
        paren = -1
        for j, t in enumerate(header):
            if t.text == "(":
                paren = j
                break
        if paren <= 0:
            return None
        op = next((j for j in range(paren) if header[j].text == "operator"),
                  -1)
        if op >= 0:
            # `operator==(`, `operator()(`, `operator bool(`: the name runs
            # from `operator` to the parameter list
            if header[op + 1].text == "(":
                paren = op + 3
            if paren >= len(header) or header[paren].text != "(":
                return None
            name_tok = header[op]
            spelled = " ".join(t.text for t in header[op + 1:paren])
            name = "operator" + (" " + spelled if spelled[:1].isalpha()
                                 else spelled.replace(" ", ""))
            k = op - 1
        else:
            name_tok = header[paren - 1]
            if not re.match(r"[A-Za-z_]\w*$", name_tok.text) or \
                    name_tok.text in _KEYWORDS_NOT_CALLS or \
                    name_tok.text in _SPECIFIERS:
                return None
            name = name_tok.text
            k = paren - 2
            if k >= 0 and header[k].text == "~":
                name = "~" + name
                k -= 1
        cls = None
        start = k + 1  # first token of the (qualified) name
        if k >= 1 and header[k].text == "::":
            cls = header[k - 1].text
            start = k - 1
            while start >= 2 and header[start - 1].text == "::":
                start -= 2
        cls_entry = cur("class")
        if cls is None and cls_entry is not None:
            cls = cls_entry["name"]
        ret = " ".join(t.text for t in header[:start]
                       if t.text not in _SPECIFIERS and t.text not in
                       ("[", "]", "nodiscard", "maybe_unused", ":"))
        if ret and ret not in ("void", "auto"):
            prog.returns.setdefault((cls, name), ret)
        # params to the matching ')'
        d = 0
        end = paren
        for j in range(paren, len(header)):
            if header[j].text == "(":
                d += 1
            elif header[j].text == ")":
                d -= 1
                if d == 0:
                    end = j
                    break
        if d != 0:
            return None  # `f(T x = {})`: a default argument, not a body
        params = header[paren + 1:end]
        arity, min_arity, ptypes, pnames = self._parse_params(params)
        line = name_tok.line
        fn_tags = self._tags_above(tags, line, floor)
        fn = Function(name=name, cls=cls, file=rel, line=line, arity=arity,
                      min_arity=min_arity, param_types=ptypes, tags=fn_tags)
        fn._params = pnames  # name -> type text, for receiver resolution
        if not self._collect_only:
            prog.add(fn)
        # constructor initializer list: `X::X(...) : a_(expr), b_{expr} {`
        rest = header[end + 1:]
        if rest and rest[0].text == ":":
            self._scan_tokens(prog, rel, fn, rest[1:], tags, lam=-1,
                              locals_map=pnames)
        return fn

    def _scan_tokens(self, prog: Program, rel: str, fn: Function,
                     toks: list[_Tok], tags, lam: int,
                     locals_map: dict[str, str]) -> None:
        """Light scan of constructor initializer lists: allocation sites and
        calls inside init expressions still count toward reachability.
        Member-init names themselves (`name_(expr)`) are construction of the
        member's declared type and are skipped; their argument expressions
        are visited by the same loop."""
        n = len(toks)
        for i, t in enumerate(toks):
            built = self._constructed(prog, toks, i)
            if built:
                fn.constructs.add(built)
            if t.text == "new":
                nxt = toks[i + 1].text if i + 1 < n else ""
                prev = toks[i - 1].text if i > 0 else ""
                if nxt != "(" and prev != "operator":
                    self._add_site(fn, fn.alloc_sites, t.line, "operator new",
                                   tags, "mtds:alloc-ok")
                continue
            if re.match(r"[A-Za-z_]\w*$", t.text) and i + 1 < n and \
                    toks[i + 1].text == "(" and \
                    t.text not in _KEYWORDS_NOT_CALLS:
                prev = toks[i - 1].text if i > 0 else ""
                e = self._match(toks, i + 1, "(", ")")
                args = toks[i + 2:e] if e is not None else []
                arity, seconds_args = self._args_info(args)
                if prev in (".", "->"):
                    raw = self._expr_raw(prog, fn, locals_map, toks, i - 2)
                    recv = prog.resolve_alias(raw) if raw else ""
                    self._add_call(fn, t, recv, arity, seconds_args, lam,
                                   tags)
                elif not t.text.endswith("_"):
                    self._add_call(fn, t, None, arity, seconds_args, lam,
                                   tags)

    @staticmethod
    def _parse_params(params: list[_Tok]):
        if not params:
            return 0, 0, [], {}
        arity, defaults = 1, 0
        d = 0
        ptypes: list[str] = []
        pnames: dict[str, str] = {}
        current: list[str] = []
        has_default = False

        def close_param():
            nonlocal arity, defaults, current, has_default
            if has_default:
                defaults += 1
            # last identifier is the name; the rest is the type
            name = None
            type_toks = current
            if len(current) >= 2 and re.match(r"[A-Za-z_]\w*$", current[-1]):
                name, type_toks = current[-1], current[:-1]
            ptypes.append(" ".join(type_toks))
            if name:
                pnames[name] = " ".join(type_toks)
            current, has_default = [], False

        for t in params:
            if t.text in "(<[":
                d += 1
            elif t.text in ")>]":
                d -= 1
            if t.text == "," and d == 0:
                close_param()
                arity += 1
                continue
            if t.text == "=" and d == 0:
                has_default = True
            if not has_default:
                current.append(t.text)
        close_param()
        if params and all(t.text == "void" for t in params):
            return 0, 0, [], {}
        return arity, arity - defaults, ptypes, pnames

    # -- class member declarations -----------------------------------------

    @staticmethod
    def _tags_above(tags, line: int, floor: int) -> dict[str, str]:
        """Tags on the signature line and the three lines above it, but
        none from the previous statement's lines (`floor` is the line it
        ended on), so a tag never leaks onto the next declaration."""
        out: dict[str, str] = {}
        for ln in range(max(line - 3, floor + 1), line + 1):
            out.update(tags.get(ln, {}))
        return out

    def _fn_decl(self, prog: Program, cls: str | None, stmt: list[_Tok],
                 tags, floor: int) -> bool:
        """Records a function declaration (`T name(params);`); False when
        the statement declares something else."""
        while len(stmt) > 1 and stmt[0].text in _ACCESS and \
                stmt[1].text == ":":
            stmt = stmt[2:]
        words = [t.text for t in stmt]
        p = words.index("(") if "(" in words else 0
        if p == 0 or "=" in words[:p] or words[0] in (
                "using", "typedef", "friend", "static_assert") or \
                not re.match(r"[A-Za-z_]\w*$", words[p - 1]) or \
                words[p - 1].isupper():  # GUARDED_BY(mu) and other macros
            return False
        e = self._match(stmt, p, "(", ")")
        if e is None:
            return False
        arity, min_arity, _, _ = self._parse_params(stmt[p + 1:e])
        key = (cls, words[p - 1], arity)
        known = prog.decls.get(key, (min_arity, {}))
        prog.decls[key] = (min(min_arity, known[0]), {
            **known[1], **self._tags_above(tags, stmt[p - 1].line, floor)})
        return True

    @staticmethod
    def _member_decl(info: ClassInfo, stmt: list[_Tok], tags) -> None:
        words = [t.text for t in stmt]
        while len(words) > 1 and words[0] in _ACCESS and words[1] == ":":
            words = words[2:]
        if not words or words[0] in ("using", "typedef", "friend", "template",
                                     "static_assert", "enum", "class",
                                     "struct", "public", "private",
                                     "protected"):
            if words[:1] == ["using"] and "=" not in words:
                return
            if words[:1] != ["using"]:
                return
        # `Type name [GUARDED_BY(mu)] [= init];` — name is the identifier
        # right before `;`, `=`, `{` or GUARDED_BY/PT_GUARDED_BY.
        cut = len(words)
        guard = None
        for j, w in enumerate(words):
            if w in ("GUARDED_BY", "PT_GUARDED_BY"):
                if j + 2 < len(words):
                    guard = words[j + 2]
                cut = min(cut, j)
            elif w in ("=", "{"):
                cut = min(cut, j)
        decl = words[:cut]
        if len(decl) < 2 or "(" in decl or not \
                re.match(r"[A-Za-z_]\w*$", decl[-1]):
            return  # method declaration / array / bitfield: out of scope
        name = decl[-1]
        type_text = " ".join(decl[:-1])
        if not re.search(r"[A-Za-z_]", type_text):
            return
        info.members[name] = type_text
        if guard:
            info.guarded[name] = guard

    # -- body scanning -----------------------------------------------------

    def _body_token(self, prog: Program, rel: str, toks: list[_Tok], i: int,
                    fn_entry: dict, tags, stack: list[dict]) -> int:
        fn: Function = fn_entry["fn"]
        locals_map: dict[str, str] = fn_entry["locals"]
        t = toks[i]
        lam_entry = None
        for entry in reversed(stack):
            if entry["kind"] == "lambda":
                lam_entry = entry
                break
            if entry["kind"] == "fn":
                break
        lam_idx = lam_entry["index"] if lam_entry else -1
        built = self._constructed(prog, toks, i)
        if built:
            fn.constructs.add(built)

        # lambda introducer: '[' in expression position
        if t.text == "[":
            prev = toks[i - 1].text if i > 0 else ""
            if prev in ("(", ",", "=", "return", "{", ";", ":", "&&", "||",
                        "?", ":"):
                j = self._match(toks, i, "[", "]")
                if j is not None and j + 1 < len(toks) and \
                        toks[j + 1].text in ("(", "{", "mutable", "noexcept",
                                             "->", "constexpr"):
                    lam = Lambda(line=t.line)
                    held = {}
                    for ln in range(t.line - 2, t.line + 1):
                        held.update(tags.get(ln, {}))
                    if "mtds:lock-held" in held:
                        lam.lock_held = held["mtds:lock-held"]
                    fn.lambdas.append(lam)
                    entry = {"kind": "lambda", "lambda": lam,
                             "index": len(fn.lambdas) - 1,
                             "depth": None}
                    # params of the lambda join the local map loosely
                    k = j + 1
                    if k < len(toks) and toks[k].text == "(":
                        e = self._match(toks, k, "(", ")")
                        if e is not None:
                            _, _, _, pn = self._parse_params(toks[k + 1:e])
                            locals_map.update(pn)
                            k = e + 1
                    # skip to the body '{'
                    while k < len(toks) and toks[k].text != "{":
                        if toks[k].text in (";", ")"):
                            return i + 1  # not a lambda body after all
                        k += 1
                    entry["depth"] = self._depth(stack)
                    stack.append(entry)
                    # the '{' itself will be consumed by the main loop; mark
                    # depth bookkeeping through a sentinel: easiest is to
                    # return with the stack primed and let '{' push a block.
                    return i + 1
            return i + 1

        if t.text == "new":
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            prev = toks[i - 1].text if i > 0 else ""
            if nxt != "(" and prev != "operator":  # '(': placement new
                self._add_site(fn, fn.alloc_sites, t.line, "operator new",
                               tags, "mtds:alloc-ok")
            return i + 1
        if t.text == "throw":
            nxt = toks[i + 1].text if i + 1 < len(toks) else ";"
            if nxt != ";":  # rethrow in a catch block is not a new path
                self._add_site(fn, fn.throw_sites, t.line, "throw", tags,
                               "mtds:alloc-ok")
            return i + 1

        # determinism: banned clock / randomness identifiers
        if t.text in BANNED_CLOCKS:
            self._add_site(fn, fn.taint_sites, t.line,
                           f"std::chrono::{t.text}", tags, "mtds:nondet-ok")
            return i + 1
        if t.text in BANNED_RANDOM:
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if nxt in ("(", "<", ";", ",", ")") or t.text in ("random_device",
                                                              "mt19937",
                                                              "mt19937_64"):
                self._add_site(fn, fn.taint_sites, t.line,
                               f"banned randomness '{t.text}'", tags,
                               "mtds:nondet-ok")
            return i + 1

        # range-for: `for ( decl : expr )` — iteration over unordered?
        if t.text == "for" and i + 1 < len(toks) and toks[i + 1].text == "(":
            e = self._match(toks, i + 1, "(", ")")
            if e is not None:
                inner = toks[i + 2:e]
                colon = next((j for j, w in enumerate(inner)
                              if w.text == ":" and
                              (j == 0 or inner[j - 1].text != ":")), None)
                if colon is not None and (colon + 1) < len(inner):
                    seq = self._expr_raw(prog, fn, locals_map, inner,
                                         len(inner) - 1)
                    tkey = prog.resolve_alias(seq) if seq else ""
                    if tkey in UNORDERED:
                        self._add_site(fn, fn.taint_sites, t.line,
                                       f"iteration over {tkey}", tags,
                                       "mtds:nondet-ok")
                    # loop variable joins locals; `auto` takes the
                    # sequence's element type
                    decl = [w.text for w in inner[:colon]]
                    if decl and re.match(r"[A-Za-z_]\w*$", decl[-1]):
                        vtype = " ".join(decl[:-1])
                        if "auto" in decl:
                            vtype = _elem_of(seq)
                        locals_map[decl[-1]] = vtype
            return i + 1

        # pointer-keyed associative containers (declaration anywhere in body)
        if t.text in ("map", "set", "unordered_map", "unordered_set",
                      "hash", "multimap", "multiset") and \
                i + 1 < len(toks) and toks[i + 1].text == "<":
            e = self._match(toks, i + 1, "<", ">")
            if e is not None:
                head = [w.text for w in toks[i + 2:e]]
                # pointer key: '*' before the first top-level comma
                d2 = 0
                for w in head:
                    if w in "<([":
                        d2 += 1
                    elif w in ">)]":
                        d2 -= 1
                    elif w == "," and d2 == 0:
                        break
                    elif w == "*" and d2 == 0:
                        self._add_site(
                            fn, fn.taint_sites, t.line,
                            f"pointer-keyed std::{t.text} (address order "
                            "is nondeterministic)", tags,
                            "mtds:nondet-ok")
                        break
            return i + 1

        # address-taken function `&X::f` / `&f` in expression position: the
        # pointer may be called from anywhere, so the taker reaches f (any
        # arity: the overload is not known from the name)
        if t.text == "&" and 0 < i < len(toks) - 1 and \
                toks[i - 1].text in _ADDRESS_OF_PREV:
            j = i + 1
            while j + 2 < len(toks) and toks[j + 1].text == "::" and \
                    re.match(r"[A-Za-z_]\w*$", toks[j + 2].text):
                j += 2
            after = toks[j + 1].text if j + 1 < len(toks) else ""
            if re.match(r"[A-Za-z_]\w*$", toks[j].text) and \
                    after in (",", ")", ";", "}"):
                qual = toks[j - 2].text if j - 2 > i else None
                recv = qual if qual in prog.classes else None
                self._add_call(fn, toks[j], recv, _ANY_ARITY, [], lam_idx,
                               tags)
                return j + 1
            return i + 1

        # call / declaration sites: ident '('
        if re.match(r"[A-Za-z_]\w*$", t.text) and i + 1 < len(toks) and \
                toks[i + 1].text == "(" and t.text not in _KEYWORDS_NOT_CALLS:
            prev = toks[i - 1].text if i > 0 else ""
            e = self._match(toks, i + 1, "(", ")")
            if e is None:
                return i + 1
            args = toks[i + 2:e]
            arity, seconds_args = self._args_info(args)
            if prev in (".", "->"):
                raw = self._expr_raw(prog, fn, locals_map, toks, i - 2)
                recv = prog.resolve_alias(raw) if raw else ""
                if t.text in EMPLACE_METHODS:
                    # the container builds its element (a map its value)
                    arg = 1 if recv in MAP_TYPES else 0
                    fn.constructs.add(prog.resolve_alias(_elem_of(raw, arg)))
                self._add_call(fn, t, recv, arity, seconds_args, lam_idx,
                               tags)
            elif prev == "::":
                qual = toks[i - 2].text if i >= 2 else ""
                if qual in prog.classes:
                    self._add_call(fn, t, qual, arity, seconds_args, lam_idx,
                                   tags)
                elif qual == "std" or qual == "chrono":
                    self._add_call(fn, t, "std::", arity, seconds_args,
                                   lam_idx, tags)
                else:  # first-party namespace (util::, core::, ...)
                    self._add_call(fn, t, None, arity, seconds_args, lam_idx,
                                   tags)
            elif re.match(r"[A-Za-z_]\w*$", prev) and \
                    prev not in _KEYWORDS_NOT_CALLS and \
                    prev not in _SPECIFIERS and prev != "operator":
                # `Type name(args)`: a declaration; record the constructor
                # and the new local.
                type_toks = [prev]
                k = i - 2
                while k >= 1 and toks[k].text == "::":
                    type_toks.insert(0, toks[k - 1].text)
                    k -= 2
                type_text = "::".join(type_toks)
                locals_map[t.text] = type_text
                self._decl_site(prog, fn, t, type_text, args, arity,
                                seconds_args, tags, lam_idx, lam_entry)
            else:
                self._add_call(fn, t, None, arity, seconds_args, lam_idx,
                               tags)
            return i + 1

        # brace construction `TimeType{ ... }` for seconds-escape
        if t.text in TIME_TYPES and i + 1 < len(toks) and \
                toks[i + 1].text == "{":
            e = self._match(toks, i + 1, "{", "}")
            if e is not None:
                arity, seconds_args = self._args_info(toks[i + 2:e])
                self._add_call(fn, t, None, max(arity, 1), seconds_args,
                               lam_idx, tags)
                return e + 1  # skip past the matched '}' so the brace pair
                # never reaches the scope tracker (a time-type construction
                # is an expression, not a scope).
        # member reads inside lambda bodies (callback-lock-discipline) and
        # Trace detection
        if re.match(r"[A-Za-z_]\w*$", t.text):
            if lam_entry is not None and t.text not in _KEYWORDS_NOT_CALLS \
                    and t.text not in _SPECIFIERS:
                # record every identifier; the check filters against the
                # GUARDED_BY registry, which in this codebase's class style
                # (members last) is not yet populated mid-parse.
                lam_entry["lambda"].member_reads.append((t.text, t.line))
            base = locals_map.get(t.text) or self._member_type(prog, fn,
                                                               t.text) or ""
            if "Trace" in base.split("<")[0]:
                fn.touches_trace = True
        # local declarations `Type name = ...;` / `Type name;`
        if re.match(r"[A-Za-z_]\w*$", t.text) and i + 1 < len(toks) and \
                toks[i + 1].text in ("=", ";", "{") and i > 0:
            prev = toks[i - 1].text
            if prev in ("&", "*", "&&") and i >= 2 and \
                    toks[i - 2].text == "auto":
                prev = "auto"  # `auto& x = ...`, `const auto* x = ...`
            if re.match(r"[A-Za-z_]\w*$", prev) and prev not in \
                    _KEYWORDS_NOT_CALLS and prev not in _SPECIFIERS:
                type_toks = [prev]
                k = i - 2
                while k >= 1 and toks[k].text == "::":
                    type_toks.insert(0, toks[k - 1].text)
                    k -= 2
                while k >= 0 and toks[k].text in ("const", "static",
                                                  "constexpr", "auto", "&",
                                                  "*"):
                    k -= 1
                tkey = "::".join(type_toks)
                if tkey == "auto" and toks[i + 1].text == "=":
                    # `auto x = std::make_unique<T>(...)`, `auto x = T(...)`
                    # name the type; `auto& x = svc.server(i)` has the
                    # callee's return type
                    j = i + 2
                    while j + 2 < len(toks) and toks[j + 1].text == "::":
                        j += 2
                    end = j
                    while end < len(toks) and toks[end].text != ";":
                        if toks[end].text in ("(", "[", "{"):
                            close = {"(": ")", "[": "]", "{": "}"}
                            end = self._match(toks, end, toks[end].text,
                                              close[toks[end].text]) or end
                        end += 1
                    tkey = self._constructed(prog, toks, j) or self._expr_raw(
                        prog, fn, locals_map, toks, end - 1) or tkey
                elif prev != "auto":
                    fn.constructs.add(prog.resolve_alias(tkey))
                locals_map.setdefault(t.text, tkey)
                if toks[i + 1].text in ("=", "{") and \
                        _type_key(tkey) == "std::function":
                    self._add_site(fn, fn.alloc_sites, t.line,
                                   "std::function construction", tags,
                                   "mtds:alloc-ok")
        return i + 1

    # -- small helpers -----------------------------------------------------

    @classmethod
    def _constructed(cls, prog: Program, toks: list[_Tok], i: int) -> str:
        """Class key of the object the expression at token i builds:
        `make_unique<T>(`, `make_shared<T>(`, `new T`, or `T(` / `T{` for
        a model class.  "" when the token builds nothing."""
        t = toks[i].text
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        if t in ("make_unique", "make_shared") and nxt == "<":
            e = cls._match(toks, i + 1, "<", ">")
            if e is not None:
                return prog.resolve_alias(
                    " ".join(w.text for w in toks[i + 2:e]))
        elif t == "new" and re.match(r"[A-Za-z_]\w*$", nxt):
            j = i + 1
            while j + 2 < len(toks) and toks[j + 1].text == "::":
                j += 2
            return toks[j].text if toks[j].text in prog.classes else ""
        elif t in prog.classes and nxt in ("(", "{") and i > 0 and \
                toks[i - 1].text not in (".", "->"):
            return t
        return ""

    @staticmethod
    def _in_init_list(header: list[_Tok]) -> bool:
        """True when `header` is a constructor signature whose initializer
        list is still open: the brace that follows is a member's brace-init
        or sits inside a member's parentheses, not the body."""
        words = [t.text for t in header]
        if "(" not in words:
            return False
        d, j = 0, words.index("(")
        while j < len(words):
            d += (words[j] == "(") - (words[j] == ")")
            if d == 0:
                break
            j += 1
        j += 1
        while j < len(words) and words[j] in ("const", "noexcept"):
            j += 1
        if j >= len(words) or words[j] != ":":
            return False
        depth = sum((w == "(") - (w == ")") for w in words[j:])
        return depth > 0 or bool(re.match(r"[A-Za-z_]\w*$", words[-1]))

    @staticmethod
    def _depth(stack: list[dict]) -> int:
        for entry in reversed(stack):
            if entry.get("depth") is not None:
                return entry["depth"] + 1
        return 0

    @staticmethod
    def _match(toks: list[_Tok], start: int, open_t: str,
               close_t: str) -> int | None:
        d = 0
        for j in range(start, len(toks)):
            if toks[j].text == open_t:
                d += 1
            elif toks[j].text == close_t:
                d -= 1
                if d == 0:
                    return j
        return None

    @staticmethod
    def _args_info(args: list[_Tok]) -> tuple[int, list[int]]:
        if not args:
            return 0, []
        arity = 1
        seconds: list[int] = []
        d = 0
        for j, t in enumerate(args):
            if t.text in "(<[{":
                d += 1
            elif t.text in ")>]}":
                d -= 1
            elif t.text == "," and d == 0:
                arity += 1
            if t.text == "seconds" and j + 1 < len(args) and \
                    args[j + 1].text == "(" and j > 0 and \
                    args[j - 1].text in (".", "->"):
                if (arity - 1) not in seconds:
                    seconds.append(arity - 1)
        return arity, seconds

    def _expr_raw(self, prog: Program, fn: Function, locals_map,
                  toks: list[_Tok], k: int) -> str:
        """Declared type text of the expression whose last token is
        toks[k] ("" when unknown): a local, parameter or member, a field
        `a.b`, a subscript `a[i]` (the element type), or a call
        `a.f(...)`/`f(...)` (the callee's declared return type)."""
        if k < 0:
            return ""
        t = toks[k].text
        if t in (")", "]"):
            o = self._match_back(toks, k)
            if o is None or o == 0:
                return ""
            if t == "]":
                base = self._expr_raw(prog, fn, locals_map, toks, o - 1)
                return _elem_of(base) if base else ""
            callee = toks[o - 1].text
            if not re.match(r"[A-Za-z_]\w*$", callee) or \
                    callee in _KEYWORDS_NOT_CALLS:
                return ""  # a parenthesised expression or a cast
            return self._returns(prog, self._owner(prog, fn, locals_map, toks,
                                                   o - 1), callee)
        if not re.match(r"[A-Za-z_]\w*$", t):
            return ""
        if k >= 1 and toks[k - 1].text in (".", "->"):
            owner = prog.resolve_alias(
                self._expr_raw(prog, fn, locals_map, toks, k - 2))
            return (self._field_in(prog, owner, t) or "") if owner else ""
        if t == "this":
            return fn.cls or ""
        return locals_map.get(t) or self._member_type(prog, fn, t) or ""

    def _owner(self, prog: Program, fn: Function, locals_map,
               toks: list[_Tok], j: int) -> str | None:
        """Class key a call named toks[j] is looked up in; None for a free
        function."""
        prev = toks[j - 1].text if j > 0 else ""
        if prev in (".", "->"):
            raw = self._expr_raw(prog, fn, locals_map, toks, j - 2)
            return prog.resolve_alias(raw) if raw else ""
        if prev == "::":
            qual = toks[j - 2].text if j >= 2 else ""
            return qual if qual in prog.classes else None
        if fn.cls and self._returns(prog, fn.cls, toks[j].text):
            return fn.cls  # a call on `this`
        return None

    @staticmethod
    def _returns(prog: Program, owner: str | None, name: str) -> str:
        """Declared return type of `owner::name`, looked up through the
        base-class chain ("" when unknown)."""
        seen = set()
        while owner not in seen:
            seen.add(owner)
            ret = prog.returns.get((owner, name))
            if ret or owner is None:
                return ret or ""
            info = prog.classes.get(owner)
            if info is None or not info.bases:
                return ""
            owner = info.bases[0].split("::")[-1]
        return ""

    @staticmethod
    def _match_back(toks: list[_Tok], k: int) -> int | None:
        """Index of the bracket that opens the one closing at toks[k]."""
        close_t = toks[k].text
        open_t = "(" if close_t == ")" else "["
        d = 0
        for j in range(k, -1, -1):
            if toks[j].text == close_t:
                d += 1
            elif toks[j].text == open_t:
                d -= 1
                if d == 0:
                    return j
        return None

    @staticmethod
    def _field_in(prog: Program, cls: str, name: str) -> str | None:
        """Declared type of member `name` looked up from class `cls` through
        its base-class chain."""
        seen = set()
        while cls and cls not in seen:
            seen.add(cls)
            info = prog.classes.get(cls)
            if info is None:
                return None
            if name in info.members:
                return info.members[name]
            cls = info.bases[0].split("::")[-1] if info.bases else None
        return None

    def _member_type(self, prog: Program, fn: Function,
                     name: str) -> str | None:
        return self._field_in(prog, fn.cls, name) if fn.cls else None

    @staticmethod
    def _add_call(fn: Function, tok: _Tok, recv, arity: int,
                  seconds_args: list[int], lam_idx: int, tags=None) -> None:
        alloc_ok = seconds_ok = None
        for ln in range(tok.line - 2, tok.line + 1):
            line_tags = (tags or {}).get(ln, {})
            if "mtds:alloc-ok" in line_tags:
                alloc_ok = line_tags["mtds:alloc-ok"] or "(no reason)"
            if "mtds:seconds-ok" in line_tags:
                seconds_ok = line_tags["mtds:seconds-ok"] or "(no reason)"
        fn.calls.append(CallSite(name=tok.text, recv=recv, arity=arity,
                                 line=tok.line, seconds_args=seconds_args,
                                 in_lambda=lam_idx, alloc_ok=alloc_ok,
                                 seconds_ok=seconds_ok))

    def _decl_site(self, prog: Program, fn: Function, tok: _Tok,
                   type_text: str, args: list[_Tok], arity: int,
                   seconds_args: list[int], tags, lam_idx: int,
                   lam_entry) -> None:
        tkey = prog.resolve_alias(type_text)
        if tkey == "std::function":
            self._add_site(fn, fn.alloc_sites, tok.line,
                           "std::function construction", tags,
                           "mtds:alloc-ok")
        # lock acquisition inside lambda bodies
        if tkey in ("MutexLock", "lock_guard", "unique_lock", "scoped_lock"):
            if args and lam_entry is not None:
                lam_entry["lambda"].locks.append(args[-1].text)
        # constructor of a model class: record as a call so reachability
        # descends into first-party constructors.
        fn.constructs.add(tkey)
        self._add_call(fn, _Tok(type_text.split("::")[-1], tok.line),
                       tkey, arity, seconds_args, lam_idx, tags)

    @staticmethod
    def _add_site(fn: Function, bucket: list[Site], line: int, what: str,
                  tags, hatch: str) -> None:
        reason = None
        for ln in range(line - 2, line + 1):
            if hatch in tags.get(ln, {}):
                reason = tags[ln][hatch] or "(no reason)"
        bucket.append(Site(line=line, what=what, suppressed=reason))


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

def _external_allocates(call: CallSite) -> str | None:
    """Policy for calls that resolve to nothing in the model."""
    if call.name in ALLOC_FREE:
        return f"allocating call '{call.name}'"
    if call.name in ALLOC_METHODS:
        if call.recv is None or call.recv == "" or call.recv in STD_GROWABLE \
                or (call.recv or "").startswith("std::"):
            recv = call.recv or "unknown receiver"
            return f"'{call.name}' on {recv} (growable std container)"
    return None


def check_no_alloc(prog: Program) -> list[Violation]:
    out: list[Violation] = []
    memo: dict[int, tuple | None] = {}

    def first_reach(fn: Function, stack: list[str]) -> tuple | None:
        """(file, line, what, path) of the first reachable alloc/throw."""
        fid = id(fn)
        if fid in memo:
            return memo[fid]
        memo[fid] = None  # cycle guard: assume clean while exploring
        if "mtds:alloc-ok" in fn.tags:
            return None  # function-level barrier: proven elsewhere
        for site in fn.alloc_sites + fn.throw_sites:
            if site.suppressed is None:
                hit = (fn.file, site.line, site.what, list(stack))
                memo[fid] = hit
                return hit
        for call in fn.calls:
            if call.alloc_ok is not None:
                continue  # site-level mtds:alloc-ok(reason) on the call line
            cands = resolve(prog, call)
            # unknown receivers that *look* like growable-container calls are
            # treated as allocating even when a model method shares the name:
            # conservatism is the point of a reachability proof.
            if not cands or call.recv == "":
                what = _external_allocates(call)
                if what is not None:
                    hit = (fn.file, call.line, what, list(stack))
                    memo[fid] = hit
                    return hit
                if not cands:
                    continue
            for cand in cands:
                if cand is fn:
                    continue
                hit = first_reach(cand, stack + [cand.key])
                if hit is not None:
                    memo[fid] = hit
                    return hit
        return memo[fid]

    for fn in prog.functions:
        if "mtds:no-alloc" not in fn.tags:
            continue
        memo.clear()  # report per-seed paths, not first-seed-wins
        hit = first_reach(fn, [fn.key])
        if hit is not None:
            hfile, hline, what, path = hit
            via = " -> ".join(path)
            out.append(Violation(
                fn.file, fn.line, "no-alloc-reachability",
                f"'{fn.key}' (mtds:no-alloc) reaches {what} at "
                f"{hfile}:{hline} via {via}; make the path allocation-free "
                "or add mtds:alloc-ok(reason) at the boundary"))
    return out


def resolve(prog: Program, call: CallSite) -> list[Function]:
    if call.recv == "std::":
        return []
    if call.recv:
        if call.recv.startswith("std::"):
            return []
        return prog.methods(call.recv, call.name, call.arity)
    if call.recv == "":
        # unknown receiver: union of model methods with this name, which is
        # conservative in exactly the way reachability wants.
        cands = []
        for cls in prog.by_cls:
            cands.extend(prog.methods(cls, call.name, call.arity,
                                      strict=True))
        # dedupe (CHA overlaps)
        seen, uniq = set(), []
        for c in cands:
            if id(c) not in seen:
                seen.add(id(c))
                uniq.append(c)
        return uniq
    return prog.free(call.name, call.arity)


def check_determinism(prog: Program) -> list[Violation]:
    out: list[Violation] = []
    for fn in prog.functions:
        in_sim = fn.file.replace("\\", "/").startswith("src/sim/")
        if not in_sim and not fn.touches_trace:
            continue
        if "mtds:nondet-ok" in fn.tags:
            continue
        base = Path(fn.file).name
        if base in ("rng.cc", "rng.h"):
            continue  # the sanctioned randomness implementation
        for site in fn.taint_sites:
            if site.suppressed is not None:
                continue
            why = "src/sim/" if in_sim else "feeds sim::Trace"
            out.append(Violation(
                fn.file, site.line, "determinism-taint",
                f"{site.what} in '{fn.key}' ({why}); determinism of seeded "
                "runs is a checked invariant - use sim::Rng / "
                "ordered containers, or mtds:nondet-ok(reason)"))
    return out


def check_seconds_escape(prog: Program) -> list[Violation]:
    out: list[Violation] = []
    for fn in prog.functions:
        if Path(fn.file).name == "time_types.h":
            continue  # the algebra's own implementation: sanctioned crossing
        if "mtds:seconds-ok" in fn.tags:
            continue
        for call in fn.calls:
            if not call.seconds_args:
                continue
            if call.seconds_ok is not None:
                continue
            if call.name in TIME_TYPES:
                out.append(Violation(
                    fn.file, call.line, "seconds-escape",
                    f".seconds() feeds a {call.name} constructor in the same "
                    f"expression in '{fn.key}'; keep the value on its typed "
                    "axis or add mtds:seconds-ok(reason)"))
                continue
            for cand in resolve(prog, call):
                for idx in call.seconds_args:
                    if idx < len(cand.param_types) and any(
                            t in TIME_TYPES for t in
                            re.findall(r"\w+", cand.param_types[idx])):
                        out.append(Violation(
                            fn.file, call.line, "seconds-escape",
                            f".seconds() flows into time-typed parameter "
                            f"{idx} of '{cand.key}' in '{fn.key}'; pass the "
                            "typed value or add mtds:seconds-ok(reason)"))
                        break
                else:
                    continue
                break
    return out


def check_callback_locks(prog: Program) -> list[Violation]:
    out: list[Violation] = []
    for fn in prog.functions:
        cls_info = prog.classes.get(fn.cls or "")
        if cls_info is None or not cls_info.guarded:
            continue
        for lam in fn.lambdas:
            if lam.immediate or not lam.member_reads:
                continue
            for member, line in lam.member_reads:
                if member not in cls_info.guarded:
                    continue
                mutex = cls_info.guarded[member]
                held = lam.lock_held or ""
                if any(mutex.startswith(lk) or lk.startswith(mutex)
                       for lk in lam.locks if lk):
                    continue
                if held and (mutex in held or held.split(":")[0].strip()
                             in (mutex, "")):
                    continue
                out.append(Violation(
                    fn.file, line, "callback-lock-discipline",
                    f"lambda in '{fn.key}' reads '{member}' "
                    f"(GUARDED_BY({mutex})) but escapes its annotated scope; "
                    f"acquire {mutex} in the lambda body or tag the lambda "
                    f"mtds:lock-held({mutex}: reason) stating the contract "
                    "that delivers the lock"))
                break  # one report per lambda is enough
    return out


def reached_functions(prog: Program) -> set[int]:
    """ids of the functions in the call-graph closure of every root and
    every mtds:test-api function.  Beyond resolved calls, the graph carries
    the edges C++ makes implicitly:
    building a class reaches all its constructors, and its bases, its
    class-typed members and the elements of its member containers are
    built with it; a class in use (built, or any method reached) reaches
    its destructor and operators, member and free; a reached method
    reaches its overrides."""
    seen: set[int] = set()
    built: set[str] = set()
    used: set[str] = set()
    work: list[Function] = []
    free_ops: dict[str, list[Function]] = {}  # class key -> operators on it
    for fn in prog.functions:
        if fn.cls is None and fn.name.startswith("operator"):
            for cls in {prog.resolve_alias(t) for t in fn.param_types}:
                free_ops.setdefault(cls, []).append(fn)

    def reach(fn: Function) -> None:
        if id(fn) not in seen:
            seen.add(id(fn))
            work.append(fn)

    def use(cls: str) -> None:
        if cls in used:
            return
        used.add(cls)
        for name, fns in prog.by_cls.get(cls, {}).items():
            if name.startswith(("~", "operator")):
                for f in fns:
                    reach(f)
        for f in free_ops.get(cls, []):
            reach(f)

    def build(cls: str) -> None:
        info = prog.classes.get(cls)
        if info is None or cls in built:
            return
        built.add(cls)
        use(cls)
        for f in prog.by_cls.get(cls, {}).get(cls, []):
            reach(f)
        for base in info.bases:
            build(base.split("::")[-1])
        for type_text in info.members.values():
            if re.search(r"[*&]|_ptr\b|\bspan\b", type_text):
                continue  # refers to an object built elsewhere
            # a member and the elements of a member container
            for word in re.findall(r"[A-Za-z_]\w*", type_text):
                build(prog.resolve_alias(word))

    for fn in prog.roots:
        reach(fn)
    for fn in prog.functions:
        if "mtds:test-api" in fn.tags:
            reach(fn)  # kept for its tests, and so is what it calls
    while work:
        fn = work.pop()
        if fn.cls:
            use(fn.cls)
            for sub in prog.all_subclasses(fn.cls):
                for f in prog.by_cls.get(sub, {}).get(fn.name, []):
                    reach(f)  # an override runs wherever its base does
        for cls in fn.constructs:
            build(cls)
        for call in fn.calls:
            if call.recv is None and call.name in prog.classes:
                build(call.name)
            if call.recv and not call.recv.startswith("std::") and \
                    call.recv not in prog.classes:
                # a receiver typed by something the model has no class for
                # (`auto`, a template parameter): resolve like an unknown one
                call = CallSite(call.name, "", call.arity, call.line)
            for f in resolve(prog, call):
                reach(f)
    return seen


def check_dead_code(prog: Program) -> list[Violation]:
    if not prog.roots:
        return []  # no program to measure against (most fixtures)
    reached = reached_functions(prog)
    return [
        Violation(fn.file, fn.line, "dead-code",
                  f"'{fn.key}' is not reached from any program root "
                  f"({', '.join(d + '/' for d in ROOT_DIRS)}); delete it, or "
                  "tag it mtds:test-api(reason) if a test needs it")
        for fn in prog.functions
        if id(fn) not in reached and "mtds:test-api" not in fn.tags and
        fn.file.replace("\\", "/").startswith("src/")]


CHECKS = {
    "no-alloc-reachability": check_no_alloc,
    "determinism-taint": check_determinism,
    "seconds-escape": check_seconds_escape,
    "callback-lock-discipline": check_callback_locks,
    "dead-code": check_dead_code,
}


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def load_compile_db(build_dir: Path) -> set[Path]:
    """The translation units the build compiles (empty without a db)."""
    db_path = build_dir / "compile_commands.json"
    if not db_path.exists():
        return set()
    return {Path(entry["file"]) for entry in json.loads(db_path.read_text())}


def _sources(root: Path) -> list[Path]:
    return sorted(p for ext in ("*.h", "*.cc", "*.cpp")
                  for p in root.rglob(ext))


def root_files() -> list[Path]:
    """The program roots' sources, read from the tree (as lint's
    src-reachable gate reads them); the analyzer's own fixtures are no
    program."""
    return [p for d in ROOT_DIRS for p in _sources(REPO / d)
            if FIXTURES not in p.parents]


def first_party_files(db_tus: set[Path]) -> list[Path]:
    files = _sources(REPO / "src")
    if db_tus:
        # the db names the TUs the build actually compiles; any first-party
        # TU missing from it would silently escape analysis - surface that.
        missing = [f for f in files if f.suffix == ".cc" and
                   f not in db_tus and "examples" not in f.parts]
        if missing:
            names = ", ".join(str(m.relative_to(REPO)) for m in missing[:5])
            print(f"analyze: note: {len(missing)} src TU(s) not in "
                  f"compile_commands.json ({names}); analyzed anyway",
                  file=sys.stderr)
    return files


def run_checks(prog: Program, only: str | None = None) -> list[Violation]:
    out: list[Violation] = []
    for name, check in CHECKS.items():
        if only is None or name == only:
            out.extend(check(prog))
    return out


def run_repo(build_dir: Path) -> int:
    db = load_compile_db(build_dir)
    if not db:
        print(f"analyze: note: no compile_commands.json under {build_dir} "
              "(configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON); "
              "falling back to the src/ tree", file=sys.stderr)
    roots = root_files()
    if not roots:
        print("analyze: no program roots found under "
              f"{', '.join(ROOT_DIRS)}", file=sys.stderr)
        return 2
    prog = BuiltinFrontend().parse(first_party_files(db) + roots, REPO)
    violations = run_checks(prog)
    for v in violations:
        print(v)
    seeds = sum(1 for f in prog.functions if "mtds:no-alloc" in f.tags)
    test_api = sum(1 for f in prog.functions if "mtds:test-api" in f.tags)
    summary = (f"{len(prog.functions)} functions, {seeds} no-alloc seeds, "
               f"{len(prog.roots)} root functions, {test_api} test-api")
    if violations:
        print(f"analyze: {len(violations)} violation(s) ({summary})",
              file=sys.stderr)
        return 1
    print(f"analyze: clean ({summary})")
    return 0


# --------------------------------------------------------------------------
# Self-test over tools/analyze_fixtures/
# --------------------------------------------------------------------------

_EXPECT_RE = re.compile(r"analyze-expect:\s*([\w-]+|clean)")


def self_test() -> int:
    frontend = BuiltinFrontend()
    cases = sorted(p for p in FIXTURES.iterdir() if p.is_dir()) \
        if FIXTURES.exists() else []
    if not cases:
        print(f"analyze self-test: no fixtures under {FIXTURES}",
              file=sys.stderr)
        return 2
    failures: list[str] = []
    for case in cases:
        files = sorted(case.rglob("*.cc")) + sorted(case.rglob("*.h"))
        expected: set[str] = set()
        clean = False
        for f in files:
            for m in _EXPECT_RE.finditer(f.read_text()):
                if m.group(1) == "clean":
                    clean = True
                else:
                    expected.add(m.group(1))
        prog = frontend.parse(files, case)
        got = run_checks(prog)
        got_rules = {v.rule for v in got}
        if clean and not expected:
            if got:
                failures.append(
                    f"{case.name}: expected clean, got "
                    + "; ".join(str(v) for v in got))
        else:
            if got_rules != expected:
                failures.append(
                    f"{case.name}: expected {sorted(expected)}, got "
                    f"{sorted(got_rules) or 'clean'}"
                    + (": " + "; ".join(str(v) for v in got) if got else ""))
    if failures:
        for f in failures:
            print(f"analyze self-test FAILED: {f}", file=sys.stderr)
        return 1
    print(f"analyze self-test: {len(cases)} fixture case(s) behave "
          "(every check catches its seeded "
          "violation and every clean twin passes)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", default=str(REPO / "build"),
                        help="CMake build dir holding compile_commands.json")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-violation fixtures under "
                             "tools/analyze_fixtures/")
    parser.add_argument("--list-rules", action="store_true",
                        help="print one line per check and exit")
    args = parser.parse_args(argv)
    if args.list_rules:
        for name, summary in RULES.items():
            print(f"{name}: {summary}")
        return 0
    if args.self_test:
        return self_test()
    return run_repo(Path(args.build_dir))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
