#!/usr/bin/env python3
"""AST-backed project analyzer for the sphere codebase.

Grown out of tools/lint.py (whose textual checks it complements, not
replaces): lint.py enforces file-shape rules; analyze.py enforces the
*concurrency discipline* rules that need a model of classes, lock ranks and
scopes. It uses libclang for the class/member model when the python bindings
and a libclang shared object are installed, and falls back to a tokenizer
parser otherwise — the rules and their output are identical either way, the
AST path is just harder to fool with exotic formatting.

Rules (all scoped to src/ — tests and benches may legitimately break them
to *exercise* the machinery, e.g. the lockdep tests spawn raw threads):

  guarded-by       Every mutable data member of a lock-owning class (one
                   with a sphere::Mutex / SharedMutex member) must be
                   SPHERE_GUARDED_BY / SPHERE_PT_GUARDED_BY annotated,
                   std::atomic, const/constexpr, itself a synchronisation
                   primitive, or carry an explicit exemption marker.
  blocking         No blocking call — CondVar Wait/WaitFor, Session/JDBC
                   ExecuteSQL, connection-pool Acquire/AcquireMany,
                   ThreadPool/Latch Wait — while a storage-rank lock
                   (LockRank::kStorage) is held via a RAII guard. Blocking
                   under a table latch stalls every reader of that table.
  borrowed-row     A `const Row*` borrowed from TableScanCursor::Next() must
                   not escape the latch scope: no returning it, no storing it
                   into a member, no pushing the raw pointer into a
                   container. (Copy the row; the pointer dies with the
                   ReaderLock.)
  raw-thread       No raw std::thread / std::jthread outside
                   src/common/thread_pool.* — work goes through the pool so
                   shutdown, sizing and wait discipline stay in one place.
  arena-escape     A function that both produces statement-scoped trees
                   (Parse/ParseShared/Clone/Rewrite) and publishes into a
                   cache (.Put(...), .StoreRouted(...), stmt_cache_
                   emplace/insert) must contain an ArenaSuspend: with a
                   statement arena current, the produced nodes die at scope
                   exit, so publishing them is a use-after-reset. The
                   suspend routes cache-destined allocations to the heap.
  version-chain    MVCC version chains (storage/mvcc.h) may only be touched
                   under a guard that fixes a snapshot epoch: a function that
                   resolves versions (ResolveRow/ResolveVersion) or walks
                   chain links (.head / ->older / raw RowVersion) must show a
                   latch guard (ReaderLock/WriterLock/OptionalReaderLock), a
                   pinned Snapshot, or an explicit ReadView in the same
                   function. Unguarded chain walks race with writers
                   installing versions and with GC unlinking them. The
                   storage modules that *implement* the chains (mvcc.*,
                   table.*) are exempt wholesale.
  reactor-blocking A function whose comment block declares it
                   `reactor-context` (it runs on a proxy session's
                   submitting thread, which multiplexes thousands of
                   sessions) must not block: no CondVar Wait/WaitFor,
                   no LatencyModel Transfer/SleepMicros, no backend
                   ExecuteSQL, no pool Acquire. A blocked reactor call
                   stalls every session behind it; hand the work to the
                   statement queue instead.
  knob-budget      No header under src/ may declare a class-scope
                   `static std::atomic` member: that is a process-global
                   switch every runtime, node and test in the process
                   shares (the budget is 0). Each pipeline stage has one
                   lane (ROADMAP aim 2): a real choice goes in as a
                   per-instance option (RuntimeConfig, ProxyOptions, a
                   StorageNode setter) instead.

Exemption marker: a comment `analyze-exempt(<rule>): <reason>` on the
flagged line or the line directly above suppresses that rule there. The
reason is mandatory by convention — the marker is grep-able review bait,
not an off switch.

Usage:  tools/analyze.py [--root DIR] [--no-libclang] [files...]
Exits non-zero if any violation is found; prints file:line: rule: message.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint  # noqa: E402  (shared tokenizer infrastructure)

EXEMPT_RE = re.compile(r"analyze-exempt\((?P<rule>[\w-]+)\)\s*:\s*\S")

SYNC_PRIMITIVES = ("Mutex", "SharedMutex", "CondVar", "ThreadPool", "Latch")

GUARD_DECL_RE = re.compile(
    r"\b(MutexLock|ReaderLock|WriterLock)\s+\w+\s*[({](?P<expr>[^;]*?)[)}]\s*;")

# Lock member declarations carrying a rank, e.g.
#   mutable SharedMutex latch_{LockRank::kStorage, "storage/table.latch"};
RANKED_LOCK_RE = re.compile(
    r"\b(?:Mutex|SharedMutex)\s+(?P<member>\w+)\s*\{\s*"
    r"LockRank::(?P<rank>k\w+)\s*,")

# Calls that can block the calling thread. \b keeps TryAcquire() etc. out.
BLOCKING_RE = re.compile(
    r"\b(Wait|WaitFor|WaitUntil|ExecuteSQL|Acquire|AcquireMany)\s*\(")

CURSOR_DECL_RE = re.compile(r"\bTableScanCursor\s+(?P<var>\w+)\s*[({]")
BORROW_RE = re.compile(
    r"\b(?:const\s+)?(?:(?:storage::)?Row\s*\*|auto\s*\*?)\s*(?P<var>\w+)"
    r"\s*=\s*(?P<cursor>\w+)(?:\.|->)Next\s*\(")

THREAD_RE = re.compile(r"\bstd::j?thread\b")

# arena-escape: producers of (possibly) arena-allocated trees, publishes into
# long-lived caches, and the suspend that makes the combination safe.
ARENA_PRODUCER_RE = re.compile(r"\b(?:Parse|ParseShared|Clone|Rewrite)\s*\(")
ARENA_PUBLISH_RE = re.compile(
    r"(?:\.|->)\s*(?:Put|StoreRouted)\s*\(|"
    r"stmt_cache_\s*(?:\.|->)\s*(?:emplace|insert|try_emplace)\s*\(")
ARENA_SUSPEND_RE = re.compile(r"\bArenaSuspend\b")

# version-chain: touching a version chain (resolving against a view or
# walking the links directly) demands something in scope that fixes which
# snapshot epoch the walk observes — a table latch guard, a pinned Snapshot,
# or a ReadView the caller threads through. The implementing modules own the
# invariant internally and are skipped.
VERSION_ACCESS_RE = re.compile(
    r"\b(?:ResolveRow|ResolveVersion)\s*\(|->\s*older\b|\bRowVersion\b")
VERSION_GUARD_RE = re.compile(
    r"\b(?:ReaderLock|WriterLock|OptionalReaderLock)\b|\bSnapshot\b|"
    r"\bReadView\b|\blatch\s*\(|\bview\s*\(|\bview_\b")
VERSION_CHAIN_EXEMPT_FILES = (
    os.path.join("src", "storage", "mvcc.h"),
    os.path.join("src", "storage", "mvcc.cc"),
    os.path.join("src", "storage", "table.h"),
    os.path.join("src", "storage", "table.cc"),
)

# reactor-blocking: the marker lives in comments (raw text); the blocking
# scan runs over stripped text so a comment *mentioning* Transfer can't trip
# it. Superset of BLOCKING_RE: a reactor thread must not even sleep.
REACTOR_MARK_RE = re.compile(r"\breactor-context\b")
REACTOR_BLOCKING_RE = re.compile(
    r"\b(Wait|WaitFor|WaitUntil|Transfer|SleepMicros|ExecuteSQL|"
    r"Acquire|AcquireMany)\s*\(")
# knob-budget: class-scope static atomics in src/ headers (budget 0).
STATIC_ATOMIC_RE = re.compile(
    r"^\s*(?:inline\s+)?static\s+(?:inline\s+)?std::atomic\s*<")

RAW_THREAD_EXEMPT_FILES = (
    os.path.join("src", "common", "thread_pool.h"),
    os.path.join("src", "common", "thread_pool.cc"),
)

CLASS_HEAD_RE = re.compile(
    r"^\s*(?:template\s*<[^<>]*>\s*)?(class|struct)\s+(?:SPHERE_\w+\s*(?:\([^()]*\))?\s*)?"
    r"(?P<name>[A-Za-z_]\w*)\s*(?:final\s*)?(?::[^;{]*)?\{")

MEMBER_SKIP_RE = re.compile(
    r"^\s*(public|private|protected|using|typedef|friend|static|constexpr|"
    r"enum|class|struct|template|explicit|operator)\b")

SPHERE_MACRO_RE = re.compile(r"SPHERE_\w+\s*(?:\([^()]*\))?")


class Finding:
    def __init__(self, rel, line, rule, msg):
        self.rel, self.line, self.rule, self.msg = rel, line, rule, msg

    def key(self):
        return (self.rel, self.line, self.rule, self.msg)


def exempt_lines(raw_text):
    """Maps rule name -> set of covered line numbers. A marker covers its
    own line and the first following non-comment line (so a marker anywhere
    in the comment block above a declaration reaches the declaration). A
    line may carry several markers for different rules."""
    out = {}
    lines = raw_text.split("\n")
    for i, line in enumerate(lines, 1):
        for m in EXEMPT_RE.finditer(line):
            covered = {i}
            j = i  # 0-based index of the line after the marker's
            while j < len(lines) and lines[j].strip().startswith("//"):
                j += 1
            covered.add(j + 1)
            out.setdefault(m.group("rule"), set()).update(covered)
    return out


def is_exempt(exempts, rule, line):
    return line in exempts.get(rule, set())


# ---------------------------------------------------------------------------
# Class/member model. Two producers (libclang, tokenizer), one shape:
#   [(class_name, class_line, has_lock, [(member_name, line, covered), ...])]
# `covered` is True when the member satisfies the guarded-by rule by itself
# (annotated / atomic / const / sync primitive); exemption markers are
# applied by the caller so both producers stay marker-agnostic.
# ---------------------------------------------------------------------------


# A nested '{' at class-body depth opens either a function body (discard the
# signature on return) or a member's brace initializer (keep the declaration
# head so `Mutex mu_{LockRank::..., "..."};` still classifies). A signature
# ends in ')' or a trailing qualifier; an initializer follows the member name
# or '=' directly.
FN_BODY_BEFORE_BRACE_RE = re.compile(
    r"(\)|\boverride\b|\bconst\b|\bnoexcept\b|\bfinal\b|\btry\b)\s*$")


def classes_from_tokens(text):
    """Tokenizer class model: walks brace depth, collects `;`-terminated
    statements at each class's immediate body depth, classifies them.
    Limitation (accepted, matches house style): a class head must have its
    name and opening '{' on one line."""
    classes = []       # finished (name, line, has_lock, members)
    stack = []         # dicts: name, line, body_depth, members, has_lock, note
    depth = 0
    buf, buf_line = "", 0
    pending = None     # class head seen on this line, waiting for its '{'

    def at_body():
        return bool(stack) and depth == stack[-1]["body_depth"]

    def classify(stmt, line_no):
        cls = stack[-1]
        s = " ".join(stmt.split())
        # `private: Mutex mu_;` is one ';'-terminated chunk — peel the label.
        s = re.sub(r"^(?:(?:public|private|protected)\s*:\s*)+", "", s)
        if not s or MEMBER_SKIP_RE.match(s):
            return
        if re.search(r"\boperator\b", s):
            return  # operator declaration (`X& operator=(...) = delete;`)
        if re.search(r"\b(?:%s)\b" % "|".join(SYNC_PRIMITIVES), s):
            if re.search(r"\b(?:Mutex|SharedMutex)\s+\w+", s):
                cls["has_lock"] = True
            cls["members"].append((member_name(s), line_no, True))
            return
        annotated = ("SPHERE_GUARDED_BY" in s or "SPHERE_PT_GUARDED_BY" in s)
        bare = SPHERE_MACRO_RE.sub(" ", s)
        bare = re.sub(r"=[^;]*$", "", bare)  # default initializer
        bare = bare.strip().rstrip(";").strip()
        if not bare or "(" in bare or ")" in bare:
            return  # function declaration (or unparseable) — not a member
        m = re.match(r"(?P<type>.*?)(?P<name>\w+)\s*(?:\[[^\]]*\])?$", bare)
        if not m or not m.group("type").strip():
            return
        covered = (annotated
                   or "std::atomic" in m.group("type")
                   or re.search(r"\bconst\b", m.group("type")) is not None)
        cls["members"].append((m.group("name"), line_no, covered))

    for line_no, line in enumerate(text.split("\n"), 1):
        head = CLASS_HEAD_RE.match(line)
        if head:
            pending = (head.group("name"), line_no)
        for c in line:
            if c == "{":
                if pending:
                    depth += 1
                    stack.append({"name": pending[0], "line": pending[1],
                                  "body_depth": depth, "members": [],
                                  "has_lock": False, "note": None})
                    pending = None
                    buf, buf_line = "", 0
                else:
                    if at_body():
                        stack[-1]["note"] = (
                            "fn" if FN_BODY_BEFORE_BRACE_RE.search(buf)
                            else "init")
                    depth += 1
            elif c == "}":
                if at_body():
                    cls = stack.pop()
                    classes.append((cls["name"], cls["line"],
                                    cls["has_lock"], cls["members"]))
                    buf, buf_line = "", 0
                depth -= 1
                if at_body() and stack[-1]["note"] == "fn":
                    buf, buf_line = "", 0
                    stack[-1]["note"] = None
            elif c == ";":
                if at_body():
                    classify(buf, buf_line or line_no)
                    buf, buf_line = "", 0
            else:
                if at_body():
                    if not buf and not c.isspace():
                        buf_line = line_no
                    buf += c
        pending = None  # heads never wrap past their line
    return classes


def member_name(stmt):
    bare = SPHERE_MACRO_RE.sub(" ", stmt)
    bare = re.sub(r"[={][^;]*$", "", bare).strip().rstrip(";").strip()
    m = re.search(r"(\w+)\s*$", bare)
    return m.group(1) if m else stmt.strip()


def classes_from_libclang(index, path, root):
    """AST class model via libclang. Returns None when the TU fails to parse
    (caller falls back to the tokenizer for that file)."""
    from clang import cindex
    args = ["-std=c++20", "-I" + os.path.join(root, "src"), "-I" + root,
            "-DSPHERE_DEADLOCK=0"]
    try:
        tu = index.parse(path, args=args)
    except cindex.TranslationUnitLoadError:
        return None
    classes = []

    def visit(cursor):
        if cursor.kind in (cindex.CursorKind.CLASS_DECL,
                           cindex.CursorKind.STRUCT_DECL):
            if not cursor.is_definition():
                return
            if cursor.location.file and cursor.location.file.name != path:
                return
            members, has_lock = [], False
            for ch in cursor.get_children():
                visit(ch)  # nested classes
                if ch.kind != cindex.CursorKind.FIELD_DECL:
                    continue
                t = ch.type.spelling
                if any(p in t for p in SYNC_PRIMITIVES):
                    if "Mutex" in t:
                        has_lock = True
                    members.append((ch.spelling, ch.location.line, True))
                    continue
                guarded = any("guarded_by" in (a.spelling or "")
                              for a in ch.get_children()
                              if a.kind.is_attribute())
                covered = (guarded or "std::atomic" in t
                           or ch.type.is_const_qualified())
                members.append((ch.spelling, ch.location.line, covered))
            classes.append((cursor.spelling, cursor.location.line,
                            has_lock, members))
            return
        for ch in cursor.get_children():
            visit(ch)

    visit(tu.cursor)
    return classes


def load_libclang(disabled):
    if disabled:
        return None
    try:
        from clang import cindex
        index = cindex.Index.create()
        return index
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def check_guarded_by(rel, classes, exempts, findings):
    for cls_name, _cls_line, has_lock, members in classes:
        if not has_lock:
            continue
        for name, line, covered in members:
            if covered or is_exempt(exempts, "guarded-by", line):
                continue
            findings.append(Finding(
                rel, line, "guarded-by",
                "member '%s' of lock-owning class %s is neither "
                "SPHERE_GUARDED_BY-annotated, atomic, const, nor "
                "analyze-exempt(guarded-by)" % (name, cls_name)))


def storage_lock_names(root, rel, text):
    """Names of this file's kStorage-ranked lock members — declared here or
    in the same-stem header (the usual .cc/.h split)."""
    names = set()
    for src in (text, same_stem_header(root, rel)):
        if src is None:
            continue
        for m in RANKED_LOCK_RE.finditer(src):
            if m.group("rank") == "kStorage":
                names.add(m.group("member"))
    return names


def same_stem_header(root, rel):
    if not rel.endswith(".cc"):
        return None
    hdr = os.path.join(root, rel[:-3] + ".h")
    try:
        with open(hdr, encoding="utf-8") as f:
            return lint.strip_comments_keep_lines(f.read())
    except OSError:
        return None


def guard_is_storage(expr, storage_names):
    if re.search(r"\blatch\s*\(\s*\)", expr) or "latch_" in expr:
        return True  # Table::latch() is *the* storage-rank capability
    return any(re.search(r"\b%s\b" % re.escape(n), expr)
               for n in storage_names)


def check_blocking(rel, text, storage_names, exempts, findings):
    depth = 0
    guards = []  # depth at which a storage-rank guard was declared
    for line_no, line in enumerate(text.split("\n"), 1):
        m = GUARD_DECL_RE.search(line)
        entered = m is not None and guard_is_storage(m.group("expr"),
                                                     storage_names)
        if guards and BLOCKING_RE.search(line) and not entered:
            if not is_exempt(exempts, "blocking", line_no):
                call = BLOCKING_RE.search(line).group(1)
                findings.append(Finding(
                    rel, line_no, "blocking",
                    "%s() may block while a storage-rank (table/catalog) "
                    "lock is held (guard declared at line %d)"
                    % (call, guards[-1][1])))
        for c in line:
            if c == "{":
                depth += 1
            elif c == "}":
                while guards and guards[-1][0] >= depth:
                    guards.pop()
                depth -= 1
        if entered:
            guards.append((depth, line_no))
    return findings


def check_borrowed_row(rel, text, exempts, findings):
    cursors = set(m.group("var") for m in CURSOR_DECL_RE.finditer(text))
    lines = text.split("\n")
    borrowed = {}  # var -> (decl_line, decl_depth)
    depth = 0
    for line_no, line in enumerate(lines, 1):
        m = BORROW_RE.search(line)
        if m and (m.group("cursor") in cursors or not cursors):
            borrowed[m.group("var")] = (line_no, depth)
        for var, (decl_line, _d) in list(borrowed.items()):
            if line_no == decl_line:
                continue
            escape = None
            if re.search(r"\breturn\s+%s\s*;" % re.escape(var), line):
                escape = "returned"
            elif re.search(r"\b\w+_\s*=\s*%s\s*;" % re.escape(var), line):
                escape = "stored into a member"
            elif re.search(r"\.(?:push_back|emplace_back)\s*\(\s*%s\s*\)"
                           % re.escape(var), line):
                escape = "pushed (as a raw pointer) into a container"
            if escape and not is_exempt(exempts, "borrowed-row", line_no):
                findings.append(Finding(
                    rel, line_no, "borrowed-row",
                    "row pointer '%s' borrowed from TableScanCursor::Next() "
                    "(line %d) is %s — it dies with the table latch; copy "
                    "the row instead" % (var, decl_line, escape)))
        for c in line:
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                for var, (_l, d) in list(borrowed.items()):
                    if d > depth:
                        del borrowed[var]
    return findings


def check_arena_escape(rel, text, exempts, findings):
    """Chunk the file on column-0 '}' lines (house style closes namespace-
    scope function bodies at column 0) and require ArenaSuspend in any chunk
    that both produces statement trees and publishes into a cache. Coarse by
    design: a class defined inline forms one chunk, which can only make the
    rule stricter, never blinder."""
    chunk, chunk_start = [], 1
    lines = text.split("\n")

    def flush(end_line):
        body = "\n".join(chunk)
        if (ARENA_PRODUCER_RE.search(body) and ARENA_PUBLISH_RE.search(body)
                and not ARENA_SUSPEND_RE.search(body)):
            publish_at = chunk_start
            for off, l in enumerate(chunk):
                if ARENA_PUBLISH_RE.search(l):
                    publish_at = chunk_start + off
                    break
            if not is_exempt(exempts, "arena-escape", publish_at):
                findings.append(Finding(
                    rel, publish_at, "arena-escape",
                    "this function parses/clones statement trees AND "
                    "publishes into a cache without an ArenaSuspend — under "
                    "an active statement arena the published nodes are "
                    "reclaimed at scope exit (use-after-reset); build the "
                    "cache-destined tree under ArenaSuspend, or mark "
                    "analyze-exempt(arena-escape) with the reason it cannot "
                    "run inside an arena scope"))
        del chunk[:]
        return end_line + 1

    for line_no, line in enumerate(lines, 1):
        chunk.append(line)
        if line.startswith("}"):
            chunk_start = flush(line_no)
    flush(len(lines))


def check_version_chain(rel, text, exempts, findings):
    """Chunk the file on column-0 '}' lines (same granularity as
    check_arena_escape) and require snapshot-epoch guard evidence in any
    chunk that accesses MVCC version chains."""
    if rel in VERSION_CHAIN_EXEMPT_FILES:
        return
    chunk, chunk_start = [], 1
    lines = text.split("\n")

    def flush(end_line):
        body = "\n".join(chunk)
        if VERSION_ACCESS_RE.search(body) and not VERSION_GUARD_RE.search(body):
            access_at = chunk_start
            for off, l in enumerate(chunk):
                if VERSION_ACCESS_RE.search(l):
                    access_at = chunk_start + off
                    break
            if not is_exempt(exempts, "version-chain", access_at):
                findings.append(Finding(
                    rel, access_at, "version-chain",
                    "version-chain access with no snapshot-epoch guard in "
                    "scope — resolve under a table latch guard, a pinned "
                    "Snapshot, or a caller-supplied ReadView so the walk "
                    "observes one epoch (unguarded walks race with version "
                    "installs and GC unlinks); or mark "
                    "analyze-exempt(version-chain) with why this access "
                    "is safe"))
        del chunk[:]
        return end_line + 1

    for line_no, line in enumerate(lines, 1):
        chunk.append(line)
        if line.startswith("}"):
            chunk_start = flush(line_no)
    flush(len(lines))


def check_reactor_blocking(rel, raw, text, exempts, findings):
    """Chunk the file on column-0 '}' lines (same coarse granularity as
    check_arena_escape). A chunk whose raw text carries the `reactor-context`
    marker is a function that runs on a proxy session's submitting thread;
    any blocking call inside it is flagged. Raw text finds the marker (it is
    a comment); stripped text is what's scanned for calls."""
    raw_lines = raw.split("\n")
    text_lines = text.split("\n")
    start = 0  # 0-based index of the current chunk's first line
    for i, raw_line in enumerate(raw_lines):
        if not raw_line.startswith("}"):
            continue
        chunk_raw = "\n".join(raw_lines[start:i + 1])
        if REACTOR_MARK_RE.search(chunk_raw):
            scan_reactor_chunk(rel, text_lines, start, i, exempts, findings)
        start = i + 1
    if start < len(raw_lines) and REACTOR_MARK_RE.search(
            "\n".join(raw_lines[start:])):
        scan_reactor_chunk(rel, text_lines, start, len(text_lines) - 1,
                           exempts, findings)


def scan_reactor_chunk(rel, text_lines, start, end, exempts, findings):
    for off in range(start, end + 1):
        m = REACTOR_BLOCKING_RE.search(text_lines[off])
        line_no = off + 1
        if m and not is_exempt(exempts, "reactor-blocking", line_no):
            findings.append(Finding(
                rel, line_no, "reactor-blocking",
                "%s() may block inside a reactor-context function — the "
                "submitting thread multiplexes every session's bytes, so a "
                "block here stalls all of them; enqueue the work for a "
                "statement worker instead (or mark "
                "analyze-exempt(reactor-blocking) with why this cannot "
                "block)" % m.group(1)))


def check_raw_thread(rel, text, exempts, findings):
    if rel in RAW_THREAD_EXEMPT_FILES:
        return
    for line_no, line in enumerate(text.split("\n"), 1):
        if THREAD_RE.search(line) and not is_exempt(
                exempts, "raw-thread", line_no):
            findings.append(Finding(
                rel, line_no, "raw-thread",
                "raw std::thread outside src/common/thread_pool; submit to "
                "the shared ThreadPool (or add analyze-exempt(raw-thread) "
                "with the reason this must be a dedicated thread)"))


def check_knob_budget(rel, text, exempts, findings):
    if not (rel.startswith("src" + os.sep) and rel.endswith(".h")):
        return
    scopes = []  # one entry per open '{': its class name, or None
    for line_no, line in enumerate(text.split("\n"), 1):
        if (scopes and scopes[-1] is not None
                and STATIC_ATOMIC_RE.search(line)
                and not is_exempt(exempts, "knob-budget", line_no)):
            findings.append(Finding(
                rel, line_no, "knob-budget",
                "%s declares a static std::atomic member, a process-global "
                "switch (budget 0): each pipeline stage has one lane "
                "(ROADMAP aim 2), so retire the baseline or make the choice "
                "a per-instance option" % scopes[-1]))
        head = CLASS_HEAD_RE.match(line)
        for c in line:
            if c == "{":
                scopes.append(head.group("name") if head else None)
                head = None  # only the head's own brace opens the class
            elif c == "}" and scopes:
                scopes.pop()


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def analyze_file(root, rel, index, findings):
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    except OSError as e:
        findings.append(Finding(rel, 0, "io", str(e)))
        return
    exempts = exempt_lines(raw)
    text = lint.strip_comments_keep_lines(raw)

    classes = None
    if index is not None:
        classes = classes_from_libclang(index, path, root)
    if classes is None:
        classes = classes_from_tokens(text)

    check_guarded_by(rel, classes, exempts, findings)
    check_blocking(rel, text, storage_lock_names(root, rel, text),
                   exempts, findings)
    check_borrowed_row(rel, text, exempts, findings)
    check_arena_escape(rel, text, exempts, findings)
    check_version_chain(rel, text, exempts, findings)
    check_reactor_blocking(rel, raw, text, exempts, findings)
    check_raw_thread(rel, text, exempts, findings)
    check_knob_budget(rel, text, exempts, findings)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--no-libclang", action="store_true",
                    help="force the tokenizer fallback")
    ap.add_argument("files", nargs="*", help="specific files to analyze")
    args = ap.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    if args.files:
        rels = [os.path.relpath(os.path.abspath(f), root) for f in args.files]
    else:
        rels = [r for r in lint.repo_files(root, None)
                if r.startswith("src" + os.sep)]

    index = load_libclang(args.no_libclang)
    mode = "libclang" if index is not None else "tokenizer"

    findings = []
    for rel in rels:
        analyze_file(root, rel, index, findings)

    seen = set()
    ordered = []
    for f in sorted(findings, key=Finding.key):
        if f.key() not in seen:
            seen.add(f.key())
            ordered.append(f)
    for f in ordered:
        print("%s:%d: %s: %s" % (f.rel, f.line, f.rule, f.msg))
    if ordered:
        print("analyze: %d violation(s) [%s]" % (len(ordered), mode),
              file=sys.stderr)
        return 1
    print("analyze: OK (%d files, %s)" % (len(rels), mode))
    return 0


if __name__ == "__main__":
    sys.exit(main())
