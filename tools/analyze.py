#!/usr/bin/env python3
"""AST-grade project analyzer for hypertune.

Enforces project invariants that plain compiler warnings cannot express:

  raw-sync         No raw std::mutex / std::lock_guard / std::unique_lock /
                   std::condition_variable / std::scoped_lock /
                   std::shared_mutex outside src/common/thread_annotations.h.
                   Everything else must go through the annotated Mutex /
                   MutexLock / CondVar wrappers so Clang thread-safety
                   analysis and the lockdep runtime checker see every lock.

  guarded-member   In any class that owns a Mutex, every mutable data member
                   must carry a GUARDED_BY annotation. Members that are
                   const, atomic, themselves synchronization objects, or
                   self-locking aggregates are exempt; intentionally
                   unguarded members (e.g. written once before threads
                   start) are suppressed via the committed baseline.

  discarded-status No expression-statement call to a Status/Result-returning
                   function. This backstops [[nodiscard]] +
                   -Werror=unused-result for compilers or contexts that
                   drop the attribute; the only sanctioned discard is an
                   explicit .IgnoreError().

  encode-decode    Every WireEncoder::Encode<X> has a matching
                   WireDecoder::Decode<X> and vice versa, so the wire format
                   cannot grow write-only (or read-only) record types.

  unranked-mutex   Every Mutex variable or member must be constructed with a
                   LockRank from the registry in src/common/lock_order.h
                   (Mutex(LockRank, name)). An unranked Mutex is invisible to
                   the lockdep ordering checker, so deadlock cycles through
                   it go undetected.

Two engines produce identical finding IDs:

  libclang  Drives clang.cindex over compile_commands.json. Used in CI
            (--engine libclang), where python3-clang is installed.
  text      Dependency-free structural scanner. Used locally where libclang
            is unavailable (--engine auto falls back to it with a notice).

Findings are compared against a committed baseline (tools/analyze_baseline.txt)
that may only shrink: a finding missing from the baseline fails the run, and
a baseline entry that no longer fires fails the run as stale. Use
--update-baseline after deliberately fixing or suppressing findings.

Finding IDs are line-number-free (check:path:symbol) so routine edits do not
churn the baseline.
"""

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE_DIRS = ("src", "tests", "bench")

RAW_SYNC_TOKENS = (
    "std::mutex",
    "std::recursive_mutex",
    "std::shared_mutex",
    "std::timed_mutex",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
    "std::shared_lock",
    "std::condition_variable",
)

# The one file allowed to touch raw std synchronization: it *implements*
# the annotated wrappers.
RAW_SYNC_EXEMPT = ("src/common/thread_annotations.h",)

# Member types that synchronize themselves (or are synchronization).
SELF_SYNC_TYPE_RE = re.compile(
    r"\b(Mutex|CondVar|std::atomic|std::thread)\b|\batomic<")

WIRE_FORMAT_HEADER = "src/runtime/wire_format.h"


class Finding:
    def __init__(self, check, path, symbol, detail):
        self.check = check
        self.path = path
        self.symbol = symbol
        self.detail = detail

    @property
    def id(self):
        return "%s:%s:%s" % (self.check, self.path, self.symbol)

    def __repr__(self):
        return "%s  (%s)" % (self.id, self.detail)


def strip_comments(text):
    """Removes // and /* */ comments, preserving newlines for line math."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(text[i : j + 1])
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_preprocessor(text):
    """Drops preprocessor directive lines (#include, #define, guards)."""
    return "\n".join("" if line.lstrip().startswith("#") else line
                     for line in text.split("\n"))


def strip_balanced(text, open_ch, close_ch):
    """Removes balanced open..close regions (template args, brace inits)."""
    out = []
    depth = 0
    for c in text:
        if c == open_ch:
            depth += 1
        elif c == close_ch and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(c)
    return "".join(out)


def iter_source_files(root):
    for d in SOURCE_DIRS:
        base = os.path.join(root, d)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith((".h", ".cc")):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root).replace(os.sep, "/")


# ---------------------------------------------------------------------------
# Check: raw-sync (text)
# ---------------------------------------------------------------------------


def check_raw_sync_text(root, files, findings):
    for rel in files:
        if rel in RAW_SYNC_EXEMPT:
            continue
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = strip_comments(f.read())
        for token in RAW_SYNC_TOKENS:
            if re.search(re.escape(token) + r"\b", text):
                findings.append(
                    Finding("raw-sync", rel, token,
                            "raw %s; use the annotated wrappers from "
                            "src/common/thread_annotations.h" % token))


# ---------------------------------------------------------------------------
# Check: unranked-mutex (text)
# ---------------------------------------------------------------------------

# A Mutex declaration with its (optional) initializer: `Mutex name;`,
# `Mutex name{...};`, or `Mutex name(...);`. Pointer/reference declarations
# (`Mutex* m`, `Mutex& m`) do not match — only owning declarations must
# carry a rank.
_MUTEX_DECL_RE = re.compile(
    r"\bMutex\s+(\w+)\s*(\{[^{}]*\}|\([^()]*\))?\s*;")


def check_unranked_mutex_text(root, files, findings):
    for rel in files:
        if rel in RAW_SYNC_EXEMPT:
            continue
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = strip_preprocessor(strip_comments(f.read()))
        for m in _MUTEX_DECL_RE.finditer(text):
            if "LockRank" in (m.group(2) or ""):
                continue
            findings.append(
                Finding("unranked-mutex", rel, m.group(1),
                        "Mutex %s constructed without a LockRank from "
                        "src/common/lock_order.h; lockdep cannot order it"
                        % m.group(1)))


# ---------------------------------------------------------------------------
# Check: guarded-member (text)
# ---------------------------------------------------------------------------


class _ClassBody:
    def __init__(self, name):
        self.name = name
        self.statements = []  # direct member-level statements
        self.nested = []  # nested _ClassBody


_CLASS_HEAD_RE = re.compile(
    r"(?:^|[;{}]|\bpublic:|\bprivate:|\bprotected:)\s*"
    r"(?:template\s*<[^<>]*>\s*)?(class|struct)\s+(\w+)"
    r"\s*(?:final\s*)?(?::[^{;]*)?$")


def _parse_classes(text):
    """Splits top-level class/struct bodies out of comment-stripped text.

    Tracks brace depth; statements directly inside a class body are split on
    ';' at body depth, and inline function bodies / nested classes are
    handled by depth bookkeeping. This is deliberately style-bound to this
    repository (one declaration per statement) — the libclang engine is the
    authoritative implementation.
    """
    classes = []
    stack = []  # (class_body, body_depth)
    buf = []
    depth = 0
    for c in text:
        if c == "{":
            head = "".join(buf).strip()
            m = _CLASS_HEAD_RE.search(head)
            if m:
                body = _ClassBody(m.group(2))
                if stack:
                    stack[-1][0].nested.append(body)
                else:
                    classes.append(body)
                stack.append((body, depth + 1))
                buf = []
            depth += 1
            if not m:
                buf.append(c)
        elif c == "}":
            depth -= 1
            if stack and depth < stack[-1][1]:
                stack.pop()
                buf = []
            else:
                buf.append(c)
        elif c == ";":
            if stack and depth == stack[-1][1]:
                stmt = "".join(buf).strip()
                if stmt:
                    stack[-1][0].statements.append(stmt)
                buf = []
            else:
                buf.append(c)
        else:
            buf.append(c)
    return classes


_FIELD_RE = re.compile(r"^(.*?)\b(\w+)\s*(?:=[^;]*)?$")

_NON_FIELD_KEYWORDS = re.compile(
    r"^\s*(using|typedef|friend|static_assert|enum|public|private|protected|"
    r"template)\b")


def _field_of(statement):
    """Returns (type_text, name) if the statement declares a data member."""
    stmt = statement
    # Access specifiers glued to the front by the tokenizer.
    stmt = re.sub(r"^(public|private|protected):\s*", "", stmt).strip()
    if not stmt or _NON_FIELD_KEYWORDS.match(stmt):
        return None
    if re.match(r"^(class|struct)\s", stmt):
        return None  # forward declaration
    flat = strip_balanced(stmt, "<", ">")  # drop template args (incl. fn types)
    flat = strip_balanced(flat, "{", "}")  # drop brace initializers
    flat = re.sub(r"\[[^\]]*\]", "", flat)  # drop array extents
    if "(" in flat:
        return None  # function declaration (or macro-annotated one)
    flat = re.sub(r"\s*=.*$", "", flat).strip()  # drop `= default-init`
    m = _FIELD_RE.match(flat)
    if not m:
        return None
    type_text, name = m.group(1).strip(), m.group(2)
    if not type_text:
        return None
    return statement, name, type_text


def _walk_guarded(rel, body, findings):
    stmts = [s for s in (_field_of(s) for s in body.statements) if s]
    has_mutex = any(re.search(r"\bMutex\b", t) and "GUARDED_BY" not in s
                    for s, _, t in stmts)
    if has_mutex:
        for stmt, name, type_text in stmts:
            if SELF_SYNC_TYPE_RE.search(type_text):
                continue
            if re.search(r"\bconst\b", type_text) or "constexpr" in type_text:
                continue
            if "GUARDED_BY" in stmt:
                continue
            findings.append(
                Finding("guarded-member", rel,
                        "%s::%s" % (body.name, name),
                        "mutable member of a Mutex-holding class lacks "
                        "GUARDED_BY"))
    for nested in body.nested:
        _walk_guarded(rel, nested, findings)


def check_guarded_member_text(root, files, findings):
    for rel in files:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = strip_preprocessor(strip_comments(f.read()))
        if "Mutex" not in text:
            continue
        for body in _parse_classes(text):
            _walk_guarded(rel, body, findings)


# ---------------------------------------------------------------------------
# Check: discarded-status (text)
# ---------------------------------------------------------------------------

_STATUS_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+)*"
    r"(?:Status|Result<[^;=]*?>)\s+(\w+)\s*\(", re.MULTILINE)

_VOID_DECL_RE = re.compile(
    r"^\s*(?:static\s+|virtual\s+)*void\s+(\w+)\s*\(", re.MULTILINE)


def _collect_status_names(root, files):
    status_names = set()
    void_names = set()
    for rel in files:
        if not rel.endswith(".h"):
            continue
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = strip_comments(f.read())
        status_names.update(_STATUS_DECL_RE.findall(text))
        void_names.update(_VOID_DECL_RE.findall(text))
    # A name declared both ways is ambiguous without type info; leave it to
    # the compiler (-Werror=unused-result) and the libclang engine.
    return status_names - void_names


def _statements(text):
    """Yields top-of-statement text split on ';' outside braces-in-parens."""
    buf = []
    paren = 0
    for c in text:
        if c == "(":
            paren += 1
        elif c == ")":
            paren = max(0, paren - 1)
        if c in ";{}" and paren == 0:
            yield "".join(buf).strip()
            buf = []
        else:
            buf.append(c)
    tail = "".join(buf).strip()
    if tail:
        yield tail


# The *top-level* call of an expression statement: an optional paren-free
# receiver chain, then the callee. A leading macro like
# HT_RETURN_IF_ERROR(...) captures as the callee itself, so calls consumed
# by such macros never match a Status-returning name.
_CALL_STMT_RE = re.compile(
    r"^(?:[\w\[\]]+(?:\.|->|::))*(\w+)\s*\(")

_CONTROL_KEYWORDS = re.compile(
    r"\b(return|if|while|for|switch|co_return|case|throw)\b|=")


def check_discarded_status_text(root, files, findings):
    names = _collect_status_names(root, files)
    for rel in files:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = strip_preprocessor(strip_comments(f.read()))
        for stmt in _statements(text):
            m = _CALL_STMT_RE.match(stmt)
            if not m or m.group(1) not in names:
                continue
            if _CONTROL_KEYWORDS.search(stmt):
                continue
            if "IgnoreError" in stmt or stmt.rstrip().endswith((".", "->")):
                continue
            # Must be a full call statement, not a prefix of a member chain.
            if not stmt.rstrip().endswith(")"):
                continue
            findings.append(
                Finding("discarded-status", rel, m.group(1),
                        "Status/Result of %s() discarded; handle it or call "
                        ".IgnoreError()" % m.group(1)))


# ---------------------------------------------------------------------------
# Check: encode-decode parity (structural; shared by both engines)
# ---------------------------------------------------------------------------


def check_encode_decode(root, findings, header=None):
    rel = header or WIRE_FORMAT_HEADER
    path = os.path.join(root, rel)
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as f:
        text = strip_comments(f.read())
    encoders = set(re.findall(r"\bEncode(\w+)\s*\(", text))
    decoders = set(re.findall(r"\bDecode(\w+)\s*\(", text))
    for name in sorted(encoders - decoders):
        findings.append(
            Finding("encode-decode", rel, "Encode%s" % name,
                    "Encode%s has no matching Decode%s — write-only wire "
                    "records cannot be replayed" % (name, name)))
    for name in sorted(decoders - encoders):
        findings.append(
            Finding("encode-decode", rel, "Decode%s" % name,
                    "Decode%s has no matching Encode%s — dead decode path "
                    "or missing writer" % (name, name)))


# ---------------------------------------------------------------------------
# libclang engine
# ---------------------------------------------------------------------------


def load_libclang():
    try:
        from clang import cindex  # noqa: PLC0415
    except ImportError:
        return None
    try:
        cindex.Index.create()
    except Exception:  # library present but unloadable
        for lib in ("libclang-14.so.1", "libclang.so.1", "libclang.so"):
            try:
                cindex.Config.set_library_file(lib)
                cindex.Index.create()
                break
            except Exception:
                cindex.Config.loaded = False
        else:
            return None
    return cindex


def _clang_rel(root, cursor):
    if cursor.location.file is None:
        return None
    path = os.path.abspath(cursor.location.file.name)
    if not path.startswith(root + os.sep):
        return None
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    if not rel.startswith(SOURCE_DIRS):
        return None
    return rel


def _tokens_text(cursor):
    return " ".join(t.spelling for t in cursor.get_tokens())


def run_libclang_engine(root, compile_commands_dir, findings):
    cindex = load_libclang()
    if cindex is None:
        raise RuntimeError(
            "libclang engine requested but python clang bindings are "
            "unavailable (install python3-clang + libclang)")
    db = cindex.CompilationDatabase.fromDirectory(compile_commands_dir)
    index = cindex.Index.create()
    CursorKind = cindex.CursorKind

    seen_tus = set()
    raw_sync_hits = set()
    guarded_hits = set()
    discard_hits = set()
    unranked_hits = set()

    def class_has_mutex(cursor):
        for child in cursor.get_children():
            if child.kind == CursorKind.FIELD_DECL and \
                    "Mutex" in child.type.spelling and \
                    "GUARDED_BY" not in _tokens_text(child):
                return True
        return False

    def visit(cursor, parent_kind):
        rel = _clang_rel(root, cursor)
        if cursor.kind in (CursorKind.VAR_DECL, CursorKind.FIELD_DECL) and rel:
            spelling = cursor.type.spelling
            for token in RAW_SYNC_TOKENS:
                if token in spelling and rel not in RAW_SYNC_EXEMPT:
                    raw_sync_hits.add((rel, token))
            if re.search(r"\bMutex\b", spelling) and \
                    "*" not in spelling and "&" not in spelling and \
                    rel not in RAW_SYNC_EXEMPT and \
                    "LockRank" not in _tokens_text(cursor):
                unranked_hits.add((rel, cursor.spelling))
        if cursor.kind in (CursorKind.CLASS_DECL, CursorKind.STRUCT_DECL) and \
                rel and cursor.is_definition() and class_has_mutex(cursor):
            for field in cursor.get_children():
                if field.kind != CursorKind.FIELD_DECL:
                    continue
                type_text = field.type.spelling
                if SELF_SYNC_TYPE_RE.search(type_text):
                    continue
                if field.type.is_const_qualified() or "const " in type_text:
                    continue
                if "GUARDED_BY" in _tokens_text(field) or \
                        any(a.kind == CursorKind.UNEXPOSED_ATTR
                            for a in field.get_children()):
                    continue
                guarded_hits.add(
                    (rel, "%s::%s" % (cursor.spelling, field.spelling)))
        if cursor.kind == CursorKind.COMPOUND_STMT:
            for stmt in cursor.get_children():
                call = stmt
                while call.kind == CursorKind.UNEXPOSED_EXPR:
                    children = list(call.get_children())
                    if len(children) != 1:
                        break
                    call = children[0]
                if call.kind != CursorKind.CALL_EXPR:
                    continue
                result = call.type.spelling
                if not re.search(r"\b(Status|Result<)", result):
                    continue
                crel = _clang_rel(root, call)
                if crel is None or "IgnoreError" in _tokens_text(call):
                    continue
                discard_hits.add((crel, call.spelling or "<call>"))
        for child in cursor.get_children():
            visit(child, cursor.kind)

    for rel in iter_source_files(root):
        if not rel.endswith(".cc"):
            continue
        path = os.path.join(root, rel)
        commands = db.getCompileCommands(path)
        if not commands:
            continue
        args = [a for a in list(commands[0].arguments)[1:]
                if a not in ("-c", path) and not a.startswith("-o")]
        tu = index.parse(path, args=args)
        fatal = [d for d in tu.diagnostics if d.severity >= 4]
        if fatal:
            raise RuntimeError("libclang failed on %s: %s" %
                               (rel, fatal[0].spelling))
        if tu.spelling in seen_tus:
            continue
        seen_tus.add(tu.spelling)
        visit(tu.cursor, None)

    for rel, token in sorted(raw_sync_hits):
        findings.append(Finding("raw-sync", rel, token,
                                "raw %s; use annotated wrappers" % token))
    for rel, symbol in sorted(guarded_hits):
        findings.append(Finding("guarded-member", rel, symbol,
                                "mutable member of a Mutex-holding class "
                                "lacks GUARDED_BY"))
    for rel, name in sorted(discard_hits):
        findings.append(Finding("discarded-status", rel, name,
                                "Status/Result of %s() discarded" % name))
    for rel, name in sorted(unranked_hits):
        findings.append(Finding("unranked-mutex", rel, name,
                                "Mutex %s constructed without a LockRank; "
                                "lockdep cannot order it" % name))


# ---------------------------------------------------------------------------
# Engine driver + baseline
# ---------------------------------------------------------------------------


def run_text_engine(root, findings):
    files = list(iter_source_files(root))
    check_raw_sync_text(root, files, findings)
    check_unranked_mutex_text(root, files, findings)
    check_guarded_member_text(root, files, findings)
    check_discarded_status_text(root, files, findings)


def load_baseline(path):
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                entries.append(line)
    return entries


def write_baseline(path, ids):
    with open(path, "w", encoding="utf-8") as f:
        f.write("# Suppressed tools/analyze.py findings. CI only lets this\n"
                "# file shrink: new findings must be fixed (or deliberately\n"
                "# added here in the same review), and entries that stop\n"
                "# firing must be deleted. Format: check:path:symbol\n")
        for fid in sorted(ids):
            f.write(fid + "\n")


def dedupe(findings):
    seen = set()
    out = []
    for f in findings:
        if f.id not in seen:
            seen.add(f.id)
            out.append(f)
    return out


def apply_baseline(findings, baseline):
    suppressed = set(baseline)
    new = [f for f in findings if f.id not in suppressed]
    fired = {f.id for f in findings}
    stale = sorted(s for s in suppressed if s not in fired)
    return new, stale


# ---------------------------------------------------------------------------
# Self-test fixtures: one deliberate violation per check.
# ---------------------------------------------------------------------------

_FIXTURES = {
    "src/bad_raw_sync.h": """
#pragma once
#include <mutex>
struct BadRawSync {
  std::mutex raw_mu;
};
""",
    "src/bad_guarded.h": """
#pragma once
struct Mutex {};
#define GUARDED_BY(x)
class BadGuarded {
 public:
  int Get();
 private:
  Mutex mu_{LockRank::kLogSink, "log.sink"};
  int guarded_ GUARDED_BY(mu_) = 0;
  int unguarded_counter = 0;
};
""",
    "src/bad_unranked.h": """
#pragma once
struct NoRank {
  Mutex no_rank_mu_;
  Mutex ranked_mu_{LockRank::kLogSink, "log.sink"};
};
""",
    "src/bad_discard.h": """
#pragma once
struct Status { void IgnoreError() const {} };
Status MightFail(int x);
""",
    "src/bad_discard.cc": """
#include "src/bad_discard.h"
void Caller() {
  MightFail(1);
  MightFail(2).IgnoreError();
  Status kept = MightFail(3);
  (void)kept;
}
""",
    "src/runtime/wire_format.h": """
#pragma once
struct WireEncoder {
  void EncodeJob(int j);
  void EncodeOrphan(int o);
};
struct WireDecoder {
  int DecodeJob();
  int DecodeWidow();
};
""",
}

_EXPECTED_SELF_TEST = {
    "raw-sync:src/bad_raw_sync.h:std::mutex",
    "guarded-member:src/bad_guarded.h:BadGuarded::unguarded_counter",
    "discarded-status:src/bad_discard.cc:MightFail",
    "encode-decode:src/runtime/wire_format.h:EncodeOrphan",
    "encode-decode:src/runtime/wire_format.h:DecodeWidow",
    "unranked-mutex:src/bad_unranked.h:no_rank_mu_",
}

_FORBIDDEN_SELF_TEST_SYMBOLS = (
    # Correctly handled cases must NOT fire.
    "BadGuarded::guarded_",
    "BadGuarded::mu_",
    "EncodeJob",
    "DecodeJob",
    "ranked_mu_",
)


def run_self_test():
    with tempfile.TemporaryDirectory(prefix="analyze_selftest_") as tmp:
        for rel, content in _FIXTURES.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        for d in SOURCE_DIRS:
            os.makedirs(os.path.join(tmp, d), exist_ok=True)
        findings = []
        run_text_engine(tmp, findings)
        check_encode_decode(tmp, findings)
        got = {f.id for f in findings}
        missing = _EXPECTED_SELF_TEST - got
        unexpected = {fid for fid in got
                      if any(sym in fid
                             for sym in _FORBIDDEN_SELF_TEST_SYMBOLS)}
        ok = True
        if missing:
            print("self-test FAILED: expected findings not produced:")
            for fid in sorted(missing):
                print("  " + fid)
            ok = False
        if unexpected:
            print("self-test FAILED: false positives on clean fixtures:")
            for fid in sorted(unexpected):
                print("  " + fid)
            ok = False
        if ok:
            print("self-test passed: %d fixture findings, %d expected" %
                  (len(got), len(_EXPECTED_SELF_TEST)))
        return 0 if ok else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root (default: repo of this script)")
    parser.add_argument("--engine", choices=("auto", "libclang", "text"),
                        default="auto",
                        help="auto prefers libclang, falls back to text")
    parser.add_argument("--compile-commands", default=None,
                        help="directory containing compile_commands.json "
                             "(default: <root>/build)")
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: tools/analyze_baseline"
                             ".txt under --root)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from current findings")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixtures and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test()

    root = os.path.abspath(args.root)
    baseline_path = args.baseline or os.path.join(root, "tools",
                                                  "analyze_baseline.txt")
    cc_dir = args.compile_commands or os.path.join(root, "build")

    engine = args.engine
    if engine == "auto":
        if load_libclang() is not None and \
                os.path.exists(os.path.join(cc_dir, "compile_commands.json")):
            engine = "libclang"
        else:
            print("note: libclang unavailable; using the text engine "
                  "(CI runs --engine libclang)")
            engine = "text"

    findings = []
    if engine == "libclang":
        run_libclang_engine(root, cc_dir, findings)
    else:
        run_text_engine(root, findings)
    check_encode_decode(root, findings)
    findings = dedupe(findings)

    if args.update_baseline:
        write_baseline(baseline_path, {f.id for f in findings})
        print("baseline updated: %d entries -> %s" %
              (len(findings), os.path.relpath(baseline_path, root)))
        return 0

    baseline = load_baseline(baseline_path)
    new, stale = apply_baseline(findings, baseline)

    rc = 0
    if new:
        print("analyze.py [%s engine]: %d new finding(s):" %
              (engine, len(new)))
        for f in new:
            print("  %r" % f)
        rc = 1
    if stale:
        print("analyze.py: %d stale baseline entr%s (no longer firing — "
              "delete from %s):" %
              (len(stale), "y" if len(stale) == 1 else "ies",
               os.path.relpath(baseline_path, root)))
        for fid in stale:
            print("  " + fid)
        rc = 1
    if rc == 0:
        print("analyze.py [%s engine]: clean (%d suppressed by baseline)" %
              (engine, len(baseline)))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
