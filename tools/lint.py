#!/usr/bin/env python3
"""Repo lint: determinism and hygiene rules clang-tidy cannot express.

Hyper-Tune's golden-history tests pin bit-reproducibility: a run is a pure
function of its seed. That property dies the moment library code reads a
wall clock, an OS entropy source, or the C rand() state — so those are
banned at lint time, everywhere except the two files whose *job* is to
touch them:

  wallclock    std::chrono clock reads (steady_clock, system_clock,
               high_resolution_clock) are allowed only in the real-time
               backends — src/runtime/thread_cluster.cc,
               src/runtime/process_cluster.cc, and the worker binary
               src/runtime/worker_main.cc — and src/obs/clock.cc, the
               observability layer's single sanctioned monotonic-clock
               seam (TraceRecorder's default clock; the cluster backends
               override it with their own). The simulator and every
               scheduler/sampler must use simulated time and recorded
               timestamps only.
  unseeded-rng std::random_device, rand(), srand(), time() are allowed
               only in src/common/rng.cc. All randomness flows from the
               run seed through hypertune::Rng.
  std-engine   std::mt19937, std::mt19937_64, std::minstd_rand*,
               std::ranlux*, std::knuth_b and std::default_random_engine
               are allowed only in src/common/rng.{h,cc}. Library
               randomness stays on Rng's one engine, which tests/rng_test.cc
               pins to std::mt19937_64's stream; a second engine, or a std
               algorithm fed one, would tie draws to the standard library's
               version. Tests and benches keep the standard engines as
               their references.
  raw-stdout   std::cout / printf in library code corrupts machine-read
               report output and interleaves under threads; stdout
               belongs to src/report (and examples/, which the rule does
               not cover). Library diagnostics go through HT_LOG.
  transition-sink
               under src/runtime/, only attempt_ledger.cc writes the
               attempt lifecycle's sinks. It alone calls RunJournal's
               transition hooks (Decision through Speculate,
               MaybeCheckpoint, RunEnd) and records the twelve job and
               worker lifecycle trace kinds (TraceKind::kJobLaunch
               through kQuarantineEnd, kPromotion aside). A backend
               reports what happened to the ledger, which journals,
               traces, counts and records each transition in one place,
               so metrics equal RunResult counters by construction. The
               process backend keeps its mechanism events (kProcessSpawn,
               kProcessExit, kHeartbeatMiss). tests/ is not covered.
  header-guard every header under src/ carries the canonical
               HYPERTUNE_<PATH>_H_ guard (no #pragma once).
  include-order the first include of src/<d>/<f>.cc is its own header
               src/<d>/<f>.h, and every contiguous block of #include
               lines is sorted within its group.

Escape hatch: a line-level annotation `// lint: allow(<rule>)` suppresses
one rule on that line; `// lint: allow-file(<rule>)` anywhere in a file
suppresses the rule for the whole file. Every allowance is deliberate and
reviewable — grep for "lint: allow".

A second mode, `--validate-trace PATH`, checks an exported Chrome trace
(src/obs/chrome_trace.h) instead of the source tree: the JSON must be an
object with a `traceEvents` list, every event needs name/ph/ts/pid/tid
with a known phase, B/E driver spans must nest per track, and every
complete (`X`) job slice needs a non-negative duration plus job_id and
outcome args — the exporter's launch/terminal pairing made visible. CI
runs an observability-enabled example and feeds its trace through here.

A third mode, `--validate-bench PATH`, checks a BENCH_*.json report
(written by bench_micro): a top-level object with schema_version 1 and a
non-empty `benchmarks` list whose entries carry a unique non-empty string
`name`, integer `iterations` > 0, numeric `ns_per_op` >= 0, and — when
present — a numeric `items_per_second` or `events_per_second` >= 0. CI's
bench-smoke job runs `bench_micro --quick` and feeds the output through
here before uploading it as an artifact.

A fourth mode, `--ratchet-bench CURRENT BASELINE`, turns the committed
BENCH_micro.json into a performance ratchet: every benchmark present in
both reports must not be slower in CURRENT than BASELINE by more than the
noise band (`--ratchet-tolerance`, default 2.0x — generous because CI
machines are shared and the quick kernels are nanosecond-scale). Names
only in the baseline are reported but tolerated, so `--quick` subsets
ratchet the kernels they cover; names only in CURRENT are new benchmarks
and pass (they join the ratchet when the baseline is regenerated). An
empty intersection fails: a ratchet that compares nothing guards nothing.
Both reports must also cover the GP and flagship surrogate kernels, the
fresh Rng stream, the async checkpoint and the contract checker
(REQUIRED_RATCHET_KERNELS) — a baseline regenerated without them, or a
`--quick` filter that stops running one, would silently stop guarding
those speedups.

Usage: python3 tools/lint.py [--root DIR]   (exit 1 on any violation)
       python3 tools/lint.py --validate-trace PATH
       python3 tools/lint.py --validate-bench PATH
       python3 tools/lint.py --ratchet-bench CURRENT BASELINE
"""

import argparse
import json
import os
import re
import sys

SOURCE_DIRS = ("src", "tests", "bench", "examples")
SOURCE_EXTS = (".h", ".cc", ".cpp")

ALLOW_LINE = re.compile(r"//\s*lint:\s*allow\(([a-z\-]+)\)")
ALLOW_FILE = re.compile(r"//\s*lint:\s*allow-file\(([a-z\-]+)\)")
INCLUDE = re.compile(r'^#include\s+([<"])([^">]+)[">]')

# (rule, regex, message). Patterns use lookbehinds so e.g. end_time( or
# fputs( never trip the bans on time( and puts(.
DETERMINISM_RULES = [
    ("wallclock", re.compile(r"steady_clock|system_clock|high_resolution_clock"),
     "wall-clock reads are allowed only in src/runtime/thread_cluster.cc; "
     "use simulated time / recorded timestamps"),
    ("unseeded-rng", re.compile(r"std::random_device"),
     "OS entropy breaks seed-reproducibility; derive from hypertune::Rng"),
    ("unseeded-rng", re.compile(r"(?<![\w:.])s?rand\s*\("),
     "C rand()/srand() is hidden global state; derive from hypertune::Rng"),
    ("unseeded-rng", re.compile(r"(?<![\w:.>])time\s*\("),
     "time() is nondeterministic; runs must be pure functions of the seed"),
    ("std-engine",
     re.compile(r"std::(mt19937(_64)?|minstd_rand0?|ranlux\w*|knuth_b|"
                r"default_random_engine)\b"),
     "standard engines are allowed only in src/common/rng.{h,cc}; draw "
     "through hypertune::Rng (Next64() for a raw 64-bit value)"),
    ("raw-stdout", re.compile(r"std::cout"),
     "library code must not write stdout (reports own it); use HT_LOG"),
    ("raw-stdout", re.compile(r"(?<![\w:.])f?printf\s*\("),
     "library code must not printf; use HT_LOG or src/report streams"),
]

# file-relative path prefixes exempt from a rule (the files whose job it is)
RULE_EXEMPT = {
    "wallclock": ("src/runtime/thread_cluster.cc",
                  "src/runtime/process_cluster.cc",
                  "src/runtime/worker_main.cc", "src/obs/clock.cc"),
    "unseeded-rng": ("src/common/rng.cc",),
    "std-engine": ("src/common/rng.h", "src/common/rng.cc"),
    "raw-stdout": ("src/report/",),
}
# Determinism rules police the library only; tests/bench/examples may time
# themselves and print freely.
DETERMINISM_SCOPE = "src/"

# transition-sink: the attempt ledger's journal hooks and lifecycle trace
# kinds, reserved under src/runtime/ for the ledger itself.
TRANSITION_SINK_SCOPE = "src/runtime/"
TRANSITION_SINK_OWNER = "src/runtime/attempt_ledger.cc"
JOURNAL_TRANSITION_HOOKS = (
    "Decision", "Launch", "Complete", "Failed", "Requeue", "Abandon",
    "WorkerDeath", "WorkerRecover", "QuarantineBegin", "QuarantineEnd",
    "Speculate", "MaybeCheckpoint", "RunEnd")
LIFECYCLE_TRACE_KINDS = (
    "kJobLaunch", "kJobComplete", "kJobFailed", "kJobTruncated",
    "kJobRequeued", "kJobAbandoned", "kSpeculativeLaunch",
    "kSpeculativeCopyLost", "kWorkerDeath", "kWorkerRecover",
    "kQuarantineBegin", "kQuarantineEnd")
TRANSITION_SINK_RULES = [
    (re.compile(r"journal\w*\s*(?:->|\.)\s*(?:%s)\s*\("
                % "|".join(JOURNAL_TRANSITION_HOOKS), re.IGNORECASE),
     "journal transition hooks are called only by the attempt ledger "
     "(src/runtime/attempt_ledger.cc); report the transition to it"),
    (re.compile(r"TraceKind::(?:%s)\b" % "|".join(LIFECYCLE_TRACE_KINDS)),
     "job and worker lifecycle trace events are recorded only by the "
     "attempt ledger (src/runtime/attempt_ledger.cc)"),
]


def iter_source_files(root):
    for top in SOURCE_DIRS:
        top_path = os.path.join(root, top)
        if not os.path.isdir(top_path):
            continue
        for dirpath, _, filenames in os.walk(top_path):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root).replace(os.sep, "/")


def strip_comments_and_strings(line):
    """Best-effort removal of string literals and // comments so banned
    identifiers inside messages or docs do not trip the rules."""
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    line = re.sub(r"'(\\.|[^'\\])*'", "''", line)
    cut = line.find("//")
    if cut >= 0:
        line = line[:cut]
    return line


def check_determinism(relpath, lines, file_allows, report):
    if not relpath.startswith(DETERMINISM_SCOPE):
        return
    for rule, pattern, message in DETERMINISM_RULES:
        if any(relpath.startswith(p) for p in RULE_EXEMPT.get(rule, ())):
            continue
        if rule in file_allows:
            continue
        for lineno, raw in enumerate(lines, 1):
            if rule in ALLOW_LINE_CACHE.get((relpath, lineno), ()):
                continue
            if pattern.search(strip_comments_and_strings(raw)):
                report(relpath, lineno, rule, message)


def check_transition_sinks(relpath, lines, file_allows, report):
    if (not relpath.startswith(TRANSITION_SINK_SCOPE)
            or relpath == TRANSITION_SINK_OWNER
            or "transition-sink" in file_allows):
        return
    for lineno, raw in enumerate(lines, 1):
        if "transition-sink" in ALLOW_LINE_CACHE.get((relpath, lineno), ()):
            continue
        code = strip_comments_and_strings(raw)
        for pattern, message in TRANSITION_SINK_RULES:
            if pattern.search(code):
                report(relpath, lineno, "transition-sink", message)


def expected_guard(relpath):
    stem = relpath[len("src/"):] if relpath.startswith("src/") else relpath
    token = re.sub(r"[^A-Za-z0-9]", "_", stem.upper())
    return "HYPERTUNE_" + re.sub(r"_H$", "_H_", token)


def check_header_guard(relpath, lines, file_allows, report):
    if not relpath.startswith("src/") or not relpath.endswith(".h"):
        return
    if "header-guard" in file_allows:
        return
    guard = expected_guard(relpath)
    for lineno, raw in enumerate(lines, 1):
        if "#pragma once" in raw:
            report(relpath, lineno, "header-guard",
                   "use the %s include guard, not #pragma once" % guard)
            return
        if raw.startswith("#ifndef"):
            if raw.split()[1:2] != [guard]:
                report(relpath, lineno, "header-guard",
                       "guard must be %s" % guard)
            elif lineno < len(lines) and not lines[lineno].startswith(
                    "#define %s" % guard):
                report(relpath, lineno + 1, "header-guard",
                       "#define %s must follow the #ifndef" % guard)
            return
        if raw.startswith("#"):
            break
    report(relpath, 1, "header-guard", "missing %s include guard" % guard)


def check_include_order(relpath, lines, file_allows, report):
    if "include-order" in file_allows:
        return
    includes = []  # (lineno, kind, path)
    for lineno, raw in enumerate(lines, 1):
        m = INCLUDE.match(raw)
        if m:
            includes.append((lineno, m.group(1), m.group(2)))

    if relpath.endswith((".cc", ".cpp")) and includes:
        own = re.sub(r"\.(cc|cpp)$", ".h", relpath)
        if own != relpath and os.path.exists(os.path.join(ROOT, own)):
            first = includes[0]
            if first[2] != own:
                report(relpath, first[0], "include-order",
                       "first include must be the file's own header %s" % own)
            else:
                includes = includes[1:]  # own header is its own group

    # Contiguous include lines form a block; within a block each kind
    # (system vs project) must be internally sorted.
    block = []
    prev_lineno = None

    def flush():
        for kind in ('<', '"'):
            paths = [(ln, p) for ln, k, p in block if k == kind]
            for (ln_a, a), (ln_b, b) in zip(paths, paths[1:]):
                if (ln_a, a) in INCLUDE_ALLOWED or (ln_b, b) in INCLUDE_ALLOWED:
                    continue
                if a > b:
                    report(relpath, ln_b, "include-order",
                           '"%s" sorts before "%s"' % (b, a))
        block.clear()

    for entry in includes:
        lineno = entry[0]
        if prev_lineno is not None and lineno != prev_lineno + 1:
            flush()
        block.append(entry)
        prev_lineno = lineno
    flush()


TRACE_PHASES = {"B", "E", "X", "i", "M"}


def validate_trace(path):
    """Validate an exported Chrome trace: schema + paired/nested events.

    Returns a list of violation strings (empty means the trace is valid).
    """
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        return ["%s: not readable JSON: %s" % (path, exc)]

    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        return ["%s: top level must be an object with a traceEvents list"
                % path]
    if not events:
        return ["%s: traceEvents is empty" % path]

    open_spans = {}  # tid -> stack of B-span names
    slices = {}      # tid -> list of (ts, dur) for X events
    for i, ev in enumerate(events):
        where = "%s: traceEvents[%d]" % (path, i)
        if not isinstance(ev, dict):
            errors.append("%s: event must be an object" % where)
            continue
        missing = [k for k in ("name", "ph", "ts", "pid", "tid")
                   if k not in ev]
        if missing:
            errors.append("%s: missing key(s) %s" % (where,
                                                     ", ".join(missing)))
            continue
        ph = ev["ph"]
        if ph not in TRACE_PHASES:
            errors.append("%s: unknown phase %r" % (where, ph))
            continue
        ts = ev["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append("%s: ts must be a non-negative number" % where)
            continue
        tid = ev["tid"]
        if ph == "B":
            open_spans.setdefault(tid, []).append(ev["name"])
        elif ph == "E":
            stack = open_spans.get(tid, [])
            if not stack:
                errors.append("%s: E %r on tid %s without open B span"
                              % (where, ev["name"], tid))
            elif stack[-1] != ev["name"]:
                errors.append("%s: E %r does not close innermost span %r"
                              % (where, ev["name"], stack[-1]))
            else:
                stack.pop()
        elif ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append("%s: X slice needs a non-negative dur"
                              % where)
                continue
            args = ev.get("args")
            if not isinstance(args, dict) or "job_id" not in args \
                    or "outcome" not in args:
                errors.append("%s: X job slice needs args.job_id and "
                              "args.outcome (launch/terminal pairing)"
                              % where)
                continue
            slices.setdefault(tid, []).append((ts, dur))
    for tid, stack in sorted(open_spans.items(), key=lambda kv: str(kv[0])):
        for name in stack:
            errors.append("%s: B span %r on tid %s never closed"
                          % (path, name, tid))
    # Per worker track, job attempts are serial: slices must not overlap.
    for tid, spans in sorted(slices.items(), key=lambda kv: str(kv[0])):
        spans.sort()
        for (ts_a, dur_a), (ts_b, _) in zip(spans, spans[1:]):
            if ts_a + dur_a > ts_b + 1e-6:
                errors.append(
                    "%s: overlapping X slices on tid %s (one worker runs "
                    "one attempt at a time): [%s, %s] vs start %s"
                    % (path, tid, ts_a, ts_a + dur_a, ts_b))
    return errors


def validate_bench(path):
    """Validate a BENCH_*.json microbenchmark report.

    Returns a list of violation strings (empty means the report is valid).
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        return ["%s: not readable JSON: %s" % (path, exc)]

    if not isinstance(doc, dict):
        return ["%s: top level must be an object" % path]
    errors = []
    if doc.get("schema_version") != 1:
        errors.append("%s: schema_version must be 1 (got %r)"
                      % (path, doc.get("schema_version")))
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        errors.append("%s: benchmarks must be a non-empty list" % path)
        return errors

    seen_names = set()
    for i, entry in enumerate(benchmarks):
        where = "%s: benchmarks[%d]" % (path, i)
        if not isinstance(entry, dict):
            errors.append("%s: entry must be an object" % where)
            continue
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            errors.append("%s: name must be a non-empty string" % where)
        elif name in seen_names:
            errors.append("%s: duplicate name %r" % (where, name))
        else:
            seen_names.add(name)
        iterations = entry.get("iterations")
        if not isinstance(iterations, int) or isinstance(iterations, bool) \
                or iterations <= 0:
            errors.append("%s: iterations must be a positive integer"
                          % where)
        ns_per_op = entry.get("ns_per_op")
        if not isinstance(ns_per_op, (int, float)) \
                or isinstance(ns_per_op, bool) or ns_per_op < 0:
            errors.append("%s: ns_per_op must be a non-negative number"
                          % where)
        for rate_key in ("items_per_second", "events_per_second"):
            if rate_key not in entry:
                continue
            rate = entry[rate_key]
            if not isinstance(rate, (int, float)) or isinstance(rate, bool) \
                    or rate < 0:
                errors.append("%s: %s must be a non-negative number"
                              % (where, rate_key))
    return errors


# Kernels both reports must cover for the ratchet to mean anything: the
# GP's batched prediction, update and acquisition sweep (DESIGN.md §13),
# the flagship's forest fit, θ and MFES sample, a fresh Rng's short stream
# (DESIGN.md "Random streams"), an async scheduler's checkpoint, full image
# and delta (DESIGN.md §10), and the contract checker (DESIGN.md §7). A
# report missing one of these (or a parameterized variant, "NAME/64")
# silently un-guards the surrogate, lazy-seeding, delta-checkpoint and
# checker speedup claims, so their absence is an error rather than a skip.
# bench_micro --quick runs every one of them.
REQUIRED_RATCHET_KERNELS = (
    "BM_GpPredictBatch",
    "BM_CholUpdateAppend",
    "BM_AcqSweep",
    "BM_RfFit",
    "BM_RfPredictBatch",
    "BM_FidelityWeights",
    "BM_MfesSample",
    "BM_RngFreshDraws",
    "BM_AsyncCheckpoint",
    "BM_ContractChecker",
)


def ratchet_bench(current_path, baseline_path, tolerance):
    """Compare two BENCH_*.json reports name-by-name as a perf ratchet.

    Returns a list of violation strings (empty means no regression).
    """
    errors = validate_bench(current_path) + validate_bench(baseline_path)
    if errors:
        return errors

    def entries(path):
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        return {e["name"]: e for e in doc["benchmarks"]}

    current = entries(current_path)
    baseline = entries(baseline_path)

    for path, report, remedy in (
            (baseline_path, baseline,
             "regenerate BENCH_micro.json with a full bench_micro run"),
            (current_path, current,
             "bench_micro --quick must run it; see kQuickFilter")):
        for kernel in REQUIRED_RATCHET_KERNELS:
            if not any(name == kernel or name.startswith(kernel + "/")
                       for name in report):
                errors.append("%s: required kernel %s missing (%s)"
                              % (path, kernel, remedy))
    if errors:
        return errors

    compared = 0
    for name in sorted(baseline):
        if name not in current:
            print("ratchet: %s only in baseline (not run here); skipped"
                  % name)
            continue
        base_ns = baseline[name]["ns_per_op"]
        cur_ns = current[name]["ns_per_op"]
        if base_ns <= 0:
            continue
        compared += 1
        ratio = cur_ns / base_ns
        if ratio > tolerance:
            errors.append(
                "%s: %s regressed %.2fx over baseline (%.1f ns/op vs "
                "%.1f ns/op; tolerance %.2fx)"
                % (current_path, name, ratio, cur_ns, base_ns, tolerance))
        else:
            print("ratchet: %s %.2fx of baseline" % (name, ratio))
    for name in sorted(set(current) - set(baseline)):
        print("ratchet: %s is new (no baseline); passes" % name)
    if compared == 0:
        errors.append("%s vs %s: no benchmark names in common — the "
                      "ratchet compared nothing" % (current_path,
                                                    baseline_path))
    return errors


ALLOW_LINE_CACHE = {}
INCLUDE_ALLOWED = set()
ROOT = "."


def main():
    global ROOT
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--validate-trace", metavar="PATH",
                        help="validate an exported Chrome trace JSON "
                             "instead of linting the source tree")
    parser.add_argument("--validate-bench", metavar="PATH",
                        help="validate a BENCH_*.json microbenchmark "
                             "report instead of linting the source tree")
    parser.add_argument("--ratchet-bench", nargs=2,
                        metavar=("CURRENT", "BASELINE"),
                        help="fail when a benchmark in CURRENT regressed "
                             "past the noise band over BASELINE")
    parser.add_argument("--ratchet-tolerance", type=float, default=2.0,
                        help="allowed ns_per_op ratio CURRENT/BASELINE "
                             "before --ratchet-bench fails (default 2.0)")
    args = parser.parse_args()
    ROOT = args.root

    if args.validate_trace:
        trace_errors = validate_trace(args.validate_trace)
        if trace_errors:
            print("\n".join(trace_errors))
            print("\n%d trace violation(s)." % len(trace_errors))
            return 1
        print("trace: OK (%s)" % args.validate_trace)
        return 0

    if args.validate_bench:
        bench_errors = validate_bench(args.validate_bench)
        if bench_errors:
            print("\n".join(bench_errors))
            print("\n%d bench-report violation(s)." % len(bench_errors))
            return 1
        print("bench report: OK (%s)" % args.validate_bench)
        return 0

    if args.ratchet_bench:
        ratchet_errors = ratchet_bench(args.ratchet_bench[0],
                                       args.ratchet_bench[1],
                                       args.ratchet_tolerance)
        if ratchet_errors:
            print("\n".join(ratchet_errors))
            print("\n%d bench-ratchet violation(s)." % len(ratchet_errors))
            return 1
        print("bench ratchet: OK (%s vs %s)" % (args.ratchet_bench[0],
                                                args.ratchet_bench[1]))
        return 0

    violations = []

    def report(relpath, lineno, rule, message):
        violations.append("%s:%d: [%s] %s" % (relpath, lineno, rule, message))

    for relpath in iter_source_files(ROOT):
        with open(os.path.join(ROOT, relpath), encoding="utf-8") as f:
            lines = f.read().splitlines()

        file_allows = set()
        ALLOW_LINE_CACHE.clear()
        INCLUDE_ALLOWED.clear()
        for lineno, raw in enumerate(lines, 1):
            for m in ALLOW_FILE.finditer(raw):
                file_allows.add(m.group(1))
            allowed = tuple(m.group(1) for m in ALLOW_LINE.finditer(raw))
            if allowed:
                ALLOW_LINE_CACHE[(relpath, lineno)] = allowed
                if "include-order" in allowed:
                    m = INCLUDE.match(raw)
                    if m:
                        INCLUDE_ALLOWED.add((lineno, m.group(2)))

        check_determinism(relpath, lines, file_allows, report)
        check_transition_sinks(relpath, lines, file_allows, report)
        check_header_guard(relpath, lines, file_allows, report)
        check_include_order(relpath, lines, file_allows, report)

    if violations:
        print("\n".join(violations))
        print("\n%d lint violation(s). Deliberate exceptions take a "
              "'// lint: allow(<rule>)' annotation." % len(violations))
        return 1
    print("lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
