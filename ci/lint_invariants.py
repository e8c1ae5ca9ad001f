#!/usr/bin/env python3
"""Repo-invariant linter: structural rules a compiler cannot check.

Six rules, each encoding an invariant this codebase has been burned by
(or nearly so). The linter is a tripwire, not a proof: it is regex- and
token-based, deliberately simple, and errs toward false negatives over
false positives so it can run with zero suppressions on a clean tree.

  snapshot-coverage   Every data member of a SaveState()-bearing class
                      must appear in that class's SaveState/RestoreState
                      bodies, or carry a `// snapshot: derived` comment
                      (on the declaration line or within the 3 lines
                      above it) declaring it reconstructible. Catches the
                      classic bug: a new member silently missing from
                      snapshots, surfacing as corrupt restores much
                      later.  Second half: every field of the snapshot
                      State structs (and SimSnapshot itself) must be
                      mentioned in the wire codec, so a field cannot be
                      snapshotted in memory but dropped on export.

  error-envelope      The JSON error envelope {"status":"error",...} is
                      constructed in exactly one place,
                      server::MakeErrorResponse (plus AddErrorDetail for
                      details). Hand-rolled envelopes drift from the
                      documented shape and break clients keying on
                      error.retryable.

  metric-naming       JSON metric names are camelCase, dot-separated.
                      The Prometheus renderer (obs/registry.cpp) is the
                      single snake_case surface; a snake_case name
                      registered anywhere else would round-trip through
                      PrometheusName() into a different identifier than
                      its JSON spelling.

  mutex-guard         Concurrency passes through common/sync.h: raw
                      std::mutex / std::condition_variable /
                      std::lock_guard / std::unique_lock are invisible
                      to Clang's thread-safety analysis, so they are
                      banned outside the wrapper header. And a class
                      declaring a Mutex member must GUARDED_BY-annotate
                      at least one field with it — an unused capability
                      is either dead code or unprotected data.

  thread-spawn        std::thread / std::jthread / std::async appear in
                      src/ only where THREAD_ALLOW says: a whole file, or
                      the body of one named function. Every other
                      concurrency mechanism must show a bench that it
                      pays for itself, so a new thread in the router, a
                      lane or the gateway's request path becomes a
                      reviewed change to the allowlist.

  reply-bytes         No Dump() in src/gateway/. Replies reach the
                      gateway as frame bytes (server::Reply) and leave it
                      as the same bytes; its own small answers (hello,
                      shed, quota) become a Reply through
                      server::ToReply. A Dump() there means a reply is
                      being re-rendered on the single I/O thread.

Usage: python3 ci/lint_invariants.py [--root DIR] [--rule NAME]...
Exits 0 when clean, 1 with one `path:line: [rule] message` per finding.
"""

import argparse
import os
import re
import sys

# Paths (relative to --root) with special roles.
CODEC_PATH = "src/snapshot/codec.cpp"
ERROR_ENVELOPE_ALLOW = {"src/server/api.cpp"}
METRIC_NAME_ALLOW = {"src/obs/registry.cpp"}
RAW_MUTEX_ALLOW = {"src/common/sync.h"}
# path -> None (the whole file) or the qualified name of the one function
# whose body may start threads.
THREAD_ALLOW = {
    "src/gateway/gateway.cpp": None,   # I/O thread + dispatcher pool
    "src/cli/cli.cpp": None,           # --sessions client drivers
    "src/shard/router.cpp": "ShardRouter::FanOut",
}

# Standalone structs whose fields the codec must cover even though they
# carry no SaveState themselves (they *are* the saved state).
EXTRA_STATE_STRUCTS = {"SimSnapshot", "PipelineState"}

# Directories whose code forwards replies as bytes and must not
# serialize a document itself.
REPLY_BYTES_DIRS = ("src/gateway/",)

DERIVED_MARK = "snapshot: derived"
ALL_RULES = ("snapshot-coverage", "error-envelope", "metric-naming",
             "mutex-guard", "thread-spawn", "reply-bytes")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def mask_code(text, keep_strings=False):
    """Returns text of identical length with comments — and, unless
    keep_strings, string/char literals — blanked out (newlines
    preserved) so brace matching and token searches cannot be fooled by
    them."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c in "\"'":
            if keep_strings:
                quote = c
                j = i + 1
                while j < n and text[j] != quote:
                    j += 2 if text[j] == "\\" else 1
                j = min(j + 1, n)
                out.append(text[i:j])
                i = j
                continue
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i > 1
                                                    else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def match_brace(masked, open_idx):
    """Index just past the brace matching masked[open_idx] == '{'."""
    depth = 0
    for i in range(open_idx, len(masked)):
        if masked[i] == "{":
            depth += 1
        elif masked[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(masked)


# `class X {`, `struct X : Base {`, `class CAPABILITY("m") X {`,
# `class [[nodiscard]] X {` — but not `enum class X {`.
CLASS_HEAD_RE = re.compile(
    r"\b(enum\s+)?(?:class|struct)\s+"
    r"(?:(?:\[\[[^\]]*\]\]|alignas\s*\([^)]*\)"
    r"|[A-Z_][A-Z0-9_]*(?:\s*\([^)]*\))?)\s+)*"
    r"([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^{;]*)?\{")


def iter_classes(masked):
    """Yields (name, body_start, body_end) for every class/struct
    definition in masked text, including nested ones."""
    for m in CLASS_HEAD_RE.finditer(masked):
        if m.group(1):  # enum class
            continue
        open_idx = m.end() - 1
        yield m.group(2), open_idx + 1, match_brace(masked, open_idx) - 1


def line_of(text, idx):
    return text.count("\n", 0, idx) + 1


# A data-member declaration: a type, then one or more declarators ending
# in `_`, then `;`. Lines with parentheses (methods, calls) or keywords
# are skipped.
MEMBER_LINE_SKIP = re.compile(
    r"^\s*(?:using|typedef|friend|return|public|private|protected|static"
    r"\s+constexpr|template)\b|[()]")
MEMBER_NAME_RE = re.compile(
    r"(?:[\w>\],]\s+|\*|&)([A-Za-z_]\w*_)\s*"
    r"(?:=[^,;{]*|\{[^}]*\})?\s*[,;]")
FIELD_NAME_RE = re.compile(
    r"(?:[\w>\],]\s+|\*|&)([A-Za-z_]\w*)\s*"
    r"(?:=[^,;{]*|\{[^}]*\})?\s*[,;]")


def iter_member_names(text, masked, body_start, body_end, name_re):
    """Yields (name, line_no) for member declarations inside a class
    body, matched with name_re on masked lines."""
    body = masked[body_start:body_end]
    offset = body_start
    for raw in body.split("\n"):
        line = raw
        if line.strip() and not MEMBER_LINE_SKIP.search(line):
            for m in name_re.finditer(line):
                yield m.group(1), line_of(text, offset + m.start(1))
        offset += len(raw) + 1


def is_allowlisted(lines, line_no):
    """True when DERIVED_MARK appears on the declaration line or within
    the 3 lines above it (1-based line_no)."""
    lo = max(0, line_no - 4)
    return any(DERIVED_MARK in lines[i] for i in range(lo, line_no))


def function_body_text(masked, class_body, names):
    """Concatenated bodies of the named methods inside a class body (a
    slice of masked text)."""
    out = []
    for name in names:
        for m in re.finditer(r"\b" + name + r"\s*\(", class_body):
            close = class_body.find(")", m.end())
            if close == -1:
                continue
            brace = class_body.find("{", close)
            semi = class_body.find(";", close)
            if brace == -1 or (semi != -1 and semi < brace):
                continue  # declaration only; body lives in the .cpp
            out.append(class_body[brace:match_brace(class_body, brace)])
    return "\n".join(out)


def out_of_line_bodies(cpp_masked, class_name, names):
    """Bodies of `Class::SaveState...` definitions in a masked .cpp."""
    out = []
    for name in names:
        pat = re.compile(r"\b" + class_name + r"::" + name + r"\s*\(")
        for m in pat.finditer(cpp_masked):
            brace = cpp_masked.find("{", m.end())
            if brace == -1:
                continue
            out.append(cpp_masked[brace:match_brace(cpp_masked, brace)])
    return "\n".join(out)


STATE_METHODS = ("SaveStateImpl", "SaveState", "RestoreState")


def check_snapshot_coverage(files, root, findings):
    codec_path = os.path.join(root, CODEC_PATH)
    codec_text = ""
    if os.path.exists(codec_path):
        with open(codec_path, encoding="utf-8", errors="replace") as f:
            codec_text = mask_code(f.read())

    for rel, text, masked, nostr in files:
        if not rel.endswith(".h"):
            continue
        lines = text.split("\n")
        cpp_masked = ""
        cpp_rel = rel[:-2] + ".cpp"
        for other_rel, _, other_masked, _n in files:
            if other_rel == cpp_rel:
                cpp_masked = other_masked
        for name, start, end in iter_classes(masked):
            body = masked[start:end]
            has_save = re.search(r"\bSaveState(?:Impl)?\s*\(", body)
            is_state_struct = name in EXTRA_STATE_STRUCTS or (
                name == "State" and has_save is None)
            if has_save:
                coverage = (
                    function_body_text(masked, body, STATE_METHODS)
                    + out_of_line_bodies(cpp_masked, name, STATE_METHODS))
                if re.search(r"return\s*\*\s*this", coverage):
                    continue  # the whole object is the state
                for member, line_no in iter_member_names(
                        text, masked, start, end, MEMBER_NAME_RE):
                    if re.search(r"\b" + member + r"\b", coverage):
                        continue
                    if is_allowlisted(lines, line_no):
                        continue
                    findings.append(Finding(
                        rel, line_no, "snapshot-coverage",
                        f"member '{member}' of snapshottable class "
                        f"'{name}' is neither saved/restored by its "
                        f"SaveState/RestoreState nor marked "
                        f"'// {DERIVED_MARK}'"))
            elif is_state_struct and codec_text:
                for field, line_no in iter_member_names(
                        text, masked, start, end, FIELD_NAME_RE):
                    if re.search(r"\b" + field + r"\b", codec_text):
                        continue
                    if is_allowlisted(lines, line_no):
                        continue
                    findings.append(Finding(
                        rel, line_no, "snapshot-coverage",
                        f"snapshot field '{field}' of '{name}' never "
                        f"appears in {CODEC_PATH} — it would be saved "
                        f"in memory but dropped by export/import"))


ENVELOPE_RES = (
    re.compile(r'Set\s*\(\s*"status"\s*,\s*"error"'),
    re.compile(r'"status"\s*:\s*"error"'),
)


def check_error_envelope(files, root, findings):
    for rel, text, _, nostr in files:
        if rel in ERROR_ENVELOPE_ALLOW:
            continue
        for pat in ENVELOPE_RES:
            for m in pat.finditer(nostr):
                findings.append(Finding(
                    rel, line_of(text, m.start()), "error-envelope",
                    "error envelope constructed by hand; use "
                    "server::MakeErrorResponse / AddErrorDetail so the "
                    "shape (error.kind/message/retryable/details) stays "
                    "uniform"))


METRIC_RE = re.compile(r'Get(?:Counter|Gauge|Histogram)\s*\(\s*"([^"]*)"')


def check_metric_naming(files, root, findings):
    for rel, text, _, nostr in files:
        if rel in METRIC_NAME_ALLOW:
            continue
        for m in METRIC_RE.finditer(nostr):
            if "_" in m.group(1):
                findings.append(Finding(
                    rel, line_of(text, m.start()), "metric-naming",
                    f"metric name '{m.group(1)}' is snake_case; JSON "
                    f"metric names are camelCase dot-separated — the "
                    f"Prometheus renderer is the only snake_case "
                    f"surface"))


RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|condition_variable(?:_any)?|lock_guard|unique_lock"
    r"|scoped_lock|shared_mutex)\b")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:rvss::)?Mutex\s+[A-Za-z_]\w*\s*;",
    re.MULTILINE)


def check_mutex_guard(files, root, findings):
    for rel, text, masked, nostr in files:
        if rel in RAW_MUTEX_ALLOW:
            continue
        for m in RAW_SYNC_RE.finditer(masked):
            findings.append(Finding(
                rel, line_of(text, m.start()), "mutex-guard",
                f"raw std::{m.group(1)} is invisible to thread-safety "
                f"analysis; use rvss::Mutex / MutexLock / CondVar from "
                f"common/sync.h"))
        for name, start, end in iter_classes(masked):
            body = masked[start:end]
            mutex = MUTEX_MEMBER_RE.search(body)
            if mutex and "GUARDED_BY" not in body:
                findings.append(Finding(
                    rel, line_of(text, start + mutex.start()),
                    "mutex-guard",
                    f"class '{name}' declares a Mutex member but no "
                    f"GUARDED_BY field; annotate the data the mutex "
                    f"protects (see docs/static_analysis.md)"))


THREAD_RE = re.compile(r"\bstd::(thread|jthread|async)\b")


def function_spans(masked, qualified_name):
    """(start, end) of every definition of `qualified_name` — from its
    name to the end of its body — in masked text."""
    spans = []
    pat = re.compile(r"\b" + re.escape(qualified_name) + r"\s*\(")
    for m in pat.finditer(masked):
        brace = masked.find("{", m.end())
        semi = masked.find(";", m.end())
        if brace == -1 or (semi != -1 and semi < brace):
            continue  # a declaration or a call, not a definition
        spans.append((m.start(), match_brace(masked, brace)))
    return spans


def check_thread_spawn(files, root, findings):
    for rel, text, masked, nostr in files:
        if rel in THREAD_ALLOW and THREAD_ALLOW[rel] is None:
            continue
        allowed = (function_spans(masked, THREAD_ALLOW[rel])
                   if rel in THREAD_ALLOW else [])
        for m in THREAD_RE.finditer(masked):
            if any(lo <= m.start() < hi for lo, hi in allowed):
                continue
            findings.append(Finding(
                rel, line_of(text, m.start()), "thread-spawn",
                f"std::{m.group(1)} outside the thread allowlist; a new "
                f"thread must show a bench that it pays for itself and "
                f"be added to THREAD_ALLOW in ci/lint_invariants.py"))


DUMP_RE = re.compile(r"(?:\.|->)\s*Dump(?:Pretty)?\s*\(")


def check_reply_bytes(files, root, findings):
    for rel, text, masked, nostr in files:
        if not rel.startswith(REPLY_BYTES_DIRS):
            continue
        for m in DUMP_RE.finditer(masked):
            findings.append(Finding(
                rel, line_of(text, m.start()), "reply-bytes",
                "Dump() in the gateway: replies pass through as frame "
                "bytes (server::Reply); build the gateway's own answers "
                "with server::ToReply"))


CHECKS = {
    "snapshot-coverage": check_snapshot_coverage,
    "error-envelope": check_error_envelope,
    "metric-naming": check_metric_naming,
    "mutex-guard": check_mutex_guard,
    "thread-spawn": check_thread_spawn,
    "reply-bytes": check_reply_bytes,
}


def collect_files(root):
    files = []
    src = os.path.join(root, "src")
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            if not name.endswith((".h", ".cpp")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
            files.append(
                (rel, text, mask_code(text),
                 mask_code(text, keep_strings=True)))
    return files


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repo root (contains src/)")
    parser.add_argument("--rule", action="append", choices=ALL_RULES,
                        help="run only these rules (default: all)")
    args = parser.parse_args(argv)

    files = collect_files(args.root)
    if not files:
        print(f"lint_invariants: no sources under {args.root}/src",
              file=sys.stderr)
        return 2

    findings = []
    for rule in (args.rule or ALL_RULES):
        CHECKS[rule](files, args.root, findings)

    for finding in sorted(findings, key=lambda f: (f.path, f.line)):
        print(finding)
    if findings:
        print(f"lint_invariants: {len(findings)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
