#!/usr/bin/env python3
"""relview-lint: repository-local static checks for the relview tree.

Complements the compiler-side analyses (clang -Wthread-safety, clang-tidy,
[[nodiscard]]) with project-specific rules the compilers cannot express:

  failpoint-duplicate    every RELVIEW_FAILPOINT site name is unique across
                         the tree (a duplicate would make fault-injection
                         specs ambiguous)
  failpoint-undocumented every RELVIEW_FAILPOINT site name appears in the
                         operator catalog (docs/OPERATIONS.md)
  failpoint-commit-catalog
                         every commit-queue failpoint (`commit.*` — the
                         group-commit path is the one operators reach for
                         first when diagnosing fsync amortization) has a
                         row in the "Failpoint catalog:" table itself, not
                         merely a mention somewhere in the document
  failpoint-stale-catalog
                         every row of the "Failpoint catalog:" table names
                         a RELVIEW_FAILPOINT site that still exists (an
                         operator arming a deleted site gets silence, not
                         a fault)
  failpoint-nonliteral   RELVIEW_FAILPOINT takes a string literal (specs
                         and the catalog are greppable only for literals)
  failpoint-direct-check code outside util/failpoint.* calls
                         Failpoints::Check directly instead of the macro
                         (which the rules above key on)
  naked-std-mutex        src/ uses std::mutex / std::shared_mutex instead
                         of the capability-annotated relview::Mutex /
                         SharedMutex (util/annotations.h), so clang's
                         thread-safety analysis would be blind to it
  unguarded-mutex-member a Mutex/SharedMutex *member* with no
                         RELVIEW_GUARDED_BY / RELVIEW_PT_GUARDED_BY user
                         in the same file (a lock that protects nothing is
                         either dead or missing its annotations)
  value-unchecked        .value() on a Result/optional with no visible
                         ok()/has_value() evidence earlier in the same
                         top-level chunk (use RELVIEW_ASSIGN_OR_RETURN, or
                         check first)
  raw-assert             assert() outside the RELVIEW_DCHECK definition
                         (asserts vanish under NDEBUG; the library's
                         invariants must hold in all build types)
  metric-table           every metric family name in src/ (a "relview_*"
                         string literal) has a row in the
                         "Metric families:" table of docs/OPERATIONS.md,
                         so /metrics and the operator docs cannot drift.
                         A name ending in `_` — in the source or in the
                         table — is a composed-name prefix: the literal
                         `"relview_net_"` is satisfied by any table row
                         it prefixes, and a table row `relview_engine_`
                         covers every family composed from it
  bench-doc              every BENCH_*.json artifact a CI job produces or
                         uploads (any mention in .github/workflows/ci.yml)
                         has a section heading naming it in
                         docs/PERFORMANCE.md, so the performance handbook
                         cannot silently lag the benchmark fleet; headings
                         in the handbook that name artifacts no CI job
                         produces are flagged too (stale section)
  layering               a src/ subdirectory includes a header from a
                         directory its library does not directly link: the
                         include DAG is derived from each
                         src/<dir>/CMakeLists.txt target_link_libraries
                         (direct deps only), so the build graph IS the
                         layering spec — and it must be acyclic

Findings print as `path:line: [rule] message`, one per line. Exit status:
0 = clean, 1 = findings, 2 = usage/setup error.

Suppressing one line: append `// relview-lint: allow(<rule>)` to it. Keep
suppressions rare and justified in an adjacent comment.
"""

import argparse
import os
import re
import sys

# The directory-level include DAG for src/ is *derived*, not hardcoded:
# src/<dir>/CMakeLists.txt's target_link_libraries(relview_<dir> ...) line
# names the directories whose headers <dir> may #include (direct deps
# only — include what you link). Growing an edge is still an intentional,
# reviewable act; it just happens in the CMakeLists that needs it instead
# of a parallel map here that could drift from the build. See
# load_layering_map().
CMAKE_LINK = re.compile(
    r"target_link_libraries\s*\(\s*relview_(\w+)([^)]*)\)", re.S)
CMAKE_LIB_DEP = re.compile(r"\brelview_(\w+)\b")


def strip_cmake_comments(text):
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def load_layering_map(root):
    """Builds {directory: set(directly linked directories)} from every
    src/<dir>/CMakeLists.txt. A directory without a CMakeLists.txt is
    absent (its files get an 'unknown directory' layering finding)."""
    allowed = {}
    src = os.path.join(root, "src")
    for entry in sorted(os.listdir(src)):
        cml = os.path.join(src, entry, "CMakeLists.txt")
        if not os.path.isfile(cml):
            continue
        with open(cml, encoding="utf-8") as f:
            text = strip_cmake_comments(f.read())
        deps = set()
        for m in CMAKE_LINK.finditer(text):
            if m.group(1) != entry:
                continue  # only the directory's own library defines edges
            deps.update(CMAKE_LIB_DEP.findall(m.group(2)))
        deps.discard(entry)
        allowed[entry] = deps
    return allowed


def check_layering_cycles(allowed, findings):
    """The link graph must be a DAG; a cycle would make the layering
    vacuous (and the static libraries unorderable)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {d: WHITE for d in allowed}

    def visit(d, stack):
        color[d] = GRAY
        stack.append(d)
        for dep in sorted(allowed.get(d, ())):
            if dep not in color:
                continue  # non-src library (Threads etc. never match)
            if color[dep] == GRAY:
                cycle = stack[stack.index(dep):] + [dep]
                findings.append(Finding(
                    f"src/{dep}/CMakeLists.txt", 1, "layering",
                    "target_link_libraries cycle: "
                    + " -> ".join(f"src/{c}/" for c in cycle)))
            elif color[dep] == WHITE:
                visit(dep, stack)
        stack.pop()
        color[d] = BLACK

    for d in sorted(allowed):
        if color[d] == WHITE:
            visit(d, [])

FAILPOINT_CALL = re.compile(r'RELVIEW_FAILPOINT\s*\(\s*"([^"]+)"\s*\)')
FAILPOINT_ANY = re.compile(r"RELVIEW_FAILPOINT\s*\(\s*([^)]*)\)")
DIRECT_CHECK = re.compile(r"Failpoints::Check\s*\(")
STD_MUTEX = re.compile(r"\bstd::(?:recursive_|shared_|timed_)?mutex\b")
MUTEX_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?:relview::)?(?:Mutex|SharedMutex)\s+"
    r"(\w*_)\s*(?:RELVIEW_\w+\s*\([^)]*\)\s*)*;"
)
VALUE_CALL = re.compile(r"\.value\s*\(\s*\)")
RAW_ASSERT = re.compile(r"(?<![\w.])assert\s*\(")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
SUPPRESS = re.compile(r"relview-lint:\s*allow\(([\w,\- ]+)\)")

# Tokens accepted as evidence that a .value() call was preceded by a
# success check within the same top-level chunk.
OK_EVIDENCE = re.compile(
    r"\.ok\s*\(|has_value\s*\(|RELVIEW_DCHECK|RELVIEW_ASSIGN_OR_RETURN|"
    r"ASSERT_TRUE|ASSERT_OK|EXPECT_TRUE|CheckOk"
)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(lines):
    """Blanks out // and /* */ comment text, preserving line structure and
    string literals outside comments (a naive scanner: a quote opened on
    one line is assumed closed on it, which holds for this codebase)."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        in_string = False
        while i < len(line):
            c = line[i]
            nxt = line[i + 1] if i + 1 < len(line) else ""
            if in_block:
                if c == "*" and nxt == "/":
                    in_block = False
                    i += 2
                    continue
                i += 1
                continue
            if in_string:
                result.append(c)
                if c == "\\":
                    if nxt:
                        result.append(nxt)
                        i += 2
                        continue
                elif c == '"':
                    in_string = False
                i += 1
                continue
            if c == '"':
                in_string = True
                result.append(c)
                i += 1
                continue
            if c == "/" and nxt == "/":
                break
            if c == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            result.append(c)
            i += 1
        out.append("".join(result))
    return out


def suppressed(raw_line, rule):
    m = SUPPRESS.search(raw_line)
    if not m:
        return False
    rules = {r.strip() for r in m.group(1).split(",")}
    return rule in rules or "all" in rules


def source_files(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith((".h", ".cc")):
                    yield os.path.join(dirpath, name)


def relpath(root, path):
    return os.path.relpath(path, root).replace(os.sep, "/")


CATALOG_ROW_NAME = re.compile(r"^\|\s*`([\w.]+)`")
METRIC_LITERAL = re.compile(r'"(relview_[a-z0-9_]+)"')
TELEMETRY_ROW_NAME = re.compile(r"^\|\s*`(relview_[a-z0-9_]+)`")


def catalog_table_names(catalog):
    """Names with a row in the "Failpoint catalog:" table of
    docs/OPERATIONS.md, mapped to the row's line number — the region from
    that marker line through the last consecutive table/blank line. Prose
    mentions elsewhere in the document do not count for rules keyed on the
    table."""
    names = {}
    in_table = False
    for ln, line in enumerate(catalog.splitlines(), 1):
        if line.strip() == "Failpoint catalog:":
            in_table = True
            continue
        if not in_table:
            continue
        if line.strip() == "":
            continue
        if not line.lstrip().startswith("|"):
            break
        m = CATALOG_ROW_NAME.match(line.strip())
        if m:
            names[m.group(1)] = ln
    return names


def telemetry_table_names(doc):
    """Metric family names with a row in the "Metric families:" table of
    docs/OPERATIONS.md — the region from that marker line through the
    last consecutive table/blank line (same region rule as the failpoint
    catalog). A name ending in `_` is a documented composed-name prefix."""
    names = set()
    in_table = False
    for line in doc.splitlines():
        if line.strip() == "Metric families:":
            in_table = True
            continue
        if not in_table:
            continue
        if line.strip() == "":
            continue
        if not line.lstrip().startswith("|"):
            break
        m = TELEMETRY_ROW_NAME.match(line.strip())
        if m:
            names.add(m.group(1))
    return names


def check_metric_table(root, files, findings):
    """Every "relview_*" string literal in src/ (the convention for metric
    family names handed to the TelemetryRegistry) must be documented in
    the operator-facing telemetry table. Families composed at runtime
    (`std::string("relview_net_") + route + ...`, `"relview_engine_" #name`)
    leave a trailing-underscore literal behind; such a prefix is satisfied
    by any table row it prefixes, and a trailing-underscore *table* row
    blanket-documents everything composed from it."""
    doc = ""
    ops = os.path.join(root, "docs", "OPERATIONS.md")
    if os.path.exists(ops):
        with open(ops, encoding="utf-8") as f:
            doc = f.read()
    if not doc:
        return
    table = telemetry_table_names(doc)
    prefixes = sorted(n for n in table if n.endswith("_"))
    reported = set()
    for path in files:
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
        code = strip_comments(raw)
        for ln, line in enumerate(code, 1):
            for m in METRIC_LITERAL.finditer(line):
                name = m.group(1)
                if name in table or name in reported:
                    continue
                if any(name.startswith(p) for p in prefixes):
                    continue
                if name.endswith("_") and any(
                        t.startswith(name) for t in table):
                    continue  # composition prefix; completions documented
                if suppressed(raw[ln - 1], "metric-table"):
                    continue
                reported.add(name)  # one finding per family, not per use
                findings.append(Finding(
                    rel, ln, "metric-table",
                    f"metric family `{name}` has no row in the "
                    "\"Metric families:\" table of docs/OPERATIONS.md; "
                    "every family exported on /metrics needs an "
                    "operator-facing row (a trailing-underscore name "
                    "documents a composed-name prefix)"))


BENCH_ARTIFACT = re.compile(r"\bBENCH_[A-Za-z0-9_]+\.json\b")


def performance_section_names(doc):
    """Artifact names with a section in docs/PERFORMANCE.md: a markdown
    heading line (any level) that names the BENCH_*.json file. Prose
    mentions elsewhere do not count — the handbook's contract is one
    findable section per artifact."""
    names = set()
    for line in doc.splitlines():
        if line.lstrip().startswith("#"):
            names.update(BENCH_ARTIFACT.findall(line))
    return names


def check_bench_docs(root, findings):
    """Every benchmark artifact CI produces must have a section in the
    performance handbook, and the handbook must not document artifacts CI
    no longer produces. Keyed on .github/workflows/ci.yml because the
    upload steps there are the complete list of what a reader can actually
    download and compare against the handbook."""
    ci = os.path.join(root, ".github", "workflows", "ci.yml")
    if not os.path.exists(ci):
        return
    with open(ci, encoding="utf-8") as f:
        ci_lines = f.read().splitlines()
    doc = ""
    perf = os.path.join(root, "docs", "PERFORMANCE.md")
    if os.path.exists(perf):
        with open(perf, encoding="utf-8") as f:
            doc = f.read()
    sections = performance_section_names(doc)
    produced = {}  # name -> first ci.yml line
    for ln, line in enumerate(ci_lines, 1):
        for name in BENCH_ARTIFACT.findall(line):
            if suppressed(line, "bench-doc"):
                continue
            produced.setdefault(name, ln)
    for name in sorted(produced):
        if name not in sections:
            findings.append(Finding(
                ".github/workflows/ci.yml", produced[name], "bench-doc",
                f"CI produces `{name}` but docs/PERFORMANCE.md has no "
                "section heading naming it; every uploaded benchmark "
                "artifact needs a handbook section (what it measures, "
                "workload, gate, repro, trajectory)"))
    for ln, line in enumerate(doc.splitlines(), 1):
        if not line.lstrip().startswith("#"):
            continue
        for name in BENCH_ARTIFACT.findall(line):
            if name not in produced and not suppressed(line, "bench-doc"):
                findings.append(Finding(
                    "docs/PERFORMANCE.md", ln, "bench-doc",
                    f"section documents `{name}` but no CI job in "
                    ".github/workflows/ci.yml produces it; delete the "
                    "stale section or restore the artifact"))


def check_failpoints(root, files, findings):
    """Site uniqueness, literal-ness, documentation (both directions),
    macro discipline."""
    catalog = ""
    ops = os.path.join(root, "docs", "OPERATIONS.md")
    if os.path.exists(ops):
        with open(ops, encoding="utf-8") as f:
            catalog = f.read()
    table_names = catalog_table_names(catalog)
    seen = {}
    for path in files:
        rel = relpath(root, path)
        defining = rel in ("src/util/failpoint.h", "src/util/failpoint.cc")
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
        code = strip_comments(raw)
        for ln, line in enumerate(code, 1):
            if defining:
                continue
            if DIRECT_CHECK.search(line) and "RELVIEW_FAILPOINT" not in line:
                if not suppressed(raw[ln - 1], "failpoint-direct-check"):
                    findings.append(Finding(
                        rel, ln, "failpoint-direct-check",
                        "call RELVIEW_FAILPOINT(\"name\") instead of "
                        "Failpoints::Check so the site registers with the "
                        "failpoint catalog checks"))
            for m in FAILPOINT_ANY.finditer(line):
                arg = m.group(1).strip()
                lit = FAILPOINT_CALL.match(m.group(0))
                if not lit:
                    if not suppressed(raw[ln - 1], "failpoint-nonliteral"):
                        findings.append(Finding(
                            rel, ln, "failpoint-nonliteral",
                            f"RELVIEW_FAILPOINT argument `{arg}` is not a "
                            "string literal; specs and the operator catalog "
                            "can only reference literal site names"))
                    continue
                name = lit.group(1)
                if name in seen:
                    if not suppressed(raw[ln - 1], "failpoint-duplicate"):
                        first = seen[name]
                        findings.append(Finding(
                            rel, ln, "failpoint-duplicate",
                            f"failpoint site `{name}` already defined at "
                            f"{first[0]}:{first[1]}; site names must be "
                            "unique across the tree"))
                else:
                    seen[name] = (rel, ln)
                    if catalog and name not in catalog:
                        if not suppressed(raw[ln - 1],
                                          "failpoint-undocumented"):
                            findings.append(Finding(
                                rel, ln, "failpoint-undocumented",
                                f"failpoint site `{name}` is not documented "
                                "in docs/OPERATIONS.md (operator catalog)"))
                    if (catalog and name.startswith("commit.")
                            and name not in table_names):
                        if not suppressed(raw[ln - 1],
                                          "failpoint-commit-catalog"):
                            findings.append(Finding(
                                rel, ln, "failpoint-commit-catalog",
                                f"commit-queue failpoint `{name}` needs a "
                                "row in the \"Failpoint catalog:\" table of "
                                "docs/OPERATIONS.md — group-commit sites "
                                "are the first thing operators arm when "
                                "diagnosing fsync amortization, so a prose "
                                "mention is not enough"))
    catalog_lines = catalog.splitlines()
    for name, ln in sorted(table_names.items()):
        if name not in seen and not suppressed(catalog_lines[ln - 1],
                                               "failpoint-stale-catalog"):
            findings.append(Finding(
                "docs/OPERATIONS.md", ln, "failpoint-stale-catalog",
                f"failpoint catalog row `{name}` names no RELVIEW_FAILPOINT "
                "site; delete the row or restore the site"))


def check_mutexes(root, files, findings):
    for path in files:
        rel = relpath(root, path)
        if rel == "src/util/annotations.h":
            continue  # the wrapper itself owns the raw std::mutex
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
        code = strip_comments(raw)
        members = []  # (name, line)
        guarded_users = set()
        for ln, line in enumerate(code, 1):
            if rel.startswith("src/") and STD_MUTEX.search(line):
                if not suppressed(raw[ln - 1], "naked-std-mutex"):
                    findings.append(Finding(
                        rel, ln, "naked-std-mutex",
                        "use relview::Mutex / SharedMutex "
                        "(util/annotations.h) so clang's thread-safety "
                        "analysis sees the capability"))
            m = MUTEX_MEMBER.match(line)
            if m and not suppressed(raw[ln - 1], "unguarded-mutex-member"):
                members.append((m.group(1), ln))
            for g in re.finditer(
                    r"RELVIEW_(?:PT_)?GUARDED_BY\s*\(\s*(\w+)\s*\)", line):
                guarded_users.add(g.group(1))
        for name, ln in members:
            if name not in guarded_users:
                findings.append(Finding(
                    rel, ln, "unguarded-mutex-member",
                    f"mutex member `{name}` has no RELVIEW_GUARDED_BY / "
                    "RELVIEW_PT_GUARDED_BY user in this file; annotate "
                    "what it protects (or delete it)"))


def check_value_discipline(root, files, findings):
    """Flags .value() with no ok()/has_value() evidence earlier in the same
    top-level chunk. Chunks are delimited by column-0 closing braces — a
    deliberately coarse scope (a whole class body is one chunk) that keeps
    the heuristic quiet on correct code while still catching the common
    mistake: unwrapping a fresh Result with no check anywhere near it."""
    for path in files:
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
        code = strip_comments(raw)
        chunk_start = 0
        evidence_at = -1  # last line with ok-evidence in current chunk
        for ln, line in enumerate(code, 1):
            if line.startswith("}"):
                chunk_start = ln
                evidence_at = -1
                continue
            if OK_EVIDENCE.search(line):
                evidence_at = ln
            if VALUE_CALL.search(line):
                if evidence_at < 0 or evidence_at < chunk_start:
                    if not suppressed(raw[ln - 1], "value-unchecked"):
                        findings.append(Finding(
                            rel, ln, "value-unchecked",
                            ".value() with no preceding ok()/has_value() "
                            "check in this scope; check first or use "
                            "RELVIEW_ASSIGN_OR_RETURN"))
                    else:
                        evidence_at = ln  # a vetted unwrap vouches for
                        # later ones in the same chunk


def check_asserts(root, files, findings):
    for path in files:
        rel = relpath(root, path)
        if rel == "src/util/status.h":
            continue  # defines RELVIEW_DCHECK
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
        code = strip_comments(raw)
        for ln, line in enumerate(code, 1):
            if "static_assert" in line:
                continue
            if RAW_ASSERT.search(line):
                if not suppressed(raw[ln - 1], "raw-assert"):
                    findings.append(Finding(
                        rel, ln, "raw-assert",
                        "use RELVIEW_DCHECK (always compiled) instead of "
                        "assert (vanishes under NDEBUG)"))


def check_layering(root, files, findings):
    allowed_map = load_layering_map(root)
    check_layering_cycles(allowed_map, findings)
    for path in files:
        rel = relpath(root, path)
        if not rel.startswith("src/"):
            continue
        parts = rel.split("/")
        if len(parts) < 3:
            continue  # src/CMakeLists.txt etc.
        here = parts[1]
        allowed = allowed_map.get(here)
        if allowed is None:
            findings.append(Finding(
                rel, 1, "layering",
                f"directory src/{here}/ has no CMakeLists.txt defining "
                f"relview_{here}; the include-layering DAG is derived from "
                "target_link_libraries (see tools/relview_lint.py)"))
            continue
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
        code = strip_comments(raw)
        for ln, line in enumerate(code, 1):
            m = INCLUDE.match(line)
            if not m:
                continue
            target = m.group(1).split("/")[0]
            if "/" not in m.group(1):
                continue  # same-directory or generated include
            if target == here or target in allowed:
                continue
            if target not in allowed_map:
                continue  # not a src/ subdirectory include
            if not suppressed(raw[ln - 1], "layering"):
                findings.append(Finding(
                    rel, ln, "layering",
                    f"src/{here}/ must not include \"{m.group(1)}\" — "
                    f"relview_{here} does not link relview_{target} in "
                    f"src/{here}/CMakeLists.txt (include what you link)"))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="relview repository lint (see module docstring)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of tools/)")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"relview-lint: no src/ under root {root}", file=sys.stderr)
        return 2

    findings = []
    src_only = list(source_files(root, ["src"]))
    everything = list(source_files(
        root, ["src", "tests", "bench", "examples"]))

    check_failpoints(root, everything, findings)
    check_metric_table(root, src_only, findings)
    check_bench_docs(root, findings)
    check_mutexes(root, everything, findings)
    check_value_discipline(root, src_only, findings)
    check_asserts(root, src_only, findings)
    check_layering(root, src_only, findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(f"relview-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
