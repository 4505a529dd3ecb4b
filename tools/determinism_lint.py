#!/usr/bin/env python3
"""Project-invariant linter: determinism and concurrency contracts.

The repo's determinism contracts (ROADMAP: sync-mode byte identity,
worker-count-independent reductions, splat kernels byte-identical to
the serial reference under AVX2 and scalar dispatch)
and its locking conventions are easy to break with changes that compile
cleanly and pass tests on one machine. This linter turns the contracts
into mechanical checks over the source tree:

  unordered-container   No iteration-ordered use of std::unordered_*
                        in determinism-contracted dirs (src/gs,
                        src/slam, src/core, src/oracle): hash-order
                        leaks into results.
  pointer-keyed         No std::map/std::set keyed by a raw pointer in
                        contracted dirs: address order varies run to
                        run.
  raw-random            rand()/srand()/std::random_device only inside
                        src/common/rng.* — everything else must draw
                        from the seeded project RNG.
  wall-clock            std::chrono::system_clock (wall time) only in
                        the profiler: wall time is not monotonic and
                        never belongs in pipeline logic.
  monotonic-clock       steady_clock/high_resolution_clock reads in
                        contracted dirs only through slam::Stopwatch
                        (src/slam/profiler.hh): timing reads are
                        allowed, scattered clock sites are not.
  atomic-float          No std::atomic<float/double/Real>: atomic
                        accumulation order is scheduling-dependent;
                        parallel reductions go through the fixed-block
                        helpers (ThreadPool::parallelForChunks +
                        block-ordered serial fold).
  unguarded-field       In a class that declares a `Mutex` member,
                        every data member declared after the first
                        Mutex must carry RTGS_GUARDED_BY(...) (other
                        Mutexes, condition_variables and ThreadAffinity
                        are exempt). Members the mutex does not guard
                        belong ABOVE it, or get an explicit allow
                        marker.
  double-accum          No `double` arithmetic in the float splat
                        kernels (src/gs/row_kernels*): the template
                        body's scalar and AVX2 instantiations and the
                        serial reference must give the same bytes,
                        and a widened sum drifts them apart. The
                        exact exp (the body's one double core and the
                        lane types' double lanes, which widen one
                        value to double and narrow it back once) is
                        the sanctioned, marker-delimited exception.
  tsan-filter           Every test file that uses ThreadPool /
                        MapWorker / FleetRuntime must have at least
                        one test matched by the thread-sanitizer job's
                        --gtest_filter allowlist in ci.yml, so new
                        concurrency tests cannot silently dodge TSan.
  global-pool           No globalPool() reference in the fleet layer
                        (src/slam/fleet_*): fleet code must run on the
                        fleet's own pool; reaching for the
                        process-global pool reintroduces the hidden
                        cross-session coupling the fleet exists to
                        remove.
  layering              No file compiled into the rtgs library (src/
                        except src/hw and src/oracle) includes a header
                        from src/hw (the hardware model, rtgs_model) or
                        src/oracle (the serial splat oracle,
                        rtgs_oracle): the SLAM path reads no modelled
                        number and carries one implementation of the
                        splat math.
  unset-config-field    Every data member of a `*Config` or
                        `RenderSettings` struct in src/gs, src/slam or
                        src/core is assigned (`=` or a compound
                        assignment after `.` or `->`) somewhere in
                        src/, bench/, examples/, slambench/ or tests/.
                        A field nothing sets has one value in use and
                        belongs in a named constant. Members typed as
                        another such struct are skipped. Matching is
                        by member name, so a name that another struct
                        assigns passes too.

Escapes (sparingly, with a reason in the surrounding comment):

    // det-lint: allow(rule[, rule...])        this line + the next
    // det-lint: begin-allow(rule[, ...])      region start
    // det-lint: end-allow(rule[, ...])        region end

Usage:
    tools/determinism_lint.py [--root DIR]      lint the tree
    tools/determinism_lint.py --self-test       run the fixture suite
    tools/determinism_lint.py --use-libclang    AST-assisted checks
                                                (optional; needs the
                                                clang python bindings)

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import fnmatch
import os
import re
import sys

# Directories under the byte-determinism contract.
CONTRACT_DIRS = ("src/gs", "src/slam", "src/core", "src/oracle")
# Sanctioned sites.
RNG_FILES = ("src/common/rng.hh", "src/common/rng.cc")
PROFILER_FILES = ("src/slam/profiler.hh",)
ROW_KERNEL_GLOB = "src/gs/row_kernels*"
# The directories built into their own libraries rather than rtgs.
NON_RTGS_DIRS = ("src/hw", "src/oracle")
# Where the config structs live, and where their fields may be set.
CONFIG_DIRS = ("src/gs", "src/slam", "src/core")
CONFIG_USER_DIRS = ("src", "bench", "examples", "slambench", "tests")

ALL_RULES = (
    "unordered-container",
    "pointer-keyed",
    "raw-random",
    "wall-clock",
    "monotonic-clock",
    "atomic-float",
    "unguarded-field",
    "double-accum",
    "tsan-filter",
    "global-pool",
    "layering",
    "unset-config-field",
)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


# ---------------------------------------------------------------------
# Source model: comment/string-stripped lines + allow-marker map
# ---------------------------------------------------------------------

MARKER_RE = re.compile(
    r"det-lint:\s*(allow|begin-allow|end-allow)\(([^)]*)\)")


class SourceFile:
    """One parsed C++ file: code with comments and string literals
    blanked (so tokens in prose never trip a rule), plus the per-line
    set of rules the comments explicitly allow."""

    def __init__(self, path, text):
        self.path = path
        self.raw_lines = text.split("\n")
        self.code_lines = []
        self.allowed = {}  # line number (1-based) -> set of rules
        self._strip(text)

    def _mark(self, lineno, rules):
        self.allowed.setdefault(lineno, set()).update(rules)

    def _strip(self, text):
        open_regions = {}  # rule -> start line
        lines = text.split("\n")
        in_block = False
        for i, line in enumerate(lines, 1):
            comment_text = []
            out = []
            j = 0
            n = len(line)
            while j < n:
                if in_block:
                    end = line.find("*/", j)
                    if end < 0:
                        comment_text.append(line[j:])
                        j = n
                    else:
                        comment_text.append(line[j:end])
                        j = end + 2
                        in_block = False
                    continue
                c = line[j]
                nxt = line[j + 1] if j + 1 < n else ""
                if c == "/" and nxt == "/":
                    comment_text.append(line[j + 2:])
                    j = n
                elif c == "/" and nxt == "*":
                    in_block = True
                    j += 2
                elif c == '"' or c == "'":
                    quote = c
                    out.append(quote)
                    j += 1
                    while j < n:
                        if line[j] == "\\":
                            j += 2
                            continue
                        if line[j] == quote:
                            break
                        j += 1
                    out.append(quote)
                    j += 1
                else:
                    out.append(c)
                    j += 1
            self.code_lines.append("".join(out))
            for match in MARKER_RE.finditer(" ".join(comment_text)):
                kind = match.group(1)
                rules = {r.strip() for r in match.group(2).split(",")
                         if r.strip()}
                unknown = rules - set(ALL_RULES)
                if unknown:
                    raise ValueError(
                        "%s:%d: unknown det-lint rule(s): %s"
                        % (self.path, i, ", ".join(sorted(unknown))))
                if kind == "allow":
                    self._mark(i, rules)
                    self._mark(i + 1, rules)
                elif kind == "begin-allow":
                    for rule in rules:
                        open_regions[rule] = i
                elif kind == "end-allow":
                    for rule in rules:
                        start = open_regions.pop(rule, None)
                        if start is None:
                            raise ValueError(
                                "%s:%d: end-allow(%s) without begin"
                                % (self.path, i, rule))
                        for k in range(start, i + 1):
                            self._mark(k, {rule})
        if open_regions:
            rule, start = sorted(open_regions.items())[0]
            raise ValueError("%s:%d: begin-allow(%s) never closed"
                             % (self.path, start, rule))

    def allows(self, lineno, rule):
        return rule in self.allowed.get(lineno, set())


# ---------------------------------------------------------------------
# Per-file token rules
# ---------------------------------------------------------------------

UNORDERED_RE = re.compile(r"\bstd::unordered_(map|set|multimap|multiset)\b")
PTR_KEYED_RE = re.compile(
    r"\bstd::(map|set|multimap|multiset)\s*<\s*(const\s+)?[A-Za-z_][\w:<>]*\s*\*")
RAW_RANDOM_RE = re.compile(
    r"\b(std::)?(rand|srand)\s*\(|\bstd::random_device\b|\bstd::mt19937")
WALL_CLOCK_RE = re.compile(r"\bsystem_clock\b|\btime\s*\(\s*(NULL|nullptr|0)?\s*\)")
MONO_CLOCK_RE = re.compile(r"\b(steady_clock|high_resolution_clock)\b")
ATOMIC_FLOAT_RE = re.compile(
    r"\bstd::atomic\s*<\s*(float|double|long\s+double|Real)\s*>")
DOUBLE_RE = re.compile(r"\bdouble\b|\b__m256d\b|_mm256_\w+_pd\b|\b_pd\b")
GLOBAL_POOL_RE = re.compile(r"\bglobalPool\s*\(")
FLEET_GLOB = "src/slam/fleet_*"
# Matched against the RAW line (include paths are string literals);
# the stripped line must still start with #include, so a commented-out
# include never fires.
INCLUDE_DIRECTIVE_RE = re.compile(r"^\s*#\s*include\b")
NON_RTGS_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"](hw|oracle)/')

MUTEX_DECL_RE = re.compile(r"^\s*(mutable\s+)?(rtgs::)?Mutex\s+\w+_\s*;")
EXEMPT_MEMBER_RE = re.compile(
    r"std::condition_variable|ThreadAffinity|(^|\s)(mutable\s+)?(rtgs::)?Mutex\s")
MEMBER_DECL_RE = re.compile(r"^\s*[A-Za-z_].*\b\w+_\s*(=.*)?[;{]")
ACCESS_OR_SCOPE_RE = re.compile(
    r"^\s*(public|protected|private)\s*:|^\s*(class|struct)\s+\w+|^\s*};")
FUNC_HINT_RE = re.compile(r"\)\s*(const)?\s*(noexcept)?\s*({|;|=)")


def in_contract_dir(relpath):
    return any(relpath.startswith(d + "/") for d in CONTRACT_DIRS)


def in_rtgs_library(relpath):
    return relpath.startswith("src/") and not any(
        relpath.startswith(d + "/") for d in NON_RTGS_DIRS)


def lint_file(src, relpath):
    findings = []

    def hit(lineno, rule, message):
        if not src.allows(lineno, rule):
            findings.append(Finding(relpath, lineno, rule, message))

    contracted = in_contract_dir(relpath)
    is_rng = relpath in RNG_FILES
    is_profiler = relpath in PROFILER_FILES
    is_row_kernel = fnmatch.fnmatch(relpath, ROW_KERNEL_GLOB)
    is_fleet = fnmatch.fnmatch(relpath, FLEET_GLOB)
    is_rtgs = in_rtgs_library(relpath)

    for lineno, line in enumerate(src.code_lines, 1):
        if (is_rtgs and INCLUDE_DIRECTIVE_RE.match(line) and
                NON_RTGS_INCLUDE_RE.match(src.raw_lines[lineno - 1])):
            hit(lineno, "layering",
                "a file compiled into rtgs includes a header from "
                "src/hw or src/oracle; the SLAM path must not read the "
                "hardware model or the serial oracle — move the code "
                "into rtgs_model / rtgs_oracle")
        if contracted and UNORDERED_RE.search(line):
            hit(lineno, "unordered-container",
                "unordered container in a determinism-contracted dir; "
                "hash order leaks into iteration — use std::map/std::set "
                "or sorted vectors")
        if contracted and PTR_KEYED_RE.search(line):
            hit(lineno, "pointer-keyed",
                "ordered container keyed by a raw pointer; address order "
                "varies run to run — key by a stable id instead")
        if not is_rng and RAW_RANDOM_RE.search(line):
            hit(lineno, "raw-random",
                "raw randomness outside src/common/rng.*; draw from the "
                "seeded project RNG so runs stay reproducible")
        if not is_profiler and WALL_CLOCK_RE.search(line):
            hit(lineno, "wall-clock",
                "wall-clock read outside the profiler; wall time is "
                "non-monotonic and never belongs in pipeline logic")
        if contracted and not is_profiler and MONO_CLOCK_RE.search(line):
            hit(lineno, "monotonic-clock",
                "direct monotonic-clock read in a determinism-contracted "
                "dir; time through slam::Stopwatch (src/slam/profiler.hh) "
                "so clock sites stay auditable")
        if ATOMIC_FLOAT_RE.search(line):
            hit(lineno, "atomic-float",
                "atomic floating-point accumulator; accumulation order "
                "depends on scheduling — reduce over fixed blocks "
                "(ThreadPool::parallelForChunks + serial block fold)")
        if is_fleet and GLOBAL_POOL_RE.search(line):
            hit(lineno, "global-pool",
                "globalPool() referenced from the fleet layer; fleet "
                "code runs on the fleet's own pool — the "
                "process-global pool would couple sessions behind the "
                "scheduler's back")
        if is_row_kernel and DOUBLE_RE.search(line):
            hit(lineno, "double-accum",
                "double-precision arithmetic in a float splat kernel; "
                "a widened accumulator drifts the scalar and AVX2 "
                "kernels and the serial reference apart, and they must "
                "give the same bytes — keep kernels fp32 (see the "
                "sanctioned exp exception)")

    findings.extend(check_unguarded_fields(src, relpath))
    return findings


def check_unguarded_fields(src, relpath):
    """Member-ordering convention: after the first `Mutex foo_;` member
    of a class, every data member must be RTGS_GUARDED_BY-annotated (or
    exempt: Mutex / condition_variable / ThreadAffinity)."""
    if not relpath.endswith((".hh", ".h", ".hpp")):
        return []
    findings = []
    after_mutex = False
    stmt, stmt_start = "", 0
    for lineno, line in enumerate(src.code_lines, 1):
        if ACCESS_OR_SCOPE_RE.match(line):
            after_mutex = False
            stmt, stmt_start = "", 0
            continue
        if not stmt and MUTEX_DECL_RE.match(line):
            after_mutex = True
            continue
        if not after_mutex:
            continue
        if not stmt:
            if not MEMBER_DECL_RE.match(line):
                continue
            stmt_start = lineno
        stmt += " " + line.strip()
        if ";" not in line:
            continue  # declaration continues on the next line
        decl, stmt = stmt, ""
        if FUNC_HINT_RE.search(decl) and "RTGS_GUARDED_BY" not in decl:
            continue  # method declaration, not a field
        if EXEMPT_MEMBER_RE.search(decl):
            continue
        if "RTGS_GUARDED_BY" not in decl:
            if not (src.allows(stmt_start, "unguarded-field") or
                    src.allows(lineno, "unguarded-field")):
                findings.append(Finding(
                    relpath, stmt_start, "unguarded-field",
                    "member declared after a Mutex lacks "
                    "RTGS_GUARDED_BY; move it above the mutex if the "
                    "mutex does not guard it"))
    return findings


# ---------------------------------------------------------------------
# Repo-level rule: TSan allowlist coverage
# ---------------------------------------------------------------------

CONCURRENCY_TOKEN_RE = re.compile(
    r"\bThreadPool\b|\bMapWorker\b|\bparallelForChunks\b|"
    r"\bFleetRuntime\b")
# Matched against the RAW text: the comment/string stripper blanks
# include paths (they are string literals).
CONCURRENCY_INCLUDE_RE = re.compile(
    r'#include\s+"(common/thread_pool|'
    r'slam/map_worker|slam/fleet_runtime)\.hh"')
TEST_DECL_RE = re.compile(
    r"\bTEST(?:_F|_P)?\s*\(\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)")
GTEST_FILTER_RE = re.compile(r"--gtest_filter=['\"]?([^'\"\s]+)")


def tsan_filter_patterns(ci_text):
    """Extract the --gtest_filter allowlist of the thread-sanitizer job
    (falls back to every filter in the file if the job moves)."""
    job = re.search(
        r"^  [\w-]*thread-sanitizer[\w-]*:.*?(?=^  [\w-]+:|\Z)",
        ci_text, re.M | re.S)
    scope = job.group(0) if job else ci_text
    patterns = []
    for m in GTEST_FILTER_RE.finditer(scope):
        patterns.extend(p for p in m.group(1).split(":") if p)
    return patterns


def check_tsan_coverage(ci_text, test_files):
    """test_files: {relpath: content}. Each file that exercises the
    concurrency layer must have >= 1 test matched by the TSan filter."""
    patterns = tsan_filter_patterns(ci_text)
    findings = []
    if not patterns:
        findings.append(Finding(
            ".github/workflows/ci.yml", 1, "tsan-filter",
            "no --gtest_filter found in the thread-sanitizer job; the "
            "concurrency allowlist has gone missing"))
        return findings
    for relpath, content in sorted(test_files.items()):
        src = SourceFile(relpath, content)
        code = "\n".join(src.code_lines)
        if not (CONCURRENCY_TOKEN_RE.search(code) or
                CONCURRENCY_INCLUDE_RE.search(content)):
            continue
        tests = TEST_DECL_RE.findall(code)
        if not tests:
            continue
        covered = False
        for suite, name in tests:
            # Plain id and a representative parameterized id: the
            # instantiation prefix is unknown statically, and allowlist
            # entries targeting TEST_P suites lead with '*'.
            for candidate in ("%s.%s" % (suite, name),
                              "X/%s.%s/0" % (suite, name)):
                if any(fnmatch.fnmatchcase(candidate, p)
                       for p in patterns):
                    covered = True
                    break
            if covered:
                break
        if not covered:
            findings.append(Finding(
                relpath, 1, "tsan-filter",
                "uses ThreadPool/MapWorker/FleetRuntime but no test in "
                "it matches the thread-sanitizer --gtest_filter "
                "allowlist in ci.yml; add its suite to the filter"))
    return findings


# ---------------------------------------------------------------------
# Repo-level rule: every config field is set somewhere
# ---------------------------------------------------------------------

CONFIG_STRUCT_RE = re.compile(r"\bstruct\s+(\w*Config|RenderSettings)\b")
ACCESS_LABEL_RE = re.compile(r"^\s*(public|protected|private)\s*:")
MEMBER_NAME_RE = re.compile(r"^(.*?)\b([A-Za-z_]\w*)\s*(\[[^\]]*\])?\s*$",
                            re.S)
FIELD_ASSIGN_RE = re.compile(
    r"(?:\.|->)\s*([A-Za-z_]\w*)\s*(?:[-+*/%&|^]|<<|>>)?=(?!=)")
NON_MEMBER_PREFIXES = ("static ", "using ", "friend ", "typedef ",
                       "enum ", "struct ", "class ", "template")


def config_struct_members(src):
    """(struct, member, member type, line) for each data member of a
    `*Config` / `RenderSettings` struct defined in one parsed file.
    Method bodies, nested types and static members are skipped."""
    code = "\n".join(src.code_lines)
    members = []
    for match in CONFIG_STRUCT_RE.finditer(code):
        open_at = code.find("{", match.end())
        if open_at < 0 or code[match.end():open_at].strip():
            continue  # a forward declaration or a use, not a definition
        depth, i = 1, open_at + 1
        stmt, stmt_at = "", None
        while i < len(code) and depth:
            c = code[i]
            if c == "{" and depth == 1 and "(" in re.split("=", stmt)[0]:
                # A method body: skip it whole.
                body = 1
                i += 1
                while i < len(code) and body:
                    body += {"{": 1, "}": -1}.get(code[i], 0)
                    i += 1
                stmt, stmt_at = "", None
                continue
            depth += {"{": 1, "}": -1}.get(c, 0)
            if c == ";" and depth == 1:
                decl = ACCESS_LABEL_RE.sub("", stmt).strip()
                head = re.split(r"=|\{", decl, maxsplit=1)[0]
                name = MEMBER_NAME_RE.match(head)
                if (decl and name and "(" not in head and
                        not decl.startswith(NON_MEMBER_PREFIXES)):
                    line = code.count("\n", 0, stmt_at) + 1
                    members.append((match.group(1), name.group(2),
                                    name.group(1).strip(), line))
                stmt, stmt_at = "", None
            elif depth:
                if stmt_at is None and not c.isspace():
                    stmt_at = i
                stmt += c
            i += 1
    return members


def check_unset_config_fields(config_files, user_files):
    """config_files: {relpath: SourceFile} under CONFIG_DIRS;
    user_files: {relpath: SourceFile} of every file that may set a
    field. A member no user file assigns is a single-valued option."""
    members = []
    for relpath, src in sorted(config_files.items()):
        members.extend((relpath, src) + m
                       for m in config_struct_members(src))
    struct_names = {m[2] for m in members}
    assigned = set()
    for src in user_files.values():
        assigned.update(FIELD_ASSIGN_RE.findall("\n".join(src.code_lines)))
    findings = []
    for relpath, src, struct, name, mtype, line in members:
        base = re.findall(r"\w+", re.sub(r"<.*>", "", mtype))
        if base and base[-1] in struct_names:
            continue  # a nested config struct; its own fields count
        if name in assigned or src.allows(line, "unset-config-field"):
            continue
        findings.append(Finding(
            relpath, line, "unset-config-field",
            "%s::%s is assigned nowhere in %s; an option with one value "
            "in use is a named constant" %
            (struct, name, ", ".join(d + "/" for d in CONFIG_USER_DIRS))))
    return findings


# ---------------------------------------------------------------------
# Optional libclang deep pass
# ---------------------------------------------------------------------

def libclang_pass(root):
    """AST-assisted double-check of the unordered-container rule using
    the clang python bindings, when available. Purely additive: the
    token rules above are authoritative and self-contained."""
    try:
        import clang.cindex  # noqa: F401
    except ImportError:
        print("determinism_lint: libclang bindings unavailable; "
              "skipping the AST pass (token rules already ran)",
              file=sys.stderr)
        return []
    from clang import cindex
    findings = []
    index = cindex.Index.create()
    for relpath in iter_source_files(root):
        if not in_contract_dir(relpath) or not relpath.endswith(".cc"):
            continue
        tu = index.parse(os.path.join(root, relpath),
                         args=["-std=c++17", "-I", os.path.join(root, "src")])
        for node in tu.cursor.walk_preorder():
            if node.kind == cindex.CursorKind.CXX_FOR_RANGE_STMT:
                rng = " ".join(t.spelling for t in node.get_tokens())
                if "unordered_" in rng:
                    findings.append(Finding(
                        relpath, node.location.line, "unordered-container",
                        "range-for over an unordered container (AST)"))
    return findings


# ---------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------

def iter_source_files(root, bases=("src",)):
    for base in bases:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, base)):
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".h", ".hpp", ".cpp")):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root).replace(os.sep, "/")


def lint_tree(root, use_libclang=False):
    findings = []
    parsed = {}
    for relpath in iter_source_files(root, CONFIG_USER_DIRS):
        with open(os.path.join(root, relpath), encoding="utf-8") as fh:
            text = fh.read()
        try:
            src = SourceFile(relpath, text)
        except ValueError as err:
            findings.append(Finding(relpath, 1, "unguarded-field", str(err)))
            continue
        parsed[relpath] = src
        if relpath.startswith("src/"):
            findings.extend(lint_file(src, relpath))

    config_files = {p: s for p, s in parsed.items()
                    if any(p.startswith(d + "/") for d in CONFIG_DIRS)}
    findings.extend(check_unset_config_fields(config_files, parsed))

    ci_path = os.path.join(root, ".github", "workflows", "ci.yml")
    tests_dir = os.path.join(root, "tests")
    if os.path.isfile(ci_path) and os.path.isdir(tests_dir):
        with open(ci_path, encoding="utf-8") as fh:
            ci_text = fh.read()
        test_files = {}
        for name in sorted(os.listdir(tests_dir)):
            if name.endswith((".cc", ".cpp")):
                with open(os.path.join(tests_dir, name),
                          encoding="utf-8") as fh:
                    test_files["tests/" + name] = fh.read()
        findings.extend(check_tsan_coverage(ci_text, test_files))

    if use_libclang:
        findings.extend(libclang_pass(root))
    return findings


# ---------------------------------------------------------------------
# Self-test over the committed fixtures
# ---------------------------------------------------------------------

FIXTURE_PATH_RE = re.compile(r"det-lint-path:\s*(\S+)")
FIXTURE_EXPECT_RE = re.compile(r"det-lint-expect:\s*([\w-]+)")

SELFTEST_CI_OK = """
  thread-sanitizer:
    steps:
      - run: ./rtgs_tests --gtest_filter='ThreadPool.*:Queue.*'
  other-job:
    steps:
      - run: echo done
"""

SELFTEST_TEST_COVERED = """
#include "common/thread_pool.hh"
TEST(ThreadPool, RunsTasks) {}
"""

SELFTEST_TEST_UNCOVERED = """
#include "common/thread_pool.hh"
TEST(NewRaceSuite, StressesTheQueue) {}
"""

SELFTEST_CI_FLEET = """
  thread-sanitizer:
    steps:
      - run: ./rtgs_tests --gtest_filter='ThreadPool.*:FleetRuntime.*'
"""

SELFTEST_TEST_FLEET = """
#include "slam/fleet_runtime.hh"
TEST(FleetRuntime, SessionsStayIsolated) {}
"""


def run_self_test(root):
    fixture_dir = os.path.join(root, "tools", "lint_fixtures")
    failures = []
    checked = 0
    for name in sorted(os.listdir(fixture_dir)):
        if not name.endswith((".cc", ".hh")):
            continue
        full = os.path.join(fixture_dir, name)
        with open(full, encoding="utf-8") as fh:
            text = fh.read()
        path_m = FIXTURE_PATH_RE.search(text)
        if not path_m:
            failures.append("%s: missing '// det-lint-path:' header" % name)
            continue
        pretend = path_m.group(1)
        expected = set(FIXTURE_EXPECT_RE.findall(text))
        try:
            src = SourceFile(pretend, text)
            got = {f.rule for f in lint_file(src, pretend)}
            # The fixture is its own whole tree for the repo-level
            # config-field rule.
            got.update(f.rule for f in check_unset_config_fields(
                {pretend: src}, {pretend: src}))
        except ValueError as err:
            got = {"unguarded-field"} if "det-lint" in str(err) else set()
        checked += 1
        missing = expected - got
        spurious = got - expected
        if missing:
            failures.append("%s: expected rule(s) did not fire: %s"
                            % (name, ", ".join(sorted(missing))))
        if spurious:
            failures.append("%s: unexpected rule(s) fired: %s"
                            % (name, ", ".join(sorted(spurious))))

    # tsan-filter is repo-level; exercise it on synthetic inputs.
    ok = check_tsan_coverage(SELFTEST_CI_OK,
                             {"tests/test_ok.cc": SELFTEST_TEST_COVERED})
    if ok:
        failures.append("tsan-filter: false positive on a covered file")
    bad = check_tsan_coverage(SELFTEST_CI_OK,
                              {"tests/test_bad.cc": SELFTEST_TEST_UNCOVERED})
    if not any(f.rule == "tsan-filter" for f in bad):
        failures.append("tsan-filter: missed an uncovered test file")
    # The fleet tokens joined the concurrency allowlist: a fleet test
    # file must be flagged when absent from the filter and pass when
    # its suite is listed.
    fleet_bad = check_tsan_coverage(
        SELFTEST_CI_OK, {"tests/test_fleet.cc": SELFTEST_TEST_FLEET})
    if not any(f.rule == "tsan-filter" for f in fleet_bad):
        failures.append("tsan-filter: missed an uncovered fleet test file")
    fleet_ok = check_tsan_coverage(
        SELFTEST_CI_FLEET, {"tests/test_fleet.cc": SELFTEST_TEST_FLEET})
    if fleet_ok:
        failures.append("tsan-filter: false positive on a covered "
                        "fleet test file")
    checked += 4

    # layering binds by directory: the model and the oracle may include
    # their own headers, and a commented-out include is prose.
    for pretend, text in (
            ("src/hw/own_header.cc", '#include "hw/trace.hh"\n'),
            ("src/oracle/own_header.cc",
             '#include "oracle/reference.hh"\n'),
            ("src/gs/prose.cc", '// #include "hw/trace.hh"\n')):
        got = lint_file(SourceFile(pretend, text), pretend)
        if any(f.rule == "layering" for f in got):
            failures.append("layering: false positive on %s" % pretend)
    checked += 1

    # unset-config-field flags exactly the fixture's never-set field:
    # not the assigned one, the nested config struct, the allowed one,
    # a method or a static constant — and a second file's assignment
    # clears it.
    with open(os.path.join(fixture_dir, "fixture_unset_config_field.hh"),
              encoding="utf-8") as fh:
        fixture = SourceFile("src/slam/fixture_unset_config_field.hh",
                             fh.read())
    got = check_unset_config_fields({fixture.path: fixture},
                                    {fixture.path: fixture})
    names = sorted(f.message.split(" ")[0] for f in got)
    if names != ["FixtureConfig::neverSet"]:
        failures.append("unset-config-field: flagged %s, expected only "
                        "FixtureConfig::neverSet" % (names or "nothing"))
    setter = SourceFile("tests/test_setter.cc",
                        "void f(FixtureConfig *c) { c->neverSet *= 2; }\n")
    if check_unset_config_fields({fixture.path: fixture},
                                 {fixture.path: fixture,
                                  setter.path: setter}):
        failures.append("unset-config-field: missed an assignment made "
                        "in another file")
    checked += 1

    if failures:
        for f in failures:
            print("self-test FAIL: %s" % f)
        return 1
    print("determinism_lint self-test: %d checks passed" % checked)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: the script's "
                             "grandparent directory)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite instead of linting")
    parser.add_argument("--use-libclang", action="store_true",
                        help="additionally run the AST-assisted pass "
                             "when the clang bindings are importable")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print("determinism_lint: no src/ under %s" % root, file=sys.stderr)
        return 2

    if args.self_test:
        return run_self_test(root)

    findings = lint_tree(root, use_libclang=args.use_libclang)
    for finding in findings:
        print(finding)
    if findings:
        print("determinism_lint: %d finding(s)" % len(findings))
        return 1
    print("determinism_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
