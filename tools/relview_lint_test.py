#!/usr/bin/env python3
"""Unit tests for tools/relview_lint.py — each rule gets a firing fixture
and a clean fixture, plus coverage for suppression comments and the
comment stripper. Run directly or through ctest (relview_lint_selftest).
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import relview_lint  # noqa: E402


class LintFixture(unittest.TestCase):
    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="relview_lint_test_")
        self.addCleanup(shutil.rmtree, self.root)
        os.makedirs(os.path.join(self.root, "src"), exist_ok=True)
        self.write("docs/OPERATIONS.md", "Catalog: `known.site`\n")
        # The layering DAG is derived from each src/<dir>/CMakeLists.txt,
        # so every directory a fixture writes into needs one. Mirror a
        # slice of the real tree's edges.
        self.link("util")
        self.link("relational", "util")
        self.link("view", "relational", "util")
        self.link("service", "view", "relational", "util")

    def link(self, dirname, *deps):
        """Writes the minimal CMakeLists.txt that gives src/<dirname>/ the
        given direct link deps (= allowed include targets)."""
        libs = " ".join(f"relview_{d}" for d in deps)
        self.write(
            f"src/{dirname}/CMakeLists.txt",
            f"add_library(relview_{dirname} a.cc)\n"
            + (f"target_link_libraries(relview_{dirname} PUBLIC {libs} "
               "Threads::Threads)\n" if deps else ""))

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
        return path

    def run_lint(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = relview_lint.main(["--root", self.root])
        return code, out.getvalue()

    def assert_rules(self, output, *rules):
        for rule in rules:
            self.assertIn(f"[{rule}]", output, output)

    def assert_clean(self):
        code, out = self.run_lint()
        self.assertEqual(code, 0, out)
        self.assertEqual(out, "")


class FailpointRules(LintFixture):
    def test_clean_documented_site(self):
        self.write("src/service/a.cc", 'RELVIEW_FAILPOINT("known.site");\n')
        self.assert_clean()

    def test_duplicate_site(self):
        self.write("src/service/a.cc", 'RELVIEW_FAILPOINT("known.site");\n')
        self.write("src/service/b.cc", 'RELVIEW_FAILPOINT("known.site");\n')
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "failpoint-duplicate")

    def test_undocumented_site(self):
        self.write("src/service/a.cc", 'RELVIEW_FAILPOINT("new.site");\n')
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "failpoint-undocumented")

    def test_nonliteral_argument(self):
        self.write("src/service/a.cc", "RELVIEW_FAILPOINT(kSiteName);\n")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "failpoint-nonliteral")

    def test_direct_check_call(self):
        self.write("src/service/a.cc", 'Failpoints::Check("known.site");\n')
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "failpoint-direct-check")

    def test_defining_files_exempt(self):
        self.write("src/util/failpoint.h",
                   "#define RELVIEW_FAILPOINT(name) "
                   "::relview::Failpoints::Check(name)\n")
        self.write("src/util/failpoint.cc",
                   "FailpointHit Failpoints::Check(const char* name) {\n"
                   "  return Lookup(name);\n}\n")
        self.assert_clean()

    def test_commented_site_ignored(self):
        self.write("src/service/a.cc",
                   '// RELVIEW_FAILPOINT("commented.out")\n')
        self.assert_clean()

    def test_commit_site_prose_mention_is_not_enough(self):
        # `commit.*` (group-commit queue) sites must have a row in the
        # catalog *table*; a prose mention elsewhere satisfies only the
        # generic failpoint-undocumented rule.
        self.write("docs/OPERATIONS.md",
                   "The group-commit leader hits `commit.fsync` once per "
                   "cohort.\n")
        self.write("src/service/a.cc",
                   'RELVIEW_FAILPOINT("commit.fsync");\n')
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "failpoint-commit-catalog")
        self.assertNotIn("[failpoint-undocumented]", out, out)

    def test_commit_site_with_catalog_row_clean(self):
        self.write("docs/OPERATIONS.md",
                   "Failpoint catalog:\n"
                   "\n"
                   "| Name | Site | Sensible actions |\n"
                   "|---|---|---|\n"
                   "| `commit.fsync` | before the cohort fsync | `error` |\n")
        self.write("src/service/a.cc",
                   'RELVIEW_FAILPOINT("commit.fsync");\n')
        self.assert_clean()

    def test_commit_rule_ignores_rows_after_table_ends(self):
        # The catalog region stops at the first non-table line; a stray
        # table further down the document does not count.
        self.write("docs/OPERATIONS.md",
                   "Failpoint catalog:\n"
                   "\n"
                   "| `journal.fsync` | before fsync | `error` |\n"
                   "\n"
                   "Unrelated prose ends the catalog region.\n"
                   "\n"
                   "| `commit.fsync` | some other table | n/a |\n")
        self.write("src/service/a.cc",
                   'RELVIEW_FAILPOINT("commit.fsync");\n')
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "failpoint-commit-catalog")

    def test_non_commit_site_not_held_to_table_rule(self):
        # known.site is documented (prose is fine for non-commit sites).
        self.write("src/service/a.cc", 'RELVIEW_FAILPOINT("known.site");\n')
        self.assert_clean()

    def catalog(self, *names):
        self.write("docs/OPERATIONS.md",
                   "Failpoint catalog:\n"
                   "\n"
                   "| Name | Site | Sensible actions |\n"
                   "|---|---|---|\n"
                   + "".join(f"| `{n}` | somewhere | `crash` |\n"
                             for n in names))

    def test_stale_catalog_row(self):
        # The row outlived its site: arming it would inject nothing.
        self.catalog("live.site", "gone.site")
        self.write("src/service/a.cc", 'RELVIEW_FAILPOINT("live.site");\n')
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "failpoint-stale-catalog")
        self.assertIn("docs/OPERATIONS.md:6:", out, out)
        self.assertIn("gone.site", out, out)
        self.assertNotIn("live.site", out, out)

    def test_catalog_row_with_site_anywhere_clean(self):
        # A site in tests/ or bench/ keeps its row alive as well as src/.
        self.catalog("live.site", "test.site")
        self.write("src/service/a.cc", 'RELVIEW_FAILPOINT("live.site");\n')
        self.write("tests/a_test.cc", 'RELVIEW_FAILPOINT("test.site");\n')
        self.assert_clean()

    def test_stale_rule_ignores_prose_mentions(self):
        # Only table rows are held to the rule; prose may name anything.
        self.write("docs/OPERATIONS.md",
                   "Catalog: `known.site`; `journal.fsync` was removed.\n")
        self.write("src/service/a.cc", 'RELVIEW_FAILPOINT("known.site");\n')
        self.assert_clean()

    def test_stale_catalog_row_suppressible(self):
        self.write("docs/OPERATIONS.md",
                   "Failpoint catalog:\n"
                   "\n"
                   "| `gone.site` | kept on purpose | `crash` | "
                   "<!-- relview-lint: allow(failpoint-stale-catalog) -->\n")
        self.assert_clean()


class MetricTableRule(LintFixture):
    def ops_with_table(self, *rows):
        table = "".join(f"| `{name}` | {kind} | doc |\n"
                        for name, kind in rows)
        self.write("docs/OPERATIONS.md",
                   "Catalog: `known.site`\n"
                   "\n"
                   "Metric families:\n"
                   "\n"
                   "| Series | Kind | Meaning |\n"
                   "|---|---|---|\n"
                   + table)

    def test_undocumented_family(self):
        # Default fixture OPERATIONS.md has no "Metric families:" table at
        # all, so any family literal fires.
        self.write("src/service/a.cc",
                   'GaugeFamily("relview_foo_total", "doc", 1);\n')
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "metric-table")

    def test_documented_family_clean(self):
        self.ops_with_table(("relview_foo_total", "counter"))
        self.write("src/service/a.cc",
                   'GaugeFamily("relview_foo_total", "doc", 1);\n')
        self.assert_clean()

    def test_one_finding_per_family_not_per_use(self):
        self.write("src/service/a.cc",
                   'Add("relview_foo_total");\nAdd("relview_foo_total");\n')
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[metric-table]"), 1, out)

    def test_source_prefix_satisfied_by_prefixed_rows(self):
        # std::string("relview_net_") + RouteName(route) + "_latency..."
        # leaves the literal "relview_net_"; any table row starting with
        # that prefix documents the composition.
        self.ops_with_table(("relview_net_batch_latency_seconds", "summary"))
        self.write("src/service/a.cc",
                   'auto n = std::string("relview_net_") + route;\n')
        self.assert_clean()

    def test_table_prefix_row_covers_composed_families(self):
        # A trailing-underscore table row ("relview_engine_") blanket-
        # documents the X-macro families composed from it.
        self.ops_with_table(("relview_engine_", "gauges"))
        self.write("src/service/a.cc",
                   'Add("relview_engine_closure_hits");\n')
        self.assert_clean()

    def test_table_region_ends_at_prose(self):
        self.write("docs/OPERATIONS.md",
                   "Catalog: `known.site`\n"
                   "\n"
                   "Metric families:\n"
                   "\n"
                   "| `relview_a_total` | counter | doc |\n"
                   "\n"
                   "Prose ends the table region.\n"
                   "\n"
                   "| `relview_b_total` | some other table | n/a |\n")
        self.write("src/service/a.cc", 'Add("relview_b_total");\n')
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "metric-table")

    def test_literal_in_comment_ignored(self):
        self.write("src/service/a.cc",
                   '// exported as "relview_ghost_total"\n')
        self.assert_clean()

    def test_tests_and_bench_not_in_scope(self):
        # The rule covers src/ (where families are registered); tests and
        # benches may scrape family names freely.
        self.write("tests/a_test.cc", 'Expect("relview_foo_total");\n')
        self.write("bench/b.cc", 'Scrape("relview_bar_total");\n')
        self.assert_clean()

    def test_suppression(self):
        self.write("src/service/a.cc",
                   'Add("relview_foo_total");'
                   '  // relview-lint: allow(metric-table)\n')
        self.assert_clean()


class BenchDocRule(LintFixture):
    CI = (".github/workflows/ci.yml")

    def test_no_ci_file_no_findings(self):
        # Fixture roots have no workflow; the rule must stay silent.
        self.assert_clean()

    def test_produced_artifact_without_section(self):
        self.write(self.CI,
                   "      - run: ./bench --json=BENCH_foo.json\n")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "bench-doc")

    def test_section_heading_satisfies_rule(self):
        self.write(self.CI,
                   "      - run: ./bench --json=BENCH_foo.json\n")
        self.write("docs/PERFORMANCE.md",
                   "## `BENCH_foo.json` — the foo benchmark\n\n"
                   "What it measures.\n")
        self.assert_clean()

    def test_prose_mention_is_not_a_section(self):
        self.write(self.CI,
                   "      - run: ./bench --json=BENCH_foo.json\n")
        self.write("docs/PERFORMANCE.md",
                   "## Overview\n\nCI uploads BENCH_foo.json nightly.\n")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "bench-doc")

    def test_upload_path_lines_count_as_produced(self):
        self.write(self.CI,
                   "          path: |\n"
                   "            BENCH_bar.json\n")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "bench-doc")

    def test_stale_section_flagged(self):
        self.write(self.CI,
                   "      - run: ./bench --json=BENCH_foo.json\n")
        self.write("docs/PERFORMANCE.md",
                   "## `BENCH_foo.json`\n\ndoc\n\n"
                   "## `BENCH_gone.json`\n\nCI stopped making this.\n")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "bench-doc")
        self.assertIn("BENCH_gone.json", out)

    def test_one_finding_per_artifact(self):
        self.write(self.CI,
                   "      - run: ./bench --json=BENCH_foo.json\n"
                   "      - run: test -s BENCH_foo.json\n")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[bench-doc]"), 1, out)

    def test_glob_upload_pattern_ignored(self):
        # `path: BENCH_*.json` is a glob, not an artifact name.
        self.write(self.CI,
                   "          path: BENCH_*.json\n")
        self.assert_clean()

    def test_suppression_on_ci_line(self):
        self.write(self.CI,
                   "      - run: ./bench --json=BENCH_tmp.json"
                   "  # relview-lint: allow(bench-doc)\n")
        self.assert_clean()


class MutexRules(LintFixture):
    def test_naked_std_mutex(self):
        self.write("src/view/a.h", "#include <mutex>\nstd::mutex mu_;\n")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "naked-std-mutex")

    def test_shared_and_recursive_variants_flagged(self):
        self.write("src/view/a.h",
                   "std::shared_mutex a_;\nstd::recursive_mutex b_;\n")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[naked-std-mutex]"), 2, out)

    def test_unguarded_member(self):
        self.write("src/view/a.h", "class C {\n  Mutex mu_;\n};\n")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "unguarded-mutex-member")

    def test_guarded_member_clean(self):
        self.write("src/view/a.h",
                   "class C {\n"
                   "  mutable Mutex mu_;\n"
                   "  int x_ RELVIEW_GUARDED_BY(mu_);\n"
                   "};\n")
        self.assert_clean()

    def test_pt_guarded_counts_as_user(self):
        self.write("src/view/a.h",
                   "class C {\n"
                   "  Mutex mu_;\n"
                   "  std::unique_ptr<T> p_ RELVIEW_PT_GUARDED_BY(mu_);\n"
                   "};\n")
        self.assert_clean()

    def test_member_with_trailing_annotation(self):
        self.write("src/view/a.h",
                   "class C {\n"
                   "  SharedMutex snap_mu_ RELVIEW_ACQUIRED_AFTER(w_mu_);\n"
                   "};\n")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "unguarded-mutex-member")

    def test_local_mutex_not_a_member(self):
        # No trailing underscore -> local variable, not checked for users.
        self.write("src/view/a.cc", "void f() {\n  Mutex acc_mu;\n}\n")
        self.assert_clean()

    def test_annotations_header_exempt(self):
        self.write("src/util/annotations.h",
                   "class Mutex {\n  std::mutex mu_;\n};\n")
        self.assert_clean()


class ValueRule(LintFixture):
    def test_unchecked_value(self):
        self.write("src/view/a.cc",
                   "void f() {\n  auto v = r.value();\n}\n")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "value-unchecked")

    def test_checked_value_clean(self):
        self.write("src/view/a.cc",
                   "void f() {\n"
                   "  if (!r.ok()) return;\n"
                   "  auto v = r.value();\n"
                   "}\n")
        self.assert_clean()

    def test_dcheck_counts_as_evidence(self):
        self.write("src/view/a.cc",
                   "void f() {\n"
                   '  RELVIEW_DCHECK(r.has_value(), "must hold");\n'
                   "  auto v = r.value();\n"
                   "}\n")
        self.assert_clean()

    def test_evidence_does_not_leak_across_chunks(self):
        self.write("src/view/a.cc",
                   "void f() {\n"
                   "  if (!r.ok()) return;\n"
                   "}\n"
                   "void g() {\n"
                   "  auto v = r.value();\n"
                   "}\n")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "value-unchecked")

    def test_value_or_not_flagged(self):
        self.write("src/view/a.cc",
                   "void f() {\n  auto v = r.value_or(0);\n}\n")
        self.assert_clean()

    def test_tests_directory_not_in_scope(self):
        self.write("tests/a_test.cc",
                   "void f() {\n  auto v = r.value();\n}\n")
        self.assert_clean()


class AssertRule(LintFixture):
    def test_raw_assert(self):
        self.write("src/view/a.cc", "void f() {\n  assert(x > 0);\n}\n")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "raw-assert")

    def test_static_assert_clean(self):
        self.write("src/view/a.cc", "static_assert(sizeof(int) == 4);\n")
        self.assert_clean()

    def test_status_header_exempt(self):
        self.write("src/util/status.h",
                   "#define RELVIEW_DCHECK(cond, msg) assert(cond)\n")
        self.assert_clean()

    def test_assert_in_comment_clean(self):
        self.write("src/view/a.cc", "// callers assert(ok) beforehand\n")
        self.assert_clean()


class LayeringRule(LintFixture):
    def test_upward_include_flagged(self):
        self.write("src/relational/a.h",
                   '#include "service/update_service.h"\n')
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "layering")

    def test_downward_include_clean(self):
        self.write("src/service/a.h", '#include "view/translator.h"\n')
        self.assert_clean()

    def test_sibling_include_needs_a_link_edge(self):
        # view does not link service in the fixture DAG...
        self.write("src/view/a.h", '#include "service/update.h"\n')
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "layering")

    def test_cmake_edge_grants_the_include(self):
        # ...but adding the target_link_libraries edge makes the same
        # include clean: the build graph IS the layering spec.
        self.link("net", "service", "view", "relational", "util")
        self.write("src/net/a.h", '#include "service/update.h"\n')
        self.assert_clean()

    def test_multiline_link_command_parsed(self):
        self.write("src/net/CMakeLists.txt",
                   "add_library(relview_net a.cc)\n"
                   "target_link_libraries(relview_net\n"
                   "  PUBLIC relview_service  # front-door over the service\n"
                   "         relview_util Threads::Threads)\n")
        self.write("src/net/a.h", '#include "service/update.h"\n')
        self.assert_clean()

    def test_same_directory_clean(self):
        self.write("src/view/a.h", '#include "view/b.h"\n')
        self.assert_clean()

    def test_system_and_foreign_includes_ignored(self):
        self.write("src/view/a.h",
                   "#include <vector>\n"
                   '#include "gtest/gtest.h"\n')
        self.assert_clean()

    def test_unknown_directory_flagged(self):
        # No CMakeLists.txt -> the directory has no place in the DAG.
        self.write("src/newdir/a.h", "int x;\n")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "layering")

    def test_shard_layer_sits_above_service(self):
        # Mirror of the real tree's src/shard/ edges: shard links service
        # (and below), so shard -> service includes are clean while
        # service -> shard includes are flagged — the router composition
        # layer may see the per-shard services, never the reverse.
        self.link("shard", "service", "view", "relational", "util")
        self.write("src/shard/a.h", '#include "service/update_service.h"\n')
        self.assert_clean()
        self.write("src/service/b.h", '#include "shard/router.h"\n')
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "layering")

    def test_link_cycle_flagged(self):
        self.link("aaa", "bbb")
        self.link("bbb", "aaa")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assertIn("cycle", out)
        self.assert_rules(out, "layering")


class Suppression(LintFixture):
    def test_allow_comment_suppresses(self):
        self.write("src/view/a.cc",
                   "void f() {\n"
                   "  assert(x);  // relview-lint: allow(raw-assert)\n"
                   "}\n")
        self.assert_clean()

    def test_allow_wrong_rule_does_not_suppress(self):
        self.write("src/view/a.cc",
                   "void f() {\n"
                   "  assert(x);  // relview-lint: allow(layering)\n"
                   "}\n")
        code, out = self.run_lint()
        self.assertEqual(code, 1)
        self.assert_rules(out, "raw-assert")


class RealTree(unittest.TestCase):
    def test_repository_is_clean(self):
        repo = os.path.dirname(
            os.path.dirname(os.path.abspath(relview_lint.__file__)))
        if not os.path.isdir(os.path.join(repo, "src")):
            self.skipTest("not running inside the repository")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = relview_lint.main(["--root", repo])
        self.assertEqual(code, 0, out.getvalue())


if __name__ == "__main__":
    unittest.main()
