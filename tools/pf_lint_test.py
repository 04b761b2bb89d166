#!/usr/bin/env python3
"""Unit tests for pf_lint.py: every rule must fire on a bad fixture and stay
quiet on the equivalent good fixture, so a refactor of the linter cannot
silently disable a rule.  Run via ctest (`pf_lint_test`) or directly:
    python3 -m unittest discover -s tools -p pf_lint_test.py
"""

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import pf_lint  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


class FixtureRepo:
    """Materializes a throwaway repo layout from fixture files."""

    def __init__(self):
        self.root = Path(tempfile.mkdtemp(prefix="pf_lint_test_"))

    def add(self, rel, fixture):
        dest = self.root / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(FIXTURES / fixture, dest)
        return dest

    def cleanup(self):
        shutil.rmtree(self.root, ignore_errors=True)


class PfLintTest(unittest.TestCase):
    def setUp(self):
        self.repo = FixtureRepo()
        self.addCleanup(self.repo.cleanup)

    def run_rules(self, rules):
        return pf_lint.run(self.repo.root, rules)

    def rules_hit(self, violations):
        return sorted({v.rule for v in violations})

    # --- obs-compile-out ----------------------------------------------------

    def test_obs_compile_out_fires_on_unguarded_update(self):
        self.repo.add("src/obs/metrics.h", "obs_bad_metrics.h")
        violations = self.run_rules(("obs-compile-out",))
        self.assertEqual(self.rules_hit(violations), ["obs-compile-out"])
        # Exactly the unguarded Add(); the guarded Record() must pass.
        self.assertEqual(len(violations), 1)
        self.assertIn("Add()", violations[0].message)

    def test_obs_compile_out_quiet_on_guarded_updates(self):
        self.repo.add("src/obs/metrics.h", "obs_good_metrics.h")
        self.assertEqual(self.run_rules(("obs-compile-out",)), [])

    def test_obs_compile_out_ignores_read_methods(self):
        # Value() reads the stripes without a guard; that is legal.
        self.repo.add("src/obs/metrics.h", "obs_good_metrics.h")
        self.assertEqual(self.run_rules(("obs-compile-out",)), [])

    # --- wire-bounds-check --------------------------------------------------

    def test_wire_bounds_check_fires_on_unchecked_read(self):
        self.repo.add("src/net/protocol.cc", "parser_bad_bounds.cc")
        violations = self.run_rules(("wire-bounds-check",))
        self.assertEqual(self.rules_hit(violations), ["wire-bounds-check"])
        self.assertEqual(len(violations), 1)

    def test_wire_bounds_check_quiet_on_checked_reads(self):
        self.repo.add("src/net/protocol.cc", "parser_good.cc")
        self.assertEqual(self.run_rules(("wire-bounds-check",)), [])

    def test_wire_bounds_check_resets_per_function(self):
        # A guard in one function must not excuse a read in the next.
        self.repo.add("src/net/protocol.cc", "parser_bad_guard_reset.cc")
        violations = self.run_rules(("wire-bounds-check",))
        self.assertEqual(len(violations), 1)

    def test_wire_bounds_check_skips_getu_helpers(self):
        # The GetU* helper definitions read without a length check by
        # design; parser_good.cc contains one.
        self.repo.add("src/net/protocol.cc", "parser_good.cc")
        self.assertEqual(self.run_rules(("wire-bounds-check",)), [])

    # --- parser-reinterpret-cast --------------------------------------------

    def test_reinterpret_cast_fires_in_parser_file(self):
        self.repo.add("src/net/protocol.cc", "parser_bad_reinterpret.cc")
        violations = self.run_rules(("parser-reinterpret-cast",))
        self.assertEqual(self.rules_hit(violations),
                         ["parser-reinterpret-cast"])

    def test_reinterpret_cast_quiet_on_memcpy_style(self):
        self.repo.add("src/net/protocol.cc", "parser_good.cc")
        self.assertEqual(self.run_rules(("parser-reinterpret-cast",)), [])

    def test_reinterpret_cast_ignores_non_parser_files(self):
        # The same cast in a SIMD kernel file is out of scope.
        self.repo.add("src/core/simd_kernel.cc", "parser_bad_reinterpret.cc")
        self.assertEqual(self.run_rules(("parser-reinterpret-cast",)), [])

    # --- steady-clock -------------------------------------------------------

    def test_steady_clock_fires_outside_obs(self):
        self.repo.add("src/service/worker.cc", "clock_bad.cc")
        violations = self.run_rules(("steady-clock",))
        self.assertEqual(self.rules_hit(violations), ["steady-clock"])

    def test_steady_clock_allows_obs(self):
        self.repo.add("src/obs/metrics.cc", "clock_bad.cc")
        self.assertEqual(self.run_rules(("steady-clock",)), [])

    def test_steady_clock_honors_suppression(self):
        self.repo.add("src/service/worker.cc", "clock_suppressed.cc")
        self.assertEqual(self.run_rules(("steady-clock",)), [])

    def test_steady_clock_ignores_comment_mentions(self):
        self.repo.add("src/service/worker.cc", "clock_comment_only.cc")
        self.assertEqual(self.run_rules(("steady-clock",)), [])

    # --- const-probe --------------------------------------------------------

    def test_const_probe_fires_on_plain_mutable_members(self):
        self.repo.add("src/core/bad_filter.h", "const_probe_bad.h")
        violations = self.run_rules(("const-probe",))
        self.assertEqual(self.rules_hit(violations), ["const-probe"])
        # The stats struct, the pointer-to-locks and the unjustified allow.
        self.assertEqual(sorted(v.line for v in violations), [17, 19, 21])

    def test_const_probe_covers_filters_and_pd(self):
        self.repo.add("src/filters/bad_filter.h", "const_probe_bad.h")
        self.repo.add("src/pd/bad_pd.h", "const_probe_bad.h")
        violations = self.run_rules(("const-probe",))
        self.assertEqual(len(violations), 6)

    def test_const_probe_quiet_on_atomics_locks_lambdas_and_allows(self):
        self.repo.add("src/core/good_filter.h", "const_probe_good.h")
        self.assertEqual(self.run_rules(("const-probe",)), [])

    def test_const_probe_ignores_other_directories(self):
        # Service and net code keep their own mutable state under locks.
        self.repo.add("src/service/bad_filter.h", "const_probe_bad.h")
        self.assertEqual(self.run_rules(("const-probe",)), [])

    # --- suppressions & plumbing --------------------------------------------

    def test_suppression_only_matches_its_rule(self):
        # allow(steady-clock) must not silence a reinterpret_cast hit.
        self.repo.add("src/net/protocol.cc", "parser_bad_wrong_allow.cc")
        violations = self.run_rules(("parser-reinterpret-cast",))
        self.assertEqual(self.rules_hit(violations),
                         ["parser-reinterpret-cast"])

    def test_cli_exit_codes(self):
        self.repo.add("src/service/worker.cc", "clock_bad.cc")
        self.assertEqual(
            pf_lint.main(["--root", str(self.repo.root),
                          "--rules", "steady-clock"]), 1)
        self.assertEqual(
            pf_lint.main(["--root", str(self.repo.root),
                          "--rules", "wire-bounds-check"]), 0)
        self.assertEqual(
            pf_lint.main(["--root", str(self.repo.root),
                          "--rules", "no-such-rule"]), 2)
        self.assertEqual(pf_lint.main(["--root", "/no/such/dir"]), 2)

    def test_real_repo_is_clean(self):
        # The committed tree must satisfy its own lint (same invocation as
        # the `pf_lint` ctest entry).
        repo_root = Path(__file__).resolve().parent.parent
        self.assertEqual(pf_lint.run(repo_root, pf_lint.ALL_RULES), [])


if __name__ == "__main__":
    unittest.main()
