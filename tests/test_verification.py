import numpy as np

from mmparareal import verification
from mmparareal.engine import AlgorithmVariant


class TestRunChecks:
    def test_all_checks_pass(self):
        results = verification.run_checks()
        failures = [r for r in results if not r.ok]
        assert failures == [], "\n".join(
            f"{r.name}: {r.detail}" for r in failures
        )

    def test_names_are_unique_and_stable(self):
        names = [name for name, _ in verification.CHECKS]
        assert len(names) == len(set(names))
        assert "consistency-lattice" in names
        assert "tampered-match-detected" in names

    def test_crashing_check_is_reported_as_failure(self, monkeypatch):
        def boom():
            raise RuntimeError("synthetic defect")

        monkeypatch.setattr(verification, "CHECKS", [("boom", boom)])
        results = verification.run_checks()
        assert len(results) == 1
        assert not results[0].ok
        assert "synthetic defect" in results[0].detail


class TestTamperSensitivity:
    def test_untampered_run_is_consistent(self):
        run = verification._toy_run(AlgorithmVariant.MATCHING, kmax=2)
        assert verification._consistency_violation(run) <= 1e-13

    def test_tampered_matching_is_flagged(self):
        run = verification._tampered_run(kmax=2)
        assert verification._consistency_violation(run) > 1e-13


class TestRecursionDefect:
    def test_closed_form_matches_sweep(self):
        run = verification._toy_run(AlgorithmVariant.MATCHING, kmax=3)
        assert verification._recursion_defect(run) <= 1e-10

    def test_recursion_is_nontrivial(self):
        # The predicted macro errors are far above round-off, so the
        # recursion check compares real quantities, not zeros.
        run = verification._toy_run(AlgorithmVariant.MATCHING, kmax=1)
        big_e1 = run.x[1][:, 0] - run.reference[:, 0]
        assert np.max(np.abs(big_e1)) > 1e-9
