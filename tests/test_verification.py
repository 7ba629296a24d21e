import multiprocessing

import numpy as np
import pytest

from mmparareal import engine, verification
from mmparareal.engine import AlgorithmVariant, _fine_slab
from mmparareal.transfer import TransferSet


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


# The determinism check's row: N = 100 intervals.
ROW = verification._toy_config(AlgorithmVariant.MATCHING).n_intervals


def _split_slabs_one_ulp_off(prop, states):
    # engine._fine_slab, except that a slab shorter than the row ends one
    # ulp higher. Module level, so that a pool task pickles it by name.
    ends, seconds = _fine_slab(prop, states)
    if len(states) < ROW:
        ends = np.nextafter(ends, np.inf)
    return ends, seconds


class TestDeterminismCheck:
    def test_passes_and_leaves_no_child(self):
        assert verification.check_determinism_across_workers() == (
            True, "lattices bit-identical for 1 and 2 workers"
        )
        assert multiprocessing.active_children() == []

    def test_split_slabs_one_ulp_off_fail(self, monkeypatch):
        # The 1-worker run steps whole rows and the 2-worker run half rows,
        # both in the check's pool, whose workers fork after this patch.
        monkeypatch.setattr(engine, "_fine_slab", _split_slabs_one_ulp_off)
        ok, _ = verification.check_determinism_across_workers()
        assert not ok
        assert multiprocessing.active_children() == []


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

    @pytest.mark.parametrize("variant", list(AlgorithmVariant))
    def test_lattice_form_equals_per_point_sums(self, variant):
        # Reference: the closed form summed separately for each (k, n). Both
        # add the same terms in another order, so the defects agree to a few
        # ulps of the macro errors (at most about 1e-7), far below 1e-20.
        run = verification._toy_run(variant, epsilon=1e-4)
        phi_row, rho = run.micro_prop.phi[0], run.macro_prop.rho
        ref, n = run.reference, run.config.n_intervals
        worst = 0.0
        big_e = run.x[:, :, 0] - ref[:, 0]
        for k in range(run.config.n_iterations):
            source = (run.u[k] - ref) @ phi_row - rho * big_e[k]
            for j in range(2, n + 1):
                predicted = rho ** (j - 1 - np.arange(1, j)) @ source[1:j]
                worst = max(worst, abs(predicted - big_e[k + 1][j]))
        assert worst > 0.0
        assert abs(verification._recursion_defect(run) - worst) <= 1e-20


class _OneRowOff(TransferSet):
    def match(self, x, v):
        out = super().match(x, v)
        out[123, -1] += 1e-9
        return out


class _Expansive(TransferSet):
    def match(self, x, v):
        return 1.5 * super().match(x, v)


class TestRowChecksCanFail:
    @staticmethod
    def use_transfer(monkeypatch, cls):
        monkeypatch.setattr(
            verification, "transfer_for",
            lambda system: cls(system.slow_dim, system.lift_map),
        )

    def test_one_bad_row_fails_transfer_identities(self, monkeypatch):
        self.use_transfer(monkeypatch, _OneRowOff)
        assert verification.check_transfer_identities() == (
            False, "match(restrict(u), u) != u"
        )

    def test_expansive_match_fails_lipschitz(self, monkeypatch):
        self.use_transfer(monkeypatch, _Expansive)
        ok, detail = verification.check_match_lipschitz()
        assert not ok
        assert "worst Lipschitz ratio 1.4" in detail
