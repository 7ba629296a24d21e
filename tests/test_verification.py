import multiprocessing
from functools import partial

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from mmparareal import engine, linalg, verification
from mmparareal.engine import AlgorithmVariant, PararealConfig, _fine_slab
from mmparareal.systems import LinearFastSlowSystem, NonlinearFastSlowSystem
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
        phi_row, rho = run.micro_prop.phi[0], run.config.macro_prop.rho
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


@st.composite
def linear_systems(draw):
    """A LinearFastSlowSystem with 1-5 fast components and an initial state.

    A = M M^T + c I, plus a strictly upper-triangular part in half the draws
    so that A is not normal; a draw whose A has an eigenvalue with real part
    <= 0 is rejected by the constructor and so by the strategy.
    """
    m = draw(st.integers(1, 5))

    def vector(size, scale=1.0):
        return scale * np.array(draw(st.lists(
            st.floats(-1.0, 1.0), min_size=size, max_size=size)))

    base = vector(m * m).reshape(m, m)
    a = base @ base.T + draw(st.floats(0.1, 2.0)) * np.eye(m)
    if draw(st.booleans()):
        a += np.triu(vector(m * m, 2.0).reshape(m, m), 1)
    try:
        system = LinearFastSlowSystem(
            alpha=draw(st.floats(-2.0, 0.5)), p=vector(m), q=vector(m), A=a,
            epsilon=draw(st.sampled_from([1e-3, 1e-2, 1e-1])),
        )
    except ValueError:
        reject()
    return system, vector(m + 1, 2.0)


def _random_run(drawn, variant):
    system, u0 = drawn
    return engine.run(PararealConfig(
        system=system, t_final=2.0, dt=0.1, n_iterations=5, variant=variant,
        u0=u0,
    ))


def _ref_scale(run) -> float:
    """max |ref|: the scale for verify's absolute thresholds."""
    return float(np.max(np.abs(run.reference)))


class TestInvariantsOnRandomLinearSystems:
    # verify's thresholds, on random linear systems with exact propagators.
    # The recursion and lifting-structure thresholds are absolute in verify
    # (the toy's max |ref| is 1), so here they scale with max |ref|.
    @settings(max_examples=60)
    @given(linear_systems())
    def test_lattices_are_consistent(self, drawn):
        for variant in (AlgorithmVariant.LIFTING, AlgorithmVariant.MATCHING):
            run = _random_run(drawn, variant)
            assert verification._consistency_violation(run) <= 1e-13

    @settings(max_examples=60)
    @given(linear_systems())
    def test_local_exactness(self, drawn):
        for variant in (AlgorithmVariant.MATCHING, AlgorithmVariant.DAE_COARSE):
            run = _random_run(drawn, variant)
            assert verification._exactness_defect(run) <= 1e-12

    @settings(max_examples=60)
    @given(linear_systems())
    def test_error_recursion(self, drawn):
        for variant in (AlgorithmVariant.LIFTING, AlgorithmVariant.MATCHING):
            run = _random_run(drawn, variant)
            assert verification._recursion_defect(run) <= 1e-10 * _ref_scale(run)

    @settings(max_examples=60)
    @given(linear_systems())
    def test_lifting_structure(self, drawn):
        run = _random_run(drawn, AlgorithmVariant.LIFTING)
        defect = verification._lifting_structure_defect(run)
        assert defect <= 1e-10 * _ref_scale(run)

    @settings(max_examples=60)
    @given(linear_systems())
    def test_matching_is_plain_parareal(self, drawn):
        run = _random_run(drawn, AlgorithmVariant.MATCHING)
        assert verification._matching_deviation(run) <= 1e-12

    @settings(max_examples=60)
    @given(linear_systems())
    def test_finite_termination_is_bitwise(self, drawn):
        # After k iterations the first k intervals hold their fine values,
        # so iteration k+1 leaves u[k][n] and x[k][n], n <= k, bit for bit.
        for variant in AlgorithmVariant:
            run = _random_run(drawn, variant)
            assert verification._termination_defect(run) == 0.0


# x' = a x + b y + c x^2, y' = (d x + e x^2 - y)/epsilon, slaved to
# y = d x + e x^2. Module level, so that partials of them pickle.
def _polynomial_micro_rhs(a, b, c, d, e, u, epsilon):
    x, y = u
    return a * x + b * y + c * x * x, (d * x + e * x * x - y) / epsilon


def _polynomial_macro_rhs(a, b, c, d, e, v):
    (x,) = v
    return (a * x + b * (d * x + e * x * x) + c * x * x,)


def _polynomial_lift(d, e, v):
    x = v[..., :1]
    return np.concatenate([x, d * x + e * x * x], axis=-1)


def _polynomial_system(coefficients, epsilon):
    d, e = coefficients[3:]
    return NonlinearFastSlowSystem(
        slow_dim=1, fast_dim=1,
        micro_rhs=partial(_polynomial_micro_rhs, *coefficients),
        macro_rhs=partial(_polynomial_macro_rhs, *coefficients),
        lift_map=partial(_polynomial_lift, d, e),
        epsilon=epsilon,
    )


@st.composite
def polynomial_systems(draw):
    """A polynomial NonlinearFastSlowSystem, its coefficients drawn from
    U(-0.5, 0.5), and an initial state in [-1, 1]^2."""
    coefficients = draw(st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5))
    epsilon = draw(st.sampled_from([1e-3, 1e-2, 1e-1]))
    u0 = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
    return _polynomial_system(coefficients, epsilon), np.array(u0)


def _polynomial_run(drawn, variant, workers=1):
    # Euler fine, a user callable stepped one rhs call per substep, and RK4
    # coarse: T = 1, dt = 0.1, K = 4.
    system, u0 = drawn
    return engine.run(PararealConfig(
        system=system, t_final=1.0, dt=0.1, n_iterations=4, variant=variant,
        u0=u0, micro_kind="euler", macro_kind="rk4",
        substep=min(1e-3, system.epsilon / 2), with_reference=False,
    ), workers=workers)


class TestInvariantsOnRandomPolynomialSystems:
    @settings(max_examples=20)
    @given(polynomial_systems())
    def test_termination_and_consistency_are_exact(self, drawn):
        for variant in (AlgorithmVariant.LIFTING, AlgorithmVariant.MATCHING):
            run = _polynomial_run(drawn, variant)
            assert verification._termination_defect(run) == 0.0
            assert verification._consistency_violation(run) == 0.0

    def test_two_workers_are_bitwise_one(self):
        drawn = (
            _polynomial_system([0.3, -0.2, 0.1, 0.4, -0.25], 1e-2),
            np.array([0.7, -0.3]),
        )
        for variant in (AlgorithmVariant.LIFTING, AlgorithmVariant.MATCHING):
            one, two = (_polynomial_run(drawn, variant, w) for w in (1, 2))
            assert two.u.tobytes() == one.u.tobytes()
            assert two.x.tobytes() == one.x.tobytes()
        assert multiprocessing.active_children() == []


class TestTerminationDefect:
    def test_reads_one_ulp_on_a_settled_point_only(self):
        run = verification._toy_run(AlgorithmVariant.LIFTING)
        assert verification._termination_defect(run) == 0.0
        # x[4][4] is not settled after 3 iterations (n = 4 > k = 3).
        run.x[4][4] = np.nextafter(run.x[4][4], np.inf)
        assert verification._termination_defect(run) == 0.0
        run.u[2][1, 0] = np.nextafter(run.u[2][1, 0], np.inf)
        assert verification._termination_defect(run) == np.spacing(run.u[1][1, 0])


class TestSpectralDecay:
    def test_stacked_excesses_equal_per_matrix_loop(self):
        # Reference: the check's former loop, one mat_exp and one 2-norm per
        # matrix. The worst excess is the 0.0 at t = 0, which the report
        # prints as 0.00e+00, so every excess is compared, bitwise.
        rng = np.random.default_rng(99)
        excesses = []
        for _ in range(5):
            n = int(rng.integers(2, 9))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eigs = rng.uniform(1.0, 3.0, n)
            m = q @ np.diag(eigs) @ q.T
            mu = 0.5 * float(np.min(eigs))
            for t in np.linspace(0.0, 50.0 / mu, 100):
                excess = np.linalg.norm(linalg.mat_exp(-m * t), 2) - np.exp(-mu * t)
                excesses.append(excess)
        got = verification._decay_excesses()
        assert got.tobytes() == np.array(excesses).tobytes()
        assert np.max(got).tobytes() == max(excesses).tobytes()
        assert np.count_nonzero(got) == 495
