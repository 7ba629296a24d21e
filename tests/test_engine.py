import hashlib
import math
import multiprocessing
import os
import pickle
import re
import threading
import time
from contextlib import nullcontext
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmparareal import engine
from mmparareal.engine import (
    AlgorithmVariant,
    PararealConfig,
    classic_parareal,
    init_sweep,
    parareal_iteration,
    plain_parareal,
    run,
    worker_pool,
)
from mmparareal.propagators import NonFiniteStateError, orbit
from mmparareal.systems import builtin_brusselator, builtin_quadratic, builtin_toy

U0 = np.array([1.0, 0.0, 0.0])


def toy_config(variant, kmax, epsilon=1e-2, **kw):
    kw.setdefault("dt", 0.1)
    return PararealConfig(
        system=builtin_toy(epsilon),
        t_final=10.0,
        n_iterations=kmax,
        variant=variant,
        u0=U0,
        **kw,
    )


class TestConfigValidation:
    def test_dt_must_divide_t_final(self):
        with pytest.raises(ValueError):
            toy_config(AlgorithmVariant.MATCHING, 2, dt=0.3)

    @pytest.mark.parametrize("times", [{"t_final": 0.0}, {"dt": -0.1}],
                             ids=["zero-t-final", "negative-dt"])
    def test_nonpositive_t_final_or_dt_rejected(self, times):
        with pytest.raises(ValueError, match="t_final and dt must be positive"):
            PararealConfig(
                system=builtin_toy(1e-2), n_iterations=1,
                variant=AlgorithmVariant.MATCHING, u0=U0,
                **{"t_final": 1.0, "dt": 0.1, **times},
            )

    def test_u0_shape_checked(self):
        with pytest.raises(ValueError):
            PararealConfig(
                system=builtin_toy(1e-2),
                t_final=10.0,
                dt=0.1,
                n_iterations=2,
                variant=AlgorithmVariant.MATCHING,
                u0=np.array([1.0, 0.0]),
            )

    def test_u0_must_be_finite(self):
        with pytest.raises(ValueError):
            PararealConfig(
                system=builtin_toy(1e-2),
                t_final=10.0,
                dt=0.1,
                n_iterations=2,
                variant=AlgorithmVariant.MATCHING,
                u0=np.array([1.0, np.nan, 0.0]),
            )

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            toy_config(AlgorithmVariant.MATCHING, -1)

    def test_dae_variant_requires_linear_system(self):
        with pytest.raises(ValueError):
            PararealConfig(
                system=builtin_quadratic(1.0, 1e-3),
                t_final=10.0,
                dt=0.1,
                n_iterations=2,
                variant=AlgorithmVariant.DAE_COARSE,
                u0=np.array([1.0, 1.0]),
            )

    @pytest.mark.parametrize(
        "system, options, match",
        [
            (builtin_toy(1e-3), {"micro_kind": "rk7"}, "micro propagator kind"),
            (builtin_toy(1e-3), {"macro_kind": "rk7"}, "macro propagator kind"),
            (builtin_quadratic(1.0, 1e-3), {"micro_kind": "exact",
             "macro_kind": "euler"}, "exact micro propagator requires the linear"),
            (builtin_quadratic(1.0, 1e-3), {"micro_kind": "euler",
             "macro_kind": "exact"}, "exact macro propagator requires the linear"),
            (builtin_toy(1e-3), {"micro_kind": "euler", "substep": 3e-5},
             "dt/substep"),
            (builtin_toy(1e-3), {"micro_kind": "euler", "substep": 2.5e-5,
             "epsilons": (1e-3, 5e-6)}, "stable substeps are below 2.00004e-05"),
        ],
        ids=["micro-kind", "macro-kind", "exact-micro-nonlinear",
             "exact-macro-nonlinear", "inexact-substep", "second-member-stiff"],
    )
    def test_propagator_rules_reject_the_config(self, system, options, match):
        # The config builds the run's propagators, so each of their rules
        # fails at construction, before any run.
        with pytest.raises(ValueError, match=match):
            PararealConfig(
                system=system, t_final=1.0, dt=0.1, n_iterations=1,
                variant=AlgorithmVariant.MATCHING, u0=np.zeros(system.dim),
                **options,
            )

    def test_run_steps_with_the_config_propagators(self):
        cfg = toy_config(AlgorithmVariant.MATCHING, 1, micro_kind="euler",
                         macro_kind="euler", substep=1e-4)
        r = init_sweep(cfg)
        assert r.micro_prop is cfg.micro_prop
        calls = []

        class Counting:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                method = getattr(self.inner, name)

                def counted(*args):
                    calls.append(name)
                    return method(*args)

                return counted

        # The iteration reads C and the transfer maps from the config.
        cfg.macro_prop, cfg.transfer = Counting(cfg.macro_prop), Counting(cfg.transfer)
        parareal_iteration(r)
        # C: the row's predictions and N sweep steps; restrict: ubar and u0.
        assert calls.count("step") == cfg.n_intervals + 1
        assert calls.count("restrict") == 2
        assert calls.count("match") == 1

    def test_variant_accepts_plain_integers(self):
        cfg = toy_config(2, 1)
        assert cfg.variant is AlgorithmVariant.MATCHING

    def test_empty_epsilon_grid_rejected(self):
        with pytest.raises(ValueError):
            toy_config(AlgorithmVariant.MATCHING, 1, epsilons=())

    @pytest.mark.parametrize(
        "t_final, dt, kmax",
        [(10.0, 1e-300, 2), (1e15, 1e-3, 1)],
        ids=["tiny-dt", "long-horizon"],
    )
    def test_lattice_numpy_cannot_represent_is_rejected(self, t_final, dt, kmax):
        with pytest.raises(ValueError, match=r"t_final/dt = .* n_iterations"):
            PararealConfig(
                system=builtin_toy(1e-2), t_final=t_final, dt=dt,
                n_iterations=kmax, variant=AlgorithmVariant.MATCHING, u0=U0,
            )

    def test_lattice_size_counts_the_grid_members(self):
        # 10^17 + 1 toy states of 24 bytes fit numpy's byte range; four
        # members' worth do not.
        config = partial(
            PararealConfig, system=builtin_toy(1e-2), t_final=1e14, dt=1e-3,
            n_iterations=0, variant=AlgorithmVariant.MATCHING, u0=U0,
        )
        assert config(epsilons=(1e-2,) * 3).n_intervals == 10**17
        with pytest.raises(ValueError, match="too large for numpy"):
            config(epsilons=(1e-2,) * 4)

    def test_grid_members_differ_only_in_epsilon(self):
        cfg = toy_config(AlgorithmVariant.MATCHING, 1, epsilons=[1e-3, 1e-4])
        assert [m.epsilon for m in cfg.members] == [1e-3, 1e-4]
        for m in cfg.members:
            assert np.array_equal(m.A, cfg.system.A)
            assert np.array_equal(m.a_inv_q, cfg.system.a_inv_q)
            assert m.macro_rate() == cfg.system.macro_rate()


class TestInitSweep:
    def test_slow_lattice_is_coarse_orbit(self):
        r = init_sweep(toy_config(AlgorithmVariant.LIFTING, 2))
        assert r.x[0][1][0] == pytest.approx(0.9048374180359595, rel=1e-12)
        assert r.x[0][2][0] == pytest.approx(np.exp(-0.2), rel=1e-12)

    def test_full_states_are_lifted(self):
        r = init_sweep(toy_config(AlgorithmVariant.LIFTING, 2))
        assert np.allclose(
            r.u[0][1], [0.904837, -0.904837, 2.714512], atol=1e-6
        )

    def test_initial_state_is_not_lifted(self):
        # u0 = (1, 0, 0) sits off the slow manifold; slot [0][0] must keep it.
        r = init_sweep(toy_config(AlgorithmVariant.LIFTING, 2))
        assert np.array_equal(r.u[0][0], U0)

    def test_euler_coarse_orbit(self):
        r = init_sweep(toy_config(AlgorithmVariant.LIFTING, 2, macro_kind="euler"))
        assert r.x[0][1][0] == pytest.approx(0.9, rel=1e-12)

    def test_unfilled_rows_are_nan(self):
        r = init_sweep(toy_config(AlgorithmVariant.LIFTING, 2))
        assert r.rows_filled == 1
        assert np.all(np.isnan(r.u[1]))


class TestIterationStructure:
    def test_iterating_past_allocation_raises(self):
        r = run(toy_config(AlgorithmVariant.MATCHING, 1))
        with pytest.raises(ValueError):
            parareal_iteration(r)

    @pytest.mark.parametrize(
        "epsilons, workers",
        [(None, 1), ((1e-2, 3e-3, 1e-3), 1), (None, 2)],
        ids=["plain", "grid", "pool"],
    )
    def test_each_call_fills_the_next_row_of_run(self, epsilons, workers):
        cfg = toy_config(
            AlgorithmVariant.MATCHING, 3, epsilons=epsilons, with_reference=False
        )
        with worker_pool(workers) if workers > 1 else nullcontext() as pool:
            r = init_sweep(cfg)
            for k in range(cfg.n_iterations):
                parareal_iteration(r, workers=workers, pool=pool)
                assert r.rows_filled == k + 2
        whole = run(cfg)
        assert r.u.tobytes() == whole.u.tobytes()
        assert r.x.tobytes() == whole.x.tobytes()

    def test_call_after_the_last_row_changes_nothing(self):
        r = run(toy_config(AlgorithmVariant.MATCHING, 2))
        u, x = r.u.tobytes(), r.x.tobytes()
        with pytest.raises(ValueError, match="all 2 iterations are filled"):
            parareal_iteration(r)
        assert r.rows_filled == 3
        assert (r.u.tobytes(), r.x.tobytes()) == (u, x)

    def test_row_index_is_not_an_argument(self):
        # A positional second argument is rejected, not taken as workers.
        r = init_sweep(toy_config(AlgorithmVariant.MATCHING, 2))
        with pytest.raises(TypeError):
            parareal_iteration(r, 0)
        assert r.rows_filled == 1
        assert np.all(np.isnan(r.u[1]))

    def test_row_zero_is_variant_independent(self):
        rows = [
            run(toy_config(v, 0)).u[0]
            for v in (
                AlgorithmVariant.LIFTING,
                AlgorithmVariant.MATCHING,
                AlgorithmVariant.DAE_COARSE,
            )
        ]
        assert np.array_equal(rows[0], rows[1])
        assert np.array_equal(rows[0], rows[2])

    def test_zero_iteration_run(self):
        r = run(toy_config(AlgorithmVariant.MATCHING, 0))
        assert r.rows_filled == 1
        assert r.u.shape == (1, 101, 3)
        assert r.reference is not None

    def test_reference_can_be_skipped(self):
        r = run(toy_config(AlgorithmVariant.MATCHING, 1, with_reference=False))
        assert r.reference is None
        assert r.rows_filled == 2


class TestFirstCorrection:
    def test_matching_first_interval_equals_fine_step(self):
        # On the first interval the coarse terms cancel, so the corrected
        # state is the fine endpoint itself.
        r = run(toy_config(AlgorithmVariant.MATCHING, 1))
        want = r.micro_prop.step(U0)
        assert np.allclose(r.u[1][1], want, rtol=1e-13, atol=0)

    def test_dae_first_interval_equals_fine_step(self):
        r = run(toy_config(AlgorithmVariant.DAE_COARSE, 1))
        want = r.micro_prop.step(U0)
        assert np.allclose(r.u[1][1], want, rtol=1e-13, atol=0)

    def test_lifting_rows_stay_on_manifold(self):
        system = builtin_toy(1e-2)
        r = run(toy_config(AlgorithmVariant.LIFTING, 3))
        for k in range(4):
            for n in range(1, 101):
                u = r.u[k][n]
                offset = u[1:] - system.a_inv_q * u[0]
                assert np.array_equal(offset, np.zeros(2))


class TestFiniteStepConvergence:
    def test_matching_row_n_equals_reference(self):
        # After as many corrections as intervals, every endpoint reproduces
        # the sequential fine trajectory.
        cfg = PararealConfig(
            system=builtin_toy(1e-2),
            t_final=10.0,
            dt=0.5,
            n_iterations=20,
            variant=AlgorithmVariant.MATCHING,
            u0=U0,
        )
        r = run(cfg)
        gap = np.linalg.norm(r.u[20] - r.reference)
        assert gap <= 1e-11 * np.linalg.norm(r.reference)


class TestWorkerInvariance:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("variant", list(AlgorithmVariant), ids=lambda v: v.name)
    def test_lattices_identical_with_two_workers(self, variant, workers):
        # N = 10 intervals, so 3 workers cut uneven 4/3/3 slabs.
        cfg = PararealConfig(
            system=builtin_toy(1e-2),
            t_final=1.0,
            dt=0.1,
            n_iterations=2,
            variant=variant,
            u0=U0,
        )
        r1 = run(cfg, workers=1)
        r2 = run(cfg, workers=workers)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.x, r2.x)

    @pytest.mark.parametrize(
        "system, u0, variant",
        [
            (builtin_quadratic(1.0, 1e-2), [1.0, 0.0], AlgorithmVariant.LIFTING),
            (builtin_brusselator(1e-2), [1.0, 1.0, 3.0], AlgorithmVariant.MATCHING),
        ],
        ids=["quadratic-LIFTING", "brusselator-MATCHING"],
    )
    def test_nonlinear_euler_lattices_identical_with_two_workers(
        self, system, u0, variant
    ):
        # The nonlinear Euler micro propagator, with its float-loop kernel,
        # pickled into the pool.
        cfg = PararealConfig(
            system=system,
            t_final=1.0,
            dt=0.1,
            n_iterations=2,
            variant=variant,
            u0=np.array(u0),
            micro_kind="euler",
            macro_kind="euler",
            substep=1e-3,
        )
        r1 = run(cfg, workers=1)
        r2 = run(cfg, workers=2)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.x, r2.x)

    def test_caller_pool_is_used_and_left_running(self):
        # Two runs, one grid run with its reference mapped over the pool,
        # share the caller's pool; each is bitwise the run without one.
        config = partial(
            PararealConfig, system=builtin_toy(1e-2), t_final=1.0, dt=0.1,
            n_iterations=2, variant=AlgorithmVariant.MATCHING, u0=U0,
            micro_kind="euler", substep=1e-4,
        )
        plain, grid = config(), config(epsilons=(1e-2, 1e-3))
        with worker_pool(2) as pool:
            for cfg in (plain, grid):
                shared, alone = run(cfg, workers=2, pool=pool), run(cfg)
                assert np.array_equal(shared.u, alone.u)
                assert np.array_equal(shared.reference, alone.reference)
            assert pool.submit(abs, -1).result() == 1

    def test_slabs_without_a_pool_are_the_one_worker_row(self):
        # workers is the slab count with or without a pool.
        config = toy_config(AlgorithmVariant.MATCHING, 2, with_reference=False)
        counted = toy_config(AlgorithmVariant.MATCHING, 2, with_reference=False)
        rows = []

        class CountingMicro:
            def step(self, states):
                rows.append(len(states))
                return config.micro_prop.step(states)

        counted.micro_prop = CountingMicro()
        one, three = init_sweep(config), init_sweep(counted)
        for k in range(2):
            parareal_iteration(one)
            parareal_iteration(three, workers=3)
            assert three.u[k + 1].tobytes() == one.u[k + 1].tobytes()
            assert len(three.timings.fine_wall) == k + 1
            assert len(three.timings.fine_task_seconds) == k + 1
        assert rows == [34, 33, 33] * 2

    @pytest.mark.parametrize("workers", [0, -1, 1.5])
    def test_a_bad_worker_count_is_refused_before_any_work(self, workers, monkeypatch):
        # run refuses it before the init sweep and before any pool, a pool
        # at construction, and parareal_iteration before it touches the
        # row: nothing is forked and row 1 stays NaN.
        def refused(*args, **kwargs):
            raise AssertionError("reached past the worker-count check")

        monkeypatch.setattr(engine._FORK, "Process", refused)
        config = toy_config(AlgorithmVariant.MATCHING, 1)
        r = init_sweep(config)
        message = re.escape(f"got {workers!r}")
        with monkeypatch.context() as patched:
            patched.setattr(engine, "init_sweep", refused)
            with pytest.raises(ValueError, match=message):
                run(config, workers=workers)
        with pytest.raises(ValueError, match=message):
            worker_pool(workers)
        with worker_pool(2) as pool:
            with pytest.raises(ValueError, match=message):
                parareal_iteration(r, workers=workers, pool=pool)
        assert r.rows_filled == 1
        assert np.isnan(r.u[1]).all() and np.isnan(r.x[1]).all()
        assert multiprocessing.active_children() == []

    def test_numpy_integer_worker_counts_pass(self):
        config = toy_config(AlgorithmVariant.MATCHING, 1, with_reference=False)
        r = run(config, workers=np.int64(2))
        assert r.u.tobytes() == run(config).u.tobytes()
        assert multiprocessing.active_children() == []

    def test_task_timings_recorded_per_iteration(self):
        r = run(toy_config(AlgorithmVariant.MATCHING, 2))
        assert len(r.timings.fine_wall) == 2
        assert len(r.timings.fine_task_seconds) == 2
        assert all(t > 0 for t in r.timings.fine_task_seconds)


def _blown_up_reference(prop, u0, n):
    # Module level, so that a pool task pickles it by name.
    raise NonFiniteStateError("non-finite state in the reference")


_fine_slab = engine._fine_slab


def _blown_up_slab(in_worker, prop, states):
    # Module level, so that a pool task pickles it by name: the slab blows
    # up in a pool worker or in the calling process.
    if (multiprocessing.parent_process() is not None) == in_worker:
        raise NonFiniteStateError("non-finite state in a slab")
    return _fine_slab(prop, states)


def _euler_config(system, u0, variant, macro_kind="euler", **kw):
    # N = 10 and K = 2 with Euler fine (substep 1e-3) and, by default, coarse.
    return PararealConfig(
        system=system, t_final=1.0, dt=0.1, n_iterations=2, variant=variant,
        u0=np.array(u0), micro_kind="euler", macro_kind=macro_kind, substep=1e-3,
        **kw,
    )


REFERENCE_CASES = [
    pytest.param(
        lambda: _euler_config(
            builtin_brusselator(1e-2), [1.0, 1.0, 3.0], AlgorithmVariant.MATCHING
        ),
        id="brusselator-plain",
    ),
    pytest.param(
        lambda: _euler_config(
            builtin_quadratic(1.0, 1e-2), [1.0, 0.0], AlgorithmVariant.LIFTING,
            epsilons=(1e-2, 3e-3, 1e-3),
        ),
        id="quadratic-grid",
    ),
]


class TestReferenceInPool:
    """With a pool the reference runs as tasks beside the iterations."""

    @pytest.mark.parametrize("make_config", REFERENCE_CASES)
    def test_bitwise_the_one_worker_run(self, make_config):
        config = make_config()
        alone = run(config, workers=1)
        for workers in (2, 4):
            pooled = run(config, workers=workers)
            assert multiprocessing.active_children() == []
            for name in ("u", "x", "reference"):
                assert np.array_equal(getattr(pooled, name), getattr(alone, name))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("make_config", REFERENCE_CASES)
    def test_reference_failure_raises(self, make_config, workers, monkeypatch):
        monkeypatch.setattr(engine, "_member_reference", _blown_up_reference)
        with pytest.raises(NonFiniteStateError, match="in the reference"):
            run(make_config(), workers=workers)
        assert multiprocessing.active_children() == []

    def test_failed_run_cancels_its_queued_reference_tasks(self, monkeypatch):
        # On a caller's pool of one worker, the first of three reference
        # tasks runs and two wait; slab 0 fails in this process, and the run
        # withdraws the two before the pool, which outlives it, runs them.
        monkeypatch.setattr(engine, "_fine_slab", partial(_blown_up_slab, False))
        config = toy_config(AlgorithmVariant.MATCHING, 2, epsilons=(1e-2, 1e-3, 1e-4))
        tasks = []

        class Spy:
            def submit(self, fn, *args):
                tasks.append(pool.submit(fn, *args))
                return tasks[-1]

        with worker_pool(1) as pool:
            with pytest.raises(NonFiniteStateError, match="stage 2a"):
                run(config, workers=2, pool=Spy())
            assert [t.cancelled() for t in tasks] == [False, True, True, False]
        assert multiprocessing.active_children() == []

    def test_failed_iterations_skip_the_in_process_reference(self, monkeypatch):
        # Without a pool the reference is stepped after the last iteration,
        # so a run that fails in iteration 0 never steps it.
        calls = []
        monkeypatch.setattr(
            engine, "_member_reference", lambda *args: calls.append(args)
        )
        config = _euler_config(
            builtin_quadratic(1.0, 1e-3), [-2.0, 4.0], AlgorithmVariant.LIFTING
        )
        with pytest.raises(NonFiniteStateError, match="iteration 0"):
            run(config, workers=1)
        assert calls == []


GRID_CASES = [
    *[
        pytest.param(builtin_toy, [1.0, 0.0, 0.0], variant, fine, "exact",
                     id=f"toy-{variant.name}-{fine}")
        for fine in ("exact", "euler")
        for variant in AlgorithmVariant
    ],
    *[
        pytest.param(partial(builtin_quadratic, 1.0), [1.0, 0.0],
                     AlgorithmVariant.LIFTING, "euler", coarse,
                     id=f"quadratic-LIFTING-{coarse}")
        for coarse in ("euler", "rk4")
    ],
    *[
        pytest.param(builtin_brusselator, [1.0, 1.0, 3.0],
                     AlgorithmVariant.MATCHING, "euler", coarse,
                     id=f"brusselator-MATCHING-{coarse}")
        for coarse in ("euler", "rk4")
    ],
]


class TestBlowUpContext:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_blow_up_names_where_it_happened(self, workers):
        # From u0 = (-2, 4) the quadratic's slow model blows up at t = ln 2.
        # Iteration 0's fine stage overflows before the reference is stepped
        # (1 worker) or gathered (2 workers).
        config = _euler_config(
            builtin_quadratic(1.0, 1e-3), [-2.0, 4.0], AlgorithmVariant.LIFTING
        )
        with pytest.raises(NonFiniteStateError) as info:
            run(config, workers=workers)
        assert str(info.value) == (
            "non-finite state in Euler micro step; iteration 0, stage 2a (fine), "
            "dt=0.1"
        )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("in_worker", [False, True], ids=["caller", "worker"])
    def test_slab_blow_up_names_the_fine_stage(self, in_worker, monkeypatch):
        # The calling process steps slab 0 and a pool worker slab 1; a
        # blow-up in either is named the same way.
        monkeypatch.setattr(engine, "_fine_slab", partial(_blown_up_slab, in_worker))
        config = toy_config(AlgorithmVariant.MATCHING, 2, with_reference=False)
        with pytest.raises(NonFiniteStateError) as info:
            run(config, workers=2)
        assert str(info.value) == (
            "non-finite state in a slab; iteration 0, stage 2a (fine), dt=0.1"
        )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("coarse, name", [("euler", "Euler"), ("rk4", "RK4")])
    def test_init_sweep_blow_up_is_named(self, coarse, name, workers):
        # From u0 = (-20, 400) the coarse sweep of row 0 overflows.
        config = _euler_config(
            builtin_quadratic(1.0, 1e-3), [-20.0, 400.0], AlgorithmVariant.LIFTING,
            macro_kind=coarse,
        )
        with pytest.raises(NonFiniteStateError) as info:
            run(config, workers=workers)
        assert str(info.value) == (
            f"non-finite state in {name} macro step; init sweep, dt=0.1"
        )
        assert multiprocessing.active_children() == []


class TestEpsilonGrid:
    """A grid run is the plain runs at its epsilons, stacked on axis 2."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "epsilons", [(3e-3,), (1e-2, 3e-3, 1e-3)], ids=["E1", "E3"]
    )
    @pytest.mark.parametrize("builder, u0, variant, fine, coarse", GRID_CASES)
    def test_each_slice_is_the_plain_run(
        self, builder, u0, variant, fine, coarse, epsilons, workers
    ):
        # N = 10 and K = 2; the Euler substep 1e-3 is stable down to
        # epsilon = 1e-3 for all three systems.
        def config(epsilon, **kw):
            return PararealConfig(
                system=builder(epsilon),
                t_final=1.0,
                dt=0.1,
                n_iterations=2,
                variant=variant,
                u0=np.array(u0),
                micro_kind=fine,
                macro_kind=coarse,
                substep=1e-3 if fine == "euler" else None,
                **kw,
            )

        grid = run(config(epsilons[0], epsilons=epsilons), workers=workers)
        d = len(u0)
        assert grid.u.shape == (3, 11, len(epsilons), d)
        assert grid.reference.shape == (11, len(epsilons), d)
        for i, epsilon in enumerate(epsilons):
            plain = run(config(epsilon))
            assert plain.u.shape == (3, 11, d)
            assert plain.reference.shape == (11, d)
            assert np.array_equal(grid.u[:, :, i], plain.u)
            assert np.array_equal(grid.x[:, :, i], plain.x)
            assert np.array_equal(grid.reference[:, i], plain.reference)

    # Down to epsilon = 1e-3, every system's Euler substep 1e-3 is stable.
    STABLE_EPS = (5e-2, 2e-2, 1e-2, 5e-3, 3e-3, 2e-3, 1e-3)
    PROPERTY_CASES = {
        "toy-exact-MATCHING": (builtin_toy, [1.0, 0.0, 0.0], "MATCHING", "exact",
                               "exact"),
        "toy-euler-MATCHING": (builtin_toy, [1.0, 0.0, 0.0], "MATCHING", "euler",
                               "exact"),
        "quadratic-euler-rk4": (partial(builtin_quadratic, 1.0), [1.0, 0.0],
                                "LIFTING", "euler", "rk4"),
    }

    @pytest.mark.parametrize("case", list(PROPERTY_CASES))
    @settings(max_examples=10)
    @given(epsilons=st.lists(st.sampled_from(STABLE_EPS), min_size=1, max_size=5))
    def test_slices_are_the_plain_runs_for_any_grid(self, case, epsilons):
        builder, u0, variant, fine, coarse = self.PROPERTY_CASES[case]

        def config(epsilon, **kw):
            return PararealConfig(
                system=builder(epsilon), t_final=0.5, dt=0.1, n_iterations=2,
                variant=AlgorithmVariant[variant], u0=np.array(u0),
                micro_kind=fine, macro_kind=coarse,
                substep=1e-3 if fine == "euler" else None, **kw,
            )

        grid = run(config(epsilons[0], epsilons=epsilons))
        for i, epsilon in enumerate(epsilons):
            plain = run(config(epsilon))
            assert grid.u[:, :, i].tobytes() == plain.u.tobytes()
            assert grid.x[:, :, i].tobytes() == plain.x.tobytes()
            assert grid.reference[:, i].tobytes() == plain.reference.tobytes()


class TestWorkerPool:
    def test_exit_cancels_queued_tasks_and_joins_workers(self):
        # Two workers cannot start forty tasks before the block raises: each
        # worker is handed one task at a time, so the tasks still queued are
        # cancelled, the ones already handed out run to their end, and no
        # worker outlives the block. The pool starts no thread.
        workers, threads = 2, threading.enumerate()
        with pytest.raises(RuntimeError, match="stop"):
            with worker_pool(workers) as pool:
                futures = [pool.submit(time.sleep, 0.2) for _ in range(40)]
                assert threading.enumerate() == threads
                raise RuntimeError("stop")
        started = [f for f in futures if not f.cancelled()]
        assert len(started) <= workers
        assert all(f.result() is None for f in started)
        assert multiprocessing.active_children() == []

    def test_unpicklable_task_fails_at_its_result(self):
        # As with concurrent.futures: submit returns, result() raises, and
        # the pool runs the next task.
        with worker_pool(1) as pool:
            task = pool.submit(lambda: 1)
            with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
                task.result()
            assert pool.submit(abs, -1).result() == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_each_iteration_submits_every_slab_but_the_first(self, workers):
        # The calling process steps slab 0 itself.
        config = toy_config(AlgorithmVariant.MATCHING, 2, with_reference=False)
        submitted = []

        class Spy:
            def submit(self, fn, *args):
                submitted.append((fn, len(args[1])))
                return pool.submit(fn, *args)

        with worker_pool(workers) as pool:
            spied = run(config, workers=workers, pool=Spy())
        sizes = [len(s) for s in np.array_split(np.empty(100), workers)]
        assert submitted == [(engine._fine_slab, n) for n in sizes[1:]] * 2
        assert spied.u.tobytes() == run(config).u.tobytes()

    def test_a_row_shorter_than_workers_makes_no_empty_slab(self):
        # N = 2 at 4 workers: two 1-row slabs, slab 0 stepped here and one
        # submitted per iteration, where a cut into 4 slabs would submit
        # [1, 0, 0] and fork a worker for each.
        config = toy_config(AlgorithmVariant.MATCHING, 2, dt=5.0, with_reference=False)
        submitted = []

        class Spy:
            def submit(self, fn, *args):
                submitted.append(len(args[1]))
                return pool.submit(fn, *args)

        with worker_pool(4) as pool:
            spied = run(config, workers=4, pool=Spy())
        assert submitted == [1, 1]
        assert spied.u.tobytes() == run(config).u.tobytes()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("with_reference, forks", [(False, 1), (True, 2)])
    def test_run_forks_a_worker_per_slab_task_and_one_for_the_reference(
        self, with_reference, forks, monkeypatch
    ):
        # run's own pool is worker_pool(workers), whose workers are forked
        # only for a task that finds none idle: one slab task per iteration
        # at 2 workers, and a reference task submitted before them.
        started = []
        process = engine._FORK.Process

        def counted(*args, **kwargs):
            started.append(process(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(engine._FORK, "Process", counted)
        config = toy_config(AlgorithmVariant.MATCHING, 2, with_reference=with_reference)
        run(config, workers=2)
        assert len(started) == forks
        assert multiprocessing.active_children() == []

    def test_a_lost_worker_is_replaced(self, monkeypatch):
        # The worker that exited is dropped, so the next task forks another.
        started = []
        process = engine._FORK.Process

        def counted(*args, **kwargs):
            started.append(process(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(engine._FORK, "Process", counted)
        with worker_pool(1) as pool:
            with pytest.raises(engine.WorkerLostError, match="code 9"):
                pool.submit(os._exit, 9).result()
            assert pool.submit(abs, -1).result() == 1
            assert len(started) == 2 and started[1].is_alive()
        assert multiprocessing.active_children() == []

    def test_exception_drives_a_running_task_to_its_end(self):
        # The calling process completes the future; no thread waits for it.
        threads = threading.enumerate()
        with worker_pool(1) as pool:
            task = pool.submit(math.sqrt, -1.0)
            assert task.running()
            assert isinstance(task.exception(), ValueError)
            assert threading.enumerate() == threads
            with pytest.raises(ValueError, match="math domain error"):
                task.result()

    def test_a_timeout_raises(self):
        # Nothing but a wait in the calling process completes a task, so a
        # timeout could not be honoured.
        with worker_pool(1) as pool:
            task = pool.submit(abs, -1)
            with pytest.raises(ValueError, match="timeout"):
                task.result(timeout=1.0)
            with pytest.raises(ValueError, match="timeout"):
                task.exception(timeout=1.0)
            assert task.result() == 1

    def test_inherited_map_yields_in_order(self):
        threads = threading.enumerate()
        with worker_pool(2) as pool:
            assert list(pool.map(abs, [-1, -2, -3])) == [1, 2, 3]
            assert threading.enumerate() == threads
        assert multiprocessing.active_children() == []

    def test_shutdown_is_final_and_may_be_repeated(self):
        # As with concurrent.futures, a shut-down pool takes no task; the
        # with block's own shutdown after an explicit one does nothing.
        with worker_pool(1) as pool:
            assert pool.submit(abs, -1).result() == 1
            pool.shutdown()
            assert multiprocessing.active_children() == []
            with pytest.raises(RuntimeError, match="shut down"):
                pool.submit(abs, -1)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_exit_closes_every_descriptor_it_opened(self):
        # Each worker's pipe end and its process's two sentinel descriptors
        # are closed when the block ends, not when the pool is collected.
        before = set(os.listdir("/proc/self/fd"))
        with worker_pool(2) as pool:
            tasks = [pool.submit(time.sleep, 0.05) for _ in range(2)]
            assert all(task.result() is None for task in tasks)
        assert set(os.listdir("/proc/self/fd")) == before


# A contracting rotation and a cruder one, as fine and coarse steps on R^2.
FINE_2D = np.array([[0.9, -0.2], [0.2, 0.9]])
COARSE_2D = np.array([[0.8, -0.1], [0.3, 0.85]])


class TestPlainParareal:
    def test_fine_equal_to_coarse_leaves_row_zero(self):
        step = partial(np.matmul, FINE_2D)
        row0 = orbit(step, [1.0, -0.5], 12)
        u = plain_parareal(step, step, row0, 4)
        assert u.shape == (5, 13, 2)
        assert all(np.array_equal(row, row0) for row in u)

    def test_rows_reach_the_fine_orbit_in_k_steps(self):
        fine, coarse = partial(np.matmul, FINE_2D), partial(np.matmul, COARSE_2D)
        u = plain_parareal(fine, coarse, orbit(coarse, [1.0, -0.5], 10), 10)
        ref = orbit(fine, [1.0, -0.5], 10)
        for k in range(11):
            assert np.max(np.abs(u[k][: k + 1] - ref[: k + 1])) <= 1e-15, k
        assert np.max(np.abs(u[3][4:] - ref[4:])) > 1e-6


class TestClassicParareal:
    @pytest.mark.parametrize("args, digest", [
        ((0.9, 0.9, 1.0, 20, 3),
         "f792b7f860bb94e55760c0daa727d58d13ba96276a2b52f29a645c8e08e73ec1"),
        ((0.9, 0.8, 1.0, 50, 6),
         "2cd76d4953cd11bd6bdad246b5995361762069fab79e7959b7b5d8b4aacf92b9"),
        ((0.95, 0.9, 2.0, 100, 10),
         "14e44dbf7612b47edc7218e151b9104578a09115ebb7ab75280173f79c02c4cb"),
    ], ids=["equal", "n50-k6", "n100-k10"])
    def test_tables_pinned(self, args, digest):
        # Scalar IEEE-754 multiplies and adds only, so the bits hold on any
        # host; recorded before the table went through plain_parareal.
        table = classic_parareal(*args)
        assert table.shape == (args[4] + 1, args[3] + 1)
        assert hashlib.sha256(table.tobytes()).hexdigest() == digest

    def test_identical_propagators_give_zero_error(self):
        table = classic_parareal(0.9, 0.9, 1.0, n_steps=8, k_max=3)
        assert np.all(table == 0.0)

    def test_row_zero_is_coarse_orbit(self):
        table = classic_parareal(0.9, 0.8, 1.0, n_steps=5, k_max=2)
        coarse, fine = 1.0, 1.0
        for n in range(1, 6):
            coarse, fine = 0.8 * coarse, 0.9 * fine
            assert table[0][n] == abs(coarse - fine)

    def test_converges_in_finite_steps(self):
        table = classic_parareal(0.9, 0.8, 1.0, n_steps=4, k_max=4)
        assert np.all(table[4] <= 1e-15)

    def test_errors_start_at_zero(self):
        table = classic_parareal(0.9, 0.8, 2.0, n_steps=3, k_max=2)
        assert np.all(table[:, 0] == 0.0)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            classic_parareal(0.9, 0.8, 1.0, n_steps=0, k_max=2)
        with pytest.raises(ValueError):
            classic_parareal(0.9, 0.8, 1.0, n_steps=5, k_max=-1)
