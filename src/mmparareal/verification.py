"""Named invariant checks behind the CLI ``verify`` subcommand.

Each check returns (ok, detail). They cover the structural identities the
iteration schemes rely on: consistency of the two lattices, local exactness,
the macroscopic error recursion, the lifted-error structure of the lifting
variant, equivalence of the matching variant with plain parareal, operator
identities, linear-algebra accuracy, slope-fit correctness, determinism
across worker counts, and the slow-fast closeness bound ratios. One check
deliberately tampers with the matching operator to confirm the consistency
check has teeth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import analysis, engine, linalg
from .analysis import TOY_U0
from .engine import AlgorithmVariant, PararealConfig
from .propagators import make_micro, orbit
from .systems import builtin_brusselator, builtin_toy
from .transfer import TransferSet, transfer_for

# Epsilon grid of the closeness-bound ratio reports.
LEMMA_EPS = [1e-5, 1e-4, 1e-3, 1e-2]


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _toy_config(variant, epsilon=1e-2, kmax=4, coarse="exact", fine="exact",
                substep=None, with_reference=True):
    return PararealConfig(
        system=builtin_toy(epsilon),
        t_final=10.0,
        dt=0.1,
        n_iterations=kmax,
        variant=variant,
        u0=TOY_U0,
        micro_kind=fine,
        macro_kind=coarse,
        substep=substep,
        with_reference=with_reference,
    )


def _toy_run(variant, **options):
    return engine.run(_toy_config(variant, **options))


def _consistency_violation(run) -> float:
    """max over (k, n, i) of |x - slow part of u| / (1 + |x|)."""
    s = run.config.system.slow_dim
    gap = np.abs(run.x - run.u[:, :, :s])
    return float(np.max(gap / (1.0 + np.abs(run.x))))


def _matching_deviation(run) -> float:
    """max |plain parareal - u| / (1 + |u|) over a MATCHING run of a linear
    system with exact propagators: MATCHING is plain parareal with fine
    propagator F and coarse propagator embed . C . restrict, started from
    the lifted coarse sweep."""
    config, tset = run.config, run.transfer
    phi, rho = run.micro_prop.phi, run.macro_prop.rho

    def coarse_embedded(u):
        out = np.zeros(config.system.dim)
        out[0] = rho * u[0]
        return out

    row0 = orbit(lambda u: tset.lift(rho * u[:1]), config.u0, config.n_intervals)
    u = engine.plain_parareal(
        partial(np.matmul, phi), coarse_embedded, row0, config.n_iterations
    )
    return float(np.max(np.abs(u - run.u) / (1.0 + np.abs(run.u))))


def _lifting_structure_defect(run) -> float:
    """max |e - predicted| over a LIFTING run of a linear system: lifting
    rebuilds every state through L, so the micro error e splits into the
    lifted macro error minus the off-manifold part of the reference."""
    tset, ref = run.transfer, run.reference[1:]
    e = run.u[:, 1:] - ref
    off_manifold = ref - tset.lift(tset.restrict(ref))
    predicted = tset.lift(run.x[:, 1:] - ref[:, :1]) - off_manifold
    return float(np.max(np.abs(e - predicted)))


def check_toy_macro_rate():
    lam = builtin_toy(1e-3).macro_rate()
    return abs(lam + 1.0) <= 1e-14, f"toy macro rate lambda = {lam} (expected -1)"


def check_solve_inverse_residual():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 17))
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2
        b = rng.standard_normal(n)
        w = linalg.solve(a, b)
        res = np.linalg.norm(a @ w - b)
        bound = np.linalg.norm(a) * np.linalg.norm(b)
        worst = max(worst, res / bound)
        inv = linalg.inverse(a)
        worst = max(worst, np.linalg.norm(a @ inv - np.eye(n)) / np.linalg.norm(a))
    return worst <= 1e-12, f"worst normalized residual {worst:.2e} (<= 1e-12)"


def check_mat_exp_semigroup():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = -(q @ np.diag(rng.uniform(0.1, 2.0, n)) @ q.T)
        s, t = rng.uniform(0.0, 1.0, 2)
        whole = linalg.mat_exp(m * (s + t))
        split = linalg.mat_exp(m * s) @ linalg.mat_exp(m * t)
        worst = max(
            worst, np.linalg.norm(whole - split) / np.linalg.norm(whole)
        )
    return worst <= 1e-9, f"worst semigroup defect {worst:.2e} (<= 1e-9)"


def check_spectral_decay():
    # Symmetric test family: min eigenvalue 2*mu, decay bound constant 1
    # fitted at t=0 (non-normal transients would need a larger constant).
    rng = np.random.default_rng(99)
    worst = -np.inf
    for _ in range(5):
        n = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = rng.uniform(1.0, 3.0, n)
        m = q @ np.diag(eigs) @ q.T
        mu = 0.5 * float(np.min(eigs))
        for t in np.linspace(0.0, 50.0 / mu, 100):
            excess = np.linalg.norm(linalg.mat_exp(-m * t), 2) - np.exp(-mu * t)
            worst = max(worst, excess)
    return worst <= 1e-12, f"worst bound excess {worst:.2e} (<= 0 up to round-off)"


def check_transfer_identities():
    # 500 random states per system; each map is called once on the whole
    # (500, .) row, as the engine calls it.
    rng = np.random.default_rng(2024)
    for system in (builtin_toy(1e-3), builtin_brusselator(1e-3)):
        tset, s = transfer_for(system), system.slow_dim
        x = rng.standard_normal((500, s))
        u, v = rng.standard_normal((2, 500, system.dim))
        mv = tset.match(x, v)
        for got, want, failure in [
            (tset.restrict(tset.lift(x)), x, "restrict(lift(X)) != X"),
            (tset.restrict(mv), x, "restrict(match(X, v)) != X"),
            (tset.match(tset.restrict(u), u), u, "match(restrict(u), u) != u"),
            (tset.match(x, mv), mv, "match(X, match(X, v)) != match(X, v)"),
            (np.hstack([tset.restrict(u), u[:, s:]]), u,
             "(restrict(u), u[s:]) does not reassemble u"),
        ]:
            if not np.array_equal(got, want):
                return False, failure
    return True, "all identities exact on 1000 random triples"


def check_match_lipschitz():
    rng = np.random.default_rng(5)
    tset = transfer_for(builtin_toy(1e-3))
    # Row i holds pair i's (x, y, u, v), the stream of a per-pair loop.
    draws = rng.standard_normal((1000, 8))
    x, y, u, v = draws[:, :1], draws[:, 1:2], draws[:, 2:5], draws[:, 5:]
    lhs = np.linalg.norm(tset.match(x, u) - tset.match(y, v), axis=1)
    rhs = np.abs(x - y)[:, 0] + np.linalg.norm(u - v, axis=1)
    worst = np.max(lhs / rhs)
    return worst <= 1.0 + 1e-12, f"worst Lipschitz ratio {worst:.12f} (<= 1)"


def check_consistency_lattice():
    worst = max(
        _consistency_violation(_toy_run(AlgorithmVariant.LIFTING)),
        _consistency_violation(_toy_run(AlgorithmVariant.MATCHING)),
    )
    return worst <= 1e-13, f"worst normalized lattice gap {worst:.2e} (<= 1e-13)"


def _exactness_defect(run) -> float:
    """max over p <= k of |u[k][p] - ref[p]| / (1 + |ref[p]|)."""
    ref = run.reference
    k, p = np.indices(run.u.shape[:2])
    gap = np.linalg.norm(run.u - ref, axis=2)
    scaled = gap / (1.0 + np.linalg.norm(ref, axis=1))
    return float(np.max(scaled[p <= k]))


def check_local_exactness():
    variants = (AlgorithmVariant.MATCHING, AlgorithmVariant.DAE_COARSE)
    worst = max(_exactness_defect(_toy_run(v)) for v in variants)
    return worst <= 1e-12, f"worst exactness defect {worst:.2e} (<= 1e-12)"


def _recursion_defect(run) -> float:
    """Recompute the macro error from the one-step recursion closed form.

    E[k+1][n] = sum_{p=1}^{n-1} rho^(n-p-1) (row0(Phi) . e[k][p] - rho E[k][p])

    for all (k, n) at once, as the product of the sources with the
    lower-triangular matrix of rho powers.
    """
    phi_row = run.micro_prop.phi[0]
    rho = run.macro_prop.rho
    ref = run.reference
    k_max, n = run.config.n_iterations, run.config.n_intervals
    big_e = run.x[:, :, 0] - ref[:, 0]
    source = (run.u[:k_max] - ref) @ phi_row - rho * big_e[:k_max]
    lag = np.subtract.outer(np.arange(n - 1), np.arange(n))  # [n-2, p-1]: n-p-1
    powers = np.where(lag >= 0, rho ** np.abs(lag), 0.0)
    predicted = source[:, 1:] @ powers.T  # E[k+1][n] for n = 2..N
    return float(np.max(np.abs(predicted - big_e[1:, 2:]), initial=0.0))


def check_error_recursion():
    worst = max(
        _recursion_defect(_toy_run(AlgorithmVariant.LIFTING)),
        _recursion_defect(_toy_run(AlgorithmVariant.MATCHING)),
    )
    return worst <= 1e-10, f"worst recursion defect {worst:.2e} (<= 1e-10 abs)"


def check_lifting_structure():
    worst = _lifting_structure_defect(_toy_run(AlgorithmVariant.LIFTING))
    return worst <= 1e-10, f"worst structure defect {worst:.2e} (<= 1e-10)"


def check_matching_equals_plain_parareal():
    worst = _matching_deviation(_toy_run(AlgorithmVariant.MATCHING))
    return worst <= 1e-12, f"worst deviation {worst:.2e} (<= 1e-12 relative)"


def _lattices_identical(runs) -> bool:
    """True when every run's u and x lattices equal the first run's bitwise."""
    first, *rest = runs
    return all(
        np.array_equal(first.u, r.u) and np.array_equal(first.x, r.x)
        for r in rest
    )


def check_determinism_across_workers():
    config = _toy_config(
        AlgorithmVariant.MATCHING, kmax=2, coarse="euler", fine="euler",
        substep=1e-4, with_reference=False,
    )
    # One process steps the 1-worker run's whole rows while the 2-worker
    # run's two slabs go to the other two, so the two runs overlap.
    with engine.worker_pool(3) as pool:
        alone = pool.submit(engine.run, config)
        split = engine.run(config, workers=2, pool=pool)
        same = _lattices_identical([alone.result(), split])
    return same, "lattices bit-identical for 1 and 2 workers"


def check_euler_micro_order():
    system = builtin_toy(1e-2)
    exact = make_micro(system, 0.1).step(TOY_U0)
    substeps = np.array([0.1 / m for m in (100, 200, 400, 800, 1600)])
    errors = [
        np.linalg.norm(make_micro(system, 0.1, "euler", h).step(TOY_U0) - exact)
        for h in substeps
    ]
    fit = analysis.fit_slope(substeps, errors, floor=0.0)
    return (
        abs(fit.slope - 1.0) <= 0.15,
        f"observed Euler order {fit.slope:.3f} (expected 1.0 +- 0.15)",
    )


def check_fit_slope_power_law():
    xs = np.logspace(-5, -1, 9)
    fit = analysis.fit_slope(xs, 3.7 * xs**2.5, floor=0.0)
    defect = abs(fit.slope - 2.5)
    return defect <= 1e-10, f"slope defect {defect:.2e} on synthetic power law"


class _TamperedTransfer(TransferSet):
    def match(self, x, v):
        # Violates match(restrict(u), u) = u by perturbing the slow part.
        return super().match(x * (1.0 + 1e-6), v)


def _tampered_run(kmax=4):
    """A toy MATCHING run whose iterations use _TamperedTransfer."""
    run = engine.init_sweep(_toy_config(AlgorithmVariant.MATCHING, kmax=kmax))
    run.transfer = _TamperedTransfer(run.transfer.slow_dim, run.transfer.lift)
    for _ in range(kmax):
        engine.parareal_iteration(run)
    return run


def check_tamper_detection():
    violation = _consistency_violation(_tampered_run())
    return (
        violation > 1e-13,
        f"tampered matching raises lattice gap to {violation:.2e} (> 1e-13)",
    )


def _toy_lemma_report():
    """Closeness-bound ratios of the toy system on LEMMA_EPS."""
    return analysis.lemma_diagnostics(builtin_toy, TOY_U0, LEMMA_EPS)


def _witness_lemma_report():
    """Closeness-bound ratios of the sharpness witness on LEMMA_EPS."""
    return analysis.lemma_diagnostics(
        analysis.sharpness_witness, np.array([1.0, 0.0]), LEMMA_EPS
    )


def check_lemma_ratio_stability():
    report = _toy_lemma_report()
    spread = max(report.variation.values())
    bound = analysis.LEMMA_FLAG_FACTOR
    return report.ok, f"worst ratio-family variation {spread:.2f} (< {bound:g})"


def check_sharpness_witness():
    report = _witness_lemma_report()
    low = float(np.min(report.ratios["z_tail"]))
    return low >= 0.1, f"z_tail ratio stays >= {low:.3f} (floor 0.1)"


def check_classic_parareal_degenerate():
    table = engine.classic_parareal(0.9, 0.9, 1.0, 20, 3)
    worst = float(np.max(table[1:]))
    return worst == 0.0, f"identical propagators leave zero error ({worst:.1e})"


CHECKS = [
    ("toy-macro-rate", check_toy_macro_rate),
    ("solve-inverse-residual", check_solve_inverse_residual),
    ("mat-exp-semigroup", check_mat_exp_semigroup),
    ("spectral-decay-bound", check_spectral_decay),
    ("transfer-identities", check_transfer_identities),
    ("match-lipschitz", check_match_lipschitz),
    ("consistency-lattice", check_consistency_lattice),
    ("local-exactness", check_local_exactness),
    ("error-recursion", check_error_recursion),
    ("lifting-structure", check_lifting_structure),
    ("matching-is-plain-parareal", check_matching_equals_plain_parareal),
    ("determinism-across-workers", check_determinism_across_workers),
    ("euler-micro-order", check_euler_micro_order),
    ("fit-slope-power-law", check_fit_slope_power_law),
    ("tampered-match-detected", check_tamper_detection),
    ("lemma-ratio-stability", check_lemma_ratio_stability),
    ("sharpness-witness", check_sharpness_witness),
    ("classic-parareal-degenerate", check_classic_parareal_degenerate),
]


def run_checks() -> list:
    results = []
    for name, func in CHECKS:
        try:
            ok, detail = func()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, ok=ok, detail=detail))
    return results
