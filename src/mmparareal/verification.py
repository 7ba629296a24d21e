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

import numpy as np

from . import analysis, engine, linalg
from .engine import AlgorithmVariant, PararealConfig
from .systems import builtin_brusselator, builtin_toy
from .transfer import TransferSet, transfer_for

TOY_U0 = np.array([1.0, 0.0, 0.0])


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _toy_config(variant, epsilon=1e-2, kmax=4, coarse="exact", fine="exact",
                substep=None):
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
    )


def _toy_run(variant, workers=1, **options):
    return engine.run(_toy_config(variant, **options), workers=workers)


def _consistency_violation(run) -> float:
    """max over (k, n, i) of |x - slow part of u| / (1 + |x|)."""
    s = run.config.system.slow_dim
    gap = np.abs(run.x - run.u[:, :, :s])
    return float(np.max(gap / (1.0 + np.abs(run.x))))


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
    rng = np.random.default_rng(2024)
    tsets = [
        (transfer_for(builtin_toy(1e-3)), 3),
        (transfer_for(builtin_brusselator(1e-3)), 3),
    ]
    for _ in range(500):
        for tset, d in tsets:
            s = tset.slow_dim
            x = rng.standard_normal(s)
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            if not np.array_equal(tset.restrict(tset.lift(x)), x):
                return False, "restrict(lift(X)) != X"
            if not np.array_equal(tset.restrict(tset.match(x, v)), x):
                return False, "restrict(match(X, v)) != X"
            if not np.array_equal(tset.match(tset.restrict(u), u), u):
                return False, "match(restrict(u), u) != u"
            mv = tset.match(x, v)
            if not np.array_equal(tset.match(x, mv), mv):
                return False, "match(X, match(X, v)) != match(X, v)"
            re_u = np.concatenate([tset.restrict(u), u[s:]])
            if not np.array_equal(re_u, u):
                return False, "(restrict(u), u[s:]) does not reassemble u"
    return True, "all identities exact on 1000 random triples"


def check_match_lipschitz():
    rng = np.random.default_rng(5)
    tset = transfer_for(builtin_toy(1e-3))
    worst = 0.0
    for _ in range(1000):
        x, y = rng.standard_normal(2)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        lhs = np.linalg.norm(tset.match([x], u) - tset.match([y], v))
        rhs = abs(x - y) + np.linalg.norm(u - v)
        worst = max(worst, lhs / rhs)
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
    worst = 0.0
    for k in range(run.config.n_iterations + 1):
        for p in range(k + 1):
            gap = np.linalg.norm(run.u[k][p] - ref[p])
            worst = max(worst, gap / (1.0 + np.linalg.norm(ref[p])))
    return worst


def check_local_exactness():
    variants = (AlgorithmVariant.MATCHING, AlgorithmVariant.DAE_COARSE)
    worst = max(_exactness_defect(_toy_run(v)) for v in variants)
    return worst <= 1e-12, f"worst exactness defect {worst:.2e} (<= 1e-12)"


def _recursion_defect(run) -> float:
    """Recompute the macro error from the one-step recursion closed form.

    E[k+1][n] = sum_{p=1}^{n-1} rho^(n-p-1) (row0(Phi) . e[k][p] - rho E[k][p])
    """
    phi_row = run.micro_prop.phi[0]
    rho = run.macro_prop.rho
    ref = run.reference
    n = run.config.n_intervals
    worst = 0.0
    for k in range(run.config.n_iterations):
        e_k = run.u[k] - ref
        big_e_k = run.x[k][:, 0] - ref[:, 0]
        big_e_next = run.x[k + 1][:, 0] - ref[:, 0]
        source = e_k @ phi_row - rho * big_e_k
        for j in range(2, n + 1):
            powers = rho ** (j - 1 - np.arange(1, j))
            predicted = powers @ source[1:j]
            worst = max(worst, abs(predicted - big_e_next[j]))
    return worst


def check_error_recursion():
    worst = max(
        _recursion_defect(_toy_run(AlgorithmVariant.LIFTING)),
        _recursion_defect(_toy_run(AlgorithmVariant.MATCHING)),
    )
    return worst <= 1e-10, f"worst recursion defect {worst:.2e} (<= 1e-10 abs)"


def check_lifting_structure():
    # Lifting rebuilds every state through L, so the micro error splits into
    # the lifted macro error minus the off-manifold part of the reference.
    run = _toy_run(AlgorithmVariant.LIFTING)
    tset, ref = run.transfer, run.reference[1:]
    e = run.u[:, 1:] - ref
    off_manifold = ref - tset.lift(tset.restrict(ref))
    predicted = tset.lift(run.x[:, 1:] - ref[:, :1]) - off_manifold
    worst = float(np.max(np.abs(e - predicted)))
    return worst <= 1e-10, f"worst structure defect {worst:.2e} (<= 1e-10)"


def check_matching_equals_plain_parareal():
    # The matching variant is plain parareal with fine propagator F and
    # coarse propagator embed . C . restrict; iterate that form directly.
    run = _toy_run(AlgorithmVariant.MATCHING)
    config = run.config
    phi = run.micro_prop.phi
    rho = run.macro_prop.rho
    n, kmax, d = config.n_intervals, config.n_iterations, 3

    def coarse_embedded(u):
        out = np.zeros(d)
        out[0] = rho * u[0]
        return out

    u = np.full((kmax + 1, n + 1, d), np.nan)
    u[:, 0] = config.u0
    for j in range(n):
        u[0][j + 1] = run.transfer.lift(rho * u[0][j][:1])
    for k in range(kmax):
        for j in range(n):
            u[k + 1][j + 1] = (
                phi @ u[k][j]
                + coarse_embedded(u[k + 1][j])
                - coarse_embedded(u[k][j])
            )
    worst = float(np.max(np.abs(u - run.u) / (1.0 + np.abs(run.u))))
    return worst <= 1e-12, f"worst deviation {worst:.2e} (<= 1e-12 relative)"


def check_determinism_across_workers():
    runs = [
        _toy_run(
            AlgorithmVariant.MATCHING,
            kmax=2,
            coarse="euler",
            fine="euler",
            substep=1e-4,
            workers=w,
        )
        for w in (1, 2)
    ]
    same = np.array_equal(runs[0].u, runs[1].u) and np.array_equal(
        runs[0].x, runs[1].x
    )
    return same, "lattices bit-identical for 1 and 2 workers"


def check_euler_micro_order():
    from .propagators import EulerMicro, ExactLinearMicro

    system = builtin_toy(1e-2)
    exact = ExactLinearMicro(system, 0.1).step(TOY_U0)
    substeps = np.array([0.1 / m for m in (100, 200, 400, 800, 1600)])
    errors = [
        np.linalg.norm(EulerMicro(system, 0.1, h).step(TOY_U0) - exact)
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
    for k in range(kmax):
        engine.parareal_iteration(run, k)
    return run


def check_tamper_detection():
    violation = _consistency_violation(_tampered_run())
    return (
        violation > 1e-13,
        f"tampered matching raises lattice gap to {violation:.2e} (> 1e-13)",
    )


def check_lemma_ratio_stability():
    report = analysis.lemma_diagnostics(
        builtin_toy, TOY_U0, [1e-5, 1e-4, 1e-3, 1e-2]
    )
    spread = max(report.variation[f] for f in analysis.LEMMA_FAMILIES)
    return (
        report.ok,
        f"worst ratio-family variation {spread:.2f} (< {report.flag_factor:g})",
    )


def check_sharpness_witness():
    report = analysis.lemma_diagnostics(
        analysis.sharpness_witness, np.array([1.0, 0.0]),
        [1e-5, 1e-4, 1e-3, 1e-2],
    )
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
