"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every configuration (seeds, ladders, path counts) is frozen; the checks
run end to end in roughly ten minutes.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from conftest import const_vol_ou_spec, scott_spec

from svschemes.analysis import (
    BENCHMARK_CALL_PRICE,
    ExperimentConfig,
    loglog_slope,
    rows_slope,
    run_mlmc_cost,
    run_strong_conv,
    run_terminal_conv,
    run_traj_conv,
    weak_error_refinement,
)
from svschemes.coupling import bridge_min
from svschemes.pricing import romano_touzi_call
from svschemes.rng import (
    RngStream,
    joint_chol,
    joint_w_integral,
    ou_exact_joint,
    ou_transition_moments,
)
from svschemes.schemes import (
    SchemeKind,
    cutoff_radicand,
    simulate_paths,
    simulate_terminal,
    weak2_terminal,
)

pytestmark = pytest.mark.acceptance

SEED = 42
SLOPE_TOL = 0.2

STRONG_TARGETS = {
    "weaktraj1": -1.01, "weak2": -0.88, "ou-improved": -0.94,
    "ijk": -0.92, "cmt": -0.98, "euler": -0.84,
}
TRAJ_TARGETS = {
    "weaktraj1": -1.92, "ou-improved": -1.99, "weak2": -0.91,
    "ijk": -0.95, "euler": -0.85,
}
TERMINAL_TARGETS = {
    "weaktraj1": -2.03, "weak2": -2.00, "ou-improved": -2.97,
    "ijk": -1.97, "cmt": -1.05, "euler": -1.34,
}


def _finish(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def _check_slopes(rows, experiment, targets, failures):
    for scheme, target in targets.items():
        for metric in ("log_sq_err", "asset_sq_err"):
            slope = rows_slope(rows, experiment, scheme, metric).slope
            if abs(slope - target) > SLOPE_TOL:
                failures.append(
                    f"{scheme}/{metric}: slope {slope:.3f} vs target {target} +/- {SLOPE_TOL}")


class TestAcceptance:
    def test_criterion_1_strong_convergence(self):
        rows = run_strong_conv(scott_spec(), ExperimentConfig(), RngStream(SEED))
        failures = []
        _check_slopes(rows, "strong-conv", STRONG_TARGETS, failures)
        _finish(1, "strong convergence slopes", failures)

    def test_criterion_2_trajectorial_convergence(self):
        rows = run_traj_conv(scott_spec(), ExperimentConfig(), RngStream(SEED))
        failures = []
        _check_slopes(rows, "traj-conv", TRAJ_TARGETS, failures)
        _finish(2, "weak trajectorial convergence slopes", failures)

    def test_criterion_3_terminal_convergence(self):
        rows = run_terminal_conv(scott_spec(), ExperimentConfig(), RngStream(SEED))
        failures = []
        _check_slopes(rows, "terminal-conv", TERMINAL_TARGETS, failures)
        _finish(3, "terminal-time coupling slopes", failures)

    def test_criterion_4_call_price_and_weak_error(self):
        spec = scott_spec()
        failures = []
        est = romano_touzi_call(spec, SchemeKind.WEAK2, 8, 100.0,
                                RngStream(SEED, "acceptance", "call"), 1_000_000)
        if abs(est.value - BENCHMARK_CALL_PRICE) > 0.01:
            failures.append(f"price {est.value:.5f} off reference by > 0.01")
        lo, hi = est.ci()
        if not lo <= BENCHMARK_CALL_PRICE <= hi:
            failures.append(f"95% CI [{lo:.5f}, {hi:.5f}] misses the reference")
        # weak-error slope via the common-random-number nested-grid
        # estimator; the direct |price - reference| ladder is noise-bound
        rows = weak_error_refinement(spec, SchemeKind.WEAK2, (4, 8, 16, 32), 128,
                                     100.0, RngStream(SEED), 4_000_000)
        slope = loglog_slope([r.n_steps for r in rows], [r.value for r in rows]).slope
        if abs(slope + 2.0) > 0.3:
            failures.append(f"weak-error slope {slope:.3f} vs -2 +/- 0.3")
        _finish(4, "Romano-Touzi call price and weak-error slope", failures)

    def test_criterion_5_mlmc_cost_scaling(self):
        spec = scott_spec()
        epsilons = (0.08, 0.04, 0.02, 0.01)
        failures = []

        def cost_slope(kind, payoff, initial_samples):
            rng = RngStream(SEED, "acceptance", "mlmc")
            rows = run_mlmc_cost(spec, kind, payoff, epsilons, rng,
                                 initial_samples=initial_samples)
            costs = [r.value for r in rows if r.metric == "total_cost"]
            return loglog_slope(epsilons, costs).slope

        call_slope = cost_slope(SchemeKind.WEAKTRAJ1, "call", 1000)
        if abs(call_slope + 2.0) > 0.4:
            failures.append(f"call cost slope {call_slope:.3f} vs -2 +/- 0.4")
        lb_weak = cost_slope(SchemeKind.WEAKTRAJ1, "lookback", 10_000)
        lb_euler = cost_slope(SchemeKind.EULER, "lookback", 10_000)
        if not lb_euler < lb_weak:
            failures.append(
                f"Euler lookback slope {lb_euler:.3f} not steeper than "
                f"WeakTraj1 {lb_weak:.3f}")
        _finish(5, "MLMC cost scaling", failures)

    def test_criterion_6_terminal_moment_identity(self):
        spec = scott_spec()
        failures = []

        def moments(kind, n_steps, npaths=100_000, chunk=10_000):
            sums = np.zeros(4)
            sums_sq = np.zeros(4)
            count = 0
            rng = RngStream(SEED, "acceptance", "moments", kind.value)
            i = 0
            while count < npaths:
                size = min(chunk, npaths - count)
                x = simulate_terminal(kind, spec, n_steps, rng.child("chunk", i), size)
                for p in range(1, 5):
                    sums[p - 1] += (x**p).sum()
                    sums_sq[p - 1] += (x ** (2 * p)).sum()
                count += size
                i += 1
            mean = sums / count
            se = np.sqrt(np.maximum(sums_sq / count - mean**2, 0.0) / count)
            return mean, se

        mean_a, se_a = moments(SchemeKind.WEAKTRAJ1, 512)
        mean_b, se_b = moments(SchemeKind.EULER, 4096)
        z99 = 2.5758
        for p in range(4):
            lo_a, hi_a = mean_a[p] - z99 * se_a[p], mean_a[p] + z99 * se_a[p]
            lo_b, hi_b = mean_b[p] - z99 * se_b[p], mean_b[p] + z99 * se_b[p]
            if not (lo_a <= hi_b and lo_b <= hi_a):
                failures.append(
                    f"moment {p + 1}: [{lo_a:.5f},{hi_a:.5f}] vs [{lo_b:.5f},{hi_b:.5f}]")
        _finish(6, "terminal-law moment identity", failures)

    def test_criterion_7_property_suites(self):
        failures = []

        # Black-Scholes reduction: every scheme, KS at 1%, 1e5 paths
        bs_spec = const_vol_ou_spec(rho=0.0)
        mean = bs_spec.x0 + (bs_spec.r - 0.5 * 0.25**2) * bs_spec.T
        sd = 0.25 * math.sqrt(bs_spec.T)
        for kind in SchemeKind:
            x = simulate_paths(kind, bs_spec, 4, RngStream(SEED, "bs", kind.value),
                               100_000).x[-1]
            p = stats.kstest((x - mean) / sd, "norm").pvalue
            if p <= 0.01:
                failures.append(f"BS reduction KS failed for {kind.value}: p={p:.4f}")
        x, _, _, _ = weak2_terminal(bs_spec, 4, RngStream(SEED, "bs", "weak2-terminal"),
                                    npaths=100_000)
        p = stats.kstest((x - mean) / sd, "norm").pvalue
        if p <= 0.01:
            failures.append(f"BS reduction KS failed for weak2_terminal: p={p:.4f}")

        # joint (dW, iW) covariance within 3 SE at 1e6 draws
        delta = 0.125
        dw, iw = joint_w_integral(delta, RngStream(SEED, "cov", "joint"), size=1_000_000)
        chol = joint_chol(delta)
        theory = chol @ chol.T
        emp = np.cov(np.vstack([dw, iw]))
        for i in range(2):
            for j in range(2):
                se = math.sqrt((theory[i, i] * theory[j, j] + theory[i, j] ** 2) / dw.size)
                if abs(emp[i, j] - theory[i, j]) > 3 * se:
                    failures.append(f"joint cov[{i},{j}] off by more than 3 SE")

        # OU joint (dY, iW) covariance within 3 SE at 1e6 draws
        spec = scott_spec()
        y, iw = ou_exact_joint(spec.ou, 0.3, delta, RngStream(SEED, "cov", "ou"),
                               size=1_000_000)
        decay, mean_shift, g11, g12, g22 = ou_transition_moments(spec.ou, delta)
        dy = y - mean_shift - decay * 0.3
        emp = np.cov(np.vstack([dy, iw]))
        theory = np.array([[g11, g12], [g12, g22]])
        for i in range(2):
            for j in range(2):
                se = math.sqrt((theory[i, i] * theory[j, j] + theory[i, j] ** 2) / y.size)
                if abs(emp[i, j] - theory[i, j]) > 3 * se:
                    failures.append(f"OU joint cov[{i},{j}] off by more than 3 SE")

        # bridge_min never exceeds either endpoint, 1e6 random inputs
        rng = RngStream(SEED, "bridge")
        n = 1_000_000
        left = 50.0 + 100.0 * rng.uniform(n)
        right = 50.0 + 100.0 * rng.uniform(n)
        vol2 = 0.5 * rng.uniform(n)
        u = rng.uniform_open(n)
        mins = bridge_min(left, right, vol2, 0.01, u)
        if not np.all(mins <= np.minimum(left, right) + 1e-12):
            failures.append("bridge_min exceeded an endpoint")

        # cutoff radicand floor: adversarial corrections stay at the floor
        # (the same assert also fires inside every scheme step)
        corr = -10.0 + 20.0 * rng.child("cutoff").uniform(10_000)
        for cutoff in ("floor", "band"):
            rad = cutoff_radicand(dataclasses.replace(spec, cutoff=cutoff), 0.0, corr)
            if not np.all(rad >= max(spec.psi_lower, 0.0)):
                failures.append(f"cutoff radicand below floor under {cutoff!r}")

        _finish(7, "property suites", failures)
