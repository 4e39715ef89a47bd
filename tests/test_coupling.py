import dataclasses
import math

import numpy as np
import pytest

from conftest import const_vol_ou_spec, factor_draws, gbm_factor_spec, scott_spec, table_draws

from svschemes.coupling import (
    _lookback_payoffs,
    bridge_min,
    cmt_coupling_from_draws,
    coupled_db_tilde,
    coupled_lookback_levels,
    coupling_start,
    level_sums,
    lookback_db_mid,
    lookback_payoffs_from_draws,
    lookback_single_level,
    plain_coarse_db,
    plain_coupling_from_draws,
    terminal_coupling_from_draws,
    traj_coupling_from_draws,
)
from svschemes import schemes
from svschemes.errors import InvalidParameterError
from svschemes.analysis import ExperimentConfig, run_strong_conv
from svschemes.pricing import conditional_call_values, romano_touzi_call
from svschemes.rng import PATH_BLOCK, BlockStreams, RngStream
from svschemes.schemes import (
    SchemeKind,
    advance_blocks,
    draw_brownian_increments,
    draw_factor_paths,
    factor_normals,
    simulate_terminal,
)


def fine_draws(spec, kind, n_coarse, rng, npaths):
    """Factor draws (every normal) and B-increments of 2*n_coarse fine steps."""
    normals = BlockStreams(rng, npaths).draw(
        2 * n_coarse, factor_normals(spec, (kind,), reads=("iW",)) + ("b",))
    fine = draw_factor_paths(spec, (kind,), 2 * n_coarse, normals, spec.y0)
    return fine, draw_brownian_increments(normals["b"], fine.delta)


def terminal_pair(spec, kind, n_coarse, rng, npaths):
    """Shared-G terminal coupling of 2*n_coarse fine steps, G from the stream "g"."""
    fine = factor_draws(spec, kind, 2 * n_coarse, rng, npaths)
    g = BlockStreams(rng, npaths).draw(1, ("g",))["g"][0]
    return terminal_coupling_from_draws(spec, kind, fine, g, coupling_start(spec, kind, npaths))


class TestCoarseIncrements:
    def test_plain_sum(self):
        db = np.arange(8.0).reshape(4, 2)
        got = plain_coarse_db(db)
        assert np.allclose(got, [[2.0, 4.0], [10.0, 12.0]])

    def test_plain_needs_pairs(self):
        with pytest.raises(InvalidParameterError):
            plain_coarse_db(np.zeros((3, 2)))

    def test_tilde_equal_multipliers_is_plain_sum(self):
        db1 = np.array([0.3, -0.1])
        db2 = np.array([0.2, 0.5])
        got = coupled_db_tilde(db1, db2, 0.7, 0.7)
        assert np.allclose(got, db1 + db2)

    def test_tilde_degenerate_fallback(self):
        got = coupled_db_tilde(np.array([0.3]), np.array([0.2]), 0.0, 0.0)
        assert np.allclose(got, [0.5])

    def test_tilde_variance_matches_coarse_step(self):
        # given the multipliers, db_tilde ~ N(0, 2*delta) exactly
        delta = 0.125
        rng = RngStream(3)
        db1 = math.sqrt(delta) * rng.normal(200_000)
        db2 = math.sqrt(delta) * rng.normal(200_000)
        v1 = np.abs(rng.normal(200_000)) + 0.1
        v2 = np.abs(rng.normal(200_000)) + 0.1
        tilde = coupled_db_tilde(db1, db2, v1, v2)
        assert abs(tilde.var() - 2 * delta) < 4 * 2 * delta * math.sqrt(2.0 / tilde.size)

    def test_mid_equal_multipliers_is_first_increment(self):
        db1 = np.array([0.3, -0.1])
        db2 = np.array([0.2, 0.5])
        assert np.allclose(lookback_db_mid(db1, db2, 0.4, 0.4), db1)
        assert np.allclose(lookback_db_mid(db1, db2, 0.0, 0.0), db1)

    def test_mid_law_consistent_with_tilde(self):
        # the mid increment has variance delta and covariance delta with
        # the full coarse increment, like a true midpoint value
        delta = 0.25
        rng = RngStream(4)
        n = 400_000
        db1 = math.sqrt(delta) * rng.normal(n)
        db2 = math.sqrt(delta) * rng.normal(n)
        v1 = np.abs(rng.normal(n)) + 0.05
        v2 = np.abs(rng.normal(n)) + 0.05
        tilde = coupled_db_tilde(db1, db2, v1, v2)
        mid = lookback_db_mid(db1, db2, v1, v2)
        assert abs(mid.var() - delta) < 4 * delta * math.sqrt(2.0 / n)
        cov = np.cov(mid, tilde)[0, 1]
        assert abs(cov - delta) < 5 * delta * math.sqrt(3.0 / n)


class TestTrajCoupling:
    def test_shapes_and_grids(self):
        spec = scott_spec()
        pair = traj_coupling_from_draws(spec, SchemeKind.WEAKTRAJ1,
                                        *fine_draws(spec, SchemeKind.WEAKTRAJ1, 4, RngStream(1), 10),
                                        coupling_start(spec, SchemeKind.WEAKTRAJ1, 10))
        assert pair.x_fine.shape == (9, 10)
        assert pair.x_coarse.shape == (5, 10)
        assert np.array_equal(pair.y_fine[::2], pair.y_coarse)

    def test_constant_multiplier_equals_plain(self):
        # constant f and rho=0 make every multiplier equal, so the
        # reweighted increment collapses to the plain sum
        spec = const_vol_ou_spec(rho=0.0)
        draws = fine_draws(spec, SchemeKind.EULER, 4, RngStream(2), 8)
        a = traj_coupling_from_draws(spec, SchemeKind.EULER, *draws,
                                     coupling_start(spec, SchemeKind.EULER, 8))
        b = plain_coupling_from_draws(spec, SchemeKind.EULER, *draws,
                                      coupling_start(spec, SchemeKind.EULER, 8))
        assert np.allclose(a.x_coarse, b.x_coarse)
        assert np.array_equal(a.x_fine, b.x_fine)

    def test_marginal_law_preserved(self):
        # the coupled coarse path has the same law as a fresh coarse path
        spec = scott_spec()
        n = 50_000
        coupled = traj_coupling_from_draws(spec, SchemeKind.WEAKTRAJ1,
                                           *fine_draws(spec, SchemeKind.WEAKTRAJ1, 4, RngStream(10), n),
                                           coupling_start(spec, SchemeKind.WEAKTRAJ1, n))
        direct = simulate_terminal(SchemeKind.WEAKTRAJ1, spec, 4, RngStream(11), n)
        a, b = coupled.x_coarse[-1], direct
        se_mean = math.sqrt(a.var() / n + b.var() / n)
        assert abs(a.mean() - b.mean()) < 4 * se_mean
        se_var = math.sqrt(2.0 / n) * max(a.var(), b.var())
        assert abs(a.var() - b.var()) < 4 * se_var

    def test_coupling_tightens_with_n(self):
        spec = scott_spec()
        errs = []
        for n_coarse in (4, 16):
            pair = traj_coupling_from_draws(spec, SchemeKind.WEAKTRAJ1, *fine_draws(
                spec, SchemeKind.WEAKTRAJ1, n_coarse, RngStream(12), 20_000),
                coupling_start(spec, SchemeKind.WEAKTRAJ1, 20_000))
            errs.append(np.mean((pair.x_fine[-1] - pair.x_coarse[-1]) ** 2))
        assert errs[1] < errs[0]

    def test_cmt_routes_to_pathwise_coupling(self):
        spec = scott_spec()
        pair = cmt_coupling_from_draws(spec, *fine_draws(spec, SchemeKind.CMT, 2, RngStream(5), 6),
                                       coupling_start(spec, SchemeKind.CMT, 6))
        assert pair.x_fine.shape == (5, 6)
        assert pair.x_coarse.shape == (3, 6)

    def test_needs_positive_steps(self):
        with pytest.raises(InvalidParameterError):
            coupled_lookback_levels(scott_spec(), SchemeKind.EULER, 0, RngStream(0), 1)


class TestTerminalCoupling:
    def test_constant_vol_levels_identical(self):
        # constant f, rho=0: both levels share drift (r-f^2/2)T and
        # variance f^2 T, so the coupled difference vanishes exactly
        spec = const_vol_ou_spec(rho=0.0)
        for kind in (SchemeKind.EULER, SchemeKind.WEAK2):
            t = terminal_pair(spec, kind, 4, RngStream(6), 50)
            assert np.allclose(t[0], t[1], atol=1e-12), kind

    def test_shared_g(self):
        spec = scott_spec()
        t = terminal_pair(spec, SchemeKind.WEAK2, 4, RngStream(7), 1000)
        # both levels move together with the closing normal
        corr = np.corrcoef(t[0], t[1])[0, 1]
        assert corr > 0.99

    def test_second_moment_decreases_with_n(self):
        spec = scott_spec()
        errs = []
        for n_coarse in (2, 8, 32):
            t = terminal_pair(spec, SchemeKind.WEAK2, n_coarse, RngStream(8), 20_000)
            errs.append(np.mean((t[0] - t[1]) ** 2))
        assert errs[0] > errs[1] > errs[2]

    def test_marginal_law_matches_path_simulation(self):
        spec = scott_spec()
        n = 50_000
        t = terminal_pair(spec, SchemeKind.WEAKTRAJ1, 4, RngStream(9), n)
        direct = simulate_terminal(SchemeKind.WEAKTRAJ1, spec, 8, RngStream(13), n)
        a, b = t[0], direct
        se = math.sqrt(a.var() / n + b.var() / n)
        assert abs(a.mean() - b.mean()) < 4 * se


def step_blocks(spec, fine, *per_step, size=4):
    """The draws and per-step arrays of steps k..k+size, for each block start k."""
    for k in range(0, fine.dW.shape[0], size):
        block = table_draws(spec, fine.delta, fine.y[k:k + size + 1], fine.dW[k:k + size],
                            fine.iW[k:k + size])
        yield (block,) + tuple(a[k:k + size] for a in per_step)


def joined(nodes):
    """Node arrays of consecutive blocks joined at their shared nodes."""
    return np.concatenate([nodes[0]] + [x[1:] for x in nodes[1:]]).tobytes()


class TestStepBlocks:
    """A kernel advanced block by block with its carry gives the whole-path bytes."""

    SPECS = [(scott_spec(), SchemeKind.WEAKTRAJ1), (gbm_factor_spec(rho=-0.3), SchemeKind.WEAK2)]

    @pytest.mark.parametrize("spec, kind", SPECS)
    @pytest.mark.parametrize("name", ["plain", "traj", "cmt"])
    def test_path_couplings(self, spec, kind, name):
        coupling = {
            "plain": lambda *args: plain_coupling_from_draws(spec, kind, *args),
            "traj": lambda *args: traj_coupling_from_draws(spec, kind, *args),
            "cmt": lambda *args: cmt_coupling_from_draws(spec, *args),
        }[name]
        fine, db = fine_draws(spec, kind, 6, RngStream(3), 9)
        start_kind = SchemeKind.CMT if name == "cmt" else kind
        whole = coupling(fine, db, coupling_start(spec, start_kind, 9))
        carry = coupling_start(spec, start_kind, 9)
        parts = [coupling(block, db_k, carry) for block, db_k in step_blocks(spec, fine, db)]
        assert joined([p.x_fine for p in parts]) == whole.x_fine.tobytes()
        assert joined([p.x_coarse for p in parts]) == whole.x_coarse.tobytes()
        assert joined([p.y_coarse for p in parts]) == whole.y_coarse.tobytes()

    @pytest.mark.parametrize("spec, kind", SPECS)
    def test_terminal_coupling(self, spec, kind):
        fine, _ = fine_draws(spec, kind, 6, RngStream(4), 9)
        g = RngStream(4).child("g").normal(9)
        whole = terminal_coupling_from_draws(spec, kind, fine, g, coupling_start(spec, kind, 9))
        carry = coupling_start(spec, kind, 9)
        for block, in step_blocks(spec, fine):
            part = terminal_coupling_from_draws(spec, kind, block, g, carry)
        assert part[0].tobytes() == whole[0].tobytes()
        assert part[1].tobytes() == whole[1].tobytes()

    def test_estimators_need_a_path(self):
        # the carry is the batch: a path count below one fails when it is made
        spec = scott_spec()
        for npaths in (0, -5):
            for estimate in (
                lambda: conditional_call_values(spec, SchemeKind.WEAK2, 4, 100.0, RngStream(0),
                                                npaths),
                lambda: lookback_single_level(spec, SchemeKind.WEAK2, 4, RngStream(0), npaths),
                lambda: coupled_lookback_levels(spec, SchemeKind.WEAK2, 2, RngStream(0), npaths),
            ):
                with pytest.raises(InvalidParameterError, match="at least one path"):
                    estimate()

    @pytest.mark.parametrize("spec, kind", SPECS)
    def test_lookback_payoffs(self, spec, kind):
        fine, db = fine_draws(spec, kind, 6, RngStream(5), 9)
        u = RngStream(5).child("u").uniform_open((12, 9))
        whole = coupling_start(spec, kind, 9, np.inf)
        lookback_payoffs_from_draws(spec, kind, fine, db, u, whole)
        whole = _lookback_payoffs(spec, whole)
        carry = coupling_start(spec, kind, 9, np.inf)
        for block, db_k, u_k in step_blocks(spec, fine, db, u):
            lookback_payoffs_from_draws(spec, kind, block, db_k, u_k, carry)
        part = _lookback_payoffs(spec, carry)
        assert part[0].tobytes() == whole[0].tobytes()
        assert part[1].tobytes() == whole[1].tobytes()


class TestOneTablePerDraw:
    """A draw's node table is built once, where the draw is made: the
    kernels read it, and a coarsening reads the fine table's even nodes on
    an OU-backed spec or makes its own table on a generic one."""

    # kernel, number of levels it advances
    KERNELS = {
        "plain": (lambda spec, kind, draws, db, u, carry:
                  plain_coupling_from_draws(spec, kind, draws, db, carry), 2),
        "traj": (lambda spec, kind, draws, db, u, carry:
                 traj_coupling_from_draws(spec, kind, draws, db, carry), 2),
        "lookback": (lambda spec, kind, draws, db, u, carry:
                     lookback_payoffs_from_draws(spec, kind, draws, db, u, carry), 2),
        "level_sums": (lambda spec, kind, draws, db, u, carry:
                       level_sums(spec, kind, draws, carry), 3),
    }

    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("spec", [scott_spec(), gbm_factor_spec(rho=-0.3)])
    def test_builds_per_step_block(self, monkeypatch, spec, name):
        kernel, levels = self.KERNELS[name]
        builds, blocks = [], []

        def counted(*args):
            builds.append(None)
            return spec.node_table(*args)

        monkeypatch.setattr(schemes, "block_steps", lambda npaths, multiple=2: 4)
        counting = dataclasses.replace(spec, node_table=counted)
        kind = SchemeKind.WEAKTRAJ1

        def advance(_, draws, db, u, carry):
            blocks.append(None)
            kernel(counting, kind, draws, db, u, carry)

        carry = coupling_start(spec, kind, 9, np.inf, levels=levels)
        advance_blocks(counting, (kind,), 12, RngStream(6), carry, advance, reads=("dW", "b", "u"))
        assert len(blocks) == 3
        assert len(builds) == len(blocks) * (1 if spec.ou is not None else levels)


class TestDriverStreams:
    """The step-block driver draws only the streams its estimator reads."""

    # the factor normals each scheme draws on an OU-backed spec (one stream
    # each), and on a generic spec
    OU_NORMALS = {
        SchemeKind.WEAK2: {"dY"},
        SchemeKind.EULER: {"dY", "dW"},
        SchemeKind.IJK: {"dY", "dW"},
        SchemeKind.CMT: {"dY", "dW"},
        SchemeKind.WEAKTRAJ1: {"dY", "dW", "iW"},
        SchemeKind.OU_IMPROVED: {"dY", "dW", "iW"},
    }
    GENERIC_NORMALS = {
        SchemeKind.WEAK2: {"dW"},
        SchemeKind.EULER: {"dW"},
        SchemeKind.CMT: {"dW"},
        SchemeKind.WEAKTRAJ1: {"dW", "iW"},
    }

    @staticmethod
    def drawn(monkeypatch, run) -> dict:
        """Values drawn per stream name, over the path-block streams of ``run``."""
        counts = {}
        for method in ("normal", "uniform_open"):
            original = getattr(RngStream, method)

            def counted(stream, size=None, original=original, **kwargs):
                name, block, _ = stream.path[-3:]
                assert block == "block"
                counts[name] = counts.get(name, 0) + int(np.prod(size))
                return original(stream, size, **kwargs)

            monkeypatch.setattr(RngStream, method, counted)
        run()
        return counts

    @pytest.mark.parametrize("kind", list(OU_NORMALS))
    def test_each_scheme_draws_its_normals(self, monkeypatch, kind):
        # 5,000 paths: two path blocks, so two streams per name
        counts = self.drawn(monkeypatch, lambda: romano_touzi_call(
            scott_spec(), kind, 8, 100.0, RngStream(1), 5000))
        extra = {"b"} if kind is SchemeKind.CMT else set()  # CMT is priced on paths
        assert counts == {name: 8 * 5000 for name in self.OU_NORMALS[kind] | extra}

    @pytest.mark.parametrize("kind", list(GENERIC_NORMALS))
    def test_generic_spec_draws_dw_and_only_then_iw(self, monkeypatch, kind):
        counts = self.drawn(monkeypatch, lambda: run_strong_conv(
            gbm_factor_spec(), ExperimentConfig(n_ladder=(2, 4), npaths=50, kinds=(kind,)),
            RngStream(1)))
        assert counts == {name: (4 + 8) * 50 for name in self.GENERIC_NORMALS[kind] | {"b"}}

    def test_conditional_call_values_draw_only_the_factor(self, monkeypatch):
        counts = self.drawn(monkeypatch, lambda: conditional_call_values(
            scott_spec(), SchemeKind.WEAK2, 8, 100.0, RngStream(1), 50))
        assert counts == {"dY": 8 * 50}

    def test_lookback_draws_factor_increments_and_uniforms(self, monkeypatch):
        counts = self.drawn(monkeypatch, lambda: lookback_single_level(
            scott_spec(), SchemeKind.WEAKTRAJ1, 8, RngStream(1), 50))
        assert counts == {"dY": 8 * 50, "dW": 8 * 50, "iW": 8 * 50, "b": 8 * 50, "u": 8 * 50}

    def test_weak2_lookback_draws_dw_for_the_bridge(self, monkeypatch):
        # the bridge endpoints read dW, so weak2 draws it too
        counts = self.drawn(monkeypatch, lambda: coupled_lookback_levels(
            scott_spec(), SchemeKind.WEAK2, 4, RngStream(1), 50))
        assert counts == {"dY": 8 * 50, "dW": 8 * 50, "b": 8 * 50, "u": 8 * 50}


class TestBridgeMin:
    def test_u_one_returns_endpoint_min(self):
        assert bridge_min(100.0, 101.0, 0.0625, 0.125, 1.0) == pytest.approx(100.0)
        assert bridge_min(101.0, 100.0, 0.0625, 0.125, 1.0) == pytest.approx(100.0)

    def test_zero_vol_returns_endpoint_min(self):
        assert bridge_min(100.0, 98.0, 0.0, 0.125, 0.3) == pytest.approx(98.0)

    def test_golden_arithmetic(self):
        got = bridge_min(100.0, 101.0, 0.0625, 0.125, 0.5)
        rad = 1.0 + 2.0 * 100.0**2 * 0.0625 * 0.125 * math.log(2.0)
        assert got == pytest.approx(0.5 * (201.0 - math.sqrt(rad)), rel=1e-14)
        assert got <= 100.0

    def test_never_exceeds_endpoint_min(self):
        rng = RngStream(14)
        n = 1_000_000
        left = 80.0 + 40.0 * rng.uniform(n)
        right = 80.0 + 40.0 * rng.uniform(n)
        vol2 = 0.25 * rng.uniform(n)
        u = rng.uniform_open(n)
        got = bridge_min(left, right, vol2, 0.01, u)
        assert np.all(got <= np.minimum(left, right) + 1e-12)

    def test_input_validation(self):
        with pytest.raises(InvalidParameterError):
            bridge_min(1.0, 1.0, 0.1, 0.0, 0.5)
        with pytest.raises(InvalidParameterError):
            bridge_min(1.0, 1.0, 0.1, 0.1, 0.0)
        with pytest.raises(InvalidParameterError):
            bridge_min(1.0, 1.0, 0.1, 0.1, 1.5)

    def test_anchor_override(self):
        a = bridge_min(100.0, 99.0, 0.04, 0.1, 0.5, anchor=100.0)
        b = bridge_min(100.0, 99.0, 0.04, 0.1, 0.5)
        assert a == pytest.approx(b)
        deeper = bridge_min(100.0, 99.0, 0.04, 0.1, 0.5, anchor=200.0)
        assert deeper < a


class TestLookback:
    def test_single_level_plausible_price(self):
        spec = scott_spec()
        pay = lookback_single_level(spec, SchemeKind.WEAKTRAJ1, 16, RngStream(15), 20_000)
        mean = pay.mean()
        # lookback (S_T - min S) is worth roughly a fifth of spot here
        assert 15.0 < mean < 30.0

    def test_coupled_levels_consistent(self):
        spec = scott_spec()
        sample = coupled_lookback_levels(spec, SchemeKind.WEAKTRAJ1, 8, RngStream(16), 20_000)
        diff = sample[0] - sample[1]
        # the level correction is small compared to either level's spread
        assert abs(diff.mean()) < 1.0
        assert diff.var() < 0.25 * sample[0].var()

    def test_level_variance_decays(self):
        spec = scott_spec()
        variances = []
        for n_coarse in (2, 8, 32):
            s = coupled_lookback_levels(spec, SchemeKind.WEAKTRAJ1, n_coarse, RngStream(17), 20_000)
            variances.append((s[0] - s[1]).var())
        assert variances[0] > variances[1] > variances[2]

    def test_coarse_marginal_matches_single_level(self):
        spec = scott_spec()
        n = 40_000
        s = coupled_lookback_levels(spec, SchemeKind.WEAKTRAJ1, 8, RngStream(18), n)
        solo = lookback_single_level(spec, SchemeKind.WEAKTRAJ1, 16, RngStream(19), n)
        a, b = s[0], solo
        se = math.sqrt(a.var() / n + b.var() / n)
        assert abs(a.mean() - b.mean()) < 4 * se

    def test_reproducible(self):
        spec = scott_spec()
        a = coupled_lookback_levels(spec, SchemeKind.WEAK2, 4, RngStream(20), 8)
        b = coupled_lookback_levels(spec, SchemeKind.WEAK2, 4, RngStream(20), 8)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestLevelsAxis:
    """The finest row of a multi-level estimate is the single-level estimate
    of the same grid and draws, byte for byte."""

    NPATHS = 2 * PATH_BLOCK + 300  # three path blocks, the last one narrow

    @pytest.mark.parametrize("kind", [SchemeKind.WEAKTRAJ1, SchemeKind.IJK, SchemeKind.EULER])
    def test_lookback_fine_row_is_single_level(self, kind):
        spec = scott_spec()
        levels = coupled_lookback_levels(spec, kind, 4, RngStream(21), self.NPATHS)
        single = lookback_single_level(spec, kind, 8, RngStream(21), self.NPATHS)
        assert levels.shape == (2, self.NPATHS)
        assert levels[0].tobytes() == single.tobytes()

    @pytest.mark.parametrize("kind", [SchemeKind.WEAKTRAJ1, SchemeKind.IJK, SchemeKind.EULER])
    def test_call_fine_row_is_single_level(self, kind):
        spec = scott_spec()
        levels = conditional_call_values(spec, kind, 8, 100.0, RngStream(22), self.NPATHS,
                                         depth=2)
        single = conditional_call_values(spec, kind, 8, 100.0, RngStream(22), self.NPATHS)
        assert levels.shape == (3, self.NPATHS)
        assert levels[0].tobytes() == single.tobytes()
