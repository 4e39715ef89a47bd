import hashlib
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from svschemes import _parallel

from svschemes.errors import InvalidParameterError
from svschemes.models import OUParams
from svschemes.rng import (
    PATH_BLOCK,
    BlockStreams,
    RngStream,
    joint_chol,
    joint_w_integral,
    mix,
    ou_exact_joint,
    ou_transition_moments,
    ou_triple_chol,
    ou_triple_cov,
)

BENCH_OU = OUParams(kappa=1.0, theta=0.0, nu=7.0 * math.sqrt(2.0) / 20.0)


def cov_within_3se(emp, theory, n):
    """Elementwise check of an empirical covariance against its target."""
    emp = np.atleast_2d(emp)
    theory = np.atleast_2d(theory)
    d = theory.shape[0]
    for i in range(d):
        for j in range(d):
            # asymptotic stderr of a sample covariance entry
            se = math.sqrt((theory[i, i] * theory[j, j] + theory[i, j] ** 2) / n)
            assert abs(emp[i, j] - theory[i, j]) <= 3.0 * se, (i, j, emp[i, j], theory[i, j])


class TestStream:
    def test_reproducible(self):
        a = RngStream(42, "x").normal(100)
        b = RngStream(42, "x").normal(100)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = RngStream(42, "x").normal(10)
        b = RngStream(42, "y").normal(10)
        c = RngStream(43, "x").normal(10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_child_independent_of_parent_consumption(self):
        parent = RngStream(7)
        early = parent.child("sub").normal(5)
        parent.normal(1000)
        late = parent.child("sub").normal(5)
        assert np.array_equal(early, late)

    def test_golden_first_draws(self):
        # frozen from the chosen generator (Philox keyed by blake2b, inversion)
        got = RngStream(0).normal(3)
        assert np.allclose(got, [-1.04083407, 0.06136644, 0.69892956], atol=1e-8)
        assert RngStream(0).normal() == pytest.approx(-1.0408340682200596, abs=1e-15)

    def test_normal_moments(self):
        draws = RngStream(314).normal(1_000_000)
        assert abs(draws.mean()) <= 4e-3
        assert abs(draws.var() - 1.0) <= 5e-3

    def test_uniform_open_range(self):
        u = RngStream(9).uniform_open(100_000)
        assert np.all(u > 0.0)
        assert np.all(u <= 1.0)

    def test_uniform_half_open_range(self):
        u = RngStream(9).uniform(100_000)
        assert np.all(u >= 0.0)
        assert np.all(u < 1.0)


def reference_generator(seed, *path):
    """A plain sequential generator on the stream's documented key."""
    digest = hashlib.blake2b(repr((seed,) + path).encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


# Each RngStream method as the sequential draws it must equal.
REFERENCE_DRAWS = {
    "normal": lambda gen, size: ndtri(np.maximum(gen.random(size), 2.0**-64)),
    "uniform": lambda gen, size: gen.random(size),
    "uniform_open": lambda gen, size: 1.0 - gen.random(size),
}


class TestStreamContinuity:
    """Array draws, into a given output or not, read the same values as one
    sequential draw of the stream's documented key."""

    @pytest.mark.parametrize("workers", (1, 2, 3))
    @pytest.mark.parametrize("consumed", range(4))
    def test_blocks_match_sequential_reference(self, monkeypatch, workers, consumed):
        # 64-value blocks: 1001 values make three blocks at three workers,
        # starting at every offset within Philox's four-value buffer
        monkeypatch.setattr(_parallel, "MIN_BLOCK", 64)
        monkeypatch.setattr(_parallel, "WORKERS", workers)
        stream = RngStream(21, "blocks", consumed)
        ref = reference_generator(21, "blocks", consumed)
        for _ in range(consumed):
            assert stream.uniform() == ref.random()
        for size in (1001, (7, 3, 51), 129, (2, 65), 3):
            for method, reference in REFERENCE_DRAWS.items():
                got = getattr(stream, method)(size)
                want = reference(ref, size)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (method, size)
        for method in ("normal", "uniform_open"):
            out = np.zeros((4, 3))
            assert getattr(stream, method)((4, 3), out=out) is out
            assert out.tobytes() == REFERENCE_DRAWS[method](ref, (4, 3)).tobytes()
        # the draws after a parallel one continue the sequence
        assert stream.normal() == ndtri(max(ref.random(), 2.0**-64))
        assert stream.uniform_open(5).tobytes() == (1.0 - ref.random(5)).tobytes()
        assert stream.uniform() == ref.random()


class TestJointIncrement:
    def test_chol_delta_one(self):
        chol = joint_chol(1.0)
        expect = np.array([[1.0, 0.0], [0.5, 1.0 / (2.0 * math.sqrt(3.0))]])
        assert np.allclose(chol, expect)

    def test_chol_reproduces_covariance(self):
        for delta in (0.01, 0.125, 2.0):
            chol = joint_chol(delta)
            cov = chol @ chol.T
            expect = np.array([[delta, delta**2 / 2], [delta**2 / 2, delta**3 / 3]])
            assert np.allclose(cov, expect)

    def test_scalar_draw_type(self):
        # a plain (dW, iW) pair of the first two normals
        draw = joint_w_integral(0.25, RngStream(1))
        assert type(draw) is tuple and len(draw) == 2
        g1, g2 = RngStream(1).normal(2)
        chol = joint_chol(0.25)
        assert draw == (chol[0, 0] * g1, chol[1, 0] * g1 + chol[1, 1] * g2)

    def test_delta_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            joint_chol(0.0)
        with pytest.raises(InvalidParameterError):
            joint_w_integral(-0.5, RngStream(0))

    def test_empirical_covariance(self):
        delta = 0.25
        dw, iw = joint_w_integral(delta, RngStream(5), size=1_000_000)
        emp = np.cov(np.vstack([dw, iw]))
        theory = np.array([[0.25, 0.03125], [0.03125, 0.25**3 / 3.0]])
        cov_within_3se(emp, theory, dw.size)

    def test_correlation_is_root3_over_2(self):
        dw, iw = joint_w_integral(0.125, RngStream(6), size=500_000)
        corr = np.corrcoef(dw, iw)[0, 1]
        assert corr == pytest.approx(math.sqrt(3.0) / 2.0, abs=5e-3)


class TestOUJoint:
    def test_mean_reversion_mean(self):
        ou = OUParams(kappa=1.0, theta=1.0, nu=0.5)
        decay, mean_shift, *_ = ou_transition_moments(ou, 1.0)
        assert mean_shift + decay * 0.0 == pytest.approx(1.0 - math.exp(-1.0))

    def test_small_nu_limit(self):
        ou = OUParams(kappa=1.0, theta=1.0, nu=1e-12)
        y_next, _ = ou_exact_joint(ou, 0.0, 1.0, RngStream(2))
        assert y_next == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)

    def test_taylor_guard_continuity(self):
        # the g12 expansion must join the closed form smoothly at the switch
        ou = OUParams(kappa=1.0, theta=0.0, nu=0.5)
        below = ou_transition_moments(ou, 0.99e-4)[3]
        above = ou_transition_moments(ou, 1.01e-4)[3]
        ratio = below / (0.99e-4) ** 2 / (above / (1.01e-4) ** 2)
        assert ratio == pytest.approx(1.0, rel=1e-5)

    def test_empirical_joint_covariance(self):
        delta = 0.125
        n = 1_000_000
        y, iw = ou_exact_joint(BENCH_OU, 0.3, delta, RngStream(8), size=n)
        decay, mean_shift, g11, g12, g22 = ou_transition_moments(BENCH_OU, delta)
        dy = y - mean_shift - decay * 0.3
        emp = np.cov(np.vstack([dy, iw]))
        cov_within_3se(emp, np.array([[g11, g12], [g12, g22]]), n)

    def test_marginal_transition_ks(self):
        delta = 0.2
        y0 = -0.4
        y, _ = ou_exact_joint(BENCH_OU, y0, delta, RngStream(12), size=100_000)
        decay, mean_shift, g11, _, _ = ou_transition_moments(BENCH_OU, delta)
        z = (y - mean_shift - decay * y0) / math.sqrt(g11)
        assert stats.kstest(z, "norm").pvalue > 0.01

    def test_scalar_draw_is_the_transition_of_two_normals(self):
        y_next, iw = ou_exact_joint(BENCH_OU, 0.3, 0.125, RngStream(3))
        g1, g2 = RngStream(3).normal(2)
        decay, mean_shift, g11, g12, g22 = ou_transition_moments(BENCH_OU, 0.125)
        l21 = g12 / math.sqrt(g11)
        assert y_next == mean_shift + decay * 0.3 + math.sqrt(g11) * g1
        assert iw == pytest.approx(l21 * g1 + math.sqrt(g22 - l21**2) * g2, rel=1e-12)


class TestMix:
    """rng.mix, the one Cholesky mix of the pair and triple laws."""

    CHOLS = pytest.mark.parametrize(
        "chol", (joint_chol(1.0), joint_chol(0.125), ou_triple_chol(BENCH_OU, 0.125)),
        ids=("pair-delta-1", "pair", "ou-triple"))

    @CHOLS
    def test_zero_normals_map_to_zero(self, chol):
        assert mix(chol, [0.0] * len(chol)) == [0.0] * len(chol)

    @CHOLS
    def test_unit_normals_map_to_the_columns(self, chol):
        for j in range(len(chol)):
            unit = [float(i == j) for i in range(len(chol))]
            assert mix(chol, unit) == list(chol[:, j])

    def test_in_place_in_the_lower_sum_order(self):
        rng = RngStream(4)
        chol = np.linalg.cholesky(np.cov(rng.normal((4, 10))))  # dense, 4 x 4
        g = rng.normal((4, 7))
        want = [chol[0, 0] * g[0]]
        for i in range(1, 4):
            lower = chol[i, 0] * g[0]
            for j in range(1, i):
                lower = lower + chol[i, j] * g[j]
            want.append(chol[i, i] * g[i] + lower)
        mix(chol, list(g))  # g's rows, mixed in place
        assert g.tobytes() == np.stack(want).tobytes()

    def test_rows_after_an_undrawn_row_stay_undrawn(self):
        chol = ou_triple_chol(BENCH_OU, 0.125)
        g = RngStream(5).normal((2, 6))
        dy, dw, iw = mix(chol, [g[0].copy(), g[1].copy(), None])
        assert iw is None
        assert dy.tobytes() == (chol[0, 0] * g[0]).tobytes()
        assert dw.tobytes() == (chol[1, 1] * g[1] + chol[1, 0] * g[0]).tobytes()
        assert mix(chol, [g[0].copy(), None, None])[1:] == [None, None]


class TestOUTriple:
    def test_cov_is_symmetric_psd(self):
        for delta in (1e-3, 0.125, 1.0):
            cov = ou_triple_cov(BENCH_OU, delta)
            assert np.allclose(cov, cov.T)
            assert np.all(np.linalg.eigvalsh(cov) >= -1e-15)

    def test_chol_reproduces_cov(self):
        for delta in (1e-3, 0.125, 1.0):
            cov = ou_triple_cov(BENCH_OU, delta)
            chol = ou_triple_chol(BENCH_OU, delta)
            assert np.allclose(chol @ chol.T, cov, atol=1e-12)

    def test_taylor_guard_for_dw_dy_cov(self):
        ou = OUParams(kappa=1.0, theta=0.0, nu=0.5)
        below = ou_triple_cov(ou, 0.99e-4)[0, 1]
        above = ou_triple_cov(ou, 1.01e-4)[0, 1]
        ratio = below / 0.99e-4 / (above / 1.01e-4)
        assert ratio == pytest.approx(1.0, rel=1e-6)

    def test_empirical_triple_covariance(self):
        delta = 0.125
        n = 1_000_000
        draws = mix(ou_triple_chol(BENCH_OU, delta), list(RngStream(21).normal((3, n))))
        emp = np.cov(np.stack(draws))
        cov_within_3se(emp, ou_triple_cov(BENCH_OU, delta), n)

    def test_consistency_with_pair_laws(self):
        # in the order (dY, dW, iW): the (dW, iW) block matches joint_chol
        # and the (dY, iW) block the exact transition moments
        delta = 0.3
        cov = ou_triple_cov(BENCH_OU, delta)
        pair = joint_chol(delta)
        assert np.allclose(cov[1:, 1:], pair @ pair.T)
        _, _, g11, g12, g22 = ou_transition_moments(BENCH_OU, delta)
        assert cov[2, 2] == pytest.approx(g22)
        assert cov[0, 2] == pytest.approx(g12)
        assert cov[0, 0] == pytest.approx(g11)


class TestBlockStreams:
    """Each path block draws from its own streams, keyed by the run's block index."""

    def test_block_values_come_from_its_keyed_stream(self):
        npaths = 2 * PATH_BLOCK + 5
        got = BlockStreams(RngStream(8), npaths).draw(3, ("x", "u"))
        for b, cols in enumerate([slice(0, PATH_BLOCK), slice(PATH_BLOCK, 2 * PATH_BLOCK),
                                  slice(2 * PATH_BLOCK, npaths)]):
            width = cols.stop - cols.start
            want = RngStream(8).child("x", "block", b).normal((3, width))
            assert got["x"][:, cols].tobytes() == want.tobytes()
            want = RngStream(8).child("u", "block", b).uniform_open((3, width))
            assert got["u"][:, cols].tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_a_chunk_of_whole_blocks_draws_its_columns_of_the_run(self, monkeypatch, workers):
        monkeypatch.setattr(_parallel, "WORKERS", workers)
        # the run and the chunk draw the same rows in different successive
        # draws: the chunk's streams continue where its previous draw ended
        npaths = 3 * PATH_BLOCK + 17
        run = BlockStreams(RngStream(9), npaths)
        chunk = BlockStreams(RngStream(9), PATH_BLOCK + 17, first=2)
        draws = [(run.draw(2, ("x", "u")), chunk.draw(1, ("x", "u"))),
                 (run.draw(3, ("x", "u")), chunk.draw(4, ("x", "u")))]
        for name in ("x", "u"):
            whole = np.concatenate([run_rows[name] for run_rows, _ in draws])
            part = np.concatenate([chunk_rows[name] for _, chunk_rows in draws])
            assert part.tobytes() == np.ascontiguousarray(whole[:, 2 * PATH_BLOCK:]).tobytes()

    def test_needs_a_path(self):
        with pytest.raises(InvalidParameterError, match="at least one path"):
            BlockStreams(RngStream(0), 0)
