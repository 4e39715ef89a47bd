"""Golden bytes: small fixed-seed runs whose outputs must not move by a bit.

The run digests (``CASES``) were last re-pinned when every normal got its
own stream per path block. Each run is repeated with 2-step blocks and
small parallel blocks, so the digests pin the step blocks, the parallel
blocks and the node table to the bytes of one whole-path computation.

The kernel digests (``KERNEL_CASES``) run the per-step kernels on factor
draws built from fixed explicit arrays, with no random stream: they pin
the arithmetic of the schemes apart from the draw layer, and did not move
when the draws did.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import gbm_factor_spec, scott_spec

from svschemes import _parallel, schemes
from svschemes.analysis import (
    ExperimentConfig,
    run_strong_conv,
    run_terminal_conv,
    run_traj_conv,
    weak_error_refinement,
)
from svschemes.coupling import (
    bridge_min,
    coupled_lookback_levels,
    coupling_start,
    level_sums,
    lookback_single_level,
)
from svschemes.mlmc import call_level_sampler
from svschemes.pricing import romano_touzi_call
from svschemes.rng import RngStream
from svschemes.schemes import (
    FactorDraws,
    SchemeKind,
    drift_and_mult,
    simulate_paths,
    weak2_terminal,
)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def rows_digest(rows) -> str:
    labels = "|".join(f"{r.experiment},{r.scheme},{r.n_steps},{r.metric}" for r in rows)
    return (hashlib.sha256(labels.encode()).hexdigest()[:8] + ":"
            + digest([[r.value, r.stderr] for r in rows]))


def call_bits(kind):
    est = romano_touzi_call(scott_spec(), kind, 8, 100.0, RngStream(25), 3000, chunk_paths=2000)
    return est.value.hex(), est.stderr.hex()


def weak2_path_digest():
    path = simulate_paths(SchemeKind.WEAK2, scott_spec(), 8, RngStream(28), 300)
    return digest(path.x, path.m, path.v)


def lookback_levels_digest(kind):
    pair = coupled_lookback_levels(scott_spec(), kind, 4, RngStream(27), 500)
    return digest(pair.fine, pair.coarse)


LADDER = ExperimentConfig(n_ladder=(2, 4, 16), npaths=700, chunk_paths=400)
GENERIC = ExperimentConfig(n_ladder=(2, 8), npaths=500, chunk_paths=500,
                           kinds=(SchemeKind.WEAKTRAJ1, SchemeKind.WEAK2, SchemeKind.EULER,
                                  SchemeKind.CMT))

CASES = {
    "strong": (lambda: rows_digest(run_strong_conv(scott_spec(), LADDER, RngStream(21))),
               "a984c1fe:eb527bea5faab425"),
    "traj": (lambda: rows_digest(run_traj_conv(scott_spec(), LADDER, RngStream(22))),
             "e0452e8b:277c386161b10c5a"),
    "terminal": (lambda: rows_digest(run_terminal_conv(scott_spec(), LADDER, RngStream(23))),
                 "829d8410:80227cf82d701368"),
    "terminal-band": (
        lambda: rows_digest(run_terminal_conv(
            scott_spec(), dataclasses.replace(LADDER, cutoff="band"), RngStream(23))),
        "829d8410:831f34c7c8779602"),
    "strong-generic": (
        lambda: rows_digest(run_strong_conv(gbm_factor_spec(rho=-0.3), GENERIC, RngStream(24))),
        "334dabff:002b8daf8d9d4626"),
    "call-weak2": (lambda: call_bits(SchemeKind.WEAK2),
                   ("0x1.9a1fb627d3986p+3", "0x1.e861bda65b6b0p-6")),
    "call-ou-improved": (lambda: call_bits(SchemeKind.OU_IMPROVED),
                         ("0x1.9a2f4d5dd2000p+3", "0x1.e8889eb0482aep-6")),
    "call-cmt": (lambda: call_bits(SchemeKind.CMT),
                 ("0x1.a4238db65676ap+3", "0x1.6796e439e3141p-2")),
    "mlmc-call-level3": (
        lambda: digest(call_level_sampler(scott_spec(), SchemeKind.WEAKTRAJ1, 100.0)(
            3, RngStream(30), 500)),
        "6791dcbce54a648e"),
    "weak-refine": (
        lambda: rows_digest(weak_error_refinement(scott_spec(), SchemeKind.WEAK2, (2, 4), 16,
                                                  100.0, RngStream(31), 600, chunk_paths=400)),
        "a9dd2a01:cdc9950001e43388"),
    "weak2-paths": (weak2_path_digest, "be5567191a5718e8"),
    "weak2-terminal": (lambda: digest(*weak2_terminal(scott_spec(), 8, RngStream(29), 300)),
                       "aad257f2fd66f4b8"),
}
for kind, single, levels in [
    (SchemeKind.WEAKTRAJ1, "2d1c5f73730160b0", "ddd76e8ebfe1faf7"),
    (SchemeKind.OU_IMPROVED, "ce8cd9679636aa12", "a3ace7c674f4c942"),
    (SchemeKind.IJK, "f6f3a8ac9eb665b9", "f02a4c171a876c85"),
]:
    CASES[f"lookback-{kind.value}"] = (
        lambda kind=kind: digest(lookback_single_level(scott_spec(), kind, 8, RngStream(26), 500)),
        single)
    CASES[f"lookback-levels-{kind.value}"] = (lambda kind=kind: lookback_levels_digest(kind),
                                               levels)


@pytest.mark.parametrize("small", [False, True], ids=["default", "small-tiles-and-blocks"])
@pytest.mark.parametrize("name", list(CASES))
def test_golden_bytes(monkeypatch, name, small):
    if small:
        monkeypatch.setattr(schemes, "block_steps", lambda npaths, multiple=2: multiple)
        monkeypatch.setattr(_parallel, "MIN_BLOCK", 64)
        monkeypatch.setattr(_parallel, "WORKERS", 3)
    run, expected = CASES[name]
    assert run() == expected


def fixed_draws(spec, n_steps=8, npaths=40):
    """Factor draws of fixed explicit arrays, with iW large enough that the
    weak-trajectorial radicand meets both its floor and its band cap."""
    grid = np.arange(n_steps * npaths, dtype=float).reshape(n_steps, npaths)
    delta = spec.T / n_steps
    dW = np.sqrt(delta) * np.sin(1.7 * grid + 0.3)
    iW = 10.0 * (0.5 * delta * dW + delta**1.5 / np.sqrt(12.0) * np.cos(2.3 * grid))
    y = np.empty((n_steps + 1, npaths))
    y[0] = spec.y0
    np.cumsum(0.4 * dW, axis=0, out=y[1:])
    y[1:] += spec.y0
    return FactorDraws(delta, y, dW, iW)


def drift_mult_digest(kind, cutoff="floor"):
    return digest(*drift_and_mult(scott_spec(), kind, fixed_draws(scott_spec()), cutoff))


def level_sums_digest(spec, kind):
    draws = fixed_draws(spec)
    carry = coupling_start(spec, kind, draws.dW.shape[1], levels=3)
    level_sums(spec, kind, draws, "floor", carry)
    return digest(carry)


def bridge_min_digest():
    grid = np.arange(500, dtype=float)
    left = 100.0 + 10.0 * np.sin(grid)
    right = 100.0 + 10.0 * np.cos(1.3 * grid)
    u = 0.5 + 0.4999 * np.sin(0.7 * grid)
    return digest(bridge_min(left, right, 0.04 + 0.01 * np.sin(grid), 0.125, u),
                  bridge_min(left, right, 0.04, 0.125, u, anchor=left + 1.0))


KERNEL_CASES = {
    "bridge-min": (bridge_min_digest, "57bc42b33cac51a4"),
    "drift-mult-weaktraj1-band": (
        lambda: drift_mult_digest(SchemeKind.WEAKTRAJ1, "band"), "64eb9a50ad6387eb"),
}
for kind, expected in [
    (SchemeKind.EULER, "dcb394c6a8f1c2c1"),
    (SchemeKind.WEAKTRAJ1, "ebb8e8485b91526d"),
    (SchemeKind.OU_IMPROVED, "15faec658f1b3a93"),
    (SchemeKind.WEAK2, "9b5d2de8ed592f1c"),
    (SchemeKind.IJK, "b799e5255af6fbb9"),
]:
    KERNEL_CASES[f"drift-mult-{kind.value}"] = (lambda kind=kind: drift_mult_digest(kind),
                                                expected)
for spec, name, expected in [
    (scott_spec, "level-sums", {SchemeKind.WEAKTRAJ1: "9ae8a113e0a77a63",
                                SchemeKind.WEAK2: "e042adb09ceccdfe",
                                SchemeKind.IJK: "bd0b35039deb64d3"}),
    (lambda: gbm_factor_spec(rho=-0.3), "level-sums-generic",
     {SchemeKind.WEAKTRAJ1: "9fa172c30f46fa08", SchemeKind.WEAK2: "26d95fc5bf6f90ad",
      SchemeKind.EULER: "2e7966c9785b6ac6"}),
]:
    for kind, digest_ in expected.items():
        KERNEL_CASES[f"{name}-{kind.value}"] = (
            lambda spec=spec, kind=kind: level_sums_digest(spec(), kind), digest_)


@pytest.mark.parametrize("name", list(KERNEL_CASES))
def test_kernel_bytes(name):
    run, expected = KERNEL_CASES[name]
    assert run() == expected
