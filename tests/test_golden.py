"""Golden bytes: small fixed-seed runs whose outputs must not move by a bit.

The digests were taken before the model coefficients were read through
a node table, so they pin the table, the path tiles and the parallel
blocks to the arithmetic of plain per-call coefficient evaluation. Each
run is repeated with tiles and blocks forced small.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import gbm_factor_spec, scott_spec

from svschemes import _parallel, schemes
from svschemes.analysis import ExperimentConfig, run_strong_conv, run_terminal_conv, run_traj_conv
from svschemes.coupling import coupled_lookback_levels, lookback_single_level
from svschemes.pricing import romano_touzi_call
from svschemes.rng import RngStream
from svschemes.schemes import SchemeKind, simulate_paths, weak2_terminal


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
               "a984c1fe:7d83c6a6fe0ca425"),
    "traj": (lambda: rows_digest(run_traj_conv(scott_spec(), LADDER, RngStream(22))),
             "e0452e8b:bff99605bb2dfa25"),
    "terminal": (lambda: rows_digest(run_terminal_conv(scott_spec(), LADDER, RngStream(23))),
                 "829d8410:08f24672fbdb839a"),
    "terminal-band": (
        lambda: rows_digest(run_terminal_conv(
            scott_spec(), dataclasses.replace(LADDER, cutoff="band"), RngStream(23))),
        "829d8410:1829e4fbe7839548"),
    "strong-generic": (
        lambda: rows_digest(run_strong_conv(gbm_factor_spec(rho=-0.3), GENERIC, RngStream(24))),
        "334dabff:cea0a41df3eeda52"),
    "call-weak2": (lambda: call_bits(SchemeKind.WEAK2),
                   ("0x1.9c178dfdf8c5ap+3", "0x1.e512ba4b7703ap-6")),
    "call-ou-improved": (lambda: call_bits(SchemeKind.OU_IMPROVED),
                         ("0x1.9c234502f0d66p+3", "0x1.e5582e32843a6p-6")),
    "weak2-paths": (weak2_path_digest, "3357379efa9b9859"),
    "weak2-terminal": (lambda: digest(*weak2_terminal(scott_spec(), 8, RngStream(29), 300)),
                       "b18e5a1ba317ff43"),
}
for kind, single, levels in [
    (SchemeKind.WEAKTRAJ1, "3762c18413be9bb4", "4e9783df6e1df22e"),
    (SchemeKind.OU_IMPROVED, "844fec3385b9c6c1", "173b4f07039e4a42"),
    (SchemeKind.IJK, "6aee6f38e5f8ce2e", "709adb3598bb7e26"),
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
        monkeypatch.setattr(schemes, "TILE_VALUES", 40)
        monkeypatch.setattr(_parallel, "MIN_BLOCK", 64)
        monkeypatch.setattr(_parallel, "WORKERS", 3)
    run, expected = CASES[name]
    assert run() == expected
