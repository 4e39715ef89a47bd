import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import time

import pytest

from svschemes import _parallel, cli
from svschemes.cli import main
from svschemes.rng import RngStream

SCOTT_CFG = {
    "model": "scott", "sigma0": 0.25, "kappa": 1.0, "theta": 0.0,
    "nu": 0.4949747468305833, "rho": -0.2, "r": 0.05,
    "s0": 100.0, "y0": 0.0, "T": 1.0,
}


# The factor starts so high that e^{2y} overflows: radicands and prices
# turn NaN or infinite.
BLOWUP_CFG = dict(SCOTT_CFG, y0=400.0)


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_fresh(args, cwd, timeout=120):
    """Run the interpreter with ``args`` in a fresh process that imports svschemes from src."""
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=str(SRC)))


def write_cfg(tmp_path, cfg):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParser:
    def test_calls_share_no_state(self, monkeypatch):
        # the parser is built once per process: a call's flags do not reach
        # the next call, which gets its own namespace and the defaults
        seen = []
        monkeypatch.setattr(cli, "_run", lambda args: seen.append(args) or 0)
        assert main(["price", "--payoff", "lookback", "--steps", "8", "--strike", "90",
                     "--seed", "4", "--cutoff", "band"]) == 0
        assert main(["mlmc", "--epsilon", "0.5"]) == 0
        assert main(["price"]) == 0
        lookback, mlmc, price = seen
        assert cli.build_parser() is cli.build_parser()
        assert (lookback.payoff, lookback.steps, lookback.strike, lookback.seed,
                lookback.cutoff) == ("lookback", 8, 90.0, 4, "band")
        assert (mlmc.epsilon, mlmc.payoff, mlmc.seed) == (0.5, "call", 0)
        assert not hasattr(mlmc, "paths")
        assert vars(price) == dict(
            command="price", config=None, seed=0, paths=10_000, out=None, cutoff="floor",
            scheme="weaktraj1", payoff="call", steps=64, strike=100.0)


class TestConvCommands:
    def test_strong_conv_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = main(["strong-conv", "--steps", "4", "--paths", "500",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert rows, "no rows written"
        assert set(rows[0]) == {"experiment", "scheme", "N", "metric", "value", "stderr"}
        assert {r["experiment"] for r in rows} == {"strong-conv"}
        assert {r["N"] for r in rows} == {"2", "4"}

    def test_traj_conv_excludes_cmt(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["traj-conv", "--steps", "4", "--paths", "500", "--out", str(out)]) == 0
        assert "cmt" not in {r["scheme"] for r in read_rows(out)}

    def test_terminal_conv_with_config_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        cfg = write_cfg(tmp_path, SCOTT_CFG)
        rc = main(["terminal-conv", "--config", cfg, "--steps", "4",
                   "--paths", "500", "--out", str(out)])
        assert rc == 0
        assert read_rows(out)

    def test_band_cutoff_accepted(self, tmp_path):
        # the band cap binds at this size: it moves the weaktraj1 rows, and
        # every other scheme's rows keep their bytes
        rows = {}
        for cutoff in ("floor", "band"):
            out = tmp_path / f"{cutoff}.csv"
            assert main(["strong-conv", "--steps", "4", "--paths", "500",
                         "--cutoff", cutoff, "--out", str(out)]) == 0
            rows[cutoff] = out.read_text().splitlines()
        floor, band = rows["floor"], rows["band"]
        assert len(floor) == len(band)
        assert [f != b for f, b in zip(floor, band)] == [
            f.split(",")[1] == "weaktraj1" for f in floor]

    def test_seed_changes_values(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(["strong-conv", "--steps", "4", "--paths", "500", "--seed", "1", "--out", str(a)])
        main(["strong-conv", "--steps", "4", "--paths", "500", "--seed", "1", "--out", str(b)])
        main(["strong-conv", "--steps", "4", "--paths", "500", "--seed", "2", "--out", str(c)])
        assert a.read_text() == b.read_text()
        assert a.read_text() != c.read_text()


class TestStdout:
    """Without --out, the CSV commands write to sys.stdout as it is open."""

    def test_rows_go_to_sys_stdout(self, capsys):
        assert main(["strong-conv", "--steps", "4", "--paths", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "experiment,scheme,N,metric,value,stderr"
        assert len(lines) > 1

    def test_appending_redirect_keeps_earlier_lines(self, tmp_path):
        log = tmp_path / "log"
        log.write_text("earlier line\n")
        with open(log, "a") as fh:  # a shell's >>
            done = subprocess.run(
                [sys.executable, "-m", "svschemes.cli", "strong-conv", "--steps", "4",
                 "--paths", "10"], cwd=tmp_path, stdout=fh, stderr=subprocess.PIPE,
                text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert done.returncode == 0, done.stderr
        lines = log.read_text().splitlines()
        assert lines[:2] == ["earlier line", "experiment,scheme,N,metric,value,stderr"]


class TestWeakCall:
    def test_reference_rows_for_default_config(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = main(["weak-call", "--steps", "4", "--paths", "2000", "--out", str(out)])
        assert rc == 0
        metrics = {r["metric"] for r in read_rows(out)}
        assert metrics == {"call_price", "abs_error"}

    def test_no_reference_for_custom_strike(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = main(["weak-call", "--steps", "4", "--paths", "2000",
                   "--strike", "90", "--out", str(out)])
        assert rc == 0
        assert {r["metric"] for r in read_rows(out)} == {"call_price"}


class TestMlmc:
    def test_call_run(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = main(["mlmc", "--scheme", "weaktraj1", "--payoff", "call",
                   "--epsilon", "0.1", "--probe-samples", "2000", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        metrics = {r["metric"] for r in rows}
        assert {"price", "total_cost", "wall_clock", "epsilon", "abs_error"} <= metrics
        price = float(next(r["value"] for r in rows if r["metric"] == "price"))
        assert 12.0 < price < 13.5

    def test_paths_flag_rejected(self, capsys):
        # mlmc sets its own sample counts; --paths would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["mlmc", "--paths", "5"])
        assert exc.value.code == 2
        assert "--paths" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["1e-160", "1e-200"])
    def test_non_finite_sample_target_exits_3(self, tmp_path, capsys, epsilon):
        # epsilon^2 overflows the sample target (1e-160) or underflows to 0 (1e-200)
        rc = main(["mlmc", "--payoff", "call", "--epsilon", epsilon, "--max-level", "2",
                   "--probe-samples", "100", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "sample target" in capsys.readouterr().err

    def test_tiny_epsilon_exits_3_before_drawing_its_cost(self, tmp_path, capsys):
        # epsilon 1e-150 gives finite sample targets of about 1e303
        started = time.perf_counter()
        rc = main(["mlmc", "--payoff", "call", "--epsilon", "1e-150",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "projected cost" in capsys.readouterr().err
        assert time.perf_counter() - started < 30.0

    @pytest.mark.parametrize("payoff", ["call", "lookback"])
    @pytest.mark.parametrize("epsilon", ["inf", "nan"])
    def test_non_finite_epsilon_exits_2_before_drawing(self, monkeypatch, capsys, payoff,
                                                       epsilon):
        def no_draw(*args, **kwargs):
            pytest.fail("random values were drawn before epsilon was rejected")

        monkeypatch.setattr(RngStream, "normal", no_draw)
        with pytest.raises(SystemExit) as exc:
            main(["mlmc", "--payoff", payoff, "--epsilon", epsilon])
        assert exc.value.code == 2
        assert "--epsilon" in capsys.readouterr().err

    def test_probe_samples_over_the_cost_cap_exit_3_before_drawing(self, tmp_path):
        # 1e11 probe samples cost 2e11 path-steps at level 0 alone
        started = time.perf_counter()
        proc = run_fresh(["-m", "svschemes.cli", "mlmc", "--payoff", "call",
                          "--probe-samples", "100000000000"], tmp_path, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert "probe samples of level 0" in proc.stderr
        assert proc.stdout == ""
        assert time.perf_counter() - started < 30.0

    def test_budget_trip_exits_3(self, tmp_path):
        rc = main(["mlmc", "--scheme", "euler", "--payoff", "call",
                   "--epsilon", "0.005", "--max-level", "1",
                   "--probe-samples", "2000", "--out", str(tmp_path / "x.csv")])
        assert rc == 3


class TestPrice:
    def test_call_json(self, tmp_path):
        out = tmp_path / "price.json"
        rc = main(["price", "--scheme", "weak2", "--steps", "8",
                   "--paths", "20000", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["payoff"] == "call"
        assert payload["scheme"] == "weak2"
        assert abs(payload["value"] - 12.82603) < 0.2
        assert payload["stderr"] > 0

    def test_lookback_json(self, tmp_path):
        out = tmp_path / "price.json"
        rc = main(["price", "--scheme", "weaktraj1", "--payoff", "lookback",
                   "--steps", "16", "--paths", "5000", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["payoff"] == "lookback"
        assert 10.0 < payload["value"] < 40.0

    def test_cmt_lookback_exits_2_before_drawing(self, tmp_path, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            pytest.fail("random values were drawn before CMT was rejected")

        monkeypatch.setattr(RngStream, "normal", no_draw)
        monkeypatch.setattr(RngStream, "uniform_open", no_draw)
        rc = main(["price", "--scheme", "cmt", "--payoff", "lookback", "--steps", "64",
                   "--paths", "100000", "--out", str(tmp_path / "price.json")])
        assert rc == 2
        assert "CMT" in capsys.readouterr().err


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path):
        rc = main(["strong-conv", "--config", str(tmp_path / "nope.json"),
                   "--steps", "4", "--paths", "100"])
        assert rc == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["strong-conv", "--config", str(p), "--steps", "4"]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = dict(SCOTT_CFG)
        cfg["vol_of_vol"] = 0.2
        assert main(["strong-conv", "--config", write_cfg(tmp_path, cfg),
                     "--steps", "4"]) == 2

    def test_invalid_param_value(self, tmp_path):
        cfg = dict(SCOTT_CFG)
        cfg["kappa"] = -1.0
        assert main(["price", "--config", write_cfg(tmp_path, cfg)]) == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "int-1e400"])
    @pytest.mark.parametrize("key", ["kappa", "theta"])  # range-checked, unchecked
    def test_non_finite_value_exits_2_before_drawing(self, tmp_path, monkeypatch, capsys,
                                                      key, value):
        def no_draw(*args, **kwargs):
            pytest.fail("random values were drawn before the config was rejected")

        monkeypatch.setattr(RngStream, "normal", no_draw)
        monkeypatch.setattr(RngStream, "uniform_open", no_draw)
        rc = main(["price", "--scheme", "weak2", "--steps", "8", "--paths", "20000",
                   "--config", write_cfg(tmp_path, dict(SCOTT_CFG, **{key: value}))])
        assert rc == 2
        assert f"config key {key!r} must be a finite number" in capsys.readouterr().err

    def test_negative_paths_exits_2(self, tmp_path, capsys):
        rc = main(["price", "--payoff", "lookback", "--steps", "4", "--paths", "-5",
                   "--out", str(tmp_path / "price.json")])
        assert rc == 2
        assert "at least one path" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["price"], ["weak-call", "--steps", "4"],
                                         ["mlmc", "--payoff", "call"]],
                             ids=["price", "weak-call", "mlmc"])
    @pytest.mark.parametrize("strike", ["nan", "inf", "-inf", "-1", "abc"])
    def test_bad_strike_exits_2_before_drawing(self, monkeypatch, capsys, command, strike):
        def no_draw(*args, **kwargs):
            pytest.fail("random values were drawn before the strike was rejected")

        monkeypatch.setattr(RngStream, "normal", no_draw)
        with pytest.raises(SystemExit) as exc:
            main(command + ["--strike", strike])
        assert exc.value.code == 2
        assert "--strike" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["price", "--steps", "4", "--paths", "100"],
                                         ["strong-conv", "--steps", "4", "--paths", "100"]],
                             ids=["price", "strong-conv"])
    def test_unwritable_out_exits_2_before_drawing(self, tmp_path, monkeypatch, capsys,
                                                   command):
        def no_draw(*args, **kwargs):
            pytest.fail("random values were drawn before the output was checked")

        monkeypatch.setattr(RngStream, "normal", no_draw)
        out = tmp_path / "missing-dir" / "out"
        assert main(command + ["--out", str(out)]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_bad_steps_flag(self, tmp_path):
        assert main(["strong-conv", "--steps", "3", "--paths", "100"]) == 2
        assert main(["strong-conv", "--steps", "2", "--paths", "100"]) == 2


class TestNumericalGuards:
    @pytest.mark.parametrize("scheme", ["weaktraj1", "ou-improved"])
    @pytest.mark.parametrize("payoff", ["call", "lookback"])
    def test_non_finite_radicand_exits_3(self, tmp_path, capsys, scheme, payoff):
        rc = main(["price", "--scheme", scheme, "--payoff", payoff, "--steps", "8",
                   "--paths", "1000", "--config", write_cfg(tmp_path, BLOWUP_CFG),
                   "--out", str(tmp_path / "price.json")])
        assert rc == 3
        assert "radicand is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("payoff", ["call", "lookback"])
    def test_non_finite_estimate_exits_3(self, tmp_path, capsys, payoff):
        out = tmp_path / "price.json"
        rc = main(["price", "--scheme", "weak2", "--payoff", payoff, "--steps", "8",
                   "--paths", "1000", "--config", write_cfg(tmp_path, BLOWUP_CFG),
                   "--out", str(out)])
        assert rc == 3
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_cmt_path_exits_3(self, tmp_path, capsys):
        out = tmp_path / "price.json"
        rc = main(["price", "--scheme", "cmt", "--steps", "8", "--paths", "20000",
                   "--config", write_cfg(tmp_path, BLOWUP_CFG), "--out", str(out)])
        assert rc == 3
        assert "CMT log-asset path is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["price", "--scheme", "weaktraj1", "--steps", "8", "--paths", "1000"],
        ["strong-conv", "--steps", "4", "--paths", "1000"],
        ["terminal-conv", "--steps", "4", "--paths", "1000"],
    ])
    def test_guard_in_worker_block_exits_3(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setattr(_parallel, "MIN_BLOCK", 64)
        monkeypatch.setattr(_parallel, "WORKERS", 3)
        rc = main(argv + ["--config", write_cfg(tmp_path, BLOWUP_CFG),
                          "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "radicand is not finite" in capsys.readouterr().err


class TestColdStart:
    def test_quadrature_modules_load_only_for_a_spec_without_F(self, tmp_path):
        # a Scott CLI run has F in closed form; a spec without F builds the
        # quadrature primitive, which loads scipy.integrate and scipy.interpolate
        proc = run_fresh(["-c", textwrap.dedent("""
            import json, math, sys
            import numpy as np
            from svschemes.cli import main
            from svschemes.models import VolModelSpec

            HEAVY = ("scipy.integrate", "scipy.interpolate")
            codes = [
                main(["price", "--scheme", "weak2", "--steps", "8", "--paths", "8192",
                      "--out", "price.json"]),
                main(["mlmc", "--payoff", "lookback", "--epsilon", "0.5", "--out", "mlmc.csv"]),
            ]
            after_cli = [m for m in HEAVY if m in sys.modules]
            spec = VolModelSpec(
                r=0.05, s0=100.0, y0=0.0, T=1.0, rho=-0.2,
                f=lambda y: 0.25 * np.exp(y), f1=lambda y: 0.25 * np.exp(y),
                f2=lambda y: 0.25 * np.exp(y), b=lambda y: -np.asarray(y, dtype=float),
                sigma=lambda y: 0.5 + 0.0 * np.asarray(y, dtype=float),
                sigma1=lambda y: 0.0 * np.asarray(y, dtype=float),
            )
            after_spec = [m for m in HEAVY if m in sys.modules]
            from scipy.integrate import quad
            points = [-1.5, -0.2, 0.0, 0.7, 2.0]
            errors = [abs(spec.F(y) - quad(lambda t: 0.5 * math.exp(t), 0.0, y)[0])
                      for y in points]
            print(json.dumps({"codes": codes, "after_cli": after_cli,
                              "after_spec": after_spec, "errors": errors}))
        """)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        assert got["codes"] == [0, 0]
        assert got["after_cli"] == []
        assert got["after_spec"] == ["scipy.integrate", "scipy.interpolate"]
        # within the cubic Hermite bound between knots, 0.0625^4 / 384 * 0.5 e^2
        assert max(got["errors"]) < 1e-7
