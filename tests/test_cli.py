import csv
import json

import pytest

from svschemes import _parallel
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


def write_cfg(tmp_path, cfg):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
        out = tmp_path / "rows.csv"
        rc = main(["strong-conv", "--steps", "4", "--paths", "500",
                   "--cutoff", "band", "--out", str(out)])
        assert rc == 0

    def test_seed_changes_values(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(["strong-conv", "--steps", "4", "--paths", "500", "--seed", "1", "--out", str(a)])
        main(["strong-conv", "--steps", "4", "--paths", "500", "--seed", "1", "--out", str(b)])
        main(["strong-conv", "--steps", "4", "--paths", "500", "--seed", "2", "--out", str(c)])
        assert a.read_text() == b.read_text()
        assert a.read_text() != c.read_text()


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

    def test_negative_paths_exits_2(self, tmp_path, capsys):
        rc = main(["price", "--payoff", "lookback", "--steps", "4", "--paths", "-5",
                   "--out", str(tmp_path / "price.json")])
        assert rc == 2
        assert "at least one path" in capsys.readouterr().err

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
