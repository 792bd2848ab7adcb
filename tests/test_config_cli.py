import copy
import json
import math
import os

import numpy as np
import pytest

from hcqsim.cli import main, read_xu_trace_csv, write_xu_trace_csv
from hcqsim.config import ConfigError, load_config, parse_config
from hcqsim.control import StateSpaceModel, load_model_csv
from hcqsim.hybriddb import CorpusSpec


def minimal_config(tmp_path=None, **overrides):
    cfg = {
        "scenario_id": "mini",
        "seed": 3,
        "n_epochs": 20,
        "mode": "both",
        "link": {
            "capacity_bps": 8.0e6,
            "queue_capacity_bytes": 1_000_000,
            "propagation_delay_s": 0.001,
            "epoch_s": 1.0,
        },
        "traffic": [
            {
                "zone_class": "A",
                "app_kind": "Web",
                "rate_per_s": 15.0,
                "size": {"family": "lognormal", "mean_bytes": 40960.0, "sigma": 0.8},
                "burst_s": 2.0,
                "idle_s": 2.0,
            },
            {
                "zone_class": "B",
                "app_kind": "File",
                "rate_per_s": 10.0,
                "size": {"family": "exponential", "mean_bytes": 30000.0},
            },
        ],
        "controller": {
            "model": "identify-from-warmup",
            "warmup_epochs": 30,
            "excitation_seed": 1,
            "horizon": 2,
            "grid": 6,
            "control_message_bytes": 0,
            "weights": {
                "Q_diag": [2.0, 2.0, 1.0, 1.0],
                "R_diag": [0.1, 0.1],
                "x_ref": [0.0, 0.0, 0.45, 0.3],
            },
        },
    }
    cfg.update(overrides)
    return cfg


def minimal_hybrid_db():
    return {
        "scale": 1e-3,
        "n_queries": 3,
        "backends": {
            "metadata_lookup_s": 1e-3,
            "metadata_per_row_s": 1e-4,
            "blob_first_byte_s": 2e-3,
            "blob_bytes_per_s": 2.0e8,
            "local_bytes_per_s": 1.0e8,
        },
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigParsing:
    def test_valid_round_trip(self, tmp_path):
        cfg = parse_config(minimal_config())
        assert cfg.scenario_id == "mini"
        assert cfg.link.capacity_bps == 8.0e6
        assert len(cfg.traffic.classes) == 2
        assert cfg.controller.identify

    def test_unknown_key_rejected_with_path(self):
        raw = minimal_config()
        raw["link"]["capcity_bps"] = 1.0
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "capcity_bps" in str(err.value)
        assert "link" in str(err.value)

    def test_negative_capacity_names_field(self):
        raw = minimal_config()
        raw["link"]["capacity_bps"] = -5.0
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "capacity_bps" in str(err.value)

    def test_missing_controller_for_closed_mode(self):
        raw = minimal_config()
        del raw["controller"]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "controller" in str(err.value)
        raw["mode"] = "open"
        assert parse_config(raw).controller is None

    def test_weight_dimensions_checked(self):
        raw = minimal_config()
        raw["controller"]["weights"]["x_ref"] = [0.0, 0.0]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "x_ref" in str(err.value)

    def test_explicit_model_dimensions_checked(self):
        raw = minimal_config()
        raw["controller"]["model"] = {"A": [[1.0]], "B": [[1.0]]}
        with pytest.raises(ConfigError):
            parse_config(raw)
        n, m = 4, 2
        model = StateSpaceModel(0.5 * np.eye(n), np.ones((n, m)))
        raw["controller"]["model"] = {"A": model.A.tolist(), "B": model.B.tolist()}
        raw["controller"]["warmup_epochs"] = 0
        cfg = parse_config(raw)
        assert not cfg.controller.identify
        np.testing.assert_array_equal(cfg.controller.model.A, model.A)

    def test_control_message_bytes_grow_dimensions(self):
        raw = minimal_config()
        raw["controller"]["control_message_bytes"] = 512
        with pytest.raises(ConfigError):
            parse_config(raw)  # weights still sized for 2 classes
        raw["controller"]["weights"] = {
            "Q_diag": [1.0] * 6,
            "R_diag": [0.1] * 3,
            "x_ref": [0.0] * 6,
        }
        cfg = parse_config(raw)
        assert len(cfg.classes()) == 3

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"scenario_id": }')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line" in str(err.value)

    def test_duplicate_traffic_class_rejected(self):
        raw = minimal_config()
        raw["traffic"].append(copy.deepcopy(raw["traffic"][0]))
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_scale_override_requires_hybrid(self):
        cfg = parse_config(minimal_config())
        with pytest.raises(ConfigError):
            cfg.with_overrides(scale=0.01)

    def test_scale_override_sizes_like_corpus_spec(self):
        raw = minimal_config()
        raw["hybrid_db"] = minimal_hybrid_db()
        spec = parse_config(raw).with_overrides(scale=1e-9).hybrid_db.corpus_spec
        assert spec == CorpusSpec(scale=1e-9)
        assert spec.article_count == 1

    def test_article_count_key_rejected(self):
        # The article count derives from the scale alone.
        raw = minimal_config()
        raw["hybrid_db"] = dict(minimal_hybrid_db(), article_count=4)
        with pytest.raises(ConfigError, match="unknown key.*article_count") as err:
            parse_config(raw)
        assert err.value.path == "config.hybrid_db"

    @pytest.mark.parametrize("keys,value,path", [
        (("link", "epoch_s"), math.inf, "config.link.epoch_s"),
        (("link", "capacity_bps"), math.nan, "config.link.capacity_bps"),
        (("traffic", 0, "rate_per_s"), math.nan, "config.traffic[0].rate_per_s"),
        (("traffic", 1, "size", "mean_bytes"), -math.inf, "config.traffic[1].size.mean_bytes"),
        (("hybrid_db", "scale"), json.loads("1e400"), "config.hybrid_db.scale"),
        (("controller", "weights", "Q_diag", 2), math.nan, "config.controller.weights.Q_diag[2]"),
        (("controller", "u_max"), math.nan, "config.controller.u_max"),
    ])
    def test_nonfinite_number_names_key(self, keys, value, path):
        raw = minimal_config()
        raw["hybrid_db"] = minimal_hybrid_db()
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        with pytest.raises(ConfigError, match="must be a finite number") as err:
            parse_config(raw)
        assert err.value.path == path

    @pytest.mark.parametrize("scale", [math.inf, math.nan, 0.0, -1.0])
    def test_scale_override_rejects_nonfinite_or_nonpositive(self, scale):
        raw = minimal_config()
        raw["hybrid_db"] = minimal_hybrid_db()
        cfg = parse_config(raw)
        with pytest.raises(ConfigError, match="finite and > 0") as err:
            cfg.with_overrides(scale=scale)
        assert err.value.path == "hybrid_db.scale"

    @pytest.mark.parametrize("scale", [1e3, 1e300])
    def test_huge_scale_names_key(self, scale):
        raw = minimal_config()
        raw["hybrid_db"] = dict(minimal_hybrid_db(), scale=scale)
        with pytest.raises(ConfigError, match="more than 100000 articles") as err:
            parse_config(raw)
        assert err.value.path == "config.hybrid_db.scale"
        raw["hybrid_db"]["scale"] = 1e-3
        with pytest.raises(ConfigError, match="more than 100000 articles") as err:
            parse_config(raw).with_overrides(scale=scale)
        assert err.value.path == "hybrid_db.scale"

    def test_bad_metadata_bytes_names_key(self):
        raw = minimal_config()
        raw["hybrid_db"] = dict(minimal_hybrid_db(), metadata_bytes_per_article=0)
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.path == "config.hybrid_db.metadata_bytes_per_article"


class TestCliRun:
    def test_run_writes_expected_layout(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        code = main(["run", "--config", path, "--out", str(out)])
        assert code == 0
        assert (out / "open" / "epochs.csv").exists()
        assert (out / "closed" / "epochs.csv").exists()
        assert (out / "closed" / "model.csv").exists()
        assert (out / "report.csv").exists()
        assert (out / "hist.svg").exists()

    def test_run_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["run", "--config", path, "--out", str(out), "--seed", "7"]) == 0
            files = {}
            for root, _, names in os.walk(out):
                for fn in sorted(names):
                    p = os.path.join(root, fn)
                    files[os.path.relpath(p, out)] = open(p, "rb").read()
            blobs.append(files)
        assert blobs[0].keys() == blobs[1].keys()
        for k in blobs[0]:
            assert blobs[0][k] == blobs[1][k], f"{k} differs between runs"

    def test_bad_config_exit_1_names_field(self, tmp_path, capsys):
        raw = minimal_config()
        raw["link"]["capacity_bps"] = -1.0
        path = write_config(tmp_path, raw, "bad.json")
        code = main(["run", "--config", path])
        assert code == 1
        err = capsys.readouterr().err
        assert "capacity_bps" in err

    def test_huge_scale_exit_1_names_key(self, tmp_path, capsys):
        raw = minimal_config()
        raw["hybrid_db"] = dict(minimal_hybrid_db(), scale=1e300)
        path = write_config(tmp_path, raw, "huge.json")
        assert main(["run", "--config", path, "--out", str(tmp_path / "a")]) == 1
        assert "hybrid_db.scale" in capsys.readouterr().err
        raw["hybrid_db"]["scale"] = 1e-3
        path = write_config(tmp_path, raw, "small.json")
        assert main(["run", "--config", path, "--out", str(tmp_path / "b"),
                     "--scale", "1e300"]) == 1
        assert "hybrid_db.scale" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_missing_config_file_io_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 3

    def test_usage_error_exit_1(self, capsys):
        assert main(["run"]) == 1  # --config is required


class TestCliIdentify:
    def make_trace_csv(self, tmp_path, noise=0.0, length=60):
        rng = np.random.default_rng(5)
        A = np.array([[0.8, 0.1], [0.0, 0.7]])
        B = np.array([[0.5], [0.2]])
        x = np.zeros(2)
        pairs = []
        for _ in range(length):
            u = rng.uniform(-1, 1, 1)
            pairs.append((x.copy(), u.copy()))
            x = A @ x + B @ u
            if noise:
                x += rng.normal(0, noise, 2)
        path = tmp_path / "xu.csv"
        write_xu_trace_csv(pairs, path)
        return path, A, B

    def test_identify_round_trip(self, tmp_path, capsys):
        path, A, B = self.make_trace_csv(tmp_path)
        out = tmp_path / "model.csv"
        code = main(["identify", "--trace", str(path), "--n", "2", "--m", "1",
                     "--out", str(out)])
        assert code == 0
        model = load_model_csv(out)
        assert np.abs(model.A - A).max() < 1e-8
        assert np.abs(model.B - B).max() < 1e-8
        assert "residual_rms=" in capsys.readouterr().out

    def test_identify_noise_residual(self, tmp_path, capsys):
        path, _, _ = self.make_trace_csv(tmp_path, noise=0.01, length=1000)
        code = main(["identify", "--trace", str(path), "--n", "2", "--m", "1"])
        assert code == 0
        out = capsys.readouterr().out
        residual = float(out.split("residual_rms=")[1].splitlines()[0])
        assert 0.005 <= residual <= 0.02

    def test_identify_rank_deficient_exit_2(self, tmp_path, capsys):
        pairs = [(np.zeros(2), np.zeros(1))] * 30
        path = tmp_path / "zero.csv"
        write_xu_trace_csv(pairs, path)
        code = main(["identify", "--trace", str(path), "--n", "2", "--m", "1"])
        assert code == 2
        assert "rank deficient" in capsys.readouterr().err

    def test_trace_header_mismatch(self, tmp_path):
        path, _, _ = self.make_trace_csv(tmp_path)
        with pytest.raises(ValueError):
            read_xu_trace_csv(path, 3, 1)


class TestCliScenario:
    def test_unknown_scenario_lists_names(self, capsys):
        code = main(["scenario", "does-not-exist"])
        assert code == 1
        err = capsys.readouterr().err
        assert "s1-histogram" in err
        assert "s2-hybrid-db" in err


class TestCliScenarioRun:
    def test_s2_scenario_passes_and_prints(self, capsys):
        code = main(["scenario", "s2-hybrid-db"])
        out = capsys.readouterr().out
        assert code == 0
        assert "s2-hybrid-db: PASS" in out
        assert out.count("[PASS]") == 3

    def test_s2_scenario_out_writes_both_runs(self, tmp_path, capsys):
        code = main(["scenario", "s2-hybrid-db", "--out", str(tmp_path)])
        assert code == 0
        for sub in ("congested", "idle"):
            for name in ("corpus.csv", "experiment.csv", os.path.join("open", "epochs.csv")):
                assert (tmp_path / sub / name).is_file()

    def test_scale_override_shrinks_corpus(self, tmp_path, capsys):
        raw = minimal_config()
        raw["mode"] = "open"
        del raw["controller"]
        raw["n_epochs"] = 5
        raw["hybrid_db"] = minimal_hybrid_db()
        raw["link"]["queue_capacity_bytes"] = 16_000_000
        path = write_config(tmp_path, raw)
        small = tmp_path / "small"
        code = main(["run", "--config", path, "--out", str(small), "--scale", "0.0005"])
        assert code == 0
        n_small = len((small / "corpus.csv").read_text().strip().splitlines())
        big = tmp_path / "big"
        code = main(["run", "--config", path, "--out", str(big), "--scale", "0.002"])
        assert code == 0
        n_big = len((big / "corpus.csv").read_text().strip().splitlines())
        assert n_small < n_big
        assert (small / "experiment.csv").exists()


class TestConfigFuzz:
    def test_random_valid_configs_run_clean(self, tmp_path):
        # Strict validation contract: anything the parser accepts must run
        # without violating a module invariant.
        import random as _random

        for seed in range(5):
            rng = _random.Random(f"fuzz/{seed}")
            classes = [
                {"zone_class": "A", "app_kind": "Web"},
                {"zone_class": "B", "app_kind": "File"},
                {"zone_class": "C", "app_kind": None},
            ][: rng.randint(1, 3)]
            traffic = []
            for c in classes:
                entry = {
                    "zone_class": c["zone_class"],
                    "rate_per_s": rng.uniform(1.0, 20.0),
                    "size": {"family": "exponential",
                             "mean_bytes": rng.uniform(1e3, 1e5)},
                    "burst_s": rng.uniform(0.5, 3.0),
                    "idle_s": rng.uniform(0.0, 2.0),
                }
                if c["app_kind"]:
                    entry["app_kind"] = c["app_kind"]
                traffic.append(entry)
            k = len(traffic)
            raw = {
                "scenario_id": f"fuzz{seed}",
                "seed": seed,
                "n_epochs": rng.randint(5, 15),
                "mode": "both",
                "link": {
                    "capacity_bps": rng.uniform(1e6, 1e7),
                    "queue_capacity_bytes": rng.randint(10**5, 10**6),
                    "epoch_s": rng.choice([0.5, 1.0]),
                },
                "traffic": traffic,
                "controller": {
                    "model": "identify-from-warmup",
                    "warmup_epochs": 3 * k + 10,
                    "horizon": rng.randint(1, 3),
                    "grid": rng.choice([5, 11]),
                    "weights": {
                        "Q_diag": [rng.uniform(0.1, 5.0)] * (2 * k),
                        "R_diag": [rng.uniform(0.01, 1.0)] * k,
                        "x_ref": [0.0] * k + [rng.uniform(0.0, 0.9)] * k,
                    },
                },
            }
            from hcqsim.config import parse_config
            from hcqsim.runner import run_scenario

            cfg = parse_config(raw)
            result = run_scenario(cfg)
            result.open_metrics.assert_conservation()
            result.closed_metrics.assert_conservation()
