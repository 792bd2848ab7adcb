import copy
import json
import math
import os

import numpy as np
import pytest

from hcqsim.cli import main, read_xu_trace_csv, write_xu_trace_csv
from hcqsim.config import ConfigError, load_config, parse_config
from hcqsim.control import MAX_HORIZON, MpcController
from hcqsim.hybriddb import CorpusSpec
from hcqsim.netsim import MAX_EPOCHS
from hcqsim.runner import build_trace, run_closed


def read_model_csv(path):
    """(A, B) from the CSV save_model_csv writes: a `# NAME rows x cols`
    line before each matrix's rows."""
    mats = {}
    for block in path.read_text().split("# ")[1:]:
        head, *rows = block.strip().split("\n")
        name, n_rows, _, n_cols = head.split()
        values = [[float(v) for v in row.split(",")] for row in rows]
        mats[name] = np.array(values).reshape(int(n_rows), int(n_cols))
    return mats["A"], mats["B"]


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


def structural_config(**overrides):
    """minimal_config() on the link's structural model, without the warmup
    keys that only identification reads."""
    cfg = minimal_config(**overrides)
    controller = cfg["controller"]
    del controller["warmup_epochs"], controller["excitation_seed"]
    controller["model"] = "structural"
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


def config_error_after(edits):
    """The ConfigError of minimal_config() with minimal_hybrid_db() after
    edits, a list of (key path, value) pairs; a value of ... deletes the key."""
    raw = minimal_config()
    raw["hybrid_db"] = minimal_hybrid_db()
    for keys, value in edits:
        node = raw
        for key in keys[:-1]:
            node = node[key]
        if value is ...:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    return err.value


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
        # The structural model is sized by the run's classes, the control
        # class included, and drains bytes_per_epoch / queue_capacity_bytes
        # (1e6 / 1e6 on this link) per unit share.
        raw = structural_config()
        cc = parse_config(raw).controller
        assert not cc.identify
        assert (cc.model.A.shape, cc.model.B.shape) == ((4, 4), (4, 2))
        np.testing.assert_array_equal(cc.model.B, [[-1.0, 0.0], [0.0, -1.0],
                                                   [1.0, 0.0], [0.0, 1.0]])
        raw["controller"]["control_message_bytes"] = 512
        raw["controller"]["weights"] = {"Q_diag": [1.0] * 6, "R_diag": [0.1] * 3,
                                        "x_ref": [0.0] * 6}
        model = parse_config(raw).controller.model
        assert (model.A.shape, model.B.shape) == ((6, 6), (6, 3))

    def test_matrix_model_refused(self):
        raw = structural_config()
        raw["controller"]["model"] = {"A": np.eye(4).tolist(), "B": np.ones((4, 2)).tolist()}
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.path == "config.controller.model"
        assert "'identify-from-warmup', 'structural'" in str(err.value)

    @pytest.mark.parametrize("key", ["warmup_epochs", "excitation_seed"])
    @pytest.mark.parametrize("value", [30, None])
    def test_warmup_keys_refused_with_structural_model(self, key, value):
        raw = structural_config()
        raw["controller"][key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.path == f"config.controller.{key}"
        assert "no effect" in str(err.value)

    def test_u_max_bounds_the_fixed_model(self):
        # At x = (0.5, 0, 0, 0) this model gives class 0 a share of 0.4
        # without u_max, and the largest grid level under 0.3 with it.
        def decide(cc):
            x = np.array([0.5, 0.0, 0.0, 0.0])
            return MpcController(cc.model, cc.weights, cc.horizon, cc.grid).decide(x, 0).u

        raw = structural_config(mode="closed", n_epochs=5)
        assert decide(parse_config(raw).controller) == (0.4, 0.0)
        raw["controller"]["u_max"] = [0.3, 0.6]
        cc = parse_config(raw).controller
        assert cc.model.control_bounds == cc.control_bounds
        assert cc.control_bounds.hi == (0.3, 0.6)
        assert decide(cc) == (0.2, 0.0)
        # A closed run decides within the config's control set.
        cfg = parse_config(raw)
        metrics, model, _ = run_closed(cfg, build_trace(cfg), cfg.classes())
        assert model is cfg.controller.model
        assert all(u[0] <= 0.3 and u[1] <= 0.6 for _, u in metrics.state_history)

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

    @pytest.mark.parametrize("edits,path,message", [
        # lower bounds
        ([(("n_epochs",), 0)], "config.n_epochs", "must be >= 1, got 0"),
        ([(("controller", "horizon"), 0)], "config.controller.horizon", "must be >= 1, got 0"),
        ([(("controller", "grid"), 1)], "config.controller.grid", "must be >= 2, got 1"),
        ([(("controller", "control_message_bytes"), -1)],
         "config.controller.control_message_bytes", "must be >= 0, got -1"),
        ([(("hybrid_db", "n_queries"), 0)], "config.hybrid_db.n_queries", "must be >= 1, got 0"),
        ([(("hybrid_db", "query_start_s"), -1.0)],
         "config.hybrid_db.query_start_s", "must be >= 0, got -1.0"),
        # constructor errors, reported at the object they build
        ([(("link", "capacity_bps"), -5.0)], "config.link", "capacity_bps must be > 0, got -5.0"),
        ([(("traffic", 0, "size", "sigma"), 0.0)], "config.traffic[0].size",
         "lognormal size distribution requires mean_bytes > 0 and sigma > 0"),
        ([(("traffic", 1, "zone_class"), "C")], "config.traffic[1]",
         "class C traffic carries no app kind"),
        ([(("traffic", 0, "rate_per_s"), -1.0)], "config.traffic[0]",
         "rate_per_s must be finite and > 0, got -1.0"),
        ([(("traffic", 1, "zone_class"), "A"), (("traffic", 1, "app_kind"), "Web")],
         "config.traffic", "duplicate class labels in traffic profile"),
        ([(("controller", "weights", "Q_diag"), [-1.0, 2.0, 1.0, 1.0])],
         "config.controller.weights", "Q must be positive semidefinite"),
        ([(("controller", "u_max"), 1.5)], "config.controller.u_max",
         "control bounds must satisfy 0 <= lo <= hi <= 1, got (0.0, 1.5)"),
        ([(("hybrid_db", "backends", "blob_first_byte_s"), 0.0)], "config.hybrid_db.backends",
         "blob_first_byte_s must be > 0"),
        ([(("hybrid_db", "metadata_bytes_per_article"), 0)],
         "config.hybrid_db.metadata_bytes_per_article", "metadata_bytes_per_article must be > 0"),
        ([(("hybrid_db", "scale"), 1e300)], "config.hybrid_db.scale",
         "scale 1e+300 asks for more than 100000 articles"),
        # one type error per kind, a choice and a missing key
        ([(("scenario_id",), 5)], "config.scenario_id", "expected a string, got 5"),
        ([(("n_epochs",), 1.5)], "config.n_epochs", "expected an integer, got 1.5"),
        ([(("link", "capacity_bps"), "fast")], "config.link.capacity_bps",
         "expected a number, got 'fast'"),
        ([(("hybrid_db", "parallel_fetch"), "yes")], "config.hybrid_db.parallel_fetch",
         "expected a boolean, got 'yes'"),
        ([(("mode",), "sideways")], "config.mode",
         "must be one of ['open', 'closed', 'both'], got 'sideways'"),
        ([(("link", "capacity_bps"), None)], "config.link.capacity_bps",
         "expected a number, got None"),
        ([(("traffic", 1, "rate_per_s"), ...)], "config.traffic[1].rate_per_s",
         "missing required key"),
    ])
    def test_single_fault_path_and_message(self, edits, path, message):
        # One broken key at a time: each fault keeps its exact path and text.
        err = config_error_after(edits)
        assert (err.path, str(err)) == (path, f"{path}: {message}")

    @pytest.mark.parametrize("keys,path,message", [
        (("controller", "grid"), "config.controller.grid", "expected an integer, got None"),
        (("seed",), "config.seed", "expected an integer, got None"),
        (("link", "epoch_s"), "config.link.epoch_s", "expected a number, got None"),
        (("hybrid_db", "parallel_fetch"), "config.hybrid_db.parallel_fetch",
         "expected a boolean, got None"),
        (("traffic", 0, "size"), "config.traffic[0].size", "expected an object, got NoneType"),
    ])
    def test_null_is_refused_where_the_default_is_a_value(self, keys, path, message):
        err = config_error_after([(keys, None)])
        assert (err.path, str(err)) == (path, f"{path}: {message}")

    def test_null_reads_as_absent_where_absent_means_no_value(self):
        raw = minimal_config(output_dir=None, hybrid_db=None)
        raw["traffic"][1].update(zone_class="C", app_kind=None)
        raw["controller"]["u_max"] = None
        cfg = parse_config(raw)
        assert cfg.output_dir is None and cfg.hybrid_db is None
        assert str(cfg.traffic.classes[1].label) == "C"
        assert cfg.controller.control_bounds.hi == (1.0, 1.0)

    def test_a_share_grid_over_the_budget_is_refused(self):
        # All nine classes: the default grid 11 gives K = 92,378 share
        # vectors and grid 13 gives 293,930; grid 41 would give
        # 2,054,455,634 and is refused at parse time, before any is built.
        raw = minimal_config()
        raw["traffic"] = [
            {"zone_class": zone, "rate_per_s": 1.0, "size": {"family": "fixed", "size_bytes": 1e3},
             **({"app_kind": app} if app else {})}
            for zone, app in [(z, a) for z in "AB" for a in ("Database", "Web", "File", "Service")]
            + [("C", None)]]
        raw["controller"]["warmup_epochs"] = 29
        raw["controller"]["weights"] = {"Q_diag": [1.0] * 18, "R_diag": [0.1] * 9,
                                        "x_ref": [0.0] * 18}
        del raw["controller"]["grid"]
        assert parse_config(raw).controller.grid == 11
        raw["controller"]["grid"] = 13
        assert parse_config(raw).controller.grid == 13
        raw["controller"]["grid"] = 41
        with pytest.raises(ConfigError, match=r"K = C\(49, 9\) = 2,054,455,634 share vectors, "
                                              r"more than the 1,000,000") as err:
            parse_config(raw)
        assert err.value.path == "config.controller.grid"

    def test_a_horizon_over_the_bound_is_refused(self):
        raw = minimal_config()
        raw["controller"]["horizon"] = MAX_HORIZON
        assert parse_config(raw).controller.horizon == MAX_HORIZON
        raw["controller"]["horizon"] = MAX_HORIZON + 1
        with pytest.raises(ConfigError, match=r"horizon 1,001 is more than the 1,000 steps") \
                as err:
            parse_config(raw)
        assert err.value.path == "config.controller.horizon"

    def test_a_trace_over_the_flow_budget_is_refused(self):
        # The bound is on the trace's expected flow count, rate_per_s summed
        # over the sources times n_epochs * epoch_s; it is refused at the
        # source that brings it over, at parse time.
        raw = minimal_config()  # 25 flows/s over 20 s
        raw["traffic"][1]["rate_per_s"] = 499_985.0  # 10,000,000 flows in all
        parse_config(raw)
        raw["traffic"][1]["rate_per_s"] = 499_986.0
        with pytest.raises(ConfigError, match=r"sources of 500001 flows/s in all over 20 s "
                                              r"expect 10,000,020 flows, more than the "
                                              r"10,000,000 a trace may hold") as err:
            parse_config(raw)
        assert err.value.path == "config.traffic[1].rate_per_s"
        raw["traffic"][0]["rate_per_s"] = 1e12
        raw["n_epochs"] = 10**6
        with pytest.raises(ConfigError, match=r"1e\+12 flows/s in all over 1e\+06 s") as err:
            parse_config(raw)
        assert err.value.path == "config.traffic[0].rate_per_s"

    def test_a_run_over_the_epoch_budget_is_refused(self):
        # A run keeps records and, closed, decides every epoch, idle or not;
        # n_epochs and warmup_epochs above MAX_EPOCHS are refused at parse
        # time, before any trace is drawn or epoch run.
        raw = minimal_config()
        raw["traffic"][0]["rate_per_s"] = raw["traffic"][1]["rate_per_s"] = 1.0
        raw["n_epochs"] = raw["controller"]["warmup_epochs"] = MAX_EPOCHS
        parse_config(raw)
        for key, path in (("n_epochs", "config.n_epochs"),
                          ("warmup_epochs", "config.controller.warmup_epochs")):
            node = raw if key == "n_epochs" else raw["controller"]
            node[key] = MAX_EPOCHS + 1
            with pytest.raises(ConfigError, match=r"1,000,001 epochs are more than the "
                                                  r"1,000,000 a run may take") as err:
                parse_config(raw)
            assert err.value.path == path
            node[key] = MAX_EPOCHS

    def test_query_class_under_hybrid_db_names_the_class(self):
        # The hybrid run's fetches travel in B:Database, so background
        # traffic there is refused before anything is simulated.
        raw = minimal_config(mode="open")
        raw["traffic"][1]["app_kind"] = "Database"
        assert parse_config(raw).hybrid_db is None
        raw["hybrid_db"] = minimal_hybrid_db()
        with pytest.raises(ConfigError, match="query class B:Database") as err:
            parse_config(raw)
        assert err.value.path == "config.traffic[1]"


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

    @pytest.mark.parametrize("mode", ["closed", "both"])
    def test_mode_override_without_controller_exit_1(self, tmp_path, capsys, monkeypatch,
                                                     mode):
        raw = minimal_config(mode="open")
        del raw["controller"]
        path = write_config(tmp_path, raw)

        def simulate(cfg):
            raise AssertionError("a refused config must not be simulated")

        monkeypatch.setattr("hcqsim.cli.run_scenario", simulate)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--mode", mode, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f'config error: controller: mode "{mode}" requires a controller section\n')
        assert not out.exists()

    def test_missing_config_file_io_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 3

    def test_usage_error_exit_1(self, capsys):
        assert main(["run"]) == 1  # --config is required


class TestCliIdentify:
    def make_trace_csv(self, tmp_path, noise=0.0, length=60, a00=0.8):
        rng = np.random.default_rng(5)
        A = np.array([[a00, 0.1], [0.0, 0.7]])
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
        got_A, got_B = read_model_csv(out)
        assert np.abs(got_A - A).max() < 1e-8
        assert np.abs(got_B - B).max() < 1e-8
        assert "residual_rms=" in capsys.readouterr().out

    @pytest.mark.parametrize("a00, stable", [(0.8, True), (1.1, False)])
    def test_identify_reports_stability(self, tmp_path, capsys, a00, stable):
        # A is triangular, so rho(A) = max(a00, 0.7); an unstable fit is
        # reported, not refused.
        path, _, _ = self.make_trace_csv(tmp_path, a00=a00)
        assert main(["identify", "--trace", str(path), "--n", "2", "--m", "1"]) == 0
        out = capsys.readouterr().out
        rho, flag = out.split("spectral_radius=")[1].splitlines()[0].split(" stable=")
        assert float(rho) == pytest.approx(a00, abs=1e-8)
        assert flag == str(stable)

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

    def test_empty_trace_exit_2_names_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="is empty"):
            read_xu_trace_csv(path, 2, 1)
        assert main(["identify", "--trace", str(path), "--n", "2", "--m", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and str(path) in err

    @pytest.mark.parametrize("row,count", [("0.1,0.2", 2), ("0.1,0.2,0.3,0.4", 4)])
    def test_row_of_wrong_length_exit_2_names_line(self, tmp_path, capsys, row, count):
        path, _, _ = self.make_trace_csv(tmp_path, length=5)
        with open(path, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(ValueError, match=f"line 7: expected 3 fields, got {count}"):
            read_xu_trace_csv(path, 2, 1)
        assert main(["identify", "--trace", str(path), "--n", "2", "--m", "1"]) == 2
        assert "line 7" in capsys.readouterr().err

    def test_non_numeric_field_exit_2_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,u0\n0.1,0.2,0.3\n0.1,abc,0.3\n")
        with pytest.raises(ValueError, match="line 3: could not convert string to float: 'abc'"):
            read_xu_trace_csv(path, 2, 1)
        assert main(["identify", "--trace", str(path), "--n", "2", "--m", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: trace ") and str(path) in err and "line 3" in err


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
