import argparse
import json
import math
from dataclasses import MISSING, asdict, fields
from inspect import signature
from pathlib import Path

import pytest

from shardsim import ClusterSpec, MAEConfig, PrefetchPolicy, Scenario, \
    SweepTable, ViTConfig, get_model, prepare_scenario, run_scenario, sweep
from shardsim.cli import CONFIG_FIELDS, _build_parser, _json_type, run

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "runconfig.schema.json"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParams:
    def test_vit_base_total(self, capsys):
        code, out, _ = invoke(capsys, "params", "--model", "vit-base",
                              "--format", "json")
        assert code == 0
        payload = json.loads(out)
        total = int(payload["grand_total"])
        assert abs(total - 87_000_000) / 87_000_000 < 0.025
        assert "relative_deviation" in payload

    def test_mae_model(self, capsys):
        code, out, _ = invoke(capsys, "params", "--model", "mae-base",
                              "--format", "json")
        assert code == 0
        assert "decoder_blocks_total" in json.loads(out)

    def test_unknown_preset_names_field(self, capsys):
        code, _, err = invoke(capsys, "params", "--model", "vit-7x")
        assert code != 0
        assert "model" in err

    def test_pretty_output(self, capsys):
        code, out, _ = invoke(capsys, "params", "--model", "vit-base")
        assert code == 0
        assert "grand_total" in out


class TestMemory:
    def test_vit3b_no_shard_near_capacity(self, capsys):
        code, out, _ = invoke(capsys, "memory", "--model", "vit-3b",
                              "--strategy", "no-shard", "--cluster", "frontier",
                              "--format", "json")
        assert code == 0
        payload = json.loads(out)
        total_gib = float(payload["total_gib"])
        # 16 B/param states plus the default activation model: > 55 GB,
        # within the 64 GiB budget, flagged near capacity.
        assert total_gib > 55e9 / 1024**3
        assert payload["feasible"] == "yes"
        assert payload["near_capacity"] == "yes"

    def test_infeasible_strategy_errors(self, capsys):
        code, _, err = invoke(capsys, "memory", "--model", "vit-base",
                              "--strategy", "hybrid16", "--nodes", "1")
        assert code != 0
        assert "strategy" in err


class TestSchedule:
    def test_task_graph_dump(self, capsys):
        code, out, _ = invoke(capsys, "schedule", "--model", "vit-base",
                              "--strategy", "full", "--nodes", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == "full"
        kinds = {t["kind"] for t in payload["tasks"]}
        assert {"compute", "all-gather", "reduce-scatter"} <= kinds
        ids = [t["id"] for t in payload["tasks"]]
        assert ids == sorted(ids)


class TestSimulate:
    def test_single_scenario_metrics(self, capsys):
        code, out, _ = invoke(capsys, "simulate", "--model", "vit-base",
                              "--strategy", "no-shard", "--nodes", "2",
                              "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["step_seconds"]) > 0
        assert float(payload["images_per_second"]) > 0

    def test_io_rate_flag(self, capsys):
        code, out, _ = invoke(capsys, "simulate", "--model", "vit-base",
                              "--strategy", "no-shard", "--nodes", "1",
                              "--io-rate", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["step_seconds"]) == pytest.approx(32.0)


class TestSweep:
    ARGS = ("sweep", "--model", "vit-5b",
            "--strategies", "full,hybrid2,hybrid8",
            "--nodes", "2,4,8,16,32", "--format", "csv")

    def test_row_cardinality(self, capsys):
        code, out, _ = invoke(capsys, *self.ARGS)
        assert code == 0
        table = SweepTable.from_csv(out)
        assert len(table.rows) == 15

    def test_csv_round_trip(self, capsys):
        _, out, _ = invoke(capsys, *self.ARGS)
        table = SweepTable.from_csv(out)
        assert table.to_csv() == out

    def test_deterministic_output(self, capsys):
        _, first, _ = invoke(capsys, *self.ARGS)
        _, second, _ = invoke(capsys, *self.ARGS)
        assert first == second

    def test_deterministic_across_processes(self, tmp_path):
        # Different hash seeds must not change a single byte of the CSV.
        import os
        import subprocess
        import sys
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        outputs = []
        for seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            result = subprocess.run(
                [sys.executable, "-m", "shardsim", *self.ARGS],
                capture_output=True, env=env, check=True)
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_infeasible_rows_marked_not_dropped(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "--model", "vit-base",
                              "--strategies", "hybrid16", "--nodes", "1,2",
                              "--format", "csv")
        assert code == 0
        table = SweepTable.from_csv(out)
        assert len(table.rows) == 2
        assert not table.rows[0].feasible and table.rows[0].ips is None
        assert table.rows[1].feasible

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = invoke(capsys, *self.ARGS, "--output", str(path))
        assert code == 0 and out == ""
        assert SweepTable.from_csv(path.read_text()).rows


class TestCalibrateCommand:
    def test_fit_from_observations_file(self, capsys, tmp_path):
        obs = [
            {"model": "mae-5b", "strategy": "hybrid2", "nodes": 32,
             "measured_ips": 1509.0},
            {"model": "mae-5b", "strategy": "full", "nodes": 32,
             "measured_ips": 1307.0},
        ]
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(obs))
        code, out, _ = invoke(capsys, "calibrate", "--observations", str(path),
                              "--cluster", "frontier")
        assert code == 0
        payload = json.loads(out)
        assert 0 < payload["compute_efficiency"] <= 1
        assert payload["effective_latency_scale"] > 0
        assert payload["residual"] >= 0

    def test_inline_model_fits(self, capsys, tmp_path):
        model = {"width": 64, "depth": 2, "mlp": 256, "heads": 2,
                 "patch_size": 16, "image_size": 224}
        obs = [{"model": model, "strategy": "full", "nodes": 1,
                "measured_ips": 5000.0},
               {"model": model, "strategy": "full", "nodes": 4,
                "measured_ips": 15000.0}]
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(obs))
        code, out, err = invoke(capsys, "calibrate", "--observations", str(path))
        assert code == 0, err
        payload = json.loads(out)
        assert 0 < payload["compute_efficiency"] <= 1
        assert payload["effective_latency_scale"] > 0
        assert payload["residual"] >= 0

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text("{not json")
        code, _, err = invoke(capsys, "calibrate", "--observations", str(path))
        assert code != 0
        assert "observations" in err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        config = {"model": "vit-base", "strategy": "no-shard", "nodes": 1}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, _ = invoke(capsys, "simulate", "--config", str(path),
                              "--format", "json")
        assert code == 0
        assert float(json.loads(out)["images_per_second"]) > 0

    def test_conflicting_model_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": "vit-base"}))
        code, _, err = invoke(capsys, "params", "--config", str(path),
                              "--model", "vit-3b")
        assert code != 0
        assert "model" in err

    def test_inline_model_config(self, capsys, tmp_path):
        config = {"model": {"width": 8, "depth": 1, "mlp": 16, "heads": 2,
                            "patch_size": 2, "image_size": 4}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, _ = invoke(capsys, "params", "--config", str(path),
                              "--format", "json")
        assert code == 0
        assert int(json.loads(out)["per_block"]) == 600

    def test_inline_model_simulates(self, capsys, tmp_path):
        config = {
            "model": {"encoder": {"width": 64, "depth": 2, "mlp": 128,
                                  "heads": 4, "patch_size": 8, "image_size": 64}},
            "strategy": "full", "nodes": 2,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, _ = invoke(capsys, "simulate", "--config", str(path),
                              "--format", "json")
        assert code == 0
        assert float(json.loads(out)["images_per_second"]) > 0

    @pytest.mark.parametrize("command", ["memory", "schedule", "simulate"])
    def test_inline_copy_of_preset_matches_preset(self, capsys, tmp_path,
                                                  command):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": asdict(get_model("vit-base"))}))
        run_args = ("--strategy", "hybrid8", "--nodes", "2", "--format", "json")
        code, inline, err = invoke(capsys, command, "--config", str(path),
                                   *run_args)
        assert code == 0, err
        code, preset, err = invoke(capsys, command, "--model", "vit-base",
                                   *run_args)
        assert code == 0, err
        assert inline == preset

    def test_inline_sweep_model_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": asdict(get_model("vit-base"))}))
        code, out, err = invoke(capsys, "sweep", "--config", str(path),
                                "--strategies", "full", "--nodes", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: model: sweep takes comma-separated "
                              "preset names")

    VIT_BASE = asdict(get_model("vit-base"))
    CLUSTER = {"peak_flops_per_gpu": 191.5e12}

    @pytest.mark.parametrize("command, config, message", [
        ("simulate", {"cluster": {"peak_flops_per_gpu": math.nan}},
         "cluster: invalid inline cluster spec: peak_flops_per_gpu must be "
         "a finite number, got nan"),
        ("simulate", {"cluster": {**CLUSTER, "inter_node_latency": math.nan}},
         "cluster: invalid inline cluster spec: inter_node_latency must be "
         "a finite number, got nan"),
        ("simulate", {"cluster": {**CLUSTER, "gpus_per_node": 2.5}},
         "cluster: invalid inline cluster spec: gpus_per_node must be an "
         "integer, got 2.5"),
        ("simulate", {"cluster": {**CLUSTER, "hbm_bytes_per_gpu": True}},
         "cluster: invalid inline cluster spec: hbm_bytes_per_gpu must be an "
         "integer, got True"),
        ("simulate", {"cluster": {**CLUSTER, "num_nodes": 64}},
         "cluster: invalid inline cluster spec: shardsim.cluster.ClusterSpec()"
         " got multiple values for keyword argument 'num_nodes'"),
        ("simulate", {"model": {**VIT_BASE, "depth": 12.5}},
         "model: invalid inline model config: depth must be an integer, "
         "got 12.5"),
        ("params", {"model": {**VIT_BASE, "depth": 12.5}},
         "model: invalid inline model config: depth must be an integer, "
         "got 12.5"),
        ("params", {"model": {**VIT_BASE, "include_cls_token": 1}},
         "model: invalid inline model config: include_cls_token must be a "
         "boolean, got 1"),
        ("params", {"model": {"encoder": VIT_BASE, "mask_ratio": math.inf}},
         "model: invalid inline model config: mask_ratio must be a finite "
         "number, got inf"),
        ("params", {"model": {"encoder": VIT_BASE, "decoder_depth": 8.0}},
         "model: invalid inline model config: decoder_depth must be an "
         "integer, got 8.0"),
    ])
    def test_inline_object_off_schema_names_field(self, capsys, tmp_path,
                                                  command, config, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": "vit-base", "strategy": "full",
                                    **config}))
        code, out, err = invoke(capsys, command, "--config", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": "vit-base", "strategy": "full",
                                    "nodez": 4}))
        code, out, err = invoke(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: config: unknown field 'nodez'\n"

    def test_config_fields_match_schema(self):
        schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
        assert sorted(CONFIG_FIELDS) == sorted(schema["properties"])

    def test_config_types_match_schema(self):
        schema = json.loads(SCHEMA.read_text(encoding="utf-8"))

        def types(spec):
            if "type" in spec:
                return {spec["type"]}
            if "$ref" in spec:
                return types(schema["$defs"][spec["$ref"].rsplit("/", 1)[1]])
            if "enum" in spec:
                return {_json_type(value) for value in spec["enum"]}
            return set().union(*map(types, spec["oneOf"]))

        for field, spec in schema["properties"].items():
            assert set(CONFIG_FIELDS[field][0]) == types(spec), field

    def test_schema_objects_match_library(self):
        defs = json.loads(SCHEMA.read_text(encoding="utf-8"))["$defs"]
        for name, cls in (("vit", ViTConfig), ("mae", MAEConfig),
                          ("cluster", ClusterSpec)):
            spec = defs[name]
            library = [f for f in fields(cls) if f.name != "num_nodes"]
            assert sorted(spec["properties"]) == \
                sorted(f.name for f in library), name
            assert sorted(spec["required"]) == \
                sorted(f.name for f in library if f.default is MISSING), name
            assert {k: v["default"] for k, v in spec["properties"].items()
                    if "default" in v} == \
                {f.name: f.default for f in library
                 if f.default is not MISSING}, name

    def test_schema_defaults_match_library(self):
        schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
        latency_scales = {signature(fn).parameters["latency_scale"].default
                          for fn in (run_scenario, sweep)}
        assert len(latency_scales) == 1
        assert signature(sweep).parameters["local_batch"].default == \
            Scenario.local_batch
        assert {k: v["default"] for k, v in schema["properties"].items()
                if "default" in v} == {
            "local_batch": Scenario.local_batch,
            "prefetch": PrefetchPolicy.mode,
            "limit_all_gathers": PrefetchPolicy.limit_all_gathers,
            "max_inflight": PrefetchPolicy.max_inflight,
            "latency_scale": latency_scales.pop(),
            "activation_model": signature(prepare_scenario)
            .parameters["activation_model"].default,
        }

    def test_every_flag_is_a_config_field(self):
        subparsers = next(action for action in _build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        for command, parser in subparsers.choices.items():
            for action in parser._actions:
                if action.dest in ("help", "config", "format", "output"):
                    continue
                assert action.dest in CONFIG_FIELDS, (command, action.dest)


class TestFlagValues:
    RUN = ("--model", "vit-base", "--strategy", "no-shard")

    def write(self, tmp_path, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_same_nodes_in_config_and_flag_agree(self, capsys, tmp_path):
        config = self.write(tmp_path, {"nodes": 2})
        code, out, err = invoke(capsys, "memory", *self.RUN, "--config", config,
                                "--nodes", "2", "--format", "json")
        assert code == 0, err
        _, alone, _ = invoke(capsys, "memory", *self.RUN, "--nodes", "2",
                             "--format", "json")
        assert out == alone

    def test_different_nodes_in_config_and_flag_conflict(self, capsys, tmp_path):
        config = self.write(tmp_path, {"nodes": 2})
        code, _, err = invoke(capsys, "memory", *self.RUN, "--config", config,
                              "--nodes", "4")
        assert code == 2
        assert "nodes" in err and "specified both" in err

    @pytest.mark.parametrize("command", ["memory", "schedule", "simulate"])
    @pytest.mark.parametrize("nodes", ["abc", "0"])
    def test_bad_node_count_names_field(self, capsys, command, nodes):
        code, _, err = invoke(capsys, command, *self.RUN, "--nodes", nodes)
        assert code == 2
        assert err.startswith("error: nodes:")

    def test_bad_node_count_in_config_names_field(self, capsys, tmp_path):
        config = self.write(tmp_path, {"nodes": "abc"})
        code, _, err = invoke(capsys, "simulate", *self.RUN, "--config", config)
        assert code == 2
        assert err.startswith("error: nodes:")

    def test_null_node_count_in_config_names_field(self, capsys, tmp_path):
        config = self.write(tmp_path, {"nodes": None})
        code, _, err = invoke(capsys, "simulate", *self.RUN, "--config", config)
        assert code == 2
        assert err == "error: nodes: invalid value None\n"

    @pytest.mark.parametrize("field,value", [
        ("nodes", 2.7), ("nodes", "2"), ("local_batch", True),
        ("max_inflight", 2.5), ("latency_scale", True), ("cluster", None),
        ("efficiency", "0.5"), ("io_rate", False), ("strategy", 5),
        ("model", ["vit-base"]), ("observations", 5)])
    def test_wrong_json_type_in_config_names_field(self, capsys, tmp_path,
                                                   field, value):
        config = self.write(tmp_path, {field: value})
        code, out, err = invoke(capsys, "simulate", *self.RUN, "--config",
                                config)
        assert code == 2
        assert out == ""
        assert err == f"error: {field}: invalid value {value!r}\n"

    def test_integer_config_value_is_a_number(self, capsys, tmp_path):
        config = self.write(tmp_path, {"latency_scale": 2})
        run_args = (*self.RUN, "--nodes", "2", "--format", "json")
        code, out, err = invoke(capsys, "simulate", *run_args, "--config",
                                config)
        assert code == 0, err
        _, flag, _ = invoke(capsys, "simulate", *run_args,
                            "--latency-scale", "2")
        assert out == flag

    def test_sweep_node_count_from_config(self, capsys, tmp_path):
        config = self.write(tmp_path, {"nodes": 2})
        run_args = ("--model", "vit-base", "--strategies", "no-shard",
                    "--format", "csv")
        code, out, err = invoke(capsys, "sweep", *run_args, "--config", config)
        assert code == 0, err
        _, flag, _ = invoke(capsys, "sweep", *run_args, "--nodes", "2")
        assert out == flag

    @pytest.mark.parametrize("flag,field", [("--efficiency", "efficiency"),
                                            ("--io-rate", "io_rate")])
    def test_zero_simulate_value_is_rejected(self, capsys, flag, field):
        code, _, err = invoke(capsys, "simulate", *self.RUN, "--nodes", "1",
                              flag, "0")
        assert code == 2
        assert err.startswith(f"error: {field}:")

    @pytest.mark.parametrize("flag,field", [("--efficiency", "efficiency"),
                                            ("--io-rate", "io_rate")])
    def test_zero_sweep_value_is_rejected(self, capsys, flag, field):
        code, _, err = invoke(capsys, "sweep", "--model", "vit-base",
                              "--strategies", "no-shard", "--nodes", "1,2",
                              flag, "0")
        assert code == 2
        assert err.startswith(f"error: {field}:")

    def test_zero_sweep_node_count_names_field(self, capsys):
        code, _, err = invoke(capsys, "sweep", "--model", "vit-base",
                              "--strategies", "no-shard", "--nodes", "0,1")
        assert code == 2
        assert err.startswith("error: nodes:")

    @pytest.mark.parametrize("flags,field", [
        (("--model", ",", "--strategies", "full", "--nodes", "1"), "model"),
        (("--model", "vit-base", "--strategies", " , ", "--nodes", "1"),
         "strategies"),
        (("--model", "vit-base", "--strategies", "full", "--nodes", ","),
         "nodes"),
    ])
    def test_empty_sweep_list_names_field(self, capsys, flags, field):
        code, out, err = invoke(capsys, "sweep", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field}:")

    @pytest.mark.parametrize("command", ["memory", "schedule", "simulate"])
    def test_zero_local_batch_names_field(self, capsys, command):
        code, _, err = invoke(capsys, command, *self.RUN, "--local-batch", "0")
        assert code == 2
        assert err.startswith("error: local_batch:")

    @pytest.mark.parametrize("command", ["memory", "schedule", "simulate"])
    def test_zero_max_inflight_names_field(self, capsys, command):
        code, _, err = invoke(capsys, command, "--model", "vit-base",
                              "--strategy", "full", "--max-inflight", "0")
        assert code == 2
        assert err.startswith("error: max_inflight:")

    @pytest.mark.parametrize("strategy", ["full-shard", "replicated",
                                          "hybrid\u00b2"])
    def test_unknown_strategy_names_field(self, capsys, strategy):
        code, out, err = invoke(capsys, "simulate", "--model", "vit-base",
                                "--strategy", strategy)
        assert code == 2
        assert out == ""
        assert err == f"error: strategy: unknown strategy {strategy!r}\n"

    @pytest.mark.parametrize("scale", ["-5", "0", "nan", "inf"])
    def test_bad_latency_scale_names_field(self, capsys, scale):
        code, _, err = invoke(capsys, "simulate", *self.RUN,
                              "--latency-scale", scale)
        assert code == 2
        assert err.startswith("error: latency_scale:")
        # hybrid16 cannot be built on one node: no row is timed.
        for strategy, nodes in (("no-shard", "1,2"), ("hybrid16", "1")):
            code, out, err = invoke(capsys, "sweep", "--model", "vit-base",
                                    "--strategies", strategy, "--nodes", nodes,
                                    "--latency-scale", scale)
            assert code == 2
            assert out == ""
            assert err.startswith("error: latency_scale:")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_nan_io_rate_names_field(self, capsys, command):
        run_args = self.RUN if command == "simulate" else (
            "--model", "vit-base", "--strategies", "no-shard", "--nodes", "1")
        code, _, err = invoke(capsys, command, *run_args, "--io-rate", "nan")
        assert code == 2
        assert err.startswith("error: io_rate:")

    def test_efficiency_flag_reaches_the_simulation(self, capsys):
        _, slow, _ = invoke(capsys, "simulate", *self.RUN, "--nodes", "1",
                            "--efficiency", "0.2", "--format", "json")
        _, fast, _ = invoke(capsys, "simulate", *self.RUN, "--nodes", "1",
                            "--efficiency", "0.4", "--format", "json")
        # Printed to 6 decimals, so the ratio holds to about 1e-5.
        assert float(json.loads(slow)["compute_seconds"]) == pytest.approx(
            2 * float(json.loads(fast)["compute_seconds"]), rel=1e-5)

    def test_bad_observation_node_count_names_entry(self, capsys, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps([{"model": "vit-base", "strategy": "full",
                                     "nodes": "abc", "measured_ips": 1.0}]))
        code, _, err = invoke(capsys, "calibrate", "--observations", str(path))
        assert code == 2
        assert err.startswith("error: observations[0]:")

    @pytest.mark.parametrize("measured", ["nan", "inf", 0, -5, True, "1000"])
    def test_bad_measured_ips_names_entry(self, capsys, tmp_path, measured):
        entry = {"model": "vit-base", "strategy": "full", "nodes": 1,
                 "measured_ips": 1000.0}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps([entry, {**entry, "nodes": 2,
                                            "measured_ips": measured}]))
        code, out, err = invoke(capsys, "calibrate", "--observations", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: observations[1]: measured ips")

    def test_measured_ips_beyond_the_model_names_observations(
            self, capsys, tmp_path):
        entry = {"model": "vit-base", "strategy": "full", "nodes": 1,
                 "measured_ips": 1000.0}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps([entry, {**entry, "nodes": 2,
                                            "measured_ips": 1e-300}]))
        code, out, err = invoke(capsys, "calibrate", "--observations", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: observations: ")

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_non_boolean_limit_all_gathers_names_field(self, capsys, tmp_path,
                                                       value):
        config = self.write(tmp_path, {"limit_all_gathers": value})
        code, out, err = invoke(capsys, "schedule", *self.RUN, "--config",
                                config)
        assert code == 2
        assert out == ""
        assert err.startswith("error: limit_all_gathers:")

    def test_boolean_limit_all_gathers_matches_flag(self, capsys, tmp_path):
        config = self.write(tmp_path, {"limit_all_gathers": False})
        code, out, err = invoke(capsys, "schedule", *self.RUN, "--config",
                                config)
        assert code == 0, err
        assert json.loads(out)["prefetch"]["limit_all_gathers"] is False
        _, flag, _ = invoke(capsys, "schedule", *self.RUN,
                            "--no-limit-all-gathers")
        assert out == flag

    @pytest.mark.parametrize("field", ["nodes", "local_batch"])
    def test_zero_observation_count_names_entry(self, capsys, tmp_path, field):
        entry = {"model": "vit-base", "strategy": "full", "nodes": 1,
                 "measured_ips": 1.0, field: 0}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps([entry, {**entry, field: 1}]))
        code, _, err = invoke(capsys, "calibrate", "--observations", str(path))
        assert code == 2
        assert err.startswith("error: observations[0]:")

    @pytest.mark.parametrize("strategy", [5, None, ["full"]])
    def test_non_string_observation_strategy_names_entry(self, capsys,
                                                         tmp_path, strategy):
        entry = {"model": "vit-base", "strategy": strategy, "nodes": 1,
                 "measured_ips": 1.0}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps([entry, {**entry, "strategy": "full"}]))
        code, out, err = invoke(capsys, "calibrate", "--observations",
                                str(path))
        assert code == 2
        assert out == ""
        assert err == \
            f"error: observations[0]: unknown strategy {strategy!r}\n"

    def test_unbuildable_observation_names_entry(self, capsys, tmp_path):
        entry = {"model": "vit-base", "strategy": "hybrid16", "nodes": 1,
                 "measured_ips": 1.0}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps([entry, {**entry, "strategy": "full"}]))
        code, out, err = invoke(capsys, "calibrate", "--observations",
                                str(path))
        assert code == 2
        assert out == ""
        assert err == "error: observations[0]: shard group size 16 does not " \
                      "divide world size 8\n"

    @pytest.mark.parametrize("key, value", [("nodez", 8), ("prefetch", "none")])
    def test_unknown_observation_field_names_entry(self, capsys, tmp_path, key,
                                                   value):
        entry = {"model": "vit-base", "strategy": "full", "nodes": 1,
                 "measured_ips": 1000.0}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps([entry, {**entry, key: value}]))
        code, out, err = invoke(capsys, "calibrate", "--observations",
                                str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: observations[1]: unknown field {key!r}\n"

    @pytest.mark.parametrize("value", [2.7, True, "32"])
    @pytest.mark.parametrize("field", ["nodes", "local_batch"])
    def test_non_integer_observation_count_names_entry(self, capsys, tmp_path,
                                                       field, value):
        entry = {"model": "vit-base", "strategy": "full", "nodes": 1,
                 "measured_ips": 1.0, field: value}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps([entry, {**entry, field: 2}]))
        code, out, err = invoke(capsys, "calibrate", "--observations",
                                str(path))
        assert code == 2
        assert out == ""
        assert err == "error: observations[0]: count must be an integer, " \
                      f"got {value!r}\n"

    @pytest.mark.parametrize("field", ["prefetch", "activation_model"])
    @pytest.mark.parametrize("command", ["params", "memory", "schedule",
                                         "simulate", "sweep", "calibrate"])
    def test_bad_choice_in_config_names_field_for_every_command(
            self, capsys, tmp_path, command, field):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps([
            {"model": "vit-base", "strategy": "full", "nodes": n,
             "measured_ips": 1000.0 * n} for n in (1, 2)]))
        run_args = {
            "params": ("--model", "vit-base"),
            "sweep": ("--model", "vit-base", "--strategies", "no-shard",
                      "--nodes", "1"),
            "calibrate": ("--observations", str(obs)),
        }.get(command, self.RUN)
        config = self.write(tmp_path, {field: "bogus"})
        code, out, err = invoke(capsys, command, *run_args, "--config", config)
        assert code == 2
        assert out == ""
        assert err == f"error: {field}: invalid value 'bogus'\n"

    @pytest.mark.parametrize("argv", [
        # sweep reads `strategies`, never `strategy`
        ("sweep", "--model", "vit-base", "--strategies", "full", "--nodes",
         "1", "--strategy", "ddp"),
        # abbreviations of --model, --nodes and --latency-scale
        ("params", "--mod", "vit-base"),
        ("simulate", "--model", "vit-base", "--strategy", "full", "--node",
         "2"),
        ("simulate", "--model", "vit-base", "--strategy", "full",
         "--latency", "2"),
        # schedule and calibrate print JSON only
        ("schedule", "--model", "vit-base", "--strategy", "full", "--format",
         "csv"),
        ("calibrate", "--observations", "obs.json", "--format",
         "pretty-table"),
        # a flag no command declares
        ("params", "--model", "vit-base", "--bogus", "1"),
    ])
    def test_flag_a_command_never_reads_is_refused(self, capsys, argv):
        """Refused under the command's own usage, which lists the flags it
        does take."""
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage: shardsim {argv[0]} ")
        assert f"\nshardsim {argv[0]}: error: " in err

    def test_schedule_format_json_is_the_default(self, capsys):
        run_args = ("schedule", "--model", "vit-base", "--strategy", "full")
        code, out, err = invoke(capsys, *run_args, "--format", "json")
        assert code == 0, err
        assert out == invoke(capsys, *run_args)[1]



class TestNonFiniteStep:
    """An inline cluster whose bandwidth or peak is positive but so small
    that a step time overflows names that field and exits 2, printing no
    report."""

    RUN = ("--model", "vit-base", "--nodes", "2")

    @pytest.mark.parametrize("field, cluster", [
        ("intra_node_bw", {"peak_flops_per_gpu": 1.9e14,
                           "intra_node_bw": 1e-308}),
        ("peak_flops_per_gpu", {"peak_flops_per_gpu": 1e-308}),
    ])
    @pytest.mark.parametrize("argv", [
        ("simulate", "--strategy", "full"),
        ("sweep", "--strategies", "full", "--format", "json"),
    ])
    def test_tiny_cluster_value_names_its_field(self, capsys, tmp_path, field,
                                                cluster, argv):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"cluster": cluster}))
        code, out, err = invoke(capsys, *argv, *self.RUN, "--config", str(path))
        assert code == 2
        assert err.startswith(f"error: {field}: ")
        assert "nan" not in out.lower() and "inf" not in out.lower()
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("simulate", "--strategy", "full"),
        ("sweep", "--strategies", "full", "--format", "json"),
        # Every row infeasible: 32 does not divide 16 ranks.
        ("sweep", "--strategies", "hybrid32", "--format", "json"),
    ])
    def test_tiny_io_rate_names_it(self, capsys, argv):
        code, out, err = invoke(capsys, *argv, *self.RUN, "--io-rate", "1e-308")
        assert code == 2
        assert err.startswith("error: io_rate: 1e-308 ")
        assert "Traceback" not in err
        assert "inf" not in out and out == ""

    def test_tiny_peak_names_it_in_calibrate(self, capsys, tmp_path):
        observations = tmp_path / "obs.json"
        observations.write_text(json.dumps(OBSERVATIONS_5B))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"cluster": {"peak_flops_per_gpu": 2e-323}}))
        code, out, err = invoke(capsys, "calibrate", "--observations",
                                str(observations), "--config", str(config))
        assert code == 2
        assert err.startswith("error: peak_flops_per_gpu: 2e-323 ")
        assert "Traceback" not in err
        assert "inf" not in out and out == ""


OBSERVATIONS_5B = [
    {"model": "mae-5b", "strategy": "hybrid2", "nodes": 32,
     "measured_ips": 1509.0},
    {"model": "mae-5b", "strategy": "full", "nodes": 32,
     "measured_ips": 1307.0},
]


class TestOutputFile:
    @pytest.mark.parametrize("argv", [
        ("sweep", "--model", "vit-base", "--strategies", "full",
         "--nodes", "1,2", "--format", "csv"),
        ("sweep", "--model", "vit-base", "--strategies", "full",
         "--nodes", "1,2", "--format", "json"),
        ("sweep", "--model", "vit-base", "--strategies", "full",
         "--nodes", "1", "--format", "pretty-table"),
        ("schedule", "--model", "vit-base", "--strategy", "full"),
        ("calibrate",),
        ("memory", "--model", "vit-base", "--strategy", "full"),
    ], ids=["csv", "json", "pretty-table", "schedule", "calibrate", "kv"])
    def test_file_gets_the_bytes_stdout_gets(self, capsys, tmp_path, argv):
        if argv == ("calibrate",):
            observations = tmp_path / "obs.json"
            observations.write_text(json.dumps(OBSERVATIONS_5B))
            argv += ("--observations", str(observations))
        code, out, err = invoke(capsys, *argv)
        assert code == 0, err
        path = tmp_path / "report"
        code, quiet, err = invoke(capsys, *argv, "--output", str(path))
        assert code == 0 and quiet == "", err
        assert path.read_bytes() == out.encode("utf-8")
        assert out.endswith("\n") and not out.endswith("\n\n")


class TestOutputDirEnv:
    def test_relative_output_resolves_against_env(self, capsys, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("SHARDSIM_OUTPUT_DIR", str(tmp_path))
        code, out, _ = invoke(capsys, "params", "--model", "vit-base",
                              "--format", "csv", "--output", "report.csv")
        assert code == 0 and out == ""
        assert (tmp_path / "report.csv").read_text().startswith("blocks_total,")

    def test_absolute_output_ignores_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SHARDSIM_OUTPUT_DIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.csv"
        code, _, _ = invoke(capsys, "params", "--model", "vit-base",
                            "--format", "csv", "--output", str(target))
        assert code == 0
        assert target.exists()

