"""End-to-end command-line tests, run in process through main(argv).

Covers artifact layout, byte-for-byte repeatability, seed precedence
(flag > config file > environment > default), exit codes, and the JSON
error channel on stderr.
"""

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from hqrl import env, svgplot, training
from hqrl.cli import main


def _tiny_config(tmp_path, **extra):
    data = {"n_customers": 4, "n_vehicles": 2, "episodes": 3, "seed": 5,
            "warmstart_max_iters": 10}
    data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def _gen(tmp_path, label, *argv):
    out = tmp_path / label
    assert main(["gen-instance", *argv, "--out", str(out)]) == 0
    return (out / "instance.json").read_bytes()


def test_gen_instance_matches_library(tmp_path, monkeypatch):
    monkeypatch.delenv("HQRL_SEED", raising=False)
    produced = _gen(tmp_path, "a", "--n", "8", "--k", "2", "--seed", "77")
    direct = tmp_path / "direct.json"
    env.save_instance(env.generate_instance(8, 2, 77), direct)
    assert produced == direct.read_bytes()


def test_seed_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("HQRL_SEED", raising=False)
    config = _tiny_config(tmp_path)

    def reference(seed):
        path = tmp_path / f"ref{seed}.json"
        env.save_instance(env.generate_instance(4, 2, seed), path)
        return path.read_bytes()

    # flag beats the config file
    assert _gen(tmp_path, "flag", "--config", str(config), "--seed", "9") == reference(9)
    # config file beats the environment
    monkeypatch.setenv("HQRL_SEED", "123")
    assert _gen(tmp_path, "cfg", "--config", str(config)) == reference(5)
    # environment beats the built-in default
    assert _gen(tmp_path, "env", "--n", "4", "--k", "2") == reference(123)
    # nothing set: built-in default seed
    monkeypatch.delenv("HQRL_SEED")
    assert _gen(tmp_path, "default", "--n", "4", "--k", "2") == reference(7)


def test_train_artifacts_and_repeatability(tmp_path, monkeypatch):
    monkeypatch.delenv("HQRL_SEED", raising=False)
    config = _tiny_config(tmp_path)
    before = config.read_bytes()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["train", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["train", "--config", str(config), "--out", str(out2)]) == 0

    for out in (out1, out2):
        assert (out / "metrics.csv").exists()
        assert (out / "checkpoint.json").exists()
        assert (out / "instance.json").exists()
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()
    assert (out1 / "instance.json").read_bytes() == (out2 / "instance.json").read_bytes()
    assert config.read_bytes() == before  # inputs are never rewritten

    lines = (out1 / "metrics.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 3
    ck = json.loads((out1 / "checkpoint.json").read_text())
    assert ck["config"]["n_customers"] == 4
    assert ck["episode_count"] == 3


def test_evaluate_writes_routes_and_svg(tmp_path, monkeypatch):
    monkeypatch.delenv("HQRL_SEED", raising=False)
    config = _tiny_config(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(run)]) == 0

    evaldir = tmp_path / "eval"
    assert main(["evaluate", "--checkpoint", str(run / "checkpoint.json"),
                 "--instance", str(run / "instance.json"), "--out", str(evaldir)]) == 0
    payload = json.loads((evaldir / "routes.json").read_text())
    served = sorted(c for cities in payload["routes"].values() for c in cities)
    assert served == list(range(4))
    assert payload["normalized_cost"] >= 1.0 - 1e-9
    assert payload["total_cost"] == pytest.approx(
        payload["normalized_cost"] * payload["oracle_cost"])
    ET.fromstring((evaldir / "routes.svg").read_text())  # well-formed XML


def test_finetune_to_new_size(tmp_path, monkeypatch):
    monkeypatch.delenv("HQRL_SEED", raising=False)
    config = _tiny_config(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(run)]) == 0

    tuned = tmp_path / "tuned"
    assert main(["finetune", "--checkpoint", str(run / "checkpoint.json"),
                 "--n", "6", "--episodes", "2", "--out", str(tuned)]) == 0
    ck = json.loads((tuned / "checkpoint.json").read_text())
    assert ck["config"]["n_customers"] == 6
    assert ck["episode_count"] == 3 + 2
    assert len((tuned / "metrics.csv").read_text().strip().split("\n")) == 1 + 2


def test_plot_draws_one_polyline_per_series(tmp_path, monkeypatch):
    monkeypatch.delenv("HQRL_SEED", raising=False)
    config = _tiny_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["train", "--config", str(config), "--out", str(out1)])
    main(["train", "--config", str(config), "--seed", "6", "--out", str(out2)])

    plots = tmp_path / "plots"
    assert main(["plot", "--metrics", str(out1 / "metrics.csv"),
                 str(out2 / "metrics.csv"), "--out", str(plots)]) == 0
    root = ET.fromstring((plots / "curves.svg").read_text())
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2


def test_sweep_and_ablate_write_tables(tmp_path, monkeypatch):
    monkeypatch.delenv("HQRL_SEED", raising=False)
    config = _tiny_config(tmp_path, episodes=2)

    sweep = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--sizes", "4,5",
                 "--out", str(sweep)]) == 0
    lines = (sweep / "comparison.csv").read_text().strip().split("\n")
    assert lines[0] == "method,n_customers,normalized_cost,qubits,depth,peak_mem_bytes"
    assert len(lines) == 1 + 2 * 4

    abl = tmp_path / "abl"
    assert main(["ablate", "--config", str(config), "--sizes", "4",
                 "--out", str(abl)]) == 0
    lines = (abl / "ablation.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 4
    assert [row.split(",")[0] for row in lines[1:]] == [
        "full", "no-warm-start", "no-value-baseline", "no-fine-tune"]


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["train", "--bogus-flag"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_runtime_errors_exit_3_with_json(tmp_path, capsys):
    code = main(["evaluate", "--checkpoint", str(tmp_path / "missing.json"),
                 "--instance", str(tmp_path / "missing2.json"),
                 "--out", str(tmp_path)])
    assert code == 3
    err_lines = capsys.readouterr().err.strip().split("\n")
    payload = json.loads(err_lines[-1])
    assert set(payload) == {"error", "detail"}
    assert payload["error"] == "FileNotFoundError"

    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"learning_rate": 1.0}))
    assert main(["train", "--config", str(config), "--out", str(tmp_path)]) == 3
    payload = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
    assert payload["error"] == "ValueError"


def test_evaluate_shape_mismatch_exits_3_with_json(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_customers": 7, "n_vehicles": 1, "episodes": 0,
                                  "seed": 2, "warmstart_max_iters": 10}))
    run = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(run)]) == 0
    instance = tmp_path / "instance.json"
    env.save_instance(env.generate_instance(5, 4, 1), instance)
    capsys.readouterr()

    code = main(["evaluate", "--checkpoint", str(run / "checkpoint.json"),
                 "--instance", str(instance), "--out", str(tmp_path / "eval")])
    assert code == 3
    payload = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
    assert payload["error"] == "ValueError"
    assert "(7, 1)" in payload["detail"] and "(5, 4)" in payload["detail"]


def test_finetune_applies_method_and_switch_flags(tmp_path, monkeypatch):
    monkeypatch.delenv("HQRL_SEED", raising=False)
    config = _tiny_config(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(run)]) == 0

    tuned = tmp_path / "tuned"
    assert main(["finetune", "--checkpoint", str(run / "checkpoint.json"), "--episodes", "1",
                 "--method", "vanilla-qrl", "--no-warm-start", "--no-value-baseline",
                 "--out", str(tuned)]) == 0
    cfg = json.loads((tuned / "checkpoint.json").read_text())["config"]
    assert (cfg["method"], cfg["warm_start"], cfg["value_baseline"]) == (
        "vanilla-qrl", False, False)
    assert (cfg["n_customers"], cfg["seed"], cfg["episodes"]) == (4, 5, 1)

    # Without --episodes the fine-tune budget is the preset, not the pretraining one.
    preset = tmp_path / "preset"
    assert main(["finetune", "--checkpoint", str(run / "checkpoint.json"),
                 "--out", str(preset)]) == 0
    cfg = json.loads((preset / "checkpoint.json").read_text())["config"]
    assert (cfg["method"], cfg["value_baseline"], cfg["episodes"]) == ("hqrl-qaoa", True, 40)


def test_evaluate_rejects_bad_instance_and_legacy_shape_with_exit_3(tmp_path, capsys,
                                                                     monkeypatch):
    monkeypatch.delenv("HQRL_SEED", raising=False)
    run = tmp_path / "run"
    assert main(["train", "--config", str(_tiny_config(tmp_path)), "--out", str(run)]) == 0
    capsys.readouterr()

    def evaluate_error(checkpoint, instance) -> dict:
        code = main(["evaluate", "--checkpoint", str(checkpoint), "--instance", str(instance),
                     "--out", str(tmp_path / "eval")])
        assert code == 3
        payload = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
        assert payload["error"] == "ValueError"
        return payload

    instance = json.loads((run / "instance.json").read_text())
    instance["customers"][1][0] = float("nan")
    bad_instance = tmp_path / "nan_instance.json"
    bad_instance.write_text(json.dumps(instance))
    assert "'customers'" in evaluate_error(run / "checkpoint.json", bad_instance)["detail"]
    assert not (tmp_path / "eval" / "routes.json").exists()
    instance = json.loads((run / "instance.json").read_text())
    instance["n_customers"] = 4.9
    bad_instance.write_text(json.dumps(instance))
    assert "'n_customers'" in evaluate_error(run / "checkpoint.json", bad_instance)["detail"]
    assert not (tmp_path / "eval" / "routes.json").exists()

    ck = json.loads((run / "checkpoint.json").read_text())
    ck["config"].update({"n_qubits": 4, "n_layers": 2, "p": 2})
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(ck))
    assert main(["evaluate", "--checkpoint", str(legacy), "--instance",
                 str(run / "instance.json"), "--out", str(tmp_path / "eval")]) == 0
    for key, value in (("n_qubits", 5), ("n_layers", 3), ("p", 3)):
        bad = tmp_path / f"legacy_{key}.json"
        bad.write_text(json.dumps({**ck, "config": {**ck["config"], key: value}}))
        assert f"'{key}'" in evaluate_error(bad, run / "instance.json")["detail"]


def _last_error(capsys) -> dict:
    payload = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
    assert payload["error"] == "ValueError"
    return payload


def test_bad_config_types_and_vanilla_warm_start_exit_3_before_work(tmp_path, capsys,
                                                                    monkeypatch):
    monkeypatch.delenv("HQRL_SEED", raising=False)
    for key, value in (("warm_start", "no"), ("episodes", 2.5), ("seed", True), ("seed", -1)):
        out = tmp_path / f"run_{key}"
        config = _tiny_config(tmp_path, **{key: value})
        assert main(["train", "--config", str(config), "--out", str(out)]) == 3
        assert key in _last_error(capsys)["detail"]
        assert not out.exists()
    # a bad seed used to pass the config and fail inside numpy, naming no field
    out = tmp_path / "instance"
    assert main(["gen-instance", "--seed", "-5", "--out", str(out)]) == 3
    assert "seed=-5 must be >= 0" in _last_error(capsys)["detail"]
    for env_seed, detail in (("-3", "seed=-3 must be >= 0"),
                             ("abc", "HQRL_SEED='abc' is not an integer")):
        monkeypatch.setenv("HQRL_SEED", env_seed)
        assert main(["gen-instance", "--out", str(out)]) == 3
        assert detail in _last_error(capsys)["detail"]
    monkeypatch.delenv("HQRL_SEED")
    assert not out.exists()

    vanilla = ["train", "--config", str(_tiny_config(tmp_path)), "--method", "vanilla-qrl"]
    assert main([*vanilla, "--out", str(tmp_path / "vanilla")]) == 3
    detail = _last_error(capsys)["detail"]
    assert "vanilla-qrl" in detail and "warm_start" in detail and "--no-warm-start" in detail
    assert not (tmp_path / "vanilla").exists()
    assert main([*vanilla, "--no-warm-start", "--out", str(tmp_path / "vanilla")]) == 0


@pytest.mark.parametrize("command", ["sweep", "ablate"])
def test_sweep_and_ablate_reject_a_bad_size_before_any_training(tmp_path, capsys, monkeypatch,
                                                                 command):
    monkeypatch.delenv("HQRL_SEED", raising=False)
    trained = []
    monkeypatch.setattr(training, "train", lambda cfg: trained.append(cfg))
    out = tmp_path / command
    assert main([command, "--sizes", "4,1", "--episodes", "2", "--out", str(out)]) == 3
    assert "n_vehicles=2 is outside [1, n_customers=1]" in _last_error(capsys)["detail"]
    assert trained == []
    assert not out.exists()


def test_evaluate_rejects_bad_checkpoint_arrays_with_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HQRL_SEED", raising=False)
    run = tmp_path / "run"
    assert main(["train", "--config", str(_tiny_config(tmp_path)), "--out", str(run)]) == 0
    capsys.readouterr()
    ck = json.loads((run / "checkpoint.json").read_text())

    nan_angle = json.loads(json.dumps(ck))
    nan_angle["qaoa_angles"][1][0] = float("nan")
    one_layer = {**ck, "rotation_angles": ck["rotation_angles"][:1]}
    for label, data, field in (("nan", nan_angle, "qaoa_angles"),
                               ("one_layer", one_layer, "rotation_angles")):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(data))
        out = tmp_path / f"eval_{label}"
        assert main(["evaluate", "--checkpoint", str(path), "--instance",
                     str(run / "instance.json"), "--out", str(out)]) == 3
        assert field in _last_error(capsys)["detail"]
        assert not (out / "routes.json").exists()


def test_finetune_rejects_bad_checkpoint_counters_with_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HQRL_SEED", raising=False)
    run = tmp_path / "run"
    assert main(["train", "--config", str(_tiny_config(tmp_path)), "--out", str(run)]) == 0
    capsys.readouterr()
    ck = json.loads((run / "checkpoint.json").read_text())

    negative_step = json.loads(json.dumps(ck))
    negative_step["optimizer_state"]["step"] = -1
    negative_moment = json.loads(json.dumps(ck))
    negative_moment["optimizer_state"]["v"]["head_b"][0] = -1.0
    for label, data, field in (("step", negative_step, "optimizer_state.step"),
                               ("moment", negative_moment, "optimizer_state.v.head_b"),
                               ("count", {**ck, "episode_count": 2.7}, "episode_count")):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(data))
        out = tmp_path / f"tuned_{label}"
        assert main(["finetune", "--checkpoint", str(path), "--episodes", "3",
                     "--out", str(out)]) == 3
        assert field in _last_error(capsys)["detail"]
        assert not out.exists()


def _all_artifacts(tmp_path, config, seed):
    """Every command that writes an artifact, all into one directory: exit codes."""
    out = tmp_path / "out"
    flags = ["--config", str(config), "--seed", str(seed), "--out", str(out)]
    return [main(["gen-instance", *flags]),
            main(["warmstart", "--instance", str(tmp_path / "input-instance.json"), *flags]),
            main(["train", *flags]),
            main(["evaluate", "--checkpoint", str(tmp_path / "input-checkpoint.json"),
                  "--instance", str(tmp_path / "input-instance.json"), "--out", str(out)]),
            main(["plot", "--metrics", str(tmp_path / "input-metrics.csv"), "--out", str(out)]),
            main(["sweep", "--sizes", "2", "--episodes", "1", *flags]),
            main(["ablate", "--sizes", "2", "--episodes", "1", *flags])]


def _snapshot(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("failure", ["write stops half-way", "serializer raises"])
def test_failed_artifact_writes_leave_the_previous_files_whole(tmp_path, monkeypatch,
                                                               failure):
    monkeypatch.delenv("HQRL_SEED", raising=False)
    config = _tiny_config(tmp_path, n_vehicles=1, episodes=2)
    run = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(run)]) == 0
    for name in ("instance.json", "checkpoint.json", "metrics.csv"):
        (tmp_path / f"input-{name}").write_bytes((run / name).read_bytes())
    assert _all_artifacts(tmp_path, config, 5) == [0] * 7
    before = _snapshot(tmp_path / "out")
    assert len(before) == 9  # every artifact the command line writes

    if failure == "write stops half-way":
        write_text = Path.write_text

        def half_then_fail(self, text, *args, **kwargs):
            write_text(self, text[:len(text) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(Path, "write_text", half_then_fail)
    else:
        dumps = json.dumps

        def fail(*args, **kwargs):
            raise ValueError("serializer failed")
        # JSON artifacts are dumped with an indent, the one-line error report without
        monkeypatch.setattr(json, "dumps",
                            lambda obj, **kw: fail() if "indent" in kw else dumps(obj, **kw))
        for module, name in ((training, "metrics_to_csv"), (training, "comparison_to_csv"),
                             (svgplot, "_document")):
            monkeypatch.setattr(module, name, fail)
    assert _all_artifacts(tmp_path, config, 6) == [3] * 7
    assert _snapshot(tmp_path / "out") == before  # same bytes, and no temporary file left
