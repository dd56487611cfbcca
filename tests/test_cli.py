"""CLI: config handling, exit codes, end-to-end tiny pipeline."""

import json

import numpy as np
import pytest

from sideshap.cli import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    effective_config,
    main,
    read_config_file,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# configuration plumbing


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nmodel.depth = 4\ntrain.step_size = 2e-3\n"
                   "train.scheme = adam  # inline\n")
    parsed = read_config_file(cfg)
    assert parsed == {"model.depth": 4, "train.step_size": 2e-3,
                      "train.scheme": "adam"}
    assert isinstance(parsed["model.depth"], int)
    assert isinstance(parsed["train.step_size"], float)


def test_config_file_rejects_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.depth 4\n")
    with pytest.raises(UsageError):
        read_config_file(cfg)


def test_config_precedence_defaults_file_set(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 2\nb = 20\n")

    class Args:
        config = str(cfg)
        set = ["b=200"]

    out = effective_config({"a": 1, "b": 10, "c": 3}, Args())
    assert out == {"a": 2, "b": 200, "c": 3}


def test_unknown_config_key_rejected():
    class Args:
        config = None
        set = ["model.depht=2"]

    with pytest.raises(UsageError, match="unknown"):
        effective_config({"model.depth": 2}, Args())


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "no-such-command")[0] == EXIT_USAGE
    assert run(capsys, "train-classifier")[0] == EXIT_USAGE  # missing --data
    code, _, err = run(capsys, "gen-data", "--set", "data.bogus=1")
    assert code == EXIT_USAGE
    assert "unknown" in err


def test_missing_input_file_exits_3(capsys, tmp_path):
    code, _, err = run(capsys, "train-classifier",
                       "--data", str(tmp_path / "missing.npz"),
                       "--out", str(tmp_path / "c.ckpt"))
    assert code == EXIT_IO
    assert "i/o error" in err


# ---------------------------------------------------------------------------
# analytic subcommands


def test_count_params_json(capsys):
    code, out, _ = run(capsys, "count-params", "--preset", "vit-base")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["classifier_params"] == 85_806_346
    assert payload["trainable_reduction"] >= 0.95


def test_count_flops_json(capsys):
    code, out, _ = run(capsys, "count-flops", "--preset", "vit-base")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["combined_flops"] < payload["separate_flops"]
    assert payload["flops_reduction"] >= 0.45


def test_check_lemma_passes(capsys):
    code, out, _ = run(capsys, "check-lemma", "--d-max", "12")
    assert code == EXIT_OK
    assert json.loads(out)["holds"] is True


def test_check_bounds_passes(capsys):
    code, out, _ = run(capsys, "check-bounds", "--seed", "0")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["final_gap"] < payload["initial_gap"]


# ---------------------------------------------------------------------------
# end-to-end tiny pipeline


TINY = [
    "--set", "data.d=6", "--set", "data.token_dim=3",
    "--set", "data.n_samples=80",
]
FAST_TRAIN = [
    "--set", "train.epochs=1", "--set", "train.batch_size=16",
    "--set", "train.masks_per_input=4", "--set", "train.inputs_per_batch=4",
    "--set", "train.step_size=1e-3",
]
FAST_MODEL = ["--set", "model.depth=1", "--set", "model.hidden=16",
              "--set", "model.heads=2"]


@pytest.fixture(scope="module")
def pipeline_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_pipeline")
    paths = {
        "data": str(root / "ds.npz"),
        "classifier": str(root / "classifier.ckpt"),
        "surrogate": str(root / "surrogate.ckpt"),
        "explainer": str(root / "explainer.ckpt"),
    }
    assert main(["gen-data", "--out", paths["data"], *TINY]) == EXIT_OK
    assert main(["train-classifier", "--data", paths["data"],
                 "--out", paths["classifier"], *FAST_MODEL, *FAST_TRAIN]) == EXIT_OK
    assert main(["train-surrogate", "--data", paths["data"],
                 "--classifier", paths["classifier"],
                 "--out", paths["surrogate"],
                 "--set", "side.reduction=2", *FAST_TRAIN]) == EXIT_OK
    assert main(["train-explainer", "--data", paths["data"],
                 "--classifier", paths["classifier"],
                 "--surrogate", paths["surrogate"],
                 "--out", paths["explainer"],
                 "--set", "side.reduction=2", *FAST_TRAIN]) == EXIT_OK
    return paths


def test_pipeline_writes_artifacts(pipeline_artifacts):
    import os
    for path in pipeline_artifacts.values():
        assert os.path.exists(path)
        assert os.path.exists(path + ".config.json")


def _explain(capsys, artifacts, data, index, out):
    return run(capsys, "explain", "--data", data,
               "--classifier", artifacts["classifier"],
               "--surrogate", artifacts["surrogate"],
               "--explainer", artifacts["explainer"],
               "--index", str(index), "--out", str(out))


def test_explain_emits_valid_json(pipeline_artifacts, capsys, tmp_path):
    out = str(tmp_path / "exp.json")
    code, stdout, _ = _explain(capsys, pipeline_artifacts, pipeline_artifacts["data"],
                               3, out)
    assert code == EXIT_OK
    summary = json.loads(stdout)
    assert summary["efficiency_residual"] < 1e-5
    with open(out) as f:
        result = json.load(f)
    assert result["index"] == 3
    phi = np.asarray(result["attribution"])
    assert phi.shape == (6, 2)
    assert len(result["logits"]) == 2
    assert result["predicted_class"] in (0, 1)


@pytest.mark.parametrize("index", [80, -1])  # the dataset holds 80 samples
def test_explain_index_outside_dataset_exits_1(pipeline_artifacts, capsys, tmp_path,
                                               index):
    out = tmp_path / "exp.json"
    code, _, err = _explain(capsys, pipeline_artifacts, pipeline_artifacts["data"],
                            index, out)
    assert code == EXIT_USAGE
    assert "--index" in err
    assert not out.exists()


def test_explain_non_finite_residual_exits_2(pipeline_artifacts, capsys, tmp_path):
    from sideshap.data import SyntheticDataset

    ds = SyntheticDataset.load(pipeline_artifacts["data"])
    ds.tokens[5, 2, 0] = np.nan
    data = str(tmp_path / "nan.npz")
    ds.save(data)
    out = tmp_path / "exp.json"
    code, _, err = _explain(capsys, pipeline_artifacts, data, 5, out)
    assert code == EXIT_CHECK_FAILED
    assert "not finite" in err
    assert not out.exists()


def test_explain_rejects_branch_of_another_model(pipeline_artifacts, capsys, tmp_path):
    from sideshap.checkpoint import load_checkpoint, save_checkpoint

    # 4 heads instead of 2: every side parameter keeps its shape
    ck = load_checkpoint(pipeline_artifacts["surrogate"])
    config = dict(ck.config, model=dict(ck.config["model"], heads=4))
    surrogate = str(tmp_path / "surrogate-4heads.ckpt")
    save_checkpoint(surrogate, ck.role, config, ck.state)
    out = tmp_path / "exp.json"
    code, _, err = _explain(capsys, dict(pipeline_artifacts, surrogate=surrogate),
                            pipeline_artifacts["data"], 3, out)
    assert code == EXIT_CHECK_FAILED
    assert "trained on model" in err
    assert not out.exists()


def test_evaluate_reports_aucs(pipeline_artifacts, capsys, tmp_path):
    code, stdout, _ = run(capsys, "evaluate",
                          "--data", pipeline_artifacts["data"],
                          "--classifier", pipeline_artifacts["classifier"],
                          "--surrogate", pipeline_artifacts["surrogate"],
                          "--explainer", pipeline_artifacts["explainer"],
                          "--samples", "4",
                          "--out", str(tmp_path / "eval.json"))
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["samples"] == 4
    assert 0.0 <= payload["insertion_auc"] <= 1.0
    assert 0.0 <= payload["deletion_auc"] <= 1.0
    assert payload["efficiency_residual"] < 1e-5


def _evaluate(capsys, artifacts, data, out, samples="4"):
    return run(capsys, "evaluate", "--data", data,
               "--classifier", artifacts["classifier"],
               "--surrogate", artifacts["surrogate"],
               "--explainer", artifacts["explainer"],
               "--samples", samples, "--out", str(out))


def test_evaluate_non_finite_result_exits_2(pipeline_artifacts, capsys, tmp_path):
    from sideshap.data import SyntheticDataset

    ds = SyntheticDataset.load(pipeline_artifacts["data"])
    ds.tokens[ds.splits["test"], 0, 0] = np.nan
    data = str(tmp_path / "nan.npz")
    ds.save(data)
    out = tmp_path / "eval.json"
    code, stdout, err = _evaluate(capsys, pipeline_artifacts, data, out)
    assert code == EXIT_CHECK_FAILED
    assert "not finite" in err
    assert not out.exists() and stdout == ""


def test_evaluate_without_samples_is_usage_error(pipeline_artifacts, capsys, tmp_path):
    out = tmp_path / "eval.json"
    code, _, _ = _evaluate(capsys, pipeline_artifacts, pipeline_artifacts["data"], out, "0")
    assert code == EXIT_USAGE
    assert not out.exists()


def test_explainer_head_depth_is_not_a_config_key(pipeline_artifacts, capsys, tmp_path):
    code, _, err = run(capsys, "train-explainer",
                       "--data", pipeline_artifacts["data"],
                       "--classifier", pipeline_artifacts["classifier"],
                       "--surrogate", pipeline_artifacts["surrogate"],
                       "--out", str(tmp_path / "e.ckpt"),
                       "--set", "side.explainer_head_depth=1", *FAST_TRAIN)
    assert code == EXIT_USAGE
    assert "unknown" in err


@pytest.mark.parametrize("command, setting", [
    ("train-classifier", "train.epochs=abc"),
    ("train-classifier", "train.epochs=1.7"),
    ("train-classifier", "train.epochs=true"),
    ("gen-data", "data.n_samples=abc"),
])
def test_config_value_of_wrong_type_exits_1(pipeline_artifacts, capsys, tmp_path,
                                            command, setting):
    out = tmp_path / "out"
    extra = (TINY if command == "gen-data"
             else ["--data", pipeline_artifacts["data"], *FAST_MODEL])
    code, _, err = run(capsys, command, *extra, "--out", str(out), "--set", setting)
    assert code == EXIT_USAGE
    assert "usage error" in err
    assert setting.split("=")[0] in err
    assert not out.exists()


def test_float_config_key_takes_an_int():
    class Args:
        config = None
        set = ["train.step_size=1"]

    out = effective_config({"train.step_size": 1e-3}, Args())
    assert out == {"train.step_size": 1.0}
    assert isinstance(out["train.step_size"], float)


def test_unknown_label_mode_exits_2(pipeline_artifacts, capsys, tmp_path):
    out = tmp_path / "c.ckpt"
    code, _, err = run(capsys, "train-classifier", "--data", pipeline_artifacts["data"],
                       "--out", str(out), *FAST_MODEL, *FAST_TRAIN,
                       "--set", "train.label_mode=lable")
    assert code == EXIT_CHECK_FAILED
    assert "label_mode" in err
    assert not out.exists()


def test_role_mismatch_exits_3(pipeline_artifacts, capsys, tmp_path):
    # handing the surrogate checkpoint where a classifier is expected
    code, _, err = run(capsys, "train-surrogate",
                       "--data", pipeline_artifacts["data"],
                       "--classifier", pipeline_artifacts["surrogate"],
                       "--out", str(tmp_path / "s.ckpt"),
                       "--set", "side.reduction=2", *FAST_TRAIN)
    assert code == EXIT_IO
    assert "role" in err


def test_froyo_and_duo_commands(pipeline_artifacts, capsys, tmp_path):
    code, stdout, _ = run(capsys, "train-froyo",
                          "--data", pipeline_artifacts["data"],
                          "--classifier", pipeline_artifacts["classifier"],
                          "--out", str(tmp_path / "froyo.ckpt"), *FAST_TRAIN)
    assert code == EXIT_OK
    assert "final_loss" in json.loads(stdout)

    code, stdout, _ = run(capsys, "train-duo",
                          "--data", pipeline_artifacts["data"],
                          "--classifier", pipeline_artifacts["classifier"],
                          "--out", str(tmp_path / "duo.ckpt"), *FAST_TRAIN)
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert "negative_cosine_steps" in payload


def test_gen_data_respects_outdir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SIDESHAP_OUTDIR", str(tmp_path))
    code, stdout, _ = run(capsys, "gen-data", *TINY)
    assert code == EXIT_OK
    assert json.loads(stdout)["path"] == str(tmp_path / "dataset.npz")


# ---------------------------------------------------------------------------
# out-of-range values fail early, with an exit code and no output file


def _boundary_inputs(command, artifacts):
    """Valid inputs of ``command`` on the pipeline's files; a case's flags come after."""
    data = ["--data", artifacts["data"]]
    return {
        "gen-data": TINY,
        "train-classifier": [*data, *FAST_MODEL, *FAST_TRAIN],
        "train-surrogate": [*data, "--classifier", artifacts["classifier"],
                            "--set", "side.reduction=2", *FAST_TRAIN],
        "evaluate": [*data, "--classifier", artifacts["classifier"],
                     "--surrogate", artifacts["surrogate"],
                     "--explainer", artifacts["explainer"], "--samples", "2"],
    }.get(command, [])


BOUNDARY_CASES = [
    # (command, flags, exit code, stderr prefix, text the message names)
    pytest.param("train-classifier", ["--set", "train.step_size=1e30"],
                 EXIT_CHECK_FAILED, "training diverged:", "diverged",
                 # overflow on the way to the non-finite loss is expected
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ("train-classifier", ["--set", "train.step_size=nan"],
     EXIT_CHECK_FAILED, "contract violation:", "step_size"),
    ("train-classifier", ["--set", "train.step_size=inf"],
     EXIT_CHECK_FAILED, "contract violation:", "step_size"),
    ("train-classifier", ["--set", "train.batch_size=0"],
     EXIT_CHECK_FAILED, "contract violation:", "batch_size"),
    ("train-classifier", ["--set", "train.seed=-1"],
     EXIT_CHECK_FAILED, "contract violation:", "seed"),
    ("train-classifier", ["--set", "model.heads=0"],
     EXIT_CHECK_FAILED, "contract violation:", "heads"),
    ("train-classifier", ["--set", "model.depth=0"],
     EXIT_CHECK_FAILED, "contract violation:", "depth"),
    ("train-surrogate", ["--set", "train.inputs_per_batch=0"],
     EXIT_CHECK_FAILED, "contract violation:", "inputs_per_batch"),
    ("train-surrogate", ["--set", "train.masks_per_input=0"],
     EXIT_CHECK_FAILED, "contract violation:", "masks_per_input"),
    ("train-surrogate", ["--set", "side.reduction=0"],
     EXIT_CHECK_FAILED, "contract violation:", "reduction"),
    ("count-params", ["--reduction", "0"],
     EXIT_CHECK_FAILED, "contract violation:", "reduction"),
    ("gen-data", ["--set", "data.n_samples=0"],
     EXIT_CHECK_FAILED, "contract violation:", "split"),
    ("gen-data", ["--set", "data.n_samples=5"],
     EXIT_CHECK_FAILED, "contract violation:", "split"),
    ("gen-data", ["--set", "data.n_samples=-5"],
     EXIT_CHECK_FAILED, "contract violation:", "split"),
    ("gen-data", ["--set", "data.seed=-1"],
     EXIT_CHECK_FAILED, "contract violation:", "seed"),
    ("gen-data", ["--set", "data.kind=linear-logit", "--set", "data.num_classes=0"],
     EXIT_CHECK_FAILED, "contract violation:", "num_classes"),
    ("gen-data", ["--set", "data.kind=linear-logit", "--set", "data.d=0"],
     EXIT_CHECK_FAILED, "contract violation:", "d, token_dim"),
    ("evaluate", ["--seed", "-1"], EXIT_USAGE, "usage error:", "--seed"),
    ("check-bounds", ["--seed", "-1"], EXIT_USAGE, "usage error:", "--seed"),
    ("check-lemma", ["--d-max", "17"], EXIT_USAGE, "usage error:", "--d-max"),
    ("check-lemma", ["--d-max", "1"], EXIT_USAGE, "usage error:", "--d-max"),
]


def _case_id(case):
    command, flags = getattr(case, "values", case)[:2]
    return " ".join([command, *(f for f in flags if f != "--set")])


@pytest.mark.parametrize("command, flags, code, prefix, names", BOUNDARY_CASES,
                         ids=[_case_id(case) for case in BOUNDARY_CASES])
def test_out_of_range_value_fails_early(pipeline_artifacts, capsys, tmp_path, monkeypatch,
                                        command, flags, code, prefix, names):
    monkeypatch.setenv("SIDESHAP_OUTDIR", str(tmp_path))
    got, out, err = run(capsys, command, *_boundary_inputs(command, pipeline_artifacts),
                        *flags)
    assert got == code
    assert err.startswith(prefix) and names in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []
