"""CLI: config handling, exit codes, end-to-end tiny pipeline."""

import json

import numpy as np
import pytest
from conftest import write_raw_checkpoint

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


def test_config_file_that_is_not_utf8_exits_1(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"data.d = 6\n\xff\xfe\x00\x01")
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setenv("SIDESHAP_OUTDIR", str(out))
    code, stdout, err = run(capsys, "gen-data", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert err.startswith("usage error:") and str(cfg) in err and "UTF-8" in err
    assert len(err.splitlines()) == 1
    assert stdout == ""
    assert list(out.iterdir()) == []


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
        "narrow_mlp_classifier": str(root / "narrow_mlp_classifier.ckpt"),
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
    # its MLP is 2 wide; a side branch at reduction 8 would get width 0
    assert main(["train-classifier", "--data", paths["data"],
                 "--out", paths["narrow_mlp_classifier"], *FAST_MODEL, *FAST_TRAIN,
                 "--set", "model.mlp_ratio=0.1"]) == EXIT_OK
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


@pytest.fixture(scope="module")
def other_classifier(pipeline_artifacts, tmp_path_factory):
    """A classifier of the pipeline's shape, trained with another seed."""
    path = str(tmp_path_factory.mktemp("other_classifier") / "b.ckpt")
    assert main(["train-classifier", "--data", pipeline_artifacts["data"], "--out", path,
                 *FAST_MODEL, *FAST_TRAIN, "--set", "train.seed=1"]) == EXIT_OK
    return path


def _state_digest(path):
    from sideshap.checkpoint import load_checkpoint
    from sideshap.training import state_digest

    return state_digest(load_checkpoint(path).state)


def test_branches_name_their_classifier(pipeline_artifacts):
    from sideshap.checkpoint import load_checkpoint

    digest = _state_digest(pipeline_artifacts["classifier"])
    for role in ("surrogate", "explainer"):
        assert load_checkpoint(pipeline_artifacts[role]).config["backbone_digest"] == digest


@pytest.mark.parametrize("command", ["explain", "evaluate", "train-explainer"])
def test_branch_of_another_classifier_exits_2(pipeline_artifacts, other_classifier, capsys,
                                              tmp_path, monkeypatch, command):
    monkeypatch.setenv("SIDESHAP_OUTDIR", str(tmp_path))
    data = ["--data", pipeline_artifacts["data"], "--classifier", other_classifier,
            "--surrogate", pipeline_artifacts["surrogate"]]
    flags = {"explain": ["--explainer", pipeline_artifacts["explainer"]],
             "evaluate": ["--explainer", pipeline_artifacts["explainer"], "--samples", "2"],
             "train-explainer": ["--set", "side.reduction=2", *FAST_TRAIN]}[command]
    code, out, err = run(capsys, command, *data, *flags)
    assert code == EXIT_CHECK_FAILED
    assert err.startswith("contract violation:") and len(err.splitlines()) == 1
    assert _state_digest(pipeline_artifacts["classifier"]) in err
    assert _state_digest(other_classifier) in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_branch_without_backbone_digest_loads_unchecked(pipeline_artifacts, other_classifier,
                                                        capsys, tmp_path):
    from sideshap.checkpoint import load_checkpoint, save_checkpoint

    artifacts = dict(pipeline_artifacts, classifier=other_classifier)
    for role in ("surrogate", "explainer"):
        ck = load_checkpoint(pipeline_artifacts[role])
        artifacts[role] = str(tmp_path / f"{role}.ckpt")
        save_checkpoint(artifacts[role], role,
                        {k: v for k, v in ck.config.items() if k != "backbone_digest"},
                        ck.state)
    code, _, err = _explain(capsys, artifacts, pipeline_artifacts["data"], 3,
                            tmp_path / "exp.json")
    assert code == EXIT_OK
    assert err == ""


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


def _malformed_checkpoint(artifacts, path, case):
    """A digest-valid copy of a pipeline checkpoint whose body is malformed as ``case`` says."""
    from sideshap.checkpoint import load_checkpoint, save_checkpoint

    if case == "role not UTF-8":
        return write_raw_checkpoint(path, b"\xffclassifier", b"{}")
    if case == "config not a JSON object":
        return write_raw_checkpoint(path, b"classifier", b"[1, 2]")
    if case == "tensor of ndim 65":
        return write_raw_checkpoint(path, b"classifier", b"{}", {"w": (1,) * 65})
    if case == "tensor of shape (0, 2**62)":
        return write_raw_checkpoint(path, b"classifier", b"{}", {"w": (0, 2 ** 62)})
    role = "surrogate" if "side" in case else "classifier"
    ck = load_checkpoint(artifacts[role])
    config, state = dict(ck.config), dict(ck.state)
    if case == "no model block":
        del config["model"]
    elif case == "incomplete model block":
        config["model"] = {k: v for k, v in config["model"].items() if k != "heads"}
    elif case == "model block of wrong type":
        config["model"] = dict(config["model"], depth="2")
    elif case == "model block out of range":
        config["model"] = dict(config["model"], depth=0)
    elif case == "model block with token_input_dim 0":
        config["model"] = dict(config["model"], token_input_dim=0)
    elif case == "model block with an unbuildable MLP width":
        config["model"] = dict(config["model"], mlp_ratio=1e300)
    elif case == "model block claiming a 50M-parameter model":
        config["model"] = dict(config["model"], hidden=1024, depth=4)
    elif case in ("tensor missing", "side tensor missing"):
        del state[sorted(state)[0]]
    elif case == "tensor transposed":
        state["head.weight"] = state["head.weight"].T
    elif case == "side block out of range":
        config["side"] = dict(config["side"], reduction=0)
    elif case == "side block whose reduction does not divide hidden":
        config["side"] = dict(config["side"], reduction=3)
    elif case == "side backbone_digest not hex":
        config["backbone_digest"] = "g" * 64
    elif case == "side backbone_digest not a string":
        config["backbone_digest"] = None
    else:
        config["side"] = {"reduction": 2}
    save_checkpoint(path, role, config, state)


@pytest.mark.parametrize("case", [
    "role not UTF-8", "config not a JSON object", "no model block",
    "incomplete model block", "model block of wrong type", "incomplete side block",
    "side backbone_digest not hex", "side backbone_digest not a string",
    "tensor of ndim 65", "tensor of shape (0, 2**62)", "model block out of range",
    "model block with token_input_dim 0",
    "model block with an unbuildable MLP width", "model block claiming a 50M-parameter model",
    "tensor missing", "tensor transposed", "side block out of range",
    "side block whose reduction does not divide hidden", "side tensor missing"])
def test_malformed_checkpoint_exits_3(pipeline_artifacts, capsys, tmp_path, case):
    bad = str(tmp_path / "bad.ckpt")
    _malformed_checkpoint(pipeline_artifacts, bad, case)
    out = tmp_path / "out"
    if "side" in case:
        code, _, err = _explain(capsys, dict(pipeline_artifacts, surrogate=bad),
                                pipeline_artifacts["data"], 3, out)
    else:
        code, _, err = run(capsys, "train-surrogate", "--data", pipeline_artifacts["data"],
                           "--classifier", bad, "--out", str(out),
                           "--set", "side.reduction=2", *FAST_TRAIN)
    assert code == EXIT_IO
    assert err.startswith("i/o error:") and "bad.ckpt" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_checkpoint_claiming_a_larger_model_allocates_nothing(pipeline_artifacts, tmp_path,
                                                             monkeypatch):
    """A 50M-parameter model block on a few kB of tensors is refused by its size,
    before any model is constructed."""
    from sideshap import cli
    from sideshap.checkpoint import CheckpointError
    from sideshap.transformer import MaskedTransformer

    bad = str(tmp_path / "bad.ckpt")
    _malformed_checkpoint(pipeline_artifacts, bad, "model block claiming a 50M-parameter model")

    def refuse(*args, **kwargs):
        raise AssertionError("a MaskedTransformer was constructed")

    monkeypatch.setattr(MaskedTransformer, "__init__", refuse)
    with pytest.raises(CheckpointError, match="stored parameters"):
        cli._load_classifier(bad)


@pytest.mark.parametrize("command", ["explain", "train-explainer"])
def test_branch_header_role_disagreeing_with_side_role_exits_3(
        pipeline_artifacts, capsys, tmp_path, monkeypatch, command):
    from sideshap.checkpoint import load_checkpoint, save_checkpoint

    # the explainer's own config and state, under a "surrogate" header
    ck = load_checkpoint(pipeline_artifacts["explainer"])
    bad = str(tmp_path / "bad.ckpt")
    save_checkpoint(bad, "surrogate", ck.config, ck.state)
    outdir = tmp_path / "out"
    outdir.mkdir()
    monkeypatch.setenv("SIDESHAP_OUTDIR", str(outdir))
    flags = {"explain": ["--explainer", pipeline_artifacts["explainer"]],
             "train-explainer": ["--set", "side.reduction=2", *FAST_TRAIN]}[command]
    code, out, err = run(capsys, command, "--data", pipeline_artifacts["data"],
                         "--classifier", pipeline_artifacts["classifier"],
                         "--surrogate", bad, *flags)
    assert code == EXIT_IO
    assert err.startswith("i/o error:") and "bad.ckpt" in err
    assert "'surrogate'" in err and "'explainer'" in err
    assert len(err.splitlines()) == 1
    assert out == ""
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("case", ["not an npz", "npz without meta"])
def test_malformed_dataset_exits_3(pipeline_artifacts, capsys, tmp_path, case):
    data = tmp_path / "bad.npz"
    if case == "not an npz":
        data.write_text("tokens")
    else:
        np.savez(data, tokens=np.zeros((4, 6, 3), dtype=np.float32))
    out = tmp_path / "c.ckpt"
    code, _, err = run(capsys, "train-classifier", "--data", str(data), "--out", str(out),
                       *FAST_MODEL, *FAST_TRAIN)
    assert code == EXIT_IO
    assert err.startswith("i/o error:") and "bad.npz" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_empty_validation_split_exits_3(pipeline_artifacts, capsys, tmp_path):
    with np.load(pipeline_artifacts["data"]) as z:
        contents = dict(z)
    data = tmp_path / "no_val.npz"
    np.savez(data, **{**contents, "val": contents["val"][:0]})
    out = tmp_path / "c.ckpt"
    code, stdout, err = run(capsys, "train-classifier", "--data", str(data), "--out", str(out),
                            *FAST_MODEL, *FAST_TRAIN)
    assert code == EXIT_IO
    assert err.startswith("i/o error:") and "no_val.npz" in err
    assert "split 'val' has no rows" in err
    assert len(err.splitlines()) == 1
    assert stdout == "" and not out.exists()


def test_evaluate_explains_every_sample_in_one_call(pipeline_artifacts, capsys, tmp_path,
                                                     monkeypatch):
    """One ``explain`` of all 7 samples, then one value pass of 2(d+1) rows per curve pair."""
    from sideshap.sidenet import CombinedModel, SideTunedModel

    explained, valued = [], []
    explain, surrogate_forward = CombinedModel.explain, SideTunedModel.surrogate_forward

    def recording_explain(self, tokens):
        explained.append(len(tokens))
        return explain(self, tokens)

    def recording_values(self, tokens, masks):
        valued.append(len(masks))
        return surrogate_forward(self, tokens, masks)

    monkeypatch.setattr(CombinedModel, "explain", recording_explain)
    monkeypatch.setattr(SideTunedModel, "surrogate_forward", recording_values)
    code, stdout, _ = _evaluate(capsys, pipeline_artifacts, pipeline_artifacts["data"],
                                tmp_path / "eval.json", "7")
    assert code == EXIT_OK and json.loads(stdout)["samples"] == 7
    assert explained == [7]
    assert valued == [2 * (6 + 1)] * 7


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
        "train-explainer": [*data, "--classifier", artifacts["classifier"],
                            "--surrogate", artifacts["surrogate"], *FAST_TRAIN],
        "train-froyo": [*data, "--classifier", artifacts["classifier"], *FAST_TRAIN],
        "train-duo": [*data, "--classifier", artifacts["classifier"], *FAST_TRAIN],
        "evaluate": [*data, "--classifier", artifacts["classifier"],
                     "--surrogate", artifacts["surrogate"],
                     "--explainer", artifacts["explainer"], "--samples", "2"],
    }.get(command, [])


BOUNDARY_CASES = [
    # (command, flags, exit code, stderr prefix, text the message names)
    ("train-classifier", ["--set", "train.step_size=1e30"],
     EXIT_CHECK_FAILED, "training diverged:", "diverged"),
    ("train-classifier", ["--set", "train.step_size=nan"],
     EXIT_CHECK_FAILED, "contract violation:", "step_size"),
    ("train-classifier", ["--set", "train.step_size=inf"],
     EXIT_CHECK_FAILED, "contract violation:", "step_size"),
    ("train-classifier", ["--set", "train.scheme=sgd"],
     EXIT_CHECK_FAILED, "contract violation:", "scheme"),
    ("train-classifier", ["--set", "train.batch_size=0"],
     EXIT_CHECK_FAILED, "contract violation:", "batch_size"),
    ("train-classifier", ["--set", "train.seed=-1"],
     EXIT_CHECK_FAILED, "contract violation:", "seed"),
    ("train-classifier", ["--set", "model.heads=0"],
     EXIT_CHECK_FAILED, "contract violation:", "heads"),
    ("train-classifier", ["--set", "model.depth=0"],
     EXIT_CHECK_FAILED, "contract violation:", "depth"),
    ("train-classifier", ["--set", "model.mlp_ratio=0"],
     EXIT_CHECK_FAILED, "contract violation:", "mlp_ratio"),
    ("train-classifier", ["--set", "model.mlp_ratio=0.01"],
     EXIT_CHECK_FAILED, "contract violation:", "mlp_ratio"),
    ("train-classifier", ["--set", "model.mlp_ratio=-1"],
     EXIT_CHECK_FAILED, "contract violation:", "mlp_ratio"),
    ("train-classifier", ["--set", "model.mlp_ratio=nan"],
     EXIT_CHECK_FAILED, "contract violation:", "mlp_ratio"),
    ("train-classifier", ["--set", "model.mlp_ratio=inf"],
     EXIT_CHECK_FAILED, "contract violation:", "mlp_ratio"),
    ("train-classifier", ["--set", "model.mlp_ratio=1e308"],
     EXIT_CHECK_FAILED, "contract violation:", "mlp_ratio"),
    ("train-classifier", ["--set", "model.mlp_ratio=1e300"],
     EXIT_CHECK_FAILED, "contract violation:", "mlp_ratio"),
    ("train-froyo", ["--set", "train.step_size=1e30"],
     EXIT_CHECK_FAILED, "training diverged:", "froyo diverged at epoch 0"),
    ("train-duo", ["--set", "train.step_size=1e30"],
     EXIT_CHECK_FAILED, "training diverged:", "duo diverged at epoch 0"),
    ("train-surrogate", ["--classifier", "{narrow_mlp_classifier}",
                         "--set", "side.reduction=8"],
     EXIT_CHECK_FAILED, "contract violation:", "mlp_ratio"),
    ("train-surrogate", ["--set", "train.inputs_per_batch=0"],
     EXIT_CHECK_FAILED, "contract violation:", "inputs_per_batch"),
    ("train-surrogate", ["--set", "train.masks_per_input=0"],
     EXIT_CHECK_FAILED, "contract violation:", "masks_per_input"),
    ("train-surrogate", ["--set", "side.reduction=0"],
     EXIT_CHECK_FAILED, "contract violation:", "reduction"),
    ("train-explainer", ["--set", "side.reduction=8"],
     EXIT_CHECK_FAILED, "contract violation:",
     "side.reduction=8 differs from the surrogate's reduction 2"),
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
    ("gen-data", ["--set", "data.num_classes=5"],
     EXIT_CHECK_FAILED, "contract violation:", "2 classes, not data.num_classes=5"),
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
    flags = [f.format(**pipeline_artifacts) for f in flags]
    got, out, err = run(capsys, command, *_boundary_inputs(command, pipeline_artifacts),
                        *flags)
    assert got == code
    assert err.startswith(prefix) and names in err
    assert len(err.splitlines()) == 1
    assert out == ""
    assert list(tmp_path.iterdir()) == []
