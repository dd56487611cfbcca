"""Command-line front end.

Configuration is flat dotted keys (``model.depth = 2``). Precedence is
defaults < config file (``--config``) < explicit ``--set key=value`` flags.
The effective configuration is written next to every produced artifact.

Exit codes: 0 success, 1 usage error, 2 invariant/bound check failure
(an out-of-range value, a diverged training run or a branch trained on
another classifier included), 3 I/O failure (a malformed checkpoint, or one
that cannot build its own model, included).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
import typing

import numpy as np

from .autodiff import ContractError, OptimizerConfig
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import SyntheticDataset, generate_dataset
from .evaluation import efficiency_report, insertion_deletion
from .shapley import second_moment_matrix
from .sidenet import (
    ROLE_EXPLAINER,
    ROLE_SURROGATE,
    CombinedModel,
    SideConfig,
    SideTunedModel,
    count_side_params,
)
from .training import (
    StageConfig,
    geometric_decay_experiment,
    state_digest,
    train_classifier,
    train_duo,
    train_explainer,
    train_froyo,
    train_surrogate,
)
from .transformer import PRESETS, MaskedTransformer, ModelConfig, count_params

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_IO = 3

OUTDIR_ENV = "SIDESHAP_OUTDIR"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_in(low: int, high: float = float("inf")):
    """argparse type: an int in [low, high]."""
    def integer(text):
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{value} outside [{low}, {high}]")
        return value
    return integer


# ---------------------------------------------------------------------------
# dotted key=value configuration


def _parse_value(text: str):
    text = text.strip()
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def read_config_file(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as f:
        try:
            lines = f.read().split("\n")
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: config file is not UTF-8 ({exc.reason})") from None
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = _parse_value(value)
    return out


def effective_config(defaults: dict, args) -> dict:
    cfg = dict(defaults)
    if getattr(args, "config", None):
        cfg.update(read_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg[key.strip()] = _parse_value(value)
    unknown = set(cfg) - set(defaults)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return {key: _typed(key, value, defaults[key]) for key, value in cfg.items()}


def _typed(key: str, value, default):
    """``value`` if it has the type of ``key``'s default; an int passes as a float."""
    if isinstance(default, float) and type(value) is int:
        return float(value)
    if type(value) is not type(default):
        raise UsageError(f"{key} takes {type(default).__name__}, got {value!r}")
    return value


def out_path(args, default_name: str) -> str:
    if getattr(args, "out", None):
        return args.out
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), default_name)


def write_effective_config(path: str, cfg: dict):
    with open(path + ".config.json", "w", encoding="utf-8") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# shared defaults and model plumbing

MODEL_DEFAULTS = {
    "model.depth": 2,
    "model.hidden": 32,
    "model.heads": 4,
    "model.mlp_ratio": 4.0,
}
TRAIN_DEFAULTS = {
    "train.epochs": 3,
    "train.batch_size": 32,
    "train.masks_per_input": 16,
    "train.inputs_per_batch": 2,
    "train.seed": 0,
    "train.mask_bank": 0,
    "train.step_size": 1e-3,
    "train.scheme": "adam",
    "train.label_mode": "weighted",
}
SIDE_DEFAULTS = {
    "side.reduction": 8,
}
DATA_DEFAULTS = {
    "data.kind": "planted-patch",
    "data.d": 16,
    "data.token_dim": 8,
    "data.n_samples": 2000,
    "data.seed": 0,
    "data.num_classes": 2,
}


def _model_config(cfg: dict, dataset: SyntheticDataset) -> ModelConfig:
    return ModelConfig(
        depth=cfg["model.depth"],
        hidden=cfg["model.hidden"],
        heads=cfg["model.heads"],
        num_tokens=dataset.d,
        token_input_dim=dataset.token_dim,
        num_classes=dataset.num_classes,
        mlp_ratio=cfg["model.mlp_ratio"],
    )


def _stage_config(cfg: dict) -> StageConfig:
    return StageConfig(
        epochs=cfg["train.epochs"],
        batch_size=cfg["train.batch_size"],
        masks_per_input=cfg["train.masks_per_input"],
        inputs_per_batch=cfg["train.inputs_per_batch"],
        seed=cfg["train.seed"],
        mask_bank=cfg["train.mask_bank"],
        optimizer=OptimizerConfig(step_size=cfg["train.step_size"],
                                  scheme=cfg["train.scheme"]),
        label_mode=cfg["train.label_mode"],
    )


@contextlib.contextmanager
def _malformed(path):
    """A ContractError inside is a CheckpointError: the file cannot build its own model."""
    try:
        yield
    except ContractError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _config_block(ck, path, name, cls):
    """``cls`` built from the checkpoint's ``name`` block.

    CheckpointError unless the block holds exactly ``cls``'s fields, each of
    its field's type (an int passes as a float), with values ``cls`` accepts.
    """
    block = ck.config.get(name)
    types = typing.get_type_hints(cls)
    if not (isinstance(block, dict) and set(block) == set(types) and all(
            type(block[k]) is t or (t is float and type(block[k]) is int)
            for k, t in types.items())):
        raise CheckpointError(f"{path}: malformed {name!r} block {block!r}")
    with _malformed(path):
        return cls(**block)


def _check_size(ck, path, needed: int):
    """CheckpointError unless the state holds ``needed`` numbers.

    Checked before a model is built, so a config that claims a larger model
    than the file holds is refused before any weight is allocated.
    """
    stored = sum(a.size for a in ck.state.values())
    if stored != needed:
        raise CheckpointError(f"{path}: {stored} stored parameters, but its config needs {needed}")


def _load_classifier(path) -> MaskedTransformer:
    ck = load_checkpoint(path, expected_role="classifier")
    config = _config_block(ck, path, "model", ModelConfig)
    _check_size(ck, path, count_params(config))
    model = MaskedTransformer(config, seed=0)
    with _malformed(path):
        model.load_state(ck.state)
    return model


def _load_branch(path, classifier, role, classifier_digest) -> SideTunedModel:
    """The ``role`` branch at ``path``, built on ``classifier``.

    A checkpoint's ``backbone_digest`` names the classifier state it was
    trained on; only then is ``classifier_digest()`` called, and a mismatch
    is a ContractError. A checkpoint without the key loads unchecked. A
    branch that cannot be built from its own blocks and state is a CheckpointError.
    """
    ck = load_checkpoint(path, expected_role=role)
    if _config_block(ck, path, "model", ModelConfig) != classifier.config:
        raise ContractError(
            f"{role} {path} was trained on model {ck.config['model']}, "
            f"not on the classifier's {classifier.config.to_dict()}")
    side = _config_block(ck, path, "side", SideConfig)
    if side.role != role:
        raise CheckpointError(f"{path}: header role {role!r} but side.role {side.role!r}")
    if "backbone_digest" in ck.config:
        bound = ck.config["backbone_digest"]
        if not (isinstance(bound, str) and re.fullmatch("[0-9a-f]{64}", bound)):
            raise CheckpointError(
                f"{path}: backbone_digest {bound!r} is not 64 lowercase hex digits")
        digest = classifier_digest()
        if bound != digest:
            raise ContractError(f"{role} {path} was trained on classifier state {bound}, "
                                f"not on this classifier's {digest}")
    with _malformed(path):
        _check_size(ck, path, count_side_params(classifier.config, side))
        branch = SideTunedModel(classifier, side, seed=0)
        branch.load_side_state(ck.state)
    return branch


def _save_trained(path, role, state, record, cfg, **blocks):
    """The checkpoint (config ``blocks`` plus ``cli``) and its config, losses and record."""
    save_checkpoint(path, role, {**blocks, "cli": cfg}, state)
    write_effective_config(path, cfg)
    record.write_csv(path + ".losses.csv")
    with open(path + ".record.json", "w", encoding="utf-8") as f:
        json.dump(record.to_dict(), f, indent=2)


def _save_branch(path, branch: SideTunedModel, record, cfg):
    """The branch, bound by ``backbone_digest`` to the classifier state it was trained on."""
    _save_trained(path, branch.side_config.role, branch.side_state_dict(), record, cfg,
                  model=branch.backbone.config.to_dict(), side=branch.side_config.to_dict(),
                  backbone_digest=record.extra["backbone_digest"])


def _check_residual(residual: float):
    """ContractError unless the efficiency residual is below 1e-5 (NaN included)."""
    if not residual < 1e-5:
        raise ContractError(f"efficiency residual {residual:.3e} is not finite or exceeds 1e-5")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args):
    cfg = effective_config(DATA_DEFAULTS, args)
    params = {key: cfg[f"data.{key}"]
              for key in ("d", "token_dim", "n_samples", "num_classes")}
    if cfg["data.kind"] == "planted-patch" and params.pop("num_classes") != 2:
        raise ContractError(f"planted-patch datasets have 2 classes, "
                            f"not data.num_classes={cfg['data.num_classes']}")
    ds = generate_dataset(cfg["data.kind"], params, cfg["data.seed"])
    path = out_path(args, "dataset.npz")
    ds.save(path)
    write_effective_config(path, cfg)
    print(json.dumps({"path": path, "n": len(ds.labels), "d": ds.d,
                      "kind": ds.kind}))
    return EXIT_OK


def cmd_train_classifier(args):
    cfg = effective_config({**MODEL_DEFAULTS, **TRAIN_DEFAULTS}, args)
    ds = SyntheticDataset.load(args.data)
    model, record = train_classifier(ds, _model_config(cfg, ds), _stage_config(cfg))
    path = out_path(args, "classifier.ckpt")
    _save_trained(path, "classifier", model.state_dict(), record, cfg,
                  model=model.config.to_dict())
    print(json.dumps({"path": path, "val_accuracy": record.extra["val_accuracy"],
                      "best_epoch": record.best_epoch,
                      "final_loss": record.final_loss}))
    return EXIT_OK


def cmd_train_surrogate(args):
    cfg = effective_config({**TRAIN_DEFAULTS, **SIDE_DEFAULTS}, args)
    ds = SyntheticDataset.load(args.data)
    classifier = _load_classifier(args.classifier)
    side = SideConfig(reduction=cfg["side.reduction"], role=ROLE_SURROGATE)
    model, record = train_surrogate(classifier, ds, _stage_config(cfg), side)
    path = out_path(args, "surrogate.ckpt")
    _save_branch(path, model, record, cfg)
    print(json.dumps({"path": path, "initial_kl": record.initial_loss,
                      "final_kl": record.final_loss,
                      "kl_ratio": record.final_loss / record.initial_loss}))
    return EXIT_OK


def cmd_train_explainer(args):
    cfg = effective_config({**TRAIN_DEFAULTS, **SIDE_DEFAULTS}, args)
    ds = SyntheticDataset.load(args.data)
    classifier = _load_classifier(args.classifier)
    surrogate = _load_branch(args.surrogate, classifier, ROLE_SURROGATE,
                             lambda: state_digest(classifier.named_parameters()))
    if cfg["side.reduction"] != surrogate.side_config.reduction:
        raise ContractError(
            f"side.reduction={cfg['side.reduction']} differs from the surrogate's reduction "
            f"{surrogate.side_config.reduction}; the explainer inherits the surrogate's trunk")
    model, record = train_explainer(surrogate, ds, _stage_config(cfg))
    path = out_path(args, "explainer.ckpt")
    _save_branch(path, model, record, cfg)
    print(json.dumps({"path": path, "initial_loss": record.initial_loss,
                      "final_loss": record.final_loss}))
    return EXIT_OK


def _run_head_pipeline(args):
    """``train-froyo`` or ``train-duo``, as ``args.pipeline`` names."""
    pipeline = args.pipeline
    cfg = effective_config(TRAIN_DEFAULTS, args)
    ds = SyntheticDataset.load(args.data)
    classifier = _load_classifier(args.classifier)
    trainer = train_froyo if pipeline == "froyo" else train_duo
    model, record = trainer(classifier, ds, _stage_config(cfg))
    path = out_path(args, f"{pipeline}.ckpt")
    _save_trained(path, pipeline, model.state_dict(), record, cfg,
                  model=classifier.config.to_dict())
    summary = {"path": path, "final_loss": record.final_loss}
    if pipeline == "duo":
        trace = record.extra["gradient_conflict_trace"]
        summary["negative_cosine_steps"] = int(sum(c < 0 for c in trace))
    print(json.dumps(summary))
    return EXIT_OK


def _load_combined(args) -> tuple[CombinedModel, SyntheticDataset]:
    ds = SyntheticDataset.load(args.data)
    classifier = _load_classifier(args.classifier)
    digest = functools.cache(lambda: state_digest(classifier.named_parameters()))
    surrogate = _load_branch(args.surrogate, classifier, ROLE_SURROGATE, digest)
    explainer = _load_branch(args.explainer, classifier, ROLE_EXPLAINER, digest)
    return CombinedModel(classifier, surrogate, explainer), ds


def cmd_explain(args):
    combined, ds = _load_combined(args)
    if not 0 <= args.index < len(ds.tokens):
        raise UsageError(f"--index {args.index} outside [0, {len(ds.tokens)})")
    tokens = ds.tokens[args.index][None]
    logits, phi, residual = combined.explain(tokens)
    _check_residual(residual)
    result = {
        "index": args.index,
        "logits": logits[0].tolist(),
        "predicted_class": int(np.argmax(logits[0])),
        "attribution": phi[0].tolist(),  # (d, num_classes)
        "efficiency_residual": residual,
    }
    path = out_path(args, f"explanation_{args.index}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
    print(json.dumps({"path": path, "efficiency_residual": residual}))
    return EXIT_OK


def cmd_evaluate(args):
    combined, ds = _load_combined(args)
    x_test, _ = ds.split("test")
    xs = x_test[np.random.default_rng(args.seed).permutation(len(x_test))[:args.samples]]
    logits, phi, residual = combined.explain(xs)  # the residual is the batch's largest
    curves = [insertion_deletion(
        lambda masks: combined.surrogate.surrogate_forward(x[None], masks)[:, c], a[:, c])
        for x, a, c in zip(xs, phi, np.argmax(logits, axis=1))]
    _check_residual(residual)
    result = {"samples": len(xs),
              "insertion_auc": float(np.mean([curve.insertion_auc for curve in curves])),
              "deletion_auc": float(np.mean([curve.deletion_auc for curve in curves])),
              "efficiency_residual": residual}
    if not (np.isfinite(result["insertion_auc"]) and np.isfinite(result["deletion_auc"])):
        raise ContractError(f"non-finite AUC: {json.dumps(result)}")
    path = out_path(args, "evaluation.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
    print(json.dumps(result))
    return EXIT_OK


def _print_report(args, fields):
    report = efficiency_report(PRESETS[args.preset], reduction=args.reduction)
    print(json.dumps({"preset": args.preset, **{k: getattr(report, k) for k in fields}},
                     indent=2))
    return EXIT_OK


def cmd_count_params(args):
    return _print_report(args, ("classifier_params", "surrogate_params",
                                "explainer_params", "trainable_reduction"))


def cmd_count_flops(args):
    return _print_report(args, ("classifier_flops", "combined_flops", "separate_flops",
                                "flops_reduction", "memory_bytes"))


def cmd_check_bounds(args):
    result = geometric_decay_experiment(seed=args.seed)
    print(json.dumps({"alpha": result["alpha"], "mu": result["mu"],
                      "initial_gap": float(result["gaps"][0]),
                      "final_gap": float(result["gaps"][-1]),
                      "holds": result["holds"]}))
    return EXIT_OK if result["holds"] else EXIT_CHECK_FAILED


def cmd_check_lemma(args):
    worst = 0.0
    for d in range(2, args.d_max + 1):
        m = second_moment_matrix(d)
        worst = max(worst,
                    abs(m.lambda_min_eigensolve - m.lambda_min_closed_form),
                    abs(m.lambda_min_closed_form - m.lambda_min_harmonic))
    print(json.dumps({"d_max": args.d_max, "max_abs_error": worst,
                      "holds": worst < 1e-12}))
    return EXIT_OK if worst < 1e-12 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="sideshap",
                     description="self-interpreting masked transformer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a single config key")
        if data:
            p.add_argument("--data", required=True, help="dataset .npz path")
        p.add_argument("--out", help=f"output path (default under ${OUTDIR_ENV})")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train-classifier", help="stage 1: train the classifier")
    common(p, data=True)
    p.set_defaults(fn=cmd_train_classifier)

    p = sub.add_parser("train-surrogate", help="stage 2: side-tune the surrogate")
    common(p, data=True)
    p.add_argument("--classifier", required=True)
    p.set_defaults(fn=cmd_train_surrogate)

    p = sub.add_parser("train-explainer", help="stage 3: side-tune the explainer")
    common(p, data=True)
    p.add_argument("--classifier", required=True)
    p.add_argument("--surrogate", required=True)
    p.set_defaults(fn=cmd_train_explainer)

    for pipeline, text in (("froyo", "train only an added explanation head"),
                           ("duo", "jointly train prediction and explanation")):
        p = sub.add_parser(f"train-{pipeline}", help=text)
        common(p, data=True)
        p.add_argument("--classifier", required=True)
        p.set_defaults(fn=_run_head_pipeline, pipeline=pipeline)

    p = sub.add_parser("explain", help="emit attribution for one sample")
    common(p, data=True)
    p.add_argument("--classifier", required=True)
    p.add_argument("--surrogate", required=True)
    p.add_argument("--explainer", required=True)
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("evaluate", help="insertion/deletion faithfulness AUCs")
    common(p, data=True)
    p.add_argument("--classifier", required=True)
    p.add_argument("--surrogate", required=True)
    p.add_argument("--explainer", required=True)
    p.add_argument("--samples", type=_int_in(1), default=20)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("count-params", help="analytic parameter accounting")
    p.add_argument("--preset", choices=sorted(PRESETS), default="vit-base")
    p.add_argument("--reduction", type=int, default=8)
    p.set_defaults(fn=cmd_count_params)

    p = sub.add_parser("count-flops", help="analytic FLOPs accounting")
    p.add_argument("--preset", choices=sorted(PRESETS), default="vit-base")
    p.add_argument("--reduction", type=int, default=8)
    p.set_defaults(fn=cmd_count_flops)

    p = sub.add_parser("check-bounds", help="geometric loss-decay bound check")
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.set_defaults(fn=cmd_check_bounds)

    p = sub.add_parser("check-lemma", help="kernel second-moment eigenvalue check")
    p.add_argument("--d-max", type=_int_in(2, 16), default=16)
    p.set_defaults(fn=cmd_check_lemma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except FloatingPointError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
