"""The benchmark's three workloads, each driven through sideshap's public API.

Every workload has the same parts, which ``run.py`` times:

* ``setup()`` makes the workload's inputs from the seed and writes the files
  it reads. It is repeated and its median reported as ``setup_s``.
* ``cold_start()`` runs one in-process ``sideshap explain`` through
  ``cli.main`` on the workload's own checkpoints, as a user's first call
  would: dataset and three checkpoints read from disk, models built, one
  sample explained.
* ``op(i)`` is one closed-loop operation; its inputs depend only on the seed
  and ``i``.

``cold_start`` and ``op`` return a ``verify`` callable. The runner calls it
after the timed part, and it raises :class:`CheckFailed` when an output is
wrong, so checking costs no measured time.

Every call into sideshap goes through a module attribute (``cli.main``,
``shapley.exact_shapley``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

import sideshap
from sideshap import checkpoint, cli, data, evaluation, shapley, sidenet, training, transformer


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(ok, message: str):
    if not ok:
        raise CheckFailed(message)


def run_cli(argv):
    """``sideshap <argv>`` in this process, its printed summary discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    check(code == 0, f"sideshap {argv[0]} exited with {code}")


def file_sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def load_models(paths: dict):
    """Classifier, surrogate and explainer rebuilt from CLI checkpoints."""
    ck = checkpoint.load_checkpoint(paths["classifier"], expected_role="classifier")
    clf = transformer.MaskedTransformer(transformer.ModelConfig(**ck.config["model"]))
    clf.load_state(ck.state)
    branches = []
    for role in (sidenet.ROLE_SURROGATE, sidenet.ROLE_EXPLAINER):
        ck = checkpoint.load_checkpoint(paths[role], expected_role=role)
        branch = sidenet.SideTunedModel(clf, sidenet.SideConfig(**ck.config["side"]))
        branch.load_side_state(ck.state)
        branches.append(branch)
    return clf, branches[0], branches[1]


class Workload:
    name = ""
    items_per_op = 1.0  # nominal work items one op completes
    item = ""
    setup_repeats = 3
    cold_repeats = 1
    cold_after_ops = False  # cold start needs files the first op writes
    warmup = True
    trace_ops = 3
    # span names that must record calls in a traced run, and ones that must not
    must_fire: tuple = ()
    must_be_zero: tuple = ()
    params: dict = {}

    def __init__(self, workdir: str, seed: int, **overrides):
        self.workdir = workdir
        self.seed = seed
        self.p = {**self.params, **overrides}
        os.makedirs(workdir, exist_ok=True)
        self.paths = {k: os.path.join(workdir, f) for k, f in (
            ("data", "dataset.npz"), ("classifier", "classifier.ckpt"),
            ("surrogate", "surrogate.ckpt"), ("explainer", "explainer.ckpt"),
            ("explanation", "explanation.json"), ("evaluation", "evaluation.json"))}

    def rng(self, *stream) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def finish(self, outdir: str) -> list:
        """Checks that span the whole run; returns failure messages."""
        return []

    def info(self) -> dict:
        return {}

    # -- shared parts ---------------------------------------------------
    def _write_random_models(self, model_cfg, reduction):
        """Seeded random classifier and branches, saved in the CLI's layout."""
        clf = transformer.MaskedTransformer(model_cfg, seed=self.seed)
        cli_cfg = {f"model.{k}": v for k, v in model_cfg.to_dict().items()}
        checkpoint.save_checkpoint(self.paths["classifier"], "classifier",
                                   {"model": model_cfg.to_dict(), "cli": cli_cfg},
                                   clf.state_dict())
        branches = []
        for offset, role in enumerate((sidenet.ROLE_SURROGATE, sidenet.ROLE_EXPLAINER), 1):
            side = sidenet.SideConfig(reduction=reduction, role=role)
            branch = sidenet.SideTunedModel(clf, side, seed=self.seed + offset)
            checkpoint.save_checkpoint(
                self.paths[role], role,
                {"model": model_cfg.to_dict(), "side": side.to_dict(),
                 "cli": {**cli_cfg, "side.reduction": reduction}},
                branch.side_state_dict())
            branches.append(branch)
        return clf, branches[0], branches[1]

    def _write_dataset(self, d, token_dim, n):
        ds = data.generate_dataset("planted-patch", {
            "d": d, "token_dim": token_dim, "n_samples": n}, self.seed)
        ds.save(self.paths["data"])
        return ds

    def cold_start(self):
        paths = dict(self.paths)
        index = int(self.rng(0xC01D).integers(self.p["n_samples"]))
        run_cli(["explain", "--data", paths["data"],
                 "--classifier", paths["classifier"],
                 "--surrogate", paths["surrogate"],
                 "--explainer", paths["explainer"],
                 "--index", index, "--out", paths["explanation"]])
        return lambda: self._check_explanation(paths, index)

    def reference(self, paths):
        """The classifier and tokens an explanation is checked against."""
        return self.clf, self.tokens

    def _check_explanation(self, paths, index):
        with open(paths["explanation"], encoding="utf-8") as f:
            out = json.load(f)
        check(out["index"] == index, "explanation is for another sample")
        residual = out["efficiency_residual"]
        check(math.isfinite(residual) and residual < 1e-5,
              f"explain residual {residual}")
        check(np.all(np.isfinite(out["attribution"])), "non-finite attribution")
        clf, tokens = self.reference(paths)
        ref = clf.forward(tokens[index][None]).numpy()[0].astype(np.float64).tolist()
        check(out["logits"] == ref, "explain logits differ from classifier forward")


class ExplainVit(Workload):
    """CombinedModel.explain at the paper's shape: vit-tiny, reduction 8."""

    name = "explain-vit"
    item = "explained samples"
    setup_repeats = 2
    cold_repeats = 3
    params = {"model": None, "reduction": 8, "n_samples": 32, "batch": 4}
    must_fire = (
        "autodiff.gelu", "autodiff.matmul", "autodiff.softmax",
        "autodiff.layer_norm", "transformer.MaskedTransformer.block_states",
        "sidenet.SideTunedModel.surrogate_logits",
        "sidenet.SideTunedModel.explainer_raw", "sidenet.CombinedModel.explain",
        "shapley.efficiency_normalize_grid", "checkpoint.load_checkpoint",
        "checkpoint.save_checkpoint", "checkpoint.fnv1a_64",
        "data.generate_dataset", "data.SyntheticDataset.save",
        "data.SyntheticDataset.load", "cli.main")
    must_be_zero = (
        "autodiff.Tensor.backward", "autodiff.Optimizer.step",
        "training.train_classifier", "training.train_surrogate",
        "training.train_explainer", "shapley.exact_shapley",
        "shapley.kernelshap", "shapley.Game.evaluate", "shapley.sample_subsets",
        "evaluation.insertion_deletion")

    def __init__(self, workdir, seed, **overrides):
        super().__init__(workdir, seed, **overrides)
        self.items_per_op = float(self.p["batch"])

    def setup(self):
        # random weights: timing does not depend on their values
        mc = transformer.ModelConfig(
            **(self.p["model"] or transformer.PRESETS["vit-tiny"].to_dict()))
        self.clf, sur, exp = self._write_random_models(mc, self.p["reduction"])
        self.combined = sidenet.CombinedModel(self.clf, sur, exp)
        self.tokens = self._write_dataset(mc.num_tokens, mc.token_input_dim,
                                          self.p["n_samples"]).tokens

    def op(self, i):
        idx = self.rng(i).choice(self.p["n_samples"], self.p["batch"], replace=False)
        x = self.tokens[idx]
        logits, phi, residual = self.combined.explain(x)

        def verify():
            check(np.array_equal(logits, self.clf.forward(x).numpy()),
                  "explain logits are not bit-equal to MaskedTransformer.forward")
            check(np.all(np.isfinite(phi)), "non-finite attribution")
            check(math.isfinite(residual) and residual < 1e-5,
                  f"efficiency residual {residual}")
        return verify

    def probe_models(self):
        return self.clf, [self.combined.surrogate, self.combined.explainer], self.tokens[:1]


# Paired KernelSHAP with 2,048 samples at d=12 is a Monte Carlo estimate.
# Over 120 seeded random-weight inputs its largest per-coordinate error
# against exact Shapley values was 0.031 (median 0.011) on class
# probabilities; 0.08 leaves 2.5x headroom and still fails an estimator that
# is off by the size of the values themselves (up to about 0.3).
KERNELSHAP_TOL = 0.08


class OracleD12(Workload):
    """Exact Shapley, KernelSHAP and insertion/deletion on one input at d=12."""

    name = "oracle-d12"
    item = "nominal value-function evaluations"
    setup_repeats = 9
    cold_repeats = 9
    params = {"d": 12, "token_dim": 6, "hidden": 32, "depth": 2, "heads": 4,
              "reduction": 1, "n_samples": 600, "kernel_samples": 2048,
              "chunk": 512}
    must_fire = (
        "autodiff.gelu", "autodiff.matmul", "autodiff.softmax",
        "autodiff.layer_norm", "transformer.MaskedTransformer.block_states",
        "sidenet.SideTunedModel.surrogate_logits", "shapley.exact_shapley",
        "shapley.kernelshap", "shapley.Game.evaluate", "shapley.sample_subsets",
        "evaluation.insertion_deletion", "sidenet.CombinedModel.explain",
        "checkpoint.load_checkpoint", "data.SyntheticDataset.load", "cli.main")
    must_be_zero = (
        "autodiff.Tensor.backward", "autodiff.Optimizer.step",
        "training.train_classifier", "training.train_surrogate",
        "training.train_explainer")

    def __init__(self, workdir, seed, **overrides):
        super().__init__(workdir, seed, **overrides)
        d = self.p["d"]
        # fixed by the workload, not counted from the program: all 2^d
        # coalitions, the KernelSHAP draws, and d+1 insertion plus d+1
        # deletion points
        self.items_per_op = float(2 ** d + self.p["kernel_samples"] + 2 * (d + 1))

    def setup(self):
        p = self.p
        mc = transformer.ModelConfig(depth=p["depth"], hidden=p["hidden"],
                                     heads=p["heads"], num_tokens=p["d"],
                                     token_input_dim=p["token_dim"], num_classes=2)
        self.clf, self.sur, self.exp = self._write_random_models(mc, p["reduction"])
        self.tokens = self._write_dataset(p["d"], p["token_dim"], p["n_samples"]).tokens

    def _value_fn(self, x):
        chunk = self.p["chunk"]

        def value(masks):
            out = []
            for start in range(0, len(masks), chunk):
                m = masks[start:start + chunk]
                rep = np.repeat(x[None], len(m), axis=0)
                out.append(self.sur.surrogate_forward(rep, m))
            return np.concatenate(out, axis=0)
        return value

    def op(self, i):
        d = self.p["d"]
        x = self.tokens[int(self.rng(i).integers(self.p["n_samples"]))]
        value = self._value_fn(x)
        game = shapley.Game(d, value)
        phi = shapley.exact_shapley(game)
        phi_ks, _ = shapley.kernelshap(shapley.Game(d, value), self.p["kernel_samples"],
                                       seed=[self.seed, i, 0x5A], paired=True)
        v1, v0 = game.grand_value(), game.null_value()
        c = int(np.argmax(v1))
        curve = evaluation.insertion_deletion(lambda m: value(m)[:, c], phi[:, c])

        def verify():
            gap = np.abs(phi.sum(axis=0) - (v1 - v0)).max()
            check(gap <= 1e-9, f"exact phi misses efficiency by {gap:.3e}")
            full = self.sur.surrogate_forward(x[None], np.ones((1, d)))
            check(np.array_equal(full, self.sur.surrogate_forward(x[None], None)),
                  "full-mask surrogate output is not bit-equal to unmasked")
            err = np.abs(phi_ks - phi).max()
            check(err <= KERNELSHAP_TOL, f"KernelSHAP error {err:.3e} > {KERNELSHAP_TOL}")
            for vals in (curve.insertion_values, curve.deletion_values):
                check(np.all(np.isfinite(vals)) and vals.min() >= 0 and vals.max() <= 1,
                      "insertion/deletion value outside [0, 1]")
            ends = [curve.insertion_values[0] - v0[c], curve.insertion_values[-1] - v1[c],
                    curve.deletion_values[0] - v1[c], curve.deletion_values[-1] - v0[c]]
            check(np.abs(ends).max() <= 1e-6, "curve end points differ from v(0)/v(1)")
        return verify

    def probe_models(self):
        return self.clf, [self.sur, self.exp], self.tokens[:1]


class PipelineD16(Workload):
    """The CLI pipeline a user runs, in process: train three stages, explain, evaluate."""

    name = "pipeline-d16"
    item = "pipeline passes"
    setup_repeats = 9
    cold_repeats = 9
    cold_after_ops = True
    warmup = False
    trace_ops = 1
    params = {"d": 16, "token_dim": 8, "n_samples": 2000,
              "epochs": {"classifier": 2, "surrogate": 1, "explainer": 1},
              "inputs_per_batch": 8, "reduction": 2, "masks_per_input": 16,
              "mask_bank": 32, "step_size": 3e-3, "eval_samples": 20}
    must_fire = (
        "autodiff.gelu", "autodiff.matmul", "autodiff.softmax",
        "autodiff.layer_norm", "autodiff.Tensor.backward", "autodiff.Optimizer.step",
        "transformer.MaskedTransformer.block_states",
        "sidenet.SideTunedModel.surrogate_logits",
        "sidenet.SideTunedModel.explainer_raw", "sidenet.CombinedModel.explain",
        "shapley.sample_subsets", "shapley.efficiency_normalize_grid",
        "training.train_classifier", "training.train_surrogate",
        "training.train_explainer", "evaluation.insertion_deletion",
        "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
        "data.generate_dataset", "data.SyntheticDataset.save",
        "data.SyntheticDataset.load", "cli.main")
    must_be_zero = ("shapley.exact_shapley", "shapley.kernelshap",
                    "shapley.Game.evaluate")
    STAGES = ("train-classifier", "train-surrogate", "train-explainer",
              "explain", "evaluate")

    def __init__(self, workdir, seed, **overrides):
        super().__init__(workdir, seed, **overrides)
        self.stage_times = {s: [] for s in self.STAGES}
        self.passes = 0
        self.digests: list = []
        self.losses: dict = {}

    def setup(self):
        # the pipeline's input: a user's gen-data call, seeded by --seed
        p = self.p
        run_cli(["gen-data", "--out", self.paths["data"],
                 "--set", "data.kind=planted-patch", "--set", f"data.d={p['d']}",
                 "--set", f"data.token_dim={p['token_dim']}",
                 "--set", f"data.n_samples={p['n_samples']}",
                 "--set", f"data.seed={self.seed}"])

    def _argv(self, stage, paths):
        p = self.p
        train = ["--data", paths["data"], "--set", f"train.seed={self.seed}",
                 "--set", f"train.step_size={p['step_size']}",
                 "--set", f"train.inputs_per_batch={p['inputs_per_batch']}",
                 "--set", f"train.masks_per_input={p['masks_per_input']}"]
        side = ["--set", f"side.reduction={p['reduction']}"]
        if stage == "train-classifier":
            return [stage, *train, "--set", f"train.epochs={p['epochs']['classifier']}",
                    "--out", paths["classifier"]]
        if stage == "train-surrogate":
            return [stage, *train, *side, "--set", f"train.epochs={p['epochs']['surrogate']}",
                    "--classifier", paths["classifier"], "--out", paths["surrogate"]]
        if stage == "train-explainer":
            return [stage, *train, *side, "--set", f"train.epochs={p['epochs']['explainer']}",
                    "--set", f"train.mask_bank={p['mask_bank']}",
                    "--classifier", paths["classifier"], "--surrogate", paths["surrogate"],
                    "--out", paths["explainer"]]
        return [stage, "--data", paths["data"], "--classifier", paths["classifier"],
                "--surrogate", paths["surrogate"], "--explainer", paths["explainer"],
                "--samples", p["eval_samples"], "--seed", self.seed,
                "--out", paths["evaluation"]]

    def op(self, i):
        # each pass writes its own files, so its deferred checks read them
        self.passes += 1
        passdir = os.path.join(self.workdir, f"pass-{self.passes}")
        os.makedirs(passdir, exist_ok=True)
        self.paths = {k: v if k == "data" else os.path.join(passdir, os.path.basename(v))
                      for k, v in self.paths.items()}
        paths = dict(self.paths)
        clf_sha = []
        for stage in self.STAGES:
            t0 = time.perf_counter()
            if stage == "explain":
                verify_explain = self.cold_start()
            else:
                run_cli(self._argv(stage, paths))
            self.stage_times[stage].append(time.perf_counter() - t0)
            if stage in ("train-classifier", "train-explainer"):
                clf_sha.append(file_sha256(paths["classifier"]))

        def verify():
            check(clf_sha[0] == clf_sha[1], "classifier checkpoint changed during side training")
            records = {}
            for role in ("classifier", "surrogate", "explainer"):
                with open(paths[role] + ".record.json", encoding="utf-8") as f:
                    rec = records[role] = json.load(f)
                losses = rec["step_losses"] + rec["val_losses"] + [
                    rec["initial_loss"], rec["final_loss"]]
                check(np.all(np.isfinite(losses)), f"non-finite {role} loss")
            self.losses = {"surrogate_val_kl": records["surrogate"]["final_loss"],
                           "explainer_val_loss": records["explainer"]["final_loss"]}
            digests = {role: training.state_digest(checkpoint.load_checkpoint(paths[role]).state)
                       for role in records}
            check(records["surrogate"]["extra"]["backbone_digest"] == digests["classifier"],
                  "surrogate stage trained against another classifier state")
            verify_explain()
            with open(paths["evaluation"], encoding="utf-8") as f:
                evaluated = json.load(f)
            check(evaluated["samples"] == self.p["eval_samples"], "evaluate sample count")
            for key in ("insertion_auc", "deletion_auc"):
                check(0.0 <= evaluated[key] <= 1.0, f"{key} {evaluated[key]} outside [0, 1]")
            if self.digests:
                check(digests == self.digests[0],
                      "trained-state digests differ between passes of one seed")
            self.digests.append(digests)
        return verify

    def reference(self, paths):
        clf, _, _ = load_models(paths)
        return clf, data.SyntheticDataset.load(paths["data"]).tokens

    def finish(self, outdir):
        """Compare trained-state digests with earlier runs of this seed and code."""
        if not self.digests:
            return []
        src = os.path.dirname(sideshap.__file__)
        h = hashlib.sha256(np.__version__.encode())
        for fname in sorted(os.listdir(src)):
            if fname.endswith(".py"):
                h.update(fname.encode())
                with open(os.path.join(src, fname), "rb") as f:
                    h.update(f.read())
        h.update(json.dumps(self.p, sort_keys=True).encode())
        key = (f"{h.hexdigest()[:16]} seed={self.seed} "
               f"threads={os.environ.get('OPENBLAS_NUM_THREADS')}")
        path = os.path.join(outdir, "pipeline-d16-digests.json")
        store = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                store = json.load(f)
        if key in store:
            if store[key] != self.digests[0]:
                return ["trained-state digests differ from an earlier run of this seed"]
            return []
        store[key] = self.digests[0]
        os.makedirs(outdir, exist_ok=True)
        with open(path + ".tmp", "w", encoding="utf-8") as f:
            json.dump(store, f, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)
        return []

    def info(self):
        out = {f"{s.replace('-', '_')}_s": float(np.median(t))
               for s, t in self.stage_times.items() if t}
        out.update(self.losses)
        return out

    def probe_models(self):
        clf, sur, exp = load_models(self.paths)
        return clf, [sur, exp], data.SyntheticDataset.load(self.paths["data"]).tokens[:1]


WORKLOADS = {w.name: w for w in (ExplainVit, OracleD12, PipelineD16)}
