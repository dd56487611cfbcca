"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``; the [PASS]/[FAIL] lines are
emitted outside pytest's capture so they always appear.
"""

import copy

import numpy as np
import pytest
from scipy.special import softmax as sp_softmax

import sideshap.autodiff as ad
from sideshap.autodiff import OptimizerConfig
from sideshap.data import generate_dataset
from sideshap.evaluation import (
    attribution_error_bound,
    cka,
    efficiency_report,
    insertion_deletion,
    ranking_order,
)
from sideshap.shapley import (
    Game,
    all_subsets,
    exact_shapley,
    kernelshap,
    sample_subsets,
    second_moment_matrix,
    shapley_kernel,
)
from sideshap.sidenet import (
    ROLE_SURROGATE,
    CombinedModel,
    SideConfig,
    make_explainer_from_surrogate,
)
from sideshap.training import (
    StageConfig,
    kl_divergence,
    state_digest,
    surrogate_mask_values,
    geometric_decay_experiment,
    train_classifier,
    train_duo,
    train_explainer,
    train_froyo,
    train_surrogate,
)
from sideshap.transformer import PRESETS, ModelConfig, count_params

from conftest import backward_gradient, fd_gradient, relative_error
from test_autodiff import _random_graph


@pytest.fixture
def report(capsys):
    def _report(name, ok, detail=""):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"
    return _report


# ---------------------------------------------------------------------------
# shared trained artifacts


def _adam(step):
    return OptimizerConfig(step_size=step)


@pytest.fixture(scope="module")
def planted16():
    """Classifier + surrogate on planted-patch d=16 (criteria 6-8)."""
    ds = generate_dataset("planted-patch",
                          {"d": 16, "token_dim": 8, "n_samples": 2000},
                          seed=0)
    mc = ModelConfig(depth=2, hidden=32, heads=4, num_tokens=16,
                     token_input_dim=8, num_classes=2)
    clf, crec = train_classifier(ds, mc, StageConfig(
        epochs=6, batch_size=32, seed=0,
        optimizer=_adam(3e-3)))
    backbone_bytes = {k: v.tobytes() for k, v in clf.state_dict().items()}
    sur, srec = train_surrogate(clf, ds, StageConfig(
        epochs=8, masks_per_input=16, inputs_per_batch=8,
        seed=1, optimizer=_adam(3e-3)),
        SideConfig(reduction=2, role=ROLE_SURROGATE))
    return {"ds": ds, "clf": clf, "sur": sur, "crec": crec, "srec": srec,
            "backbone_bytes": backbone_bytes}


@pytest.fixture(scope="module")
def planted12():
    """Full pipeline incl. explainer on planted-patch d=12 (criteria 12-13, 16)."""
    ds = generate_dataset("planted-patch",
                          {"d": 12, "token_dim": 6, "n_samples": 600},
                          seed=3)
    mc = ModelConfig(depth=2, hidden=32, heads=4, num_tokens=12,
                     token_input_dim=6, num_classes=2)
    clf, _ = train_classifier(ds, mc, StageConfig(
        epochs=6, batch_size=32, seed=0,
        optimizer=_adam(3e-3)))
    sur, _ = train_surrogate(clf, ds, StageConfig(
        epochs=8, masks_per_input=16, inputs_per_batch=8,
        seed=1, optimizer=_adam(3e-3)),
        SideConfig(reduction=1, role=ROLE_SURROGATE))
    exp, _ = train_explainer(sur, ds, StageConfig(
        epochs=40, masks_per_input=16, inputs_per_batch=56,
        seed=2, step_decay=0.99, optimizer=_adam(3e-3)))
    return {"ds": ds, "clf": clf, "sur": sur, "exp": exp,
            "combined": CombinedModel(clf, sur, exp)}


@pytest.fixture(scope="module")
def linear12():
    """Full pipeline on linear-logit d=12 (criteria 9-11)."""
    ds = generate_dataset("linear-logit",
                          {"d": 12, "token_dim": 4, "n_samples": 2000},
                          seed=1)
    mc = ModelConfig(depth=2, hidden=32, heads=4, num_tokens=12,
                     token_input_dim=4, num_classes=2)
    clf, _ = train_classifier(ds, mc, StageConfig(
        epochs=6, batch_size=32, seed=0,
        optimizer=_adam(3e-3)))
    sur, _ = train_surrogate(clf, ds, StageConfig(
        epochs=8, masks_per_input=16, inputs_per_batch=8,
        seed=1, optimizer=_adam(3e-3)),
        SideConfig(reduction=1, role=ROLE_SURROGATE))
    exp, _ = train_explainer(sur, ds, StageConfig(
        epochs=150, masks_per_input=24, inputs_per_batch=64,
        seed=2, step_decay=0.993, mask_bank=256, optimizer=_adam(3e-3)))
    x_test, _ = ds.split("test")
    x_held = x_test[:50]
    combined = CombinedModel(clf, sur, exp)
    _, phi, residual = combined.explain(x_held)
    # exact Shapley of the surrogate game, every class, per held-out sample
    subsets = all_subsets(12)
    weights = 1 << np.arange(12)
    exact = np.empty_like(phi)
    tables = []
    for i in range(50):
        vals = surrogate_mask_values(sur, x_held[i], subsets)  # (4096, C)
        tables.append(vals)
        for c in range(vals.shape[1]):
            game = Game(12, lambda ms, v=vals[:, c]: v[
                np.asarray(ms).astype(np.int64) @ weights])
            exact[i, :, c] = exact_shapley(game)
    return {"ds": ds, "clf": clf, "sur": sur, "exp": exp,
            "combined": combined, "x_held": x_held, "phi": phi,
            "exact": exact, "tables": np.array(tables), "residual": residual}


# ---------------------------------------------------------------------------
# 1. Shapley oracle axioms


def test_01_oracle_axioms(report):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 9))
        table = rng.standard_normal(2 ** d)
        other = rng.standard_normal(2 ** d)
        weights = 1 << np.arange(d)

        def game_of(t, dim=d):
            return Game(dim, lambda ms, _t=t: _t[
                np.asarray(ms).astype(np.int64) @ (1 << np.arange(dim))])

        phi = exact_shapley(game_of(table))
        # efficiency
        worst = max(worst, abs(phi.sum() - (table[-1] - table[0])))
        # linearity
        a, b = rng.standard_normal(2)
        phi_mix = exact_shapley(game_of(a * table + b * other))
        worst = max(worst, np.abs(
            phi_mix - (a * phi + b * exact_shapley(game_of(other)))).max())
        # dummy: append a player contributing the constant c
        c = float(rng.standard_normal())
        big = np.empty(2 ** (d + 1))
        big[:2 ** d] = table
        big[2 ** d:] = table + c
        phi_big = exact_shapley(game_of(big, d + 1))
        worst = max(worst, abs(phi_big[-1] - c), np.abs(phi_big[:-1] - phi).max())
        # symmetry: symmetrize players 0 and 1 by averaging over the swap
        idx = np.arange(2 ** d)
        swapped = (idx & ~np.int64(3)) | ((idx & 1) << 1) | ((idx >> 1) & 1)
        phi_sym = exact_shapley(game_of(table + table[swapped]))
        worst = max(worst, abs(phi_sym[0] - phi_sym[1]))
    report("oracle-axioms", worst < 1e-9,
           f"50 games d<=8, worst axiom residual {worst:.2e} < 1e-9")


# 2. kernel second-moment eigenvalue identity


def test_02_lemma_eigenvalue_identity(report):
    worst_eig, worst_closed = 0.0, 0.0
    for d in range(2, 17):
        m = second_moment_matrix(d)
        worst_eig = max(worst_eig,
                        abs(m.lambda_min_eigensolve - m.lambda_min_closed_form))
        worst_closed = max(worst_closed,
                           abs(m.lambda_min_closed_form - m.lambda_min_harmonic))
    ok = worst_eig < 1e-9 and worst_closed < 1e-12
    report("lemma-eigenvalue", ok,
           f"d=2..16 eigensolve gap {worst_eig:.2e} < 1e-9, "
           f"closed-form gap {worst_closed:.2e} < 1e-12")


# 3. kernel sampler fidelity


def test_03_kernel_sampler_fidelity(report):
    d, n = 3, 60000
    dist = shapley_kernel(d)
    draws = sample_subsets(dist, n, True, 0)
    codes = draws.astype(np.int64) @ (1 << np.arange(d))
    freqs = np.bincount(codes, minlength=8)[1:-1] / n  # non-trivial subsets
    sigma = np.sqrt((1 / 6) * (5 / 6) / n)
    worst = np.abs(freqs - 1 / 6).max()
    complements_ok = bool(np.all(draws[0::2] + draws[1::2] == 1))
    ok = worst < 3 * sigma and complements_ok
    report("kernel-sampler", ok,
           f"max |freq-1/6| {worst:.4f} < 3sigma {3 * sigma:.4f}, "
           f"paired complements exact: {complements_ok}")


# 4. KernelSHAP convergence


def test_04_kernelshap_convergence(report):
    d = 3
    majority = Game(d, lambda ms: (np.asarray(ms).sum(axis=-1) >= 2).astype(float))
    errs = []
    for seed in range(10):
        phi, _ = kernelshap(majority, 10000, seed, paired=True)
        errs.append(np.abs(phi - 1 / 3).max())
    median_err = float(np.median(errs))

    w = np.random.default_rng(42).standard_normal(6)
    linear = Game(6, lambda ms: np.asarray(ms, dtype=float) @ w + 0.3)
    for seed in range(20):  # first seed whose n = d+2 design is full rank
        phi_lin, diag = kernelshap(linear, 8, seed=seed)
        if diag["full_rank"]:
            break
    lin_err = np.abs(phi_lin - w).max()
    ok = median_err < 0.02 and lin_err < 1e-6
    report("kernelshap-convergence", ok,
           f"majority d=3 median max-err {median_err:.4f} < 0.02 (10 seeds @10k), "
           f"linear d=6 n=d+2 err {lin_err:.2e} < 1e-6")


# 5. gradient correctness


def test_05_gradient_correctness(report):
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        build, values = _random_graph(rng, trial % 9)
        analytic = backward_gradient(build, values)
        numeric = fd_gradient(build, values)
        for g_a, g_n in zip(analytic, numeric):
            worst = max(worst, relative_error(g_a, g_n))
    report("gradient-correctness", worst < 1e-3,
           f"100 random graphs, worst relative error {worst:.2e} < 1e-3")


# 6. mask-removal semantics


def test_06_mask_removal_semantics(report, planted16):
    clf, ds = planted16["clf"], planted16["ds"]
    rng = np.random.default_rng(5)
    x_test, _ = ds.split("test")
    worst = 0.0
    for _ in range(100):
        x = x_test[rng.integers(len(x_test))][None].copy()
        mask = (rng.random(16) < rng.random()).astype(np.float32)[None]
        base = clf.forward(x, mask).numpy()
        x2 = x.copy()
        x2[0, mask[0] == 0] = rng.standard_normal(
            x2[0, mask[0] == 0].shape).astype(np.float32) * 10
        worst = max(worst, np.abs(clf.forward(x2, mask).numpy() - base).max())
    report("mask-removal", worst < 1e-6,
           f"100 (x,s) pairs, max logit change {worst:.2e} < 1e-6")


# 7. frozen backbone and bit-equal main output


def test_07_frozen_backbone(report, planted16):
    clf, sur, ds = planted16["clf"], planted16["sur"], planted16["ds"]
    after = {k: v.tobytes() for k, v in clf.state_dict().items()}
    frozen_ok = after == planted16["backbone_bytes"]
    explainer = make_explainer_from_surrogate(sur, seed=0)
    combined = CombinedModel(clf, sur, explainer)
    x_test, _ = ds.split("test")
    main_logits, _ = combined.forward(x_test)
    solo_logits = clf.forward(x_test).numpy()
    bitequal = main_logits.tobytes() == solo_logits.tobytes()
    report("frozen-backbone", frozen_ok and bitequal,
           f"backbone bytes identical after side training: {frozen_ok}, "
           f"combined y_main bit-equal on {len(x_test)} test inputs: {bitequal}")


# 8. surrogate quality


def test_08_surrogate_quality(report, planted16):
    srec = planted16["srec"]
    ratio = srec.final_loss / srec.initial_loss
    clf, sur, ds = planted16["clf"], planted16["sur"], planted16["ds"]
    x_test, y_test = ds.split("test")
    ones = np.ones((len(x_test), 16), dtype=np.float32)
    acc_clf = (np.argmax(clf.forward(x_test).numpy(), axis=1) == y_test).mean()
    acc_sur = (np.argmax(sur.surrogate_forward(x_test, ones), axis=1)
               == y_test).mean()
    ok = ratio < 0.25 and abs(acc_clf - acc_sur) <= 0.02
    report("surrogate-quality", ok,
           f"final/initial KL {ratio:.3f} < 0.25, unmasked accuracy "
           f"classifier {acc_clf:.3f} vs surrogate {acc_sur:.3f} (gap <= 0.02)")


# 9. explainer quality vs oracle


def test_09_explainer_vs_oracle(report, linear12):
    errs = np.abs(linear12["phi"] - linear12["exact"]).max(axis=(1, 2))
    worst = float(errs.max())
    report("explainer-vs-oracle", worst < 0.1,
           f"50 held-out linear-logit d=12 samples, worst L-inf error "
           f"{worst:.4f} < 0.1 (mean {errs.mean():.4f})")


# 10. attribution error bound (kernel-regression guarantee)


def test_10_attribution_error_bound(report, linear12):
    d, m = 12, 400
    rng = np.random.default_rng(0)
    dist = shapley_kernel(d)
    weights = 1 << np.arange(d)
    n = 50
    masks = np.empty((n, m, d))
    values = np.empty((n, m))
    v0 = np.empty(n)
    v1 = np.empty(n)
    model_phi = np.empty((n, d))
    exact_phi = np.empty((n, d))
    tables = linear12["tables"]  # (50, 4096, C)
    logits, _, _ = linear12["combined"].explain(linear12["x_held"])
    pred = np.argmax(logits, axis=1)
    for i in range(n):
        c = pred[i]
        table = tables[i, :, c]
        masks[i] = sample_subsets(dist, m, True, rng)
        values[i] = table[masks[i].astype(np.int64) @ weights]
        v0[i], v1[i] = table[0], table[-1]
        model_phi[i] = linear12["phi"][i, :, c]
        exact_phi[i] = linear12["exact"][i, :, c]
    bound = attribution_error_bound(model_phi, exact_phi, masks, values, v0, v1)
    report("attribution-error-bound", bound.verdict == "PASS",
           f"E||phi-phi*|| {bound.lhs:.4f} <= sqrt(2 H_11 gap) {bound.rhs:.4f} "
           f"-> {bound.verdict}")


# 11. geometric loss decay (convex surrogate experiment)


def test_11_geometric_decay(report):
    result = geometric_decay_experiment(seed=0, steps=200)
    gaps, bound = result["gaps"], result["bound"]
    worst_excess = float(np.max(gaps / np.maximum(bound, 1e-300)))
    report("geometric-decay", bool(result["holds"]),
           f"gap_t <= (1-mu*alpha)^2t * gap_0 at all t within 5% slack "
           f"(max ratio {worst_excess:.3f}, mu {result['mu']:.3f})")


# 12. efficiency constraint on every emitted attribution


def test_12_efficiency_constraint(report, planted12, linear12):
    x12, _ = planted12["ds"].split("test")
    _, _, res_a = planted12["combined"].explain(x12)
    res_b = linear12["residual"]
    worst = max(res_a, res_b)
    report("efficiency-constraint", worst < 1e-5,
           f"max |1.phi - (v1-v0)| over {len(x12)}+50 attributions "
           f"{worst:.2e} < 1e-5")


# 13. faithfulness direction vs random attribution


def _mean_aucs(sur, xs, attributions, pred):
    ins, dele = [], []
    d = xs.shape[1]
    for i in range(len(xs)):
        def value_fn(masks, _x=xs[i], _c=pred[i]):
            rep = np.repeat(_x[None], len(masks), axis=0)
            return sur.surrogate_forward(rep, masks)[:, _c]

        curve = insertion_deletion(value_fn, attributions[i])
        ins.append(curve.insertion_auc)
        dele.append(curve.deletion_auc)
    return float(np.mean(ins)), float(np.mean(dele))


def test_13_faithfulness_direction(report, planted12):
    ds, sur, combined = planted12["ds"], planted12["sur"], planted12["combined"]
    x_all = ds.tokens[np.random.default_rng(0).permutation(len(ds.tokens))[:200]]
    logits, phi, _ = combined.explain(x_all)
    pred = np.argmax(logits, axis=1)
    trained_attr = phi[np.arange(len(x_all)), :, pred]
    rng = np.random.default_rng(1)
    random_attr = rng.standard_normal(trained_attr.shape)
    ins_t, del_t = _mean_aucs(sur, x_all, trained_attr, pred)
    ins_r, del_r = _mean_aucs(sur, x_all, random_attr, pred)

    # exact-oracle ranking on a subset (exact Shapley of the surrogate game)
    n_oracle = 25
    subsets = all_subsets(12)
    weights = 1 << np.arange(12)
    oracle_attr = np.empty((n_oracle, 12))
    for i in range(n_oracle):
        vals = surrogate_mask_values(sur, x_all[i], subsets)[:, pred[i]]
        game = Game(12, lambda ms, v=vals: v[
            np.asarray(ms).astype(np.int64) @ weights])
        oracle_attr[i] = exact_shapley(game)
    ins_o, del_o = _mean_aucs(sur, x_all[:n_oracle], oracle_attr, pred[:n_oracle])
    ins_r25, del_r25 = _mean_aucs(sur, x_all[:n_oracle],
                                  random_attr[:n_oracle], pred[:n_oracle])
    ok = (ins_t > ins_r and del_t < del_r
          and ins_o > ins_r25 and del_o < del_r25)
    report("faithfulness-direction", ok,
           f"trained ins {ins_t:.3f} > random {ins_r:.3f}, trained del "
           f"{del_t:.3f} < random {del_r:.3f}; oracle ins {ins_o:.3f} > "
           f"{ins_r25:.3f}, oracle del {del_o:.3f} < {del_r25:.3f}")


# 14. analytic parameter reproduction


def test_14_parameter_accounting(report):
    rep = efficiency_report(PRESETS["vit-base"], reduction=8)
    cls_off = abs(rep.classifier_params - 85.81e6) / 85.81e6
    sur_off = abs(rep.surrogate_params - 2.23e6) / 2.23e6
    exp_off = abs(rep.explainer_params - 2.42e6) / 2.42e6
    ok = (cls_off < 0.02 and sur_off < 0.10 and exp_off < 0.10
          and rep.trainable_reduction >= 0.95)
    report("parameter-accounting", ok,
           f"classifier {rep.classifier_params / 1e6:.2f}M (85.81M +-2%), "
           f"surrogate {rep.surrogate_params / 1e6:.2f}M (2.23M +-10%), "
           f"explainer {rep.explainer_params / 1e6:.2f}M (2.42M +-10%), "
           f"trainable reduction {rep.trainable_reduction:.1%} >= 95%")


# 15. analytic FLOPs reproduction


def test_15_flops_accounting(report):
    rep = efficiency_report(PRESETS["vit-base"], reduction=8)
    comb_off = abs(rep.combined_flops - 34.67e9) / 34.67e9
    sep_off = abs(rep.separate_flops - 74.90e9) / 74.90e9
    ok = comb_off < 0.10 and sep_off < 0.10 and rep.flops_reduction >= 0.45
    report("flops-accounting", ok,
           f"combined {rep.combined_flops / 1e9:.2f}G (34.67G +-10%), "
           f"separate {rep.separate_flops / 1e9:.2f}G (74.90G +-10%), "
           f"reduction {rep.flops_reduction:.1%} >= 45%")


# 16. pipeline comparison: froyo vs side-tuned; duo gradient conflict


def test_16_pipeline_comparison(report, planted12):
    ds, clf, sur, combined = (planted12["ds"], planted12["clf"],
                              planted12["sur"], planted12["combined"])
    froyo, _ = train_froyo(clf, ds, StageConfig(
        epochs=40, masks_per_input=16, inputs_per_batch=56,
        seed=4, step_decay=0.99, optimizer=_adam(3e-3)))
    x_all = ds.tokens[np.random.default_rng(0).permutation(len(ds.tokens))[:200]]
    logits, phi, _ = combined.explain(x_all)
    pred = np.argmax(logits, axis=1)
    side_attr = phi[np.arange(len(x_all)), :, pred]
    _, froyo_raw = froyo.forward_both(x_all)
    froyo_raw = froyo_raw.numpy()
    froyo_attr = froyo_raw[np.arange(len(x_all)), :, pred]
    ins_side, _ = _mean_aucs(sur, x_all, side_attr, pred)
    ins_froyo, _ = _mean_aucs(sur, x_all, froyo_attr, pred)

    _, drec = train_duo(clf, ds, StageConfig(
        epochs=1, masks_per_input=8, inputs_per_batch=8,
        seed=5, optimizer=_adam(1e-3)))
    trace = drec.extra["gradient_conflict_trace"]
    negatives = int(sum(c < 0 for c in trace))
    ok = ins_froyo <= ins_side and negatives >= 1
    report("pipeline-comparison", ok,
           f"froyo insertion {ins_froyo:.3f} <= side-tuned {ins_side:.3f}; "
           f"duo conflict trace: {negatives}/{len(trace)} negative-cosine steps")


# 17. CKA sanity


def test_17_cka_sanity(report):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((200, 6))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    self_dev = abs(cka(x, x) - 1.0)
    orth_dev = abs(cka(x, x @ q) - 1.0)
    scale_dev = abs(cka(x, 2.5 * x) - 1.0)
    null = cka(x, rng.standard_normal((200, 6)))
    ok = (self_dev < 1e-12 and orth_dev < 1e-9 and scale_dev < 1e-9
          and null < 0.25)
    report("cka-sanity", ok,
           f"self {1 - self_dev:.12f}=1, orthogonal/scale deviation "
           f"{max(orth_dev, scale_dev):.2e} < 1e-9, null {null:.3f} < 0.25")


# 18. end-to-end determinism


def test_18_determinism(report, tmp_path):
    from sideshap.checkpoint import save_checkpoint

    def run():
        ds = generate_dataset("planted-patch",
                              {"d": 6, "token_dim": 3, "n_samples": 60}, seed=0)
        mc = ModelConfig(depth=1, hidden=16, heads=2, num_tokens=6,
                         token_input_dim=3, num_classes=2)
        clf, crec = train_classifier(ds, mc, StageConfig(
            epochs=2, batch_size=16, seed=0,
            optimizer=_adam(1e-3)))
        sur, srec = train_surrogate(clf, ds, StageConfig(
            epochs=1, masks_per_input=4, inputs_per_batch=4,
            seed=1, optimizer=_adam(1e-3)),
            SideConfig(reduction=2, role=ROLE_SURROGATE))
        exp, erec = train_explainer(sur, ds, StageConfig(
            epochs=1, masks_per_input=4, inputs_per_batch=4,
            seed=2, optimizer=_adam(1e-3)))
        return clf, sur, exp, (crec.to_dict(), srec.to_dict(), erec.to_dict())

    a_clf, a_sur, a_exp, a_reports = run()
    b_clf, b_sur, b_exp, b_reports = run()
    digests_equal = (
        state_digest(a_clf.state_dict()) == state_digest(b_clf.state_dict())
        and state_digest(a_sur.side_state_dict())
        == state_digest(b_sur.side_state_dict())
        and state_digest(a_exp.side_state_dict())
        == state_digest(b_exp.side_state_dict()))
    save_checkpoint(tmp_path / "a.ckpt", "classifier", {}, a_clf.state_dict())
    save_checkpoint(tmp_path / "b.ckpt", "classifier", {}, b_clf.state_dict())
    files_equal = ((tmp_path / "a.ckpt").read_bytes()
                   == (tmp_path / "b.ckpt").read_bytes())
    reports_equal = a_reports == b_reports
    ok = digests_equal and files_equal and reports_equal
    report("determinism", ok,
           f"repeated seeded runs: state digests equal {digests_equal}, "
           f"checkpoint bytes equal {files_equal}, reports equal {reports_equal}")
