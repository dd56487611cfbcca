"""Faithfulness curves, representation similarity, cost accounting and bounds.

Everything here is either exactly computable (FLOP/parameter/memory
arithmetic, CKA algebra) or defined against an explicit value function so it
can be cross-checked with brute force on small player counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError
from .shapley import harmonic
from .sidenet import ROLE_EXPLAINER, ROLE_SURROGATE, SideConfig, count_side_params
from .transformer import ModelConfig, count_params

# ---------------------------------------------------------------------------
# insertion / deletion faithfulness curves


@dataclass
class InsertionDeletionCurve:
    order: np.ndarray  # feature indices, most-important first
    fractions: np.ndarray  # x-axis in [0, 1]
    insertion_values: np.ndarray
    deletion_values: np.ndarray
    insertion_auc: float
    deletion_auc: float


def ranking_order(attribution: np.ndarray) -> np.ndarray:
    """Indices sorted by descending attribution; ties broken by ascending index."""
    attribution = np.asarray(attribution, dtype=np.float64)
    d = attribution.shape[0]
    return np.lexsort((np.arange(d), -attribution))


def insertion_deletion(value_fn, attribution: np.ndarray) -> InsertionDeletionCurve:
    """Insertion and deletion curves for one input.

    value_fn(masks) maps an (m, d) mask batch to (m,) target-class values.
    Insertion reveals features most-important-first starting from the empty
    coalition; deletion removes them from the full one. Every feature count is
    a step when d <= 64, otherwise 64 evenly spaced counts are used.
    """
    attribution = np.asarray(attribution, dtype=np.float64)
    if attribution.ndim != 1:
        raise ContractError("insertion_deletion expects a single attribution row")
    d = attribution.shape[0]
    order = ranking_order(attribution)

    if d <= 64:
        counts = np.arange(d + 1)
    else:
        counts = np.unique(np.round(np.linspace(0, d, 65)).astype(int))

    ins_masks = np.zeros((len(counts), d), dtype=np.float64)
    del_masks = np.ones((len(counts), d), dtype=np.float64)
    for row, k in enumerate(counts):
        ins_masks[row, order[:k]] = 1.0
        del_masks[row, order[:k]] = 0.0

    ins_vals = np.asarray(value_fn(ins_masks), dtype=np.float64).reshape(-1)
    del_vals = np.asarray(value_fn(del_masks), dtype=np.float64).reshape(-1)
    if ins_vals.shape[0] != len(counts):
        raise ContractError("value_fn returned wrong batch size")

    frac = counts / d
    return InsertionDeletionCurve(
        order=order,
        fractions=frac,
        insertion_values=ins_vals,
        deletion_values=del_vals,
        insertion_auc=float(np.trapezoid(ins_vals, frac)),
        deletion_auc=float(np.trapezoid(del_vals, frac)),
    )


# ---------------------------------------------------------------------------
# representation similarity and gradient geometry


def cka(x: np.ndarray, y: np.ndarray) -> float:
    """Linear centered-kernel-alignment between two feature matrices (n, p)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ContractError("cka expects two (n, features) matrices with equal n")
    xc = x - x.mean(axis=0, keepdims=True)
    yc = y - y.mean(axis=0, keepdims=True)
    xx = np.linalg.norm(xc.T @ xc)
    yy = np.linalg.norm(yc.T @ yc)
    if xx == 0.0 or yy == 0.0:
        raise ContractError("cka undefined for zero-variance features")
    return float(np.linalg.norm(xc.T @ yc) ** 2 / (xx * yy))


def gradient_conflict(g1: np.ndarray, g2: np.ndarray) -> float:
    """Cosine of the angle between two flattened gradient vectors."""
    g1 = np.asarray(g1, dtype=np.float64).ravel()
    g2 = np.asarray(g2, dtype=np.float64).ravel()
    n1, n2 = np.linalg.norm(g1), np.linalg.norm(g2)
    if n1 == 0.0 or n2 == 0.0:
        raise ContractError("gradient_conflict undefined for a zero gradient")
    return float(g1 @ g2 / (n1 * n2))


# ---------------------------------------------------------------------------
# analytic cost accounting (FLOPs = 2 * MACs, forward pass, batch 1)


def _block_macs(seq: int, hidden: int, mlp_hidden: int) -> int:
    qkv = seq * hidden * 3 * hidden
    scores = seq * seq * hidden  # heads * T * T * head_dim
    mix = seq * seq * hidden
    proj = seq * hidden * hidden
    mlp = 2 * seq * hidden * mlp_hidden
    return qkv + scores + mix + proj + mlp


def classifier_macs(config: ModelConfig) -> int:
    t = config.num_tokens + 1
    total = config.num_tokens * config.token_input_dim * config.hidden  # embed
    total += config.depth * _block_macs(t, config.hidden, config.mlp_hidden)
    total += config.hidden * config.num_classes  # head on the class token
    return total


def side_branch_macs(config: ModelConfig, side: SideConfig) -> int:
    t = config.num_tokens + 1
    hs = side.side_hidden(config.hidden)
    mlp_hidden = int(round(config.mlp_ratio * hs))
    total = config.depth * t * config.hidden * hs  # downsampling taps
    total += config.depth * _block_macs(t, hs, mlp_hidden)
    if side.role == ROLE_SURROGATE:
        total += hs * config.num_classes
    else:
        # per-token head: MLP stack then class row for every patch token
        total += config.num_tokens * side.explainer_head_depth * hs * hs
        total += config.num_tokens * hs * config.num_classes
    return total


def separate_explainer_macs(config: ModelConfig) -> int:
    """Cost of a conventional stand-alone amortized explainer.

    Modeled as a full-width backbone of the same architecture plus a small
    explanation neck (three extra full-width attention blocks) and a
    per-token attribution head.
    """
    t = config.num_tokens + 1
    total = config.num_tokens * config.token_input_dim * config.hidden
    total += (config.depth + 3) * _block_macs(
        t, config.hidden, config.mlp_hidden)
    total += t * config.hidden * config.num_classes
    return total


@dataclass
class EfficiencyReport:
    classifier_params: int
    surrogate_params: int
    explainer_params: int
    trainable_reduction: float  # vs full-backbone finetuning, explanation stages
    classifier_flops: int
    combined_flops: int  # prediction + attribution in one shared-backbone pass
    separate_flops: int  # prediction + stand-alone explainer
    flops_reduction: float
    memory_bytes: dict


def analytic_memory_report(config: ModelConfig, side: SideConfig) -> dict:
    """Training-memory estimate in bytes (float32, batch size 1, Adam state).

    Side-tuning stores optimizer state and gradients only for the branch;
    full finetuning stores them for the whole backbone.
    """
    t = config.num_tokens + 1
    backbone = count_params(config)
    branch = count_side_params(config, side)
    # activations kept for the backward pass, coarse per-block accounting
    def acts(h, mlp_h, depth):
        per_block = t * h * 6 + t * t * config.heads + t * mlp_h
        return depth * per_block + t * h

    hs = side.side_hidden(config.hidden)
    full_acts = acts(config.hidden, config.mlp_hidden, config.depth)
    side_acts = acts(hs, int(round(config.mlp_ratio * hs)), config.depth)
    f32 = 4
    return {
        "side_tuning": f32 * (backbone + 4 * branch + full_acts + side_acts),
        "full_finetune": f32 * (4 * backbone + full_acts),
        "params_backbone": f32 * backbone,
        "params_branch": f32 * branch,
    }


def efficiency_report(config: ModelConfig, reduction: int = 8) -> EfficiencyReport:
    """Analytic parameter, FLOPs and memory accounting at one reduction.

    The "combined" figure counts the classifier plus the explainer branch on
    the shared backbone pass. ``CombinedModel.explain`` also runs the
    surrogate branch on that pass, for v(x_1), and a class-token-only pass of
    backbone and surrogate, for v(x_0); neither is counted here.
    """
    sur = SideConfig(reduction=reduction, role=ROLE_SURROGATE)
    exp = SideConfig(reduction=reduction, role=ROLE_EXPLAINER)
    cls_params = count_params(config)
    sur_params = count_side_params(config, sur)
    exp_params = count_side_params(config, exp)
    cls_macs = classifier_macs(config)
    combined_macs = cls_macs + side_branch_macs(config, exp)
    separate_macs = cls_macs + separate_explainer_macs(config)
    return EfficiencyReport(
        classifier_params=cls_params,
        surrogate_params=sur_params,
        explainer_params=exp_params,
        trainable_reduction=1.0 - max(sur_params, exp_params) / cls_params,
        classifier_flops=2 * cls_macs,
        combined_flops=2 * combined_macs,
        separate_flops=2 * separate_macs,
        flops_reduction=1.0 - combined_macs / separate_macs,
        memory_bytes=analytic_memory_report(config, exp),
    )


# ---------------------------------------------------------------------------
# attribution error bound from the regression-loss gap


@dataclass
class BoundReport:
    lhs: float  # mean L2 distance between emitted and exact attributions
    loss_model: float
    loss_optimal: float
    gap_upper: float  # 95% upper confidence bound on loss_model - loss_optimal
    rhs: float
    harmonic_factor: float
    verdict: str  # "PASS" or "FAIL"


def attribution_error_bound(model_phis: np.ndarray, exact_phis: np.ndarray,
                            masks: np.ndarray, values: np.ndarray,
                            v0: np.ndarray, v1: np.ndarray) -> BoundReport:
    """Check mean ||phi_model - phi_exact||_2 <= sqrt(2 H_{d-1} * loss gap).

    masks: (n, m, d) kernel-distributed coalitions per sample; values: (n, m)
    game values v(s); v0, v1: (n,) null and grand values. Both losses are
    Monte-Carlo estimates on the shared mask sample, so the gap gets a paired
    95% confidence allowance before entering the bound.
    """
    model_phis = np.asarray(model_phis, dtype=np.float64)
    exact_phis = np.asarray(exact_phis, dtype=np.float64)
    masks = np.asarray(masks, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n, m, d = masks.shape
    if model_phis.shape != (n, d) or exact_phis.shape != (n, d):
        raise ContractError("attribution shape mismatch with mask sample")

    base = values - v0[:, None]
    err_model = (base - np.einsum("nmd,nd->nm", masks, model_phis)) ** 2
    err_exact = (base - np.einsum("nmd,nd->nm", masks, exact_phis)) ** 2
    diff = (err_model - err_exact).ravel()
    gap = float(diff.mean())
    se = float(diff.std(ddof=1) / np.sqrt(diff.size)) if diff.size > 1 else 0.0
    gap_upper = max(gap + 1.96 * se, 0.0)

    h = harmonic(d - 1)
    rhs = float(np.sqrt(2.0 * h * gap_upper))
    lhs = float(np.linalg.norm(model_phis - exact_phis, axis=1).mean())
    return BoundReport(
        lhs=lhs,
        loss_model=float(err_model.mean()),
        loss_optimal=float(err_exact.mean()),
        gap_upper=gap_upper,
        rhs=rhs,
        harmonic_factor=float(h),
        verdict="PASS" if lhs <= rhs else "FAIL",
    )
