"""Exact and estimated Shapley machinery.

Ground-truth oracle by full enumeration, the Shapley-kernel subset
distribution with paired sampling, a constrained weighted-least-squares
KernelSHAP baseline, additive efficient normalization, and the second-moment
matrix whose smallest eigenvalue equals 1/(2 H_{d-1}).

All probability and value arithmetic here is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import comb

__all__ = [
    "Game", "ShapleyKernelDist", "SecondMomentMatrix",
    "harmonic", "exact_shapley", "shapley_kernel", "sample_subsets",
    "sample_equicardinality_masks", "kernelshap", "efficiency_normalize",
    "efficiency_normalize_grid", "second_moment_matrix",
]

MAX_EXACT_PLAYERS = 20


class BudgetError(ValueError):
    """Enumeration would exceed the 2^d budget."""


def harmonic(n: int) -> float:
    """H_n = sum_{k=1..n} 1/k in 64-bit accumulation."""
    if n < 1:
        raise ValueError("harmonic requires n >= 1")
    return float(np.sum(1.0 / np.arange(1, n + 1, dtype=np.float64)))


def all_subsets(d: int) -> np.ndarray:
    """All 2^d indicator vectors; row index == little-endian bitmask."""
    masks = np.arange(2 ** d, dtype=np.uint32)
    return ((masks[:, None] >> np.arange(d)) & 1).astype(np.float64)


def masks_to_bitmask(masks: np.ndarray) -> np.ndarray:
    masks = np.asarray(masks)
    powers = (1 << np.arange(masks.shape[-1], dtype=np.int64))
    return (masks.astype(np.int64) * powers).sum(axis=-1)


class Game:
    """A set function on d players with memoized evaluations.

    Each distinct coalition is evaluated once, also when it repeats within
    one batch.

    ``value`` maps a batch of indicator vectors (m, d) to values of shape
    (m,) or (m, num_outputs).
    """

    def __init__(self, d: int, value):
        self.d = d
        self._value = value
        self._memo: dict[int, np.ndarray] = {}

    def evaluate(self, masks: np.ndarray) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.float64)
        if masks.ndim == 1:
            masks = masks[None]
        keys = masks_to_bitmask(masks)
        missing: dict[int, int] = {}  # each unseen coalition's first row
        for i, k in enumerate(keys.tolist()):
            if k not in self._memo:
                missing.setdefault(k, i)
        if missing:
            sub = masks[list(missing.values())]
            vals = np.asarray(self._value(sub), dtype=np.float64)
            if vals.shape[0] != sub.shape[0]:
                raise ValueError("game value returned wrong batch size")
            if vals.ndim == 1:
                vals = vals[:, None]
            self._memo.update(zip(missing, vals))
        out = np.stack([self._memo[k] for k in keys.tolist()])
        return out[:, 0] if out.shape[1] == 1 else out

    def grand_value(self) -> np.ndarray:
        return self.evaluate(np.ones((1, self.d)))[0]

    def null_value(self) -> np.ndarray:
        return self.evaluate(np.zeros((1, self.d)))[0]


def exact_shapley(game: Game) -> np.ndarray:
    """Exact Shapley values by enumeration of all 2^d coalitions.

    phi_i = (1/d) * sum_{s: s_i=0} C(d-1, |s|)^{-1} (v(s + e_i) - v(s)).
    Returns shape (d,) for scalar games, (d, num_outputs) otherwise.
    """
    d = game.d
    if d > MAX_EXACT_PLAYERS:
        raise BudgetError(f"exact enumeration needs d <= {MAX_EXACT_PLAYERS}, got {d}")
    subsets = all_subsets(d)
    values = np.atleast_2d(np.asarray(game.evaluate(subsets), dtype=np.float64))
    if values.shape[0] != 2 ** d:
        values = values.T
    sizes = subsets.sum(axis=1).astype(np.int64)
    inv_binom = 1.0 / comb(d - 1, np.arange(d), exact=False)
    phi = np.zeros((d, values.shape[1]), dtype=np.float64)
    indices = np.arange(2 ** d)
    for i in range(d):
        without = indices[(indices >> i) & 1 == 0]
        with_i = without | (1 << i)
        w = inv_binom[sizes[without]] / d
        phi[i] = (w[:, None] * (values[with_i] - values[without])).sum(axis=0)
    return phi[:, 0] if phi.shape[1] == 1 else phi


@dataclass
class ShapleyKernelDist:
    """q(s) over proper nonempty subsets: per-subset probability by cardinality."""

    d: int
    per_subset: np.ndarray  # p_k for k = 1..d-1
    cardinality: np.ndarray  # P(|s| = k) = C(d,k) p_k
    normalizer: float


def shapley_kernel(d: int) -> ShapleyKernelDist:
    """Shapley kernel q(s) proportional to (d-1) / (C(d,k) k (d-k))."""
    if d < 2:
        raise ValueError("shapley kernel needs d >= 2")
    k = np.arange(1, d, dtype=np.float64)
    q_unnorm = (d - 1.0) / (k * (d - k))  # summed over subsets of size k
    normalizer = float(q_unnorm.sum())
    cardinality = q_unnorm / normalizer
    per_subset = cardinality / comb(d, k, exact=False)
    return ShapleyKernelDist(d=d, per_subset=per_subset,
                             cardinality=cardinality, normalizer=normalizer)


def sample_subsets(dist: ShapleyKernelDist, n: int, paired: bool,
                   seed_or_rng) -> np.ndarray:
    """i.i.d. draws from q(s); paired batches interleave each draw with its complement."""
    rng = np.random.default_rng(seed_or_rng) if not isinstance(
        seed_or_rng, np.random.Generator) else seed_or_rng
    ks = rng.choice(np.arange(1, dist.d), size=_draw_count(n, paired),
                    p=dist.cardinality)
    return _fill_and_pair(ks, dist.d, paired, rng)


def sample_equicardinality_masks(d: int, n: int, rng: np.random.Generator,
                                 paired: bool = False) -> np.ndarray:
    """Surrogate-stage masks: cardinality uniform on {0..d}, then a uniform subset.

    Cardinalities 0 and d are both included.
    """
    ks = rng.integers(0, d + 1, size=_draw_count(n, paired))
    return _fill_and_pair(ks, d, paired, rng)


def _draw_count(n: int, paired: bool) -> int:
    if paired and n % 2 != 0:
        raise ValueError("paired sampling requires an even sample count")
    return n // 2 if paired else n


def _fill_and_pair(ks, d: int, paired: bool, rng: np.random.Generator) -> np.ndarray:
    """One uniform subset of each size in ``ks``; paired output interleaves complements.

    An empty subset draws no permutation, so the generator's stream depends
    only on the nonzero sizes.
    """
    masks = np.zeros((len(ks), d), dtype=np.float64)
    for i, k in enumerate(ks):
        if k:
            masks[i, rng.permutation(d)[:k]] = 1.0
    if not paired:
        return masks
    out = np.empty((2 * len(ks), d), dtype=np.float64)
    out[0::2] = masks
    out[1::2] = 1.0 - masks
    return out


def efficiency_normalize(raw: np.ndarray, v1, v0) -> np.ndarray:
    """Additive efficient normalization: phi += (v1 - v0 - sum(phi)) / d.

    Idempotent; adds the same constant to every coordinate. ``raw`` is (d,)
    or (d, num_classes) with matching v1/v0 scalars or (num_classes,) arrays.
    """
    raw = np.asarray(raw, dtype=np.float64)
    correction = (np.asarray(v1, dtype=np.float64) - np.asarray(v0, dtype=np.float64)
                  - raw.sum(axis=0)) / raw.shape[0]
    return raw + correction


def efficiency_normalize_grid(raw: np.ndarray, v1: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Batched normalization: raw (b, d, C), v1/v0 (b, C)."""
    raw = np.asarray(raw, dtype=np.float64)
    diff = np.asarray(v1, dtype=np.float64) - np.asarray(v0, dtype=np.float64)
    correction = (diff - raw.sum(axis=1)) / raw.shape[1]
    return raw + correction[:, None, :]


def kernelshap(game: Game, n_samples: int, seed, paired: bool = False):
    """Shapley estimate by constrained weighted least squares over q(s) samples.

    The efficiency constraint is enforced exactly by eliminating the last
    player's value. Returns (phi, diagnostics) where phi matches the game's
    output shape and diagnostics carries rank/condition information.
    """
    d = game.d
    if d < 2:
        raise ValueError("kernelshap needs d >= 2")
    dist = shapley_kernel(d)
    masks = sample_subsets(dist, n_samples, paired, seed)
    values = np.atleast_2d(np.asarray(game.evaluate(masks), dtype=np.float64))
    if values.shape[0] != masks.shape[0]:
        values = values.T
    v1 = np.atleast_1d(game.grand_value())
    v0 = np.atleast_1d(game.null_value())

    # eliminate phi_d via 1^T phi = v1 - v0
    target = values - v0[None, :] - masks[:, -1:] * (v1 - v0)[None, :]
    design = masks[:, :-1] - masks[:, -1:]
    sol, _, rank, svals = np.linalg.lstsq(design, target, rcond=None)
    phi = np.empty((d, values.shape[1]), dtype=np.float64)
    phi[:-1] = sol
    phi[-1] = (v1 - v0) - sol.sum(axis=0)
    diagnostics = {
        "rank": int(rank),
        "full_rank": bool(rank == d - 1),
        "condition": float(svals[0] / svals[-1]) if svals.size and svals[-1] > 0 else float("inf"),
        "n_samples": int(n_samples),
        "paired": bool(paired),
    }
    return (phi[:, 0] if phi.shape[1] == 1 else phi), diagnostics


@dataclass
class SecondMomentMatrix:
    """A = E_{s~q}[s s^T] with its analytic spectral floor."""

    d: int
    matrix: np.ndarray
    diagonal: float
    off_diagonal: float
    lambda_min_closed_form: float
    lambda_min_eigensolve: float
    lambda_min_harmonic: float  # 1 / (2 H_{d-1})


def second_moment_matrix(d: int) -> SecondMomentMatrix:
    """Exact A by summation over all proper subsets weighted by q(s), d <= 16."""
    if d < 2 or d > 16:
        raise ValueError("second_moment_matrix supports 2 <= d <= 16")
    dist = shapley_kernel(d)
    subsets = all_subsets(d)
    sizes = subsets.sum(axis=1).astype(np.int64)
    proper = (sizes > 0) & (sizes < d)
    s = subsets[proper]
    w = dist.per_subset[sizes[proper] - 1]
    a = (s * w[:, None]).T @ s
    diag = float(a[0, 0])
    off = float(a[0, 1])
    eigs = np.linalg.eigvalsh(a)
    return SecondMomentMatrix(
        d=d,
        matrix=a,
        diagonal=diag,
        off_diagonal=off,
        lambda_min_closed_form=diag - off,
        lambda_min_eigensolve=float(eigs[0]),
        lambda_min_harmonic=1.0 / (2.0 * harmonic(d - 1)),
    )
