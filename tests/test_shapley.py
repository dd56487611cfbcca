"""Exact Shapley oracle, kernel distribution, KernelSHAP, and the eigenvalue lemma."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sideshap import shapley
from sideshap.autodiff import ContractError
from sideshap.shapley import (
    MAX_EXACT_PLAYERS,
    BudgetError,
    Game,
    all_subsets,
    efficiency_normalize,
    efficiency_normalize_grid,
    exact_shapley,
    harmonic,
    kernelshap,
    prefix_masks,
    sample_equicardinality_masks,
    sample_subsets,
    second_moment_matrix,
    shapley_kernel,
)


def masks_to_bitmask(masks):
    """Each 0/1 row's little-endian bitmask, as int64 (exact for d < 64)."""
    masks = np.asarray(masks)
    powers = (1 << np.arange(masks.shape[-1], dtype=np.int64))
    return (masks.astype(np.int64) * powers).sum(axis=-1)


def table_game(d, table):
    """Game backed by a value table indexed by the little-endian bitmask."""
    table = np.asarray(table, dtype=np.float64)
    return Game(d, lambda masks: table[masks_to_bitmask(masks)])


def glove_game():
    # players 0 and 1 hold left gloves, player 2 the right one
    def v(masks):
        m = np.asarray(masks)
        return (((m[:, 0] + m[:, 1]) > 0) & (m[:, 2] > 0)).astype(np.float64)
    return Game(3, v)


# ---------------------------------------------------------------------------
# exact oracle on hand-solvable games


def test_glove_game_exact_values():
    phi = exact_shapley(glove_game())
    np.testing.assert_allclose(phi, [1 / 6, 1 / 6, 2 / 3], atol=1e-9)


def test_majority_game_symmetric_split():
    game = Game(3, lambda m: (np.asarray(m).sum(axis=1) >= 2).astype(np.float64))
    np.testing.assert_allclose(exact_shapley(game), [1 / 3] * 3, atol=1e-9)


def test_linear_game_recovers_weights():
    w = np.array([0.5, -1.25, 2.0, 0.0, 3.5])
    game = Game(5, lambda m: np.asarray(m) @ w)
    np.testing.assert_allclose(exact_shapley(game), w, atol=1e-9)


def test_multi_output_game():
    w = np.array([[1.0, -2.0], [0.5, 0.5], [0.0, 3.0]])  # (d, outputs)
    game = Game(3, lambda m: np.asarray(m) @ w)
    np.testing.assert_allclose(exact_shapley(game), w, atol=1e-9)


def test_budget_error_above_20_players():
    with pytest.raises(BudgetError):
        exact_shapley(Game(21, lambda m: np.asarray(m).sum(axis=1)))


def test_game_memoizes_evaluations():
    calls = []

    def v(masks):
        calls.append(len(masks))
        return np.asarray(masks).sum(axis=1)

    game = Game(3, v)
    game.evaluate(all_subsets(3))
    game.evaluate(all_subsets(3))
    assert sum(calls) == 8


def test_game_evaluates_each_distinct_coalition_once():
    rng = np.random.default_rng(11)
    w = rng.standard_normal((6, 2))
    seen = []

    def v(masks):
        seen.append(masks_to_bitmask(masks))
        return np.asarray(masks) @ w + np.asarray(masks).prod(axis=1, keepdims=True)

    masks = (rng.random((300, 6)) < 0.5).astype(np.float64)  # many repeats
    game = Game(6, v)
    out = game.evaluate(masks)
    keys = np.concatenate(seen)
    assert len(keys) == len(np.unique(keys)) == len(np.unique(masks_to_bitmask(masks)))
    np.testing.assert_array_equal(out, v(masks))
    np.testing.assert_array_equal(game.evaluate(masks[::-1]), out[::-1])
    assert len(seen) == 2  # one evaluation batch plus the direct call; the rest is memoized


def test_game_keeps_coalitions_apart_beyond_63_players():
    """At d=70 player 64's coalition has its own memo entry, not the empty
    coalition's, and KernelSHAP recovers a linear game's weights."""
    d = 70
    w = np.arange(1.0, d + 1)
    game = Game(d, lambda m: np.asarray(m) @ w)
    only_64 = np.zeros(d)
    only_64[64] = 1
    assert game.evaluate(only_64)[0] == 65.0
    assert game.null_value() == 0.0
    phi, _ = kernelshap(Game(d, lambda m: np.asarray(m) @ w), 512, seed=0, paired=True)
    np.testing.assert_allclose(phi, w, atol=1e-8)


@pytest.mark.parametrize("row", [[0.5, 0.5, 0, 0], [2, 0, 0, 0], [np.nan, 0, 0, 0],
                                 [0, 0, 0], [0, 0, 0, 0, 0]])
def test_game_refuses_rows_that_are_not_coalitions(row):
    """A row that is not 0/1 or not d wide is refused, and stores nothing."""
    game = Game(4, lambda m: np.asarray(m).sum(axis=1))
    with pytest.raises(ContractError):
        game.evaluate(np.array([row], dtype=np.float64))
    assert game.null_value() == 0.0


# ---------------------------------------------------------------------------
# axioms as property tests


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_efficiency_axiom(d, seed):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal(2 ** d)
    phi = exact_shapley(table_game(d, table))
    assert abs(phi.sum() - (table[-1] - table[0])) < 1e-9


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_dummy_axiom(d, seed):
    """A player whose marginal contribution is always c gets exactly c."""
    rng = np.random.default_rng(seed)
    c = float(rng.standard_normal())
    base = rng.standard_normal(2 ** d)
    idx = np.arange(2 ** d)
    table = base.copy()
    odd = idx[(idx & 1) == 1]
    table[odd] = base[odd ^ 1] + c  # v(s + e_0) = v(s) + c for every s
    phi = exact_shapley(table_game(d, table))
    assert abs(phi[0] - c) < 1e-9


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_symmetry_axiom(d, seed):
    """Interchangeable players 0 and 1 receive equal value."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal(2 ** d)
    idx = np.arange(2 ** d)
    swapped = (idx & ~np.int64(3)) | ((idx & 1) << 1) | ((idx >> 1) & 1)
    table = 0.5 * (table + table[swapped])  # symmetrize in players 0, 1
    phi = exact_shapley(table_game(d, table))
    assert abs(phi[0] - phi[1]) < 1e-9


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_linearity_axiom(d, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(2 ** d)
    w = rng.standard_normal(2 ** d)
    a, b = 1.7, -0.4
    phi_mix = exact_shapley(table_game(d, a * u + b * w))
    phi_u = exact_shapley(table_game(d, u))
    phi_w = exact_shapley(table_game(d, w))
    np.testing.assert_allclose(phi_mix, a * phi_u + b * phi_w, atol=1e-9)


# ---------------------------------------------------------------------------
# kernel distribution


def test_kernel_d3_uniform_over_proper_subsets():
    dist = shapley_kernel(3)
    np.testing.assert_allclose(dist.per_subset, [1 / 6, 1 / 6], atol=1e-12)
    np.testing.assert_allclose(dist.cardinality.sum(), 1.0, atol=1e-12)


def test_kernel_d4_known_values():
    dist = shapley_kernel(4)
    np.testing.assert_allclose(dist.per_subset, [1 / 11, 1 / 22, 1 / 11], atol=1e-12)
    assert dist.normalizer == pytest.approx(11 / 4, rel=1e-12)


def test_kernel_probabilities_sum_to_one():
    from scipy.special import comb

    for d in range(2, 13):
        dist = shapley_kernel(d)
        total = (dist.per_subset * comb(d, np.arange(1, d))).sum()
        assert total == pytest.approx(1.0, abs=1e-12)


def test_sampler_matches_cardinality_distribution():
    d, n = 5, 20000
    dist = shapley_kernel(d)
    masks = sample_subsets(dist, n, False, seed_or_rng=0)
    sizes = masks.sum(axis=1).astype(int)
    assert sizes.min() >= 1 and sizes.max() <= d - 1
    for k in range(1, d):
        p = dist.cardinality[k - 1]
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs((sizes == k).mean() - p) < 3 * sigma + 1e-3


def test_paired_sampling_interleaves_complements():
    dist = shapley_kernel(6)
    masks = sample_subsets(dist, 40, True, seed_or_rng=3)
    np.testing.assert_allclose(masks[1::2], 1.0 - masks[0::2])
    with pytest.raises(ValueError):
        sample_subsets(dist, 7, True, seed_or_rng=0)


def test_equicardinality_sampler_covers_endpoints():
    rng = np.random.default_rng(0)
    masks = sample_equicardinality_masks(8, 9000, rng)
    sizes = masks.sum(axis=1).astype(int)
    assert sizes.min() == 0 and sizes.max() == 8
    p = 1.0 / 9
    sigma = np.sqrt(p * (1 - p) / 9000)
    for k in range(9):
        assert abs((sizes == k).mean() - p) < 3 * sigma + 1e-3


def loop_prefix_masks(orders, ks):
    """The reference: one row at a time, the first ks[r] players of orders[r] set."""
    masks = np.zeros(np.shape(orders), dtype=np.float64)
    for row, k in enumerate(ks):
        masks[row, orders[row][:k]] = 1.0
    return masks


def loop_fill_and_pair(ks, d, paired, rng):
    """The reference sampler fill: one ``rng.permutation(d)`` per nonzero size."""
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


@pytest.mark.parametrize("d", [1, 2, 7, 16])
@pytest.mark.parametrize("n", [0, 1, 40])
def test_prefix_masks_equal_the_loop(d, n):
    rng = np.random.default_rng(d * 100 + n)
    orders = np.array([rng.permutation(d) for _ in range(n)], dtype=np.int64).reshape(n, d)
    ks = rng.integers(0, d + 1, size=n)
    ks[: n // 4] = 0  # k = 0 rows keep no player
    got = prefix_masks(orders, ks)
    assert got.shape == (n, d) and got.dtype == np.float64
    assert got.tobytes() == loop_prefix_masks(orders, ks).tobytes()
    assert np.array_equal(got.sum(axis=1), ks)


@pytest.mark.parametrize("d", [2, 3, 9])
@pytest.mark.parametrize("n", [0, 2, 50])
@pytest.mark.parametrize("paired", [False, True])
def test_seeded_samplers_equal_the_loop(d, n, paired):
    """Same masks, and the generator left in the same state, as the per-row loop."""
    dist = shapley_kernel(d)
    got_rng, want_rng = np.random.default_rng(n + d), np.random.default_rng(n + d)
    got = sample_subsets(dist, n, paired, got_rng)
    ks = want_rng.choice(np.arange(1, d), size=n // 2 if paired else n, p=dist.cardinality)
    want = loop_fill_and_pair(ks, d, paired, want_rng)
    assert got.shape == (n, d) and got.tobytes() == want.tobytes()
    assert got_rng.random() == want_rng.random()

    got = sample_equicardinality_masks(d, n, got_rng)
    ks = want_rng.integers(0, d + 1, size=n)
    want = loop_fill_and_pair(ks, d, False, want_rng)
    assert got.shape == (n, d) and got.tobytes() == want.tobytes()
    assert got_rng.random() == want_rng.random()
    if n == 50:
        assert (ks == 0).any()  # the k = 0 rows draw no permutation


# ---------------------------------------------------------------------------
# KernelSHAP


def test_kernelshap_exact_on_linear_game_small_sample():
    d = 6
    w = np.array([1.0, -0.5, 2.0, 0.25, -1.0, 0.75])
    game = Game(d, lambda m: np.asarray(m) @ w + 3.0)
    phi, diag = kernelshap(game, d + 2, seed=5)
    assert diag["full_rank"]
    np.testing.assert_allclose(phi, w, atol=1e-6)


def test_kernelshap_convergence_glove_10k():
    exact = np.array([1 / 6, 1 / 6, 2 / 3])
    errs = []
    for seed in range(10):
        phi, _ = kernelshap(glove_game(), 10000, seed=seed)
        errs.append(np.abs(phi - exact).max())
    assert np.median(errs) < 0.02


def test_kernelshap_paired_variance_not_worse():
    """Antithetic pairing should not increase estimator variance."""
    d = 5
    rng = np.random.default_rng(9)
    table = rng.standard_normal(2 ** d)
    game = table_game(d, table)
    exact = exact_shapley(game)
    plain, paired = [], []
    for seed in range(30):
        p1, _ = kernelshap(game, 200, seed=seed, paired=False)
        p2, _ = kernelshap(game, 200, seed=seed, paired=True)
        plain.append(np.sum((p1 - exact) ** 2))
        paired.append(np.sum((p2 - exact) ** 2))
    assert np.mean(paired) <= np.mean(plain)


def test_kernelshap_satisfies_efficiency():
    game = glove_game()
    phi, _ = kernelshap(game, 64, seed=0)
    assert abs(phi.sum() - (game.grand_value() - game.null_value())) < 1e-9


# ---------------------------------------------------------------------------
# additive efficient normalization


def test_normalization_restores_efficiency_and_is_idempotent():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal(6)
    out = efficiency_normalize(raw, 1.25, 0.25)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(efficiency_normalize(out, 1.25, 0.25), out, atol=1e-12)
    np.testing.assert_allclose(out - raw, np.full(6, (out - raw)[0]), atol=1e-12)


def test_grid_normalization_matches_rowwise():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((4, 5, 3))
    v1 = rng.standard_normal((4, 3))
    v0 = rng.standard_normal((4, 3))
    grid = efficiency_normalize_grid(raw, v1, v0)
    for b in range(4):
        np.testing.assert_allclose(
            grid[b], efficiency_normalize(raw[b], v1[b], v0[b]), atol=1e-12)
    np.testing.assert_allclose(grid.sum(axis=1), v1 - v0, atol=1e-12)


# ---------------------------------------------------------------------------
# second-moment eigenvalue lemma


def test_lambda_min_closed_form_sweep():
    for d in range(2, 17):
        m = second_moment_matrix(d)
        assert abs(m.lambda_min_closed_form - m.lambda_min_eigensolve) < 1e-9
        assert abs(m.lambda_min_closed_form - m.lambda_min_harmonic) < 1e-12


def test_lambda_min_known_values():
    assert second_moment_matrix(2).lambda_min_closed_form == pytest.approx(0.5, abs=1e-12)
    assert second_moment_matrix(4).lambda_min_closed_form == pytest.approx(3 / 11, abs=1e-12)


def test_second_moment_structure():
    m = second_moment_matrix(6)
    a = m.matrix
    np.testing.assert_allclose(np.diag(a), m.diagonal, atol=1e-12)
    off = a[~np.eye(6, dtype=bool)]
    np.testing.assert_allclose(off, m.off_diagonal, atol=1e-12)
    assert m.diagonal == pytest.approx(0.5, abs=1e-12)  # by complement symmetry


def test_harmonic_values():
    assert harmonic(1) == 1.0
    assert harmonic(3) == pytest.approx(11 / 6, rel=1e-12)
    with pytest.raises(ValueError):
        harmonic(0)


def test_all_subsets_bitmask_roundtrip():
    s = all_subsets(5)
    np.testing.assert_array_equal(masks_to_bitmask(s), np.arange(32))


# ---------------------------------------------------------------------------
# binomials: scipy.special.comb(exact=False) as the oracle


def scipy_binomials(n, ks):
    from scipy.special import comb

    return comb(n, np.array(list(ks)), exact=False)


def test_binomials_bit_equal_to_scipy_in_the_exact_oracle_range():
    for d in range(2, MAX_EXACT_PLAYERS + 1):
        for n, ks in ((d - 1, range(d)), (d, range(1, d))):
            assert np.array_equal(shapley._binomials(n, ks), scipy_binomials(n, ks)), (n, ks)


@pytest.mark.parametrize("d", range(2, 15))
def test_exact_shapley_bit_equal_with_scipy_binomials(d, monkeypatch):
    table = np.random.default_rng(d).standard_normal((2 ** d, 2))
    ours = exact_shapley(table_game(d, table))
    monkeypatch.setattr(shapley, "_binomials", scipy_binomials)
    assert np.array_equal(ours, exact_shapley(table_game(d, table)))


def test_second_moment_matrix_bit_equal_with_scipy_binomials(monkeypatch):
    ours = [second_moment_matrix(d) for d in range(2, 17)]
    monkeypatch.setattr(shapley, "_binomials", scipy_binomials)
    for d, m in zip(range(2, 17), ours):
        ref = second_moment_matrix(d)
        assert np.array_equal(m.matrix, ref.matrix), d
        assert m.lambda_min_closed_form == ref.lambda_min_closed_form, d


def test_kernel_where_binomials_overflow_float64():
    """From d = 1030 some C(d, k) pass the float range: p_k is 0 there, as with scipy."""
    d = 1100
    dist = shapley_kernel(d)
    ref = dist.cardinality / scipy_binomials(d, range(1, d))
    assert (ref == 0).any()
    assert np.array_equal(dist.per_subset == 0, ref == 0)
    np.testing.assert_allclose(dist.per_subset, ref, rtol=1e-11)
    masks = sample_subsets(dist, 64, True, seed_or_rng=0)
    sizes = masks.sum(axis=1)
    assert masks.shape == (64, d) and sizes.min() >= 1 and sizes.max() <= d - 1
