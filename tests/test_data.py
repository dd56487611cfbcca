"""Synthetic dataset generators: determinism, balance, persistence."""

import numpy as np
import pytest

from sideshap.autodiff import ContractError
from sideshap.data import SyntheticDataset, generate_dataset, signal_positions


def test_unknown_kind_rejected():
    with pytest.raises(ContractError):
        generate_dataset("mnist", {}, seed=0)


def test_planted_patch_shapes_and_params():
    ds = generate_dataset("planted-patch", {"d": 10, "token_dim": 6,
                                            "n_samples": 300, "k_signal": 2}, seed=3)
    assert ds.tokens.shape == (300, 10, 6)
    assert ds.tokens.dtype == np.float32
    assert ds.labels.shape == (300,)
    assert ds.num_classes == 2
    assert set(np.unique(ds.labels)) <= {0, 1}


def test_planted_patch_label_balance_within_5_percent():
    ds = generate_dataset("planted-patch", {"n_samples": 2000}, seed=0)
    assert abs(ds.labels.mean() - 0.5) < 0.05


def test_planted_patch_marker_on_signal_tokens():
    ds = generate_dataset("planted-patch", {"d": 8, "n_samples": 50,
                                            "k_signal": 3, "marker": 2.5}, seed=1)
    sig = signal_positions(ds)
    assert sig.shape == (50, 8)
    np.testing.assert_array_equal(sig.sum(axis=1), np.full(50, 3))
    marked = ds.tokens[sig, 1]
    np.testing.assert_allclose(marked, 2.5, atol=1e-6)


def test_planted_patch_label_follows_signal_mean():
    ds = generate_dataset("planted-patch", {"n_samples": 200}, seed=2)
    sig = signal_positions(ds)
    for i in range(200):
        mean_first = ds.tokens[i, sig[i], 0].mean()
        assert ds.labels[i] == (1 if mean_first > 0 else 0)


def test_planted_patch_validation():
    with pytest.raises(ContractError):
        generate_dataset("planted-patch", {"d": 4, "k_signal": 5}, seed=0)
    with pytest.raises(ContractError):
        generate_dataset("planted-patch", {"token_dim": 1}, seed=0)
    for k in (0, -1):
        with pytest.raises(ContractError, match="k_signal"):
            generate_dataset("planted-patch", {"k_signal": k}, seed=0)
    # names the kind does not read, a misspelling among them
    for kind, params in (("planted-patch", {"dd": 5}), ("planted-patch", {"num_classes": 3}),
                         ("linear-logit", {"k_signal": 2})):
        with pytest.raises(ContractError, match="does not read"):
            generate_dataset(kind, params, seed=0)


def test_linear_logit_labels_match_stored_weights():
    ds = generate_dataset("linear-logit", {"n_samples": 500}, seed=4)
    w = np.asarray(ds.params["weights"])
    pooled = ds.tokens.mean(axis=1).astype(np.float64)
    logits = ds.params["logit_scale"] * pooled @ w
    # sampled labels should agree with the argmax class most of the time
    agree = (np.argmax(logits, axis=1) == ds.labels).mean()
    assert agree > 0.7


def test_splits_partition_dataset():
    ds = generate_dataset("linear-logit", {"n_samples": 400}, seed=5)
    union = np.concatenate([ds.splits[k] for k in ("train", "val", "test")])
    assert len(union) == 400
    assert len(np.unique(union)) == 400
    assert len(ds.splits["train"]) == 280


def test_seed_determinism_bitwise():
    a = generate_dataset("planted-patch", {"n_samples": 100}, seed=9)
    b = generate_dataset("planted-patch", {"n_samples": 100}, seed=9)
    assert a.tokens.tobytes() == b.tokens.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    c = generate_dataset("planted-patch", {"n_samples": 100}, seed=10)
    assert a.tokens.tobytes() != c.tokens.tobytes()


def test_save_load_roundtrip(tmp_path):
    ds = generate_dataset("linear-logit", {"n_samples": 120}, seed=6)
    path = tmp_path / "ds.npz"
    ds.save(path)
    back = SyntheticDataset.load(path)
    assert back.kind == ds.kind
    assert back.seed == ds.seed
    assert back.tokens.tobytes() == ds.tokens.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()
    for k in ds.splits:
        np.testing.assert_array_equal(back.splits[k], ds.splits[k])
    assert back.params["weights"] == ds.params["weights"]


def test_split_accessor():
    ds = generate_dataset("linear-logit", {"n_samples": 100}, seed=7)
    x, y = ds.split("val")
    assert len(x) == len(y) == len(ds.splits["val"])


def test_load_of_a_file_that_is_not_a_dataset_is_os_error(tmp_path):
    text = tmp_path / "text.npz"
    text.write_text("not an npz")
    no_meta = tmp_path / "no_meta.npz"
    np.savez(no_meta, tokens=np.zeros((2, 3, 4)))
    truncated = tmp_path / "truncated.npz"
    generate_dataset("linear-logit", {"n_samples": 20}, seed=0).save(truncated)
    truncated.write_bytes(truncated.read_bytes()[:100])
    empty = tmp_path / "empty.npz"
    empty.touch()
    for path in (text, no_meta, truncated, empty, *_malformed_contents(tmp_path)):
        with pytest.raises(OSError, match=path.name):
            SyntheticDataset.load(path)


def _malformed_contents(tmp_path):
    """npz files with a valid ``meta`` whose arrays or params break the dataset contract."""
    import json

    good = tmp_path / "good.npz"
    generate_dataset("linear-logit", {"n_samples": 20}, seed=0).save(good)
    with np.load(good) as z:
        contents = dict(z)
    meta = json.loads(bytes(contents["meta"]))

    def with_params(**params):
        merged = {k: v for k, v in {**meta["params"], **params}.items() if v is not None}
        return np.frombuffer(json.dumps({**meta, "params": merged}).encode(), dtype=np.uint8)

    labels_out_of_range = contents["labels"].copy()
    labels_out_of_range[3] = 2
    changes = {
        "flat_tokens": {"tokens": contents["tokens"].reshape(-1)},
        "float64_tokens": {"tokens": contents["tokens"].astype(np.float64)},
        "short_labels": {"labels": contents["labels"][:-1]},
        "float_labels": {"labels": contents["labels"].astype(np.float32)},
        "label_out_of_range": {"labels": labels_out_of_range},
        "split_beyond_n": {"test": np.append(contents["test"], 20)},
        "negative_split": {"val": np.append(contents["val"], -1)},
        "2d_split": {"train": contents["train"][None]},
        "float_split": {"train": contents["train"].astype(np.float64)},
        **{f"empty_{split}": {split: contents[split][:0]} for split in ("train", "val", "test")},
        "no_num_classes": {"meta": with_params(num_classes=None)},
        "one_class": {"meta": with_params(num_classes=1)},
        "float_num_classes": {"meta": with_params(num_classes=2.0)},
    }
    for name, change in changes.items():
        path = tmp_path / f"{name}.npz"
        np.savez(path, **{**contents, **change})
        yield path
