"""Synthetic token-classification tasks.

Two generators stand in for real image/text corpora:

* planted-patch: a handful of "signal" tokens carry a constant marker in
  their second coordinate; the sign of their mean first coordinate fixes the
  label. All other tokens are standard-normal noise.
* linear-logit: labels are sampled from softmax(w^T pooled tokens) with a
  known weight matrix, so the Bayes predictor is linear in the pooled input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError

# the parameters each kind reads
KIND_PARAMS = {
    "planted-patch": ("d", "token_dim", "k_signal", "n_samples", "marker", "signal_mean"),
    "linear-logit": ("d", "token_dim", "num_classes", "n_samples", "logit_scale"),
}


@dataclass
class SyntheticDataset:
    kind: str
    tokens: np.ndarray  # (n, d, token_dim) float32
    labels: np.ndarray  # (n,) int64
    splits: dict  # name -> index array
    seed: int
    params: dict

    @property
    def d(self) -> int:
        return self.tokens.shape[1]

    @property
    def token_dim(self) -> int:
        return self.tokens.shape[2]

    @property
    def num_classes(self) -> int:
        return int(self.params["num_classes"])

    def split(self, name: str):
        idx = self.splits[name]
        return self.tokens[idx], self.labels[idx]

    def save(self, path):
        np.savez(
            path,
            tokens=self.tokens,
            labels=self.labels,
            train=self.splits["train"],
            val=self.splits["val"],
            test=self.splits["test"],
            meta=np.frombuffer(
                _meta_bytes(self.kind, self.seed, self.params), dtype=np.uint8),
        )

    @staticmethod
    def load(path) -> "SyntheticDataset":
        """The dataset ``save`` wrote to ``path``; an OSError naming ``path`` if it is not one."""
        import json
        import zipfile

        try:
            with np.load(path) as z:
                meta = json.loads(bytes(z["meta"]).decode("utf-8"))
                ds = SyntheticDataset(
                    kind=meta["kind"],
                    tokens=z["tokens"],
                    labels=z["labels"],
                    splits={"train": z["train"], "val": z["val"], "test": z["test"]},
                    seed=meta["seed"],
                    params=meta["params"],
                )
            _check_contents(ds)
            return ds
        except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
            raise OSError(f"{path}: not a dataset file ({type(exc).__name__}: {exc})") from None


def _is_index_array(a: np.ndarray, bound: int) -> bool:
    """Whether ``a`` is a 1-D integer array with every value in [0, bound)."""
    return (a.ndim == 1 and np.issubdtype(a.dtype, np.integer)
            and (a.size == 0 or (a.min() >= 0 and a.max() < bound)))


def _check_contents(ds: SyntheticDataset):
    """ValueError unless ``ds`` holds the array shapes, dtypes and ranges ``save`` writes."""
    if ds.tokens.ndim != 3 or ds.tokens.dtype != np.float32:
        raise ValueError(f"tokens are {ds.tokens.dtype} {ds.tokens.shape}, not 3-D float32")
    num_classes = ds.params["num_classes"]
    if type(num_classes) is not int or num_classes < 2:
        raise ValueError(f"num_classes {num_classes!r} is not an int >= 2")
    n = len(ds.tokens)
    if len(ds.labels) != n or not _is_index_array(ds.labels, num_classes):
        raise ValueError(f"labels are not {n} integers in [0, {num_classes})")
    for name, idx in ds.splits.items():
        if not _is_index_array(idx, n):
            raise ValueError(f"split {name!r} is not 1-D integer indices in [0, {n})")
        if not idx.size:
            raise ValueError(f"split {name!r} has no rows")


def _meta_bytes(kind, seed, params) -> bytes:
    import json

    return json.dumps({"kind": kind, "seed": seed, "params": params},
                      sort_keys=True).encode("utf-8")


def _split_sizes(n: int):
    """Train and validation sizes for n samples (the rest are test samples);
    a ContractError if any split would be empty. Checked before any draw."""
    n_train, n_val = int(0.7 * n), int(0.15 * n)
    if min(n_train, n_val, n - n_train - n_val) < 1:
        raise ContractError(f"n_samples={n} leaves a split empty (7 or more are needed)")
    return n_train, n_val


def _make_splits(n: int, rng: np.random.Generator) -> dict:
    order = rng.permutation(n)
    n_train, n_val = _split_sizes(n)
    return {
        "train": np.sort(order[:n_train]),
        "val": np.sort(order[n_train:n_train + n_val]),
        "test": np.sort(order[n_train + n_val:]),
    }


def generate_dataset(kind: str, params: dict, seed: int) -> SyntheticDataset:
    """Deterministic synthetic dataset; identical seed reproduces identical bytes."""
    if kind not in KIND_PARAMS:
        raise ContractError(f"unknown dataset kind {kind!r}")
    unread = sorted(set(params) - set(KIND_PARAMS[kind]))
    if unread:
        raise ContractError(f"{kind} does not read the parameters {unread}")
    if seed < 0:
        raise ContractError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    if kind == "planted-patch":
        return _planted_patch(params, seed, rng)
    return _linear_logit(params, seed, rng)


def _planted_patch(params: dict, seed: int, rng: np.random.Generator) -> SyntheticDataset:
    d = int(params.get("d", 16))
    token_dim = int(params.get("token_dim", 8))
    k = int(params.get("k_signal", 3))
    n = int(params.get("n_samples", 2000))
    marker = float(params.get("marker", 3.0))
    signal_mean = float(params.get("signal_mean", 1.0))
    _split_sizes(n)
    if not 1 <= k <= d:
        raise ContractError(f"k_signal={k} must be in [1, d={d}]")
    if token_dim < 2:
        raise ContractError("planted-patch needs token_dim >= 2")

    tokens = rng.standard_normal((n, d, token_dim)).astype(np.float32)
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    labels = np.zeros(n, dtype=np.int64)
    signal_index = np.zeros((n, d), dtype=bool)
    for i in range(n):
        pos = rng.permutation(d)[:k]
        signal_index[i, pos] = True
        first = (sign[i] * signal_mean
                 + 0.5 * rng.standard_normal(k)).astype(np.float32)
        tokens[i, pos, 0] = first
        tokens[i, pos, 1] = marker
        labels[i] = 1 if first.mean() > 0 else 0

    out_params = dict(params)
    out_params.update({"d": d, "token_dim": token_dim, "k_signal": k,
                       "n_samples": n, "num_classes": 2})
    ds = SyntheticDataset(kind="planted-patch", tokens=tokens, labels=labels,
                          splits=_make_splits(n, rng), seed=seed, params=out_params)
    ds.params["signal_index_packed"] = np.packbits(
        signal_index, axis=1).tolist()  # recoverable ground-truth positions
    return ds


def _linear_logit(params: dict, seed: int, rng: np.random.Generator) -> SyntheticDataset:
    d = int(params.get("d", 12))
    token_dim = int(params.get("token_dim", 4))
    num_classes = int(params.get("num_classes", 2))
    n = int(params.get("n_samples", 2000))
    scale = float(params.get("logit_scale", 4.0))
    _split_sizes(n)
    if min(d, token_dim) < 1 or num_classes < 2:
        raise ContractError(f"linear-logit needs d, token_dim >= 1 and num_classes >= 2, "
                            f"not {d}, {token_dim}, {num_classes}")

    w = rng.standard_normal((token_dim, num_classes)).astype(np.float64)
    tokens = rng.standard_normal((n, d, token_dim)).astype(np.float32)
    pooled = tokens.mean(axis=1).astype(np.float64)
    logits = scale * pooled @ w
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    u = rng.random(n)
    labels = (probs.cumsum(axis=1) < u[:, None]).sum(axis=1).astype(np.int64)

    out_params = dict(params)
    out_params.update({"d": d, "token_dim": token_dim, "num_classes": num_classes,
                       "n_samples": n, "logit_scale": scale,
                       "weights": w.tolist()})
    return SyntheticDataset(kind="linear-logit", tokens=tokens, labels=labels,
                            splits=_make_splits(n, rng), seed=seed, params=out_params)


def signal_positions(ds: SyntheticDataset) -> np.ndarray:
    """Recover the planted signal-token indicator matrix (n, d)."""
    if ds.kind != "planted-patch":
        raise ContractError("signal positions exist only for planted-patch")
    packed = np.asarray(ds.params["signal_index_packed"], dtype=np.uint8)
    return np.unpackbits(packed, axis=1)[:, :ds.d].astype(bool)
