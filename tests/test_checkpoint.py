"""Binary checkpoint format: round trips, integrity, mismatch handling."""

import tracemalloc

import numpy as np
import pytest
from conftest import write_raw_checkpoint
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sideshap.checkpoint import (
    _BLOCK,
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    fnv1a_64,
    load_checkpoint,
    save_checkpoint,
)


def fnv1a_64_loop(data) -> int:
    """The byte-at-a-time FNV-1a 64 definition that ``fnv1a_64`` must equal."""
    h = 0xCBF29CE484222325
    for b in bytes(data):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def sample_state(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "a.weight": rng.standard_normal((3, 4)).astype(np.float32),
        "a.bias": rng.standard_normal(4).astype(np.float32),
        "scalar": np.float32(2.5).reshape(()),
    }


def test_fnv1a_known_vectors():
    # standard FNV-1a 64-bit test vectors
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               3 * _BLOCK + 12_345])
def test_fnv1a_equals_the_loop_at_block_edges(n):
    data = np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8).tobytes()
    assert fnv1a_64(data) == fnv1a_64_loop(data)


@pytest.mark.parametrize("fill", [0x00, 0xFF])
def test_fnv1a_equals_the_loop_on_constant_bytes(fill):
    data = bytes([fill]) * (_BLOCK + 100)
    assert fnv1a_64(data) == fnv1a_64_loop(data)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=4096))
def test_fnv1a_equals_the_loop_on_any_bytes(data):
    assert fnv1a_64(data) == fnv1a_64_loop(data)


def test_fnv1a_takes_any_bytes_like_object():
    data = np.random.default_rng(1).integers(0, 256, _BLOCK + 7, dtype=np.uint8).tobytes()
    want = fnv1a_64_loop(data)
    assert fnv1a_64(data) == fnv1a_64(bytearray(data)) == fnv1a_64(memoryview(data)) == want
    assert fnv1a_64(memoryview(data)[5:-3]) == fnv1a_64_loop(data[5:-3])


def test_roundtrip_bit_identical(tmp_path):
    path = tmp_path / "m.ckpt"
    state = sample_state()
    save_checkpoint(path, "classifier", {"model": {"depth": 2}}, state)
    back = load_checkpoint(path)
    assert back.role == "classifier"
    assert back.version == FORMAT_VERSION
    assert back.config == {"model": {"depth": 2}}
    assert set(back.state) == set(state)
    for k in state:
        assert back.state[k].tobytes() == np.asarray(state[k], dtype="<f4").tobytes()
        assert back.state[k].shape == np.asarray(state[k]).shape


def test_identical_states_produce_identical_files(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, "surrogate", {"x": 1}, sample_state(3))
    save_checkpoint(p2, "surrogate", {"x": 1}, sample_state(3))
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_is_first_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "classifier", {}, sample_state())
    assert path.read_bytes()[:4] == MAGIC


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "classifier", {}, sample_state())
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_corrupted_payload_fails_digest(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "classifier", {}, sample_state())
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="digest"):
        load_checkpoint(path)


def test_role_mismatch_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "surrogate", {}, sample_state())
    with pytest.raises(CheckpointError, match="role"):
        load_checkpoint(path, expected_role="explainer")
    assert load_checkpoint(path, expected_role="surrogate").role == "surrogate"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "classifier", {}, sample_state())
    blob = bytearray(path.read_bytes())
    blob[:4] = b"ZZZZ"
    # keep the digest consistent so the magic check is what fires
    import struct

    from sideshap.checkpoint import fnv1a_64 as digest
    body = bytes(blob[:-8])
    path.write_bytes(body + struct.pack("<Q", digest(body)))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


@pytest.mark.parametrize("role, config, names", [
    (b"\xff\xfe", b"{}", "not UTF-8"),  # the role
    (b"classifier", b"\xff", "not UTF-8"),  # the config
    (b"classifier", b"{model", "not JSON"),
    (b"classifier", b"[1, 2]", "JSON object"),
    (b"classifier", b"null", "JSON object"),
])
def test_digest_valid_malformed_body_is_checkpoint_error(tmp_path, role, config, names):
    path = tmp_path / "m.ckpt"
    write_raw_checkpoint(path, role, config)
    with pytest.raises(CheckpointError, match=names):
        load_checkpoint(path)


def test_tensor_larger_than_the_body_is_checkpoint_error(tmp_path):
    import struct

    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "classifier", {}, {"w": np.ones((2, 3), dtype=np.float32)})
    body = path.read_bytes()[:-8]
    at = body.index(struct.pack("<2Q", 2, 3))
    body = body[:at] + struct.pack("<2Q", 2 ** 40, 2 ** 40) + body[at + 16:]
    path.write_bytes(body + struct.pack("<Q", fnv1a_64(body)))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", [(1,) * 65, (0, 2 ** 62)], ids=["ndim 65", "0 x 2**62"])
def test_shape_numpy_cannot_build_is_checkpoint_error(tmp_path, shape):
    # digest-valid, with every payload byte present: only numpy's reshape refuses it
    path = tmp_path / "m.ckpt"
    write_raw_checkpoint(path, b"classifier", b"{}", {"w": shape})
    with pytest.raises(CheckpointError, match="tensor 'w' has a shape numpy cannot build"):
        load_checkpoint(path)


def test_duplicate_tensor_name_is_checkpoint_error(tmp_path):
    import struct

    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "classifier", {}, {"w": np.ones(2, dtype=np.float32),
                                             "x": np.zeros(2, dtype=np.float32)})
    body = path.read_bytes()[:-8].replace(struct.pack("<H", 1) + b"x",
                                          struct.pack("<H", 1) + b"w")
    path.write_bytes(body + struct.pack("<Q", fnv1a_64(body)))
    with pytest.raises(CheckpointError, match="tensor 'w' appears twice"):
        load_checkpoint(path)


def _small_classifier_body() -> bytes:
    """The body (the file without its digest) of a valid 182-parameter classifier checkpoint."""
    import tempfile

    from sideshap.transformer import MaskedTransformer, ModelConfig

    config = ModelConfig(depth=1, hidden=4, heads=2, num_tokens=2, token_input_dim=2,
                         num_classes=2, mlp_ratio=1.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/c.ckpt"
        save_checkpoint(path, "classifier", {"model": config.to_dict()},
                        MaskedTransformer(config).state_dict())
        with open(path, "rb") as f:
            return f.read()[:-8]


SMALL_BODY = _small_classifier_body()
MUTATION = st.tuples(st.sampled_from(["flip", "insert", "delete", "truncate"]),
                     st.integers(0, len(SMALL_BODY) - 1), st.integers(1, 255))


def _mutated(body: bytes, mutations) -> bytes:
    for kind, at, byte in mutations:
        at %= max(len(body), 1)
        if kind == "flip":
            body = body[:at] + bytes([body[at] ^ byte]) + body[at + 1:] if body else body
        elif kind == "insert":
            body = body[:at] + bytes([byte]) + body[at:]
        elif kind == "delete":
            body = body[:at] + body[at + 1:]
        else:
            body = body[:at]
    return body


@settings(max_examples=300, deadline=None)
@given(st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_digest_valid_body_loads_or_is_checkpoint_error(mutations):
    """Flipped, inserted or deleted bytes, or a cut, with the digest made valid again:
    ``load_checkpoint`` and the CLI's classifier loader each load the file or raise
    CheckpointError, and nothing else."""
    import struct
    import tempfile

    from sideshap.cli import _load_classifier

    body = _mutated(SMALL_BODY, mutations)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/m.ckpt"
        with open(path, "wb") as f:
            f.write(body + struct.pack("<Q", fnv1a_64(body)))
        for load in (load_checkpoint, _load_classifier):
            try:
                load(path)
            except CheckpointError:
                pass


def _small_branch():
    """A 182-parameter classifier and the body of a surrogate checkpoint bound to it."""
    import tempfile

    from sideshap.sidenet import ROLE_SURROGATE, SideConfig, SideTunedModel
    from sideshap.training import state_digest
    from sideshap.transformer import MaskedTransformer, ModelConfig

    config = ModelConfig(depth=1, hidden=4, heads=2, num_tokens=2, token_input_dim=2,
                         num_classes=2, mlp_ratio=1.0)
    classifier = MaskedTransformer(config)
    side = SideConfig(reduction=2, role=ROLE_SURROGATE)
    branch = SideTunedModel(classifier, side, seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/s.ckpt"
        save_checkpoint(path, ROLE_SURROGATE,
                        {"model": config.to_dict(), "side": side.to_dict(),
                         "backbone_digest": state_digest(classifier.named_parameters())},
                        branch.side_state_dict())
        with open(path, "rb") as f:
            return classifier, f.read()[:-8]


BRANCH_CLASSIFIER, BRANCH_BODY = _small_branch()


def _flip_to(text: bytes, choices: bytes):
    """A one-byte flip of ``BRANCH_BODY`` that turns the byte after ``text`` into the
    first of ``choices`` that it is not already."""
    at = BRANCH_BODY.index(text) + len(text)
    return [("flip", at, BRANCH_BODY[at] ^ next(c for c in choices if c != BRANCH_BODY[at]))]


@settings(max_examples=300, deadline=None)
@example(_flip_to(b'"hidden": ', b"8"))  # another model block
@example(_flip_to(b'"backbone_digest": "', b"01"))  # another classifier state
@given(st.lists(st.tuples(st.sampled_from(["flip", "insert", "delete", "truncate"]),
                          st.integers(0, len(BRANCH_BODY) - 1), st.integers(1, 255)),
                min_size=1, max_size=3))
def test_mutated_digest_valid_branch_body_loads_or_fails_as_documented(mutations):
    """A mutated surrogate body with a valid digest, loaded by the CLI onto its own
    classifier: it loads, raises CheckpointError, or raises ContractError for the
    documented binding mismatch only (another ``model`` block or ``backbone_digest``)."""
    import struct
    import tempfile

    from sideshap.autodiff import ContractError
    from sideshap.cli import _load_branch
    from sideshap.sidenet import ROLE_SURROGATE
    from sideshap.training import state_digest

    body = _mutated(BRANCH_BODY, mutations)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/m.ckpt"
        with open(path, "wb") as f:
            f.write(body + struct.pack("<Q", fnv1a_64(body)))
        try:
            _load_branch(path, BRANCH_CLASSIFIER, ROLE_SURROGATE,
                         lambda: state_digest(BRANCH_CLASSIFIER.named_parameters()))
        except CheckpointError:
            pass
        except ContractError as exc:
            assert str(exc).startswith(f"surrogate {path} was trained on "), exc


def test_unmutated_small_branch_body_loads_onto_its_classifier(tmp_path):
    import struct

    from sideshap.cli import _load_branch
    from sideshap.sidenet import ROLE_SURROGATE
    from sideshap.training import state_digest

    path = tmp_path / "s.ckpt"
    path.write_bytes(BRANCH_BODY + struct.pack("<Q", fnv1a_64(BRANCH_BODY)))
    branch = _load_branch(path, BRANCH_CLASSIFIER, ROLE_SURROGATE,
                          lambda: state_digest(BRANCH_CLASSIFIER.named_parameters()))
    assert branch.backbone is BRANCH_CLASSIFIER


def test_unmutated_small_body_loads_as_a_classifier(tmp_path):
    import struct

    from sideshap.cli import _load_classifier

    path = tmp_path / "c.ckpt"
    path.write_bytes(SMALL_BODY + struct.pack("<Q", fnv1a_64(SMALL_BODY)))
    assert _load_classifier(path).config.hidden == 4


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IOError):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_float64_inputs_are_stored_as_float32(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "classifier", {}, {"w": np.ones(3, dtype=np.float64)})
    back = load_checkpoint(path)
    assert back.state["w"].dtype == np.float32


def test_loaded_arrays_are_read_only_and_a_loaded_model_still_trains(tmp_path):
    """The state holds read-only views of the file's bytes; loading copies them."""
    import sideshap.autodiff as ad
    from sideshap.transformer import MaskedTransformer, ModelConfig

    config = ModelConfig(depth=1, hidden=8, heads=2, num_tokens=4, token_input_dim=3,
                         num_classes=2)
    path = tmp_path / "clf.ckpt"
    save_checkpoint(path, "classifier", {}, MaskedTransformer(config, seed=1).state_dict())
    ck = load_checkpoint(path)
    assert ck.state and not any(arr.flags.writeable for arr in ck.state.values())
    with pytest.raises(ValueError, match="read-only"):
        ck.state["head.bias"][0] = 1.0
    saved = {name: arr.copy() for name, arr in ck.state.items()}

    model = MaskedTransformer(config, seed=2)
    model.load_state(ck.state)
    opt = ad.Optimizer(model.parameters(), ad.OptimizerConfig(step_size=0.1))
    x = np.random.default_rng(0).standard_normal((3, 4, 3)).astype(np.float32)
    ad.mean(ad.square(model.forward(x))).backward()
    opt.step()
    assert all(p.data.flags.writeable for p in model.parameters())
    moved = model.state_dict()
    assert any(not np.array_equal(moved[name], saved[name]) for name in saved)
    for name, arr in ck.state.items():
        assert arr.tobytes() == saved[name].tobytes()


def test_load_holds_one_copy_of_the_file(tmp_path):
    """The body, the digest input and every tensor are views of one read."""
    rng = np.random.default_rng(0)
    state = {f"w{i}": rng.standard_normal((256, 1024)).astype(np.float32) for i in range(4)}
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, "classifier", {"model": {"depth": 1}}, state)
    size = path.stat().st_size
    assert size >= 4 * 2 ** 20
    tracemalloc.start()
    try:
        back = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * size
    for name, arr in state.items():
        assert back.state[name].tobytes() == arr.tobytes()


def test_save_holds_one_copy_of_the_file(tmp_path):
    """A save allocates at most 1.1x the file's size beyond the state it is given:
    one buffer for the file, and the digest's working blocks."""
    rng = np.random.default_rng(0)
    state = {f"w{i}": rng.standard_normal((512, 2048)).astype(np.float32) for i in range(6)}
    state["odd"] = rng.standard_normal((7, 5)).astype(np.float64).T  # converted, then copied
    state["strided"] = rng.standard_normal(20).astype(np.float32)[::2]
    path = tmp_path / "big.ckpt"
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        save_checkpoint(path, "classifier", {"model": {"depth": 1}}, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 24 * 2 ** 20
    assert peak - before <= 1.1 * size
    back = load_checkpoint(path)
    for name, arr in state.items():
        assert back.state[name].tobytes() == arr.astype(np.float32).tobytes()
