import json
import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from embadapt import (
    TrainConfig,
    init_adapter,
    load_checkpoint,
    save_checkpoint,
    transform,
)
from embadapt import adapter
from embadapt.adapter import (
    mlp_grad,
    row_blocks,
    transform_forward,
    transform_grad,
)
from embadapt.errors import FormatError

from synth import pin_workers

REL_TOL = 1e-4
ABS_FLOOR = 1e-6
FD_STEP = 1e-4


def fd_close(analytic, numeric):
    denom = max(abs(numeric), ABS_FLOOR / REL_TOL)
    return abs(analytic - numeric) <= REL_TOL * denom + ABS_FLOOR


class TestInit:
    def test_identity_at_init_with_skip(self):
        model = init_adapter(6, seed=0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 6)).astype(np.float32)
        assert np.array_equal(transform(model, x), x)

    def test_zero_output_without_skip(self):
        model = init_adapter(6, seed=0, config=TrainConfig(use_skip=False))
        x = np.arange(6, dtype=np.float32)
        assert np.array_equal(transform(model, x), np.zeros(6, dtype=np.float32))

    def test_deterministic(self):
        a = init_adapter(8, seed=42, config=TrainConfig(hidden=4))
        b = init_adapter(8, seed=42, config=TrainConfig(hidden=4))
        for pa, pb in zip(a.f_params.arrays(), b.f_params.arrays()):
            assert np.array_equal(pa, pb)

    def test_parameter_count(self):
        model = init_adapter(4, seed=0)
        count = sum(a.size for a in model.f_params.arrays())
        assert count == 4 * 4 + 4 + 4 * 4 + 4  # == 40

    def test_no_config_is_the_default_config(self):
        model = init_adapter(5)
        assert model.config_snapshot == TrainConfig()
        assert (model.hidden, model.use_skip, model.separate_adapters) == (5, True, False)

    def test_width_is_not_an_argument(self):
        # a positional width would otherwise become the seed
        with pytest.raises(TypeError):
            init_adapter(8, 4)
        for name in ("hidden", "use_skip", "separate_adapters"):
            with pytest.raises(TypeError, match=name):
                init_adapter(8, **{name: 4})

    def test_hidden_bounds(self):
        model = init_adapter(16, seed=3, config=TrainConfig(hidden=8))
        bound = 1.0 / math.sqrt(16)
        assert np.all(np.abs(model.f_params.w1) <= bound)
        assert np.all(model.f_params.w2 == 0.0)
        assert np.all(model.f_params.b2 == 0.0)


class TestTransform:
    def test_scalar_closed_form(self):
        # 1x1 network: f(x) = w2*tanh(w1*x + b1) + b2
        model = init_adapter(1, seed=0)
        model.f_params.w1[:] = 1.0
        model.f_params.b1[:] = 0.0
        model.f_params.w2[:] = 1.0
        model.f_params.b2[:] = 0.0
        out = transform(model, np.array([0.5], dtype=np.float32))
        assert out[0] == pytest.approx(0.5 + math.tanh(0.5), abs=1e-6)

    def test_shared_adapter_same_function(self):
        model = init_adapter(5, seed=9, config=TrainConfig(hidden=3))
        rng = np.random.default_rng(0)
        model.f_params.w2[:] = rng.standard_normal((3, 5)).astype(np.float32)
        x = rng.standard_normal((4, 5)).astype(np.float32)
        assert np.array_equal(transform(model, x, "query"), transform(model, x, "corpus"))

    def test_separate_adapters_differ(self):
        model = init_adapter(5, seed=9, config=TrainConfig(hidden=3, separate_adapters=True))
        rng = np.random.default_rng(0)
        model.f_params.w2[:] = rng.standard_normal((3, 5)).astype(np.float32)
        x = rng.standard_normal((4, 5)).astype(np.float32)
        assert not np.array_equal(transform(model, x, "query"), transform(model, x, "corpus"))

    @pytest.mark.parametrize("separate", [False, True], ids=["shared", "separate"])
    def test_unknown_side_is_refused(self, separate):
        model = init_adapter(3, config=TrainConfig(separate_adapters=separate))
        x = np.ones((2, 3), dtype=np.float32)
        _, hidden = transform_forward(model, x)
        message = "which must be 'query' or 'corpus', got 'banana'"
        with pytest.raises(ValueError, match=message):
            transform(model, x, "banana")
        with pytest.raises(ValueError, match=message):
            transform_grad(model, x, hidden, x, "banana")

    def test_dimension_mismatch(self):
        model = init_adapter(4, seed=0)
        with pytest.raises(ValueError):
            transform(model, np.zeros(5, dtype=np.float32))

    @pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 50, 4097])
    def test_row_blocks_are_near_equal(self, monkeypatch, n):
        monkeypatch.setattr(adapter, "ROW_BLOCK_BYTES", 7 * 8 * 4)  # 7 rows of width 4
        blocks = row_blocks(n, 4)
        sizes = [b.stop - b.start for b in blocks]
        assert len(blocks) == max(1, math.ceil(n / 7))
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= 7

    def test_output_is_the_only_full_size_array(self, monkeypatch):
        model = init_adapter(64, seed=0)
        model.f_params.w2[:] = 0.01
        x = np.random.default_rng(0).standard_normal((50000, 64)).astype(np.float32)
        for n in (1, adapter.MAX_WORKERS):
            pin_workers(monkeypatch, n)
            tracemalloc.start()
            try:
                out = transform(model, x, "corpus")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # float32, the dtype that an embedding file stores
            assert out.dtype == np.float32 and out.shape == x.shape
            # each worker holds one row block of 2000 rows, its float32
            # activations and output: a bound that grows with the workers
            # and stays below a second array of 50000 rows
            assert peak - out.nbytes < 1.1 * n * adapter.ROW_BLOCK_BYTES < out.nbytes


class TestTransformGrad:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_mlp_grad_bit_for_bit(self, dtype):
        model = init_adapter(6, seed=3, config=TrainConfig(hidden=5, separate_adapters=True))
        rng = np.random.default_rng(3)
        for _, params in model.trainable():
            params.w2[:] = 0.3 * rng.standard_normal(params.w2.shape)
        x = rng.standard_normal((9, 6)).astype(dtype)
        upstream = rng.standard_normal((9, 6)).astype(dtype)
        for which in ("query", "corpus"):
            _, hidden = transform_forward(model, x, which)
            grads = transform_grad(model, x, hidden, upstream, which)
            expect, _ = mlp_grad(model.params_for(which), x, hidden, upstream)
            for got, want in zip(grads.arrays(), expect.arrays()):
                assert got.dtype == want.dtype == np.dtype(dtype)
                assert np.array_equal(got, want)

    def test_zero_upstream_zero_grads(self):
        model = init_adapter(4, seed=1, config=TrainConfig(hidden=3))
        x = np.ones((1, 4))
        _, hidden = transform_forward(model, x)
        grads = transform_grad(model, x, hidden, np.zeros((1, 4), dtype=np.float32))
        for g in grads.arrays():
            assert np.all(g == 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        # FD oracle runs in float64 so rounding noise stays below tolerance
        rng = np.random.default_rng(seed)
        d, h, n = int(rng.integers(2, 8)), int(rng.integers(2, 8)), int(rng.integers(1, 4))
        use_skip = bool(seed % 2)
        model = init_adapter(d, seed=seed, config=TrainConfig(hidden=h, use_skip=use_skip))
        # move off the zero-init point so w2/b2 grads are non-trivial
        model.f_params.w2[:] = 0.3 * rng.standard_normal((h, d)).astype(np.float32)
        model.f_params.b2[:] = 0.1 * rng.standard_normal(d).astype(np.float32)
        x = rng.standard_normal((n, d))
        upstream = rng.standard_normal((n, d))

        x32 = x.astype(np.float32)
        _, hidden = transform_forward(model, x32)
        grads = transform_grad(model, x32, hidden, upstream.astype(np.float32))

        params64 = [a.astype(np.float64) for a in model.f_params.arrays()]

        def objective():
            w1, b1, w2, b2 = params64
            out = np.tanh(x @ w1 + b1) @ w2 + b2
            if use_skip:
                out = x + out
            return float(np.sum(upstream * out))

        def fd(arr, flat_idx):
            flat = arr.ravel()
            orig = flat[flat_idx]
            flat[flat_idx] = orig + FD_STEP
            plus = objective()
            flat[flat_idx] = orig - FD_STEP
            minus = objective()
            flat[flat_idx] = orig
            return (plus - minus) / (2 * FD_STEP)

        for g_arr, p_arr in zip(grads.arrays(), params64):
            for idx in range(p_arr.size):
                assert fd_close(float(g_arr.ravel()[idx]), fd(p_arr, idx))


class TestCheckpoint:
    @staticmethod
    def trained_like_model(seed=5):
        model = init_adapter(6, seed=seed, encoder_tag="enc-a",
                             config=TrainConfig(alpha=0.2, hidden=4, seed=seed))
        rng = np.random.default_rng(seed)
        for _, params in model.trainable():
            for arr in params.arrays():
                arr += 0.1 * rng.standard_normal(arr.shape).astype(np.float32)
        return model

    def test_round_trip_bit_exact(self, tmp_path):
        model = self.trained_like_model()
        path = tmp_path / "m.sadc"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.dim == model.dim
        assert loaded.hidden == model.hidden
        assert loaded.use_skip == model.use_skip
        assert loaded.encoder_tag == model.encoder_tag
        assert loaded.config_snapshot == model.config_snapshot
        for (_, pa), (_, pb) in zip(model.trainable(), loaded.trainable()):
            for a, b in zip(pa.arrays(), pb.arrays()):
                assert np.array_equal(a, b)
        x = np.random.default_rng(0).standard_normal((3, 6)).astype(np.float32)
        assert np.array_equal(transform(model, x), transform(loaded, x))

    def test_separate_adapters_round_trip(self, tmp_path):
        model = init_adapter(4, seed=1, config=TrainConfig(use_skip=False, separate_adapters=True))
        path = tmp_path / "m.sadc"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.separate_adapters
        assert not loaded.use_skip
        assert np.array_equal(loaded.f_corpus_params.w1, model.f_corpus_params.w1)

    @pytest.mark.parametrize("hidden", [None, 3])
    @pytest.mark.parametrize("use_skip", [True, False], ids=["skip", "no-skip"])
    @pytest.mark.parametrize("separate", [False, True], ids=["shared", "separate"])
    def test_config_block_matches_the_networks(self, tmp_path, hidden, use_skip, separate):
        cfg = TrainConfig(hidden=hidden, use_skip=use_skip, separate_adapters=separate)
        model = init_adapter(5, seed=1, config=cfg)
        assert model.config_snapshot is cfg
        path = tmp_path / "m.sadc"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        snapshot = loaded.config_snapshot
        assert snapshot == cfg
        width = loaded.dim if snapshot.hidden is None else snapshot.hidden
        assert (loaded.use_skip, loaded.separate_adapters, loaded.hidden) \
            == (snapshot.use_skip, snapshot.separate_adapters, width) \
            == (use_skip, separate, 5 if hidden is None else hidden)

    @pytest.mark.parametrize("net", ["p", "f_corpus"])
    def test_save_refuses_networks_of_another_shape(self, tmp_path, net):
        model = init_adapter(4, seed=1, config=TrainConfig(hidden=3, separate_adapters=True))
        other = init_adapter(4, seed=2, config=TrainConfig(hidden=5, separate_adapters=True))
        setattr(model, f"{net}_params", getattr(other, f"{net}_params"))
        path = tmp_path / "m.sadc"
        with pytest.raises(ValueError, match=f"{net} network is 4x5, f is 4x3"):
            save_checkpoint(model, str(path))
        assert not path.exists()

    def test_save_refuses_a_tag_utf8_cannot_encode(self, tmp_path):
        path = tmp_path / "m.sadc"
        with pytest.raises(FormatError,
                           match=r"^encoder tag 't\\udc80' cannot be encoded as UTF-8$"):
            save_checkpoint(init_adapter(3, seed=0, encoder_tag="t\udc80",
                                         config=TrainConfig(hidden=2)), str(path))
        assert not path.exists()
        with pytest.raises(FormatError, match=r"^encoder tag 5 is int, not str$"):
            save_checkpoint(init_adapter(3, seed=0, encoder_tag=5), str(path))
        assert not path.exists()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.sadc"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(str(path))

    def test_corruption_detected_by_checksum(self, tmp_path):
        model = self.trained_like_model()
        path = tmp_path / "m.sadc"
        save_checkpoint(model, str(path))
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="checksum|truncated"):
            load_checkpoint(str(path))

    @staticmethod
    def hand_built(tag: bytes, config: bytes, dim=2, hidden=3, flags=1, fill=0.0) -> bytes:
        """A version 1 checkpoint with a correct CRC32 around the given fields.

        fill is a scalar or the parameters in file order: w1 b1 w2 b2 for f,
        p and, when flag 2 is set, f_corpus."""
        n_nets = 3 if flags & 2 else 2
        n_params = n_nets * (2 * dim * hidden + hidden + dim)
        payload = (struct.pack("<HIIB", 1, dim, hidden, flags)
                   + struct.pack("<I", len(tag)) + tag
                   + struct.pack("<I", len(config)) + config
                   + (np.zeros(n_params, dtype="<f4") + fill).astype("<f4").tobytes())
        return b"SADC" + payload + struct.pack("<I", zlib.crc32(payload))

    def test_hand_built_payload_loads(self, tmp_path):
        path = tmp_path / "m.sadc"
        config = json.dumps(TrainConfig(seed=7).to_dict()).encode()
        path.write_bytes(self.hand_built(b"enc", config))
        loaded = load_checkpoint(str(path))
        assert (loaded.dim, loaded.hidden, loaded.encoder_tag) == (2, 3, "enc")
        assert loaded.config_snapshot == TrainConfig(seed=7)

    @pytest.mark.parametrize("stored", [None, 5000])
    def test_removed_val_corpus_sample_key_is_dropped(self, tmp_path, stored):
        path = tmp_path / "m.sadc"
        config = dict(TrainConfig(seed=7).to_dict(), val_corpus_sample=stored)
        params = np.arange(2 * (2 * 2 * 3 + 3 + 2), dtype=np.float32) / 10
        path.write_bytes(self.hand_built(b"enc", json.dumps(config).encode(), fill=params))
        loaded = load_checkpoint(str(path))
        assert loaded.config_snapshot == TrainConfig(seed=7)
        flat = np.concatenate([a.ravel() for _, net in loaded.trainable() for a in net.arrays()])
        assert np.array_equal(flat, params)

    @pytest.mark.parametrize("model", [
        trained_like_model(),
        init_adapter(3, seed=2,
                     config=TrainConfig(hidden=5, use_skip=False, separate_adapters=True)),
    ], ids=["shared", "separate-no-skip"])
    def test_layout(self, tmp_path, model):
        path = tmp_path / "m.sadc"
        save_checkpoint(model, str(path))
        config = json.dumps(model.config_snapshot.to_dict(), sort_keys=True).encode()
        params = np.concatenate([a.ravel() for _, net in model.trainable() for a in net.arrays()])
        flags = int(model.use_skip) | 2 * int(model.separate_adapters)
        assert path.read_bytes() == self.hand_built(
            model.encoder_tag.encode(), config, model.dim, model.hidden, flags, params)

    @pytest.mark.parametrize("tag, config, fields, message", [
        (b"enc-\xff", b"{}", {}, "encoder tag is not valid UTF-8"),
        (b"enc", b'{"seed": 1', {}, "invalid config: not valid JSON"),
        (b"enc", b"[1, 2]", {}, "invalid config: not a JSON object, got list"),
        (b"enc", b'{"use_skip": "no"}', {}, "invalid config: use_skip must be bool"),
        (b"enc", b'{"seed": -1}', {}, "invalid config: seed must be non-negative"),
        (b"enc", b'{"seed": 1, "seed": 0}', {}, r"invalid config: repeated keys: \['seed'\]$"),
        (b"enc", b"{}", {"fill": np.nan}, "f network: w1 contains non-finite entries"),
        (b"enc", b"{}", {"fill": np.r_[np.zeros(34), np.inf, np.zeros(16)], "flags": 3},
         "f_corpus network: w1 contains non-finite"),
        (b"enc", b"{}", {"dim": 0}, "dim and hidden must be >= 1"),
        (b"enc", b"{}", {"hidden": 0}, "dim and hidden must be >= 1"),
        (b"enc", b"{}", {"flags": 0xFF}, "unknown flag bits 0xff"),
        (b"enc", b"{}", {"flags": 5}, "unknown flag bits 0x05"),
    ], ids=["tag-not-utf8", "config-not-json", "config-not-object", "config-bad-type",
            "negative-seed", "repeated-key", "nan-weights",
            "inf-in-f-corpus", "dim-0", "hidden-0", "flags-ff", "flag-bit-4"])
    def test_crc_valid_bad_fields_raise_format_error(self, tmp_path, tag, config, fields,
                                                     message):
        path = tmp_path / "m.sadc"
        path.write_bytes(self.hand_built(tag, config, **fields))
        with pytest.raises(FormatError, match=message):
            load_checkpoint(str(path))
