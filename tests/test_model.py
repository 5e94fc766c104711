"""Model wiring: shapes, sharing, deterministic init, checkpoint format."""

import struct
import zlib

import numpy as np
import pytest

from aift import (Adam, AiftParams, Tensor, TrainConfig, discriminate, generate, init_params,
                  load_checkpoint, save_checkpoint, spectrum_image, train, train_step)
from aift.errors import ConfigurationError, DimensionError, IntegrityError
from aift.model import F2I, I2F, _layer_plan
import aift.autodiff as ad


def small_params(seed=0):
    return init_params(16, seed, base_channels=4)


def seal(body):
    """A version-2 checkpoint body with its CRC32 appended."""
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def packed(offset, fmt, value):
    """An edit that writes ``value`` at ``offset`` of a checkpoint body."""
    def edit(body):
        struct.pack_into(fmt, body, offset, value)
        return body
    return edit


def with_overflowing_shape(blob, version):
    """The saved checkpoint ``blob`` as a file of ``version`` in which
    gen.enc.0.w is declared as (2**31, 2**31, 4): 2**64 values, which is 0
    in int64."""
    body = bytearray(blob[:-4])
    at = body.index(b"gen.enc.0.w") + len("gen.enc.0.w")
    body[at:at + 4 + 4 * 4] = struct.pack("<4I", 3, 2**31, 2**31, 4)
    struct.pack_into("<H", body, 4, version)
    return seal(body) if version == 2 else bytes(body)


class TestInit:
    def test_deterministic(self):
        a = init_params(32, seed=9, base_channels=8)
        b = init_params(32, seed=9, base_channels=8)
        assert list(a.tensors) == list(b.tensors)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name].data, b.tensors[name].data)

    def test_seed_changes_weights(self):
        a = init_params(16, seed=0, base_channels=4)
        b = init_params(16, seed=1, base_channels=4)
        assert not np.array_equal(a.tensors["gen.enc.0.w"].data,
                                  b.tensors["gen.enc.0.w"].data)

    def test_biases_zero_and_bounds(self):
        p = small_params()
        for name, t in p.tensors.items():
            if name.endswith(".b"):
                assert not t.data.any()
            else:
                assert np.all(np.abs(t.data) <= np.sqrt(6.0))

    def test_patch_size_validation(self):
        with pytest.raises(ConfigurationError):
            init_params(24, 0)
        with pytest.raises(ConfigurationError):
            init_params(16, -1)

    @pytest.mark.parametrize("base", [0, -4])
    def test_base_channels_validation(self, base):
        with pytest.raises(ConfigurationError, match=f"base_channels must be >= 1, got {base}"):
            init_params(16, 0, base_channels=base)

    def test_channel_progression(self):
        p = init_params(16, 0, base_channels=4)
        assert p.stage_channels() == [4, 8, 16, 32]
        assert p.tensors["gen.enc.3.w"].shape == (32, 16, 4, 4)


class TestForward:
    @pytest.mark.parametrize("patch", [16, 32])
    def test_generator_shapes(self, patch):
        p = init_params(patch, 0, base_channels=4)
        x = Tensor(np.random.default_rng(0).uniform(0, 1, (2, 1, patch, patch)))
        for direction in (I2F, F2I):
            out = generate(p, x, direction)
            assert out.shape == (2, 1, patch, patch)
            assert out.data.min() > 0.0 and out.data.max() < 1.0

    def test_discriminator_shape_and_range(self):
        p = small_params()
        x = Tensor(np.random.default_rng(1).uniform(0, 1, (3, 1, 16, 16)))
        for domain in ("image", "frequency"):
            out = discriminate(p, x, domain)
            assert out.shape == (3, 1)
            assert np.all((out.data > 0.0) & (out.data < 1.0))

    def test_directions_share_the_encoder(self):
        # same input, both directions: gradients from either land on enc weights
        p = small_params()
        x = Tensor(np.random.default_rng(2).uniform(0, 1, (1, 1, 16, 16)))
        ad.mean(generate(p, x, I2F)).backward()
        g_i2f = p.tensors["gen.enc.0.w"].grad.copy()
        for t in p.tensors.values():
            t.grad = None
        ad.mean(generate(p, x, F2I)).backward()
        g_f2i = p.tensors["gen.enc.0.w"].grad
        assert g_i2f is not None and g_f2i is not None
        assert not np.array_equal(g_i2f, g_f2i)  # different heads, same trunk

    def test_domains_share_the_trunk(self):
        p = small_params()
        x = Tensor(np.random.default_rng(3).uniform(0, 1, (1, 1, 16, 16)))
        ad.mean(discriminate(p, x, "image")).backward()
        assert p.tensors["disc.trunk.0.w"].grad is not None
        assert p.tensors["disc.freq_head.w"].grad is None
        assert p.tensors["disc.image_head.w"].grad is not None

    def test_gradient_reaches_every_generator_parameter(self):
        p = small_params()
        x = Tensor(np.random.default_rng(4).uniform(0, 1, (2, 1, 16, 16)))
        loss = ad.add(ad.mean(generate(p, x, I2F)), ad.mean(generate(p, x, F2I)))
        loss.backward()
        for name, t in p.tensors.items():
            if name.startswith("gen."):
                assert t.grad is not None, f"no gradient reached {name}"
                assert np.any(t.grad != 0.0), f"zero gradient at {name}"

    def test_input_shape_checked(self):
        p = small_params()
        with pytest.raises(DimensionError):
            generate(p, Tensor(np.zeros((1, 1, 8, 8))), I2F)

    @pytest.mark.parametrize("run, message", [
        (generate, "direction must be one of"), (discriminate, "domain must be one of")],
        ids=["generate", "discriminate"])
    def test_unknown_direction_or_domain_rejected(self, run, message):
        with pytest.raises(ConfigurationError, match=f"{message} .*, got 'sideways'"):
            run(small_params(), Tensor(np.zeros((1, 1, 16, 16))), "sideways")

    @pytest.mark.parametrize("run", [lambda p, x: generate(p, x, I2F),
                                     lambda p, x: discriminate(p, x, "frequency")],
                             ids=["generate", "discriminate"])
    def test_empty_batch_rejected(self, run):
        with pytest.raises(DimensionError, match=r"with N >= 1, got \(0, 1, 16, 16\)"):
            run(small_params(), Tensor(np.zeros((0, 1, 16, 16), np.float32)))

    def test_same_seed_same_outputs(self):
        x = np.random.default_rng(5).uniform(0, 1, (1, 1, 16, 16))
        a = generate(small_params(7), Tensor(x), I2F).data
        b = generate(small_params(7), Tensor(x), I2F).data
        np.testing.assert_array_equal(a, b)


class TestCheckpoint:
    def test_roundtrip_preserves_every_tensor(self, tmp_path):
        p = small_params(3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        assert q.patch_size == p.patch_size
        assert q.base_channels == p.base_channels
        assert q.seed == p.seed
        assert list(q.tensors) == list(p.tensors)
        for name in p.tensors:
            np.testing.assert_array_equal(
                q.tensors[name].data,
                p.tensors[name].data.astype(np.float32).astype(np.float64))

    def test_save_load_save_is_byte_stable(self, tmp_path):
        # float32 quantization is idempotent, so the second file is identical
        p = small_params(8)
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(p, a)
        save_checkpoint(load_checkpoint(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_do_not_depend_on_memory_layout(self, tmp_path):
        p = small_params(4)
        c_order = AiftParams(p.patch_size, p.base_channels, p.seed,
                             {name: Tensor(np.ascontiguousarray(t.data))
                              for name, t in p.tensors.items()})
        assert not all(t.data.flags.c_contiguous for t in p.tensors.values())
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(p, a)
        save_checkpoint(c_order, b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_rejects_truncation(self, tmp_path):
        p = small_params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_rejects_trailing_garbage(self, tmp_path):
        p = small_params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        path.write_bytes(seal(path.read_bytes()[:-4] + b"x"))
        with pytest.raises(IntegrityError, match="trailing"):
            load_checkpoint(path)

    def test_rejects_a_name_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_params(), path)
        blob = bytearray(path.read_bytes())
        blob[blob.index(b"gen.enc.0.w")] = 0xFF
        path.write_bytes(seal(blob[:-4]))
        with pytest.raises(IntegrityError, match="listing"):
            load_checkpoint(path)

    def test_rejects_a_flipped_data_byte(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_params(), path)
        blob = bytearray(path.read_bytes())
        # one byte of gen.enc.0.w's float data, past its name, rank and shape
        blob[blob.index(b"gen.enc.0.w") + len("gen.enc.0.w") + 4 + 4 * 4] ^= 0x7F
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="checksum"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_rejects_a_shape_whose_size_overflows(self, version, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_params(), path)
        path.write_bytes(with_overflowing_shape(path.read_bytes(), version))
        with pytest.raises(IntegrityError, match="listing"):
            load_checkpoint(path)

    # header offsets: version 4, patch size 6, seed 10, stage count 18, the
    # four stage widths 22 (4, 8, 16, 32 for small_params), tensor count 38
    @pytest.mark.parametrize("edit, message", [
        (lambda body: body[:len(body) // 2], "^checkpoint truncated$"),
        (packed(4, "<H", 3), "^unsupported checkpoint version 3$"),
        (packed(6, "<I", 48), "^checkpoint declares unsupported patch size 48$"),
        (packed(26, "<I", 12),
         r"^checkpoint declares malformed channel widths \[4, 12, 16, 32\]$"),
        (packed(38, "<I", 33), "listing"),
    ], ids=["truncated", "version-3", "patch-size-48", "widths-not-doubling", "count-33"])
    def test_rejects_a_sealed_malformed_file(self, edit, message, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_params(), path)
        path.write_bytes(seal(edit(bytearray(path.read_bytes()[:-4]))))
        with pytest.raises(IntegrityError, match=message):
            load_checkpoint(path)

    def test_version_1_without_checksum_still_loads(self, tmp_path):
        p = small_params(4)
        v2, v1 = tmp_path / "v2.ckpt", tmp_path / "v1.ckpt"
        save_checkpoint(p, v2)
        blob = bytearray(v2.read_bytes()[:-4])
        assert struct.unpack_from("<H", blob, 4) == (2,)
        struct.pack_into("<H", blob, 4, 1)
        v1.write_bytes(bytes(blob))
        q = load_checkpoint(v1)
        assert (q.patch_size, q.base_channels, q.seed) == (16, 4, 4)
        for name, t in p.tensors.items():
            np.testing.assert_array_equal(q.tensors[name].data, t.data)
        # saving it again writes the current version
        save_checkpoint(q, v1)
        assert v1.read_bytes() == v2.read_bytes()

    def test_layer_plan_matches_tensor_listing(self):
        p = init_params(32, 0, base_channels=8)
        assert [(n, t.shape) for n, t in p.tensors.items()] == _layer_plan(32, 8)

    def test_loaded_params_are_trainable(self, tmp_path):
        p = small_params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        x = Tensor(np.random.default_rng(6).uniform(0, 1, (1, 1, 16, 16)))
        ad.mean(generate(q, x, I2F)).backward()
        assert q.tensors["gen.enc.0.w"].grad is not None


class TestKernelLayout:
    """Every kernel [A, B, kh, kw] of the 16 conv layers is stored laid out
    (A, kh, kw, B), the tap-major order in which every conv GEMM reads it;
    its gradient and Adam moments keep that layout."""

    @staticmethod
    def kernels(params):
        kernels = {n: t for n, t in params.tensors.items() if t.data.ndim == 4}
        assert len(kernels) == 16 and all(n.endswith(".w") for n in kernels)
        return kernels

    @staticmethod
    def assert_channel_last(arrays):
        for name, a in arrays.items():
            assert a.transpose(0, 2, 3, 1).flags.c_contiguous, name

    def assert_layouts(self, params):
        self.assert_channel_last({n: t.data for n, t in self.kernels(params).items()})

    def test_after_init(self):
        self.assert_layouts(init_params(32, 0, base_channels=8))

    def test_after_load(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(32, 1, base_channels=8), path)
        self.assert_layouts(load_checkpoint(path))

    def test_after_training(self):
        rng = np.random.default_rng(7)
        images = rng.uniform(0, 1, (6, 1, 16, 16))
        freqs = np.stack([spectrum_image(im[0]) for im in images])[:, None]
        cfg = TrainConfig(epochs=2, batch_size=3, lam=0.1, critic_iters=2, lr=1e-3,
                          loss_mode="total", seed=0, base_channels=4)
        params, _ = train((images, freqs), cfg)
        self.assert_layouts(params)

    def test_gradients_and_adam_moments_after_a_train_step(self):
        rng = np.random.default_rng(8)
        images = rng.uniform(0, 1, (3, 1, 16, 16))
        freqs = np.stack([spectrum_image(im[0]) for im in images])[:, None]
        cfg = TrainConfig(batch_size=3, critic_iters=2, lr=1e-3, loss_mode="total",
                          base_channels=4)
        params = small_params()
        g_opt = Adam(params.generator_tensors(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
        d_opt = Adam(params.discriminator_tensors(), lr=cfg.lr, beta1=cfg.beta1,
                     beta2=cfg.beta2)
        train_step(params, (images, freqs), cfg, g_opt, d_opt)
        kernels = self.kernels(params)
        self.assert_channel_last({n: t.data for n, t in kernels.items()})
        self.assert_channel_last({n: t.grad for n, t in kernels.items()})
        moments = {}
        for group, opt in ((params.generator_tensors(), g_opt),
                           (params.discriminator_tensors(), d_opt)):
            for name, m, v in zip(group, opt.m, opt.v):
                if name in kernels:
                    moments[name + ".m"], moments[name + ".v"] = m, v
        assert len(moments) == 32
        self.assert_channel_last(moments)
