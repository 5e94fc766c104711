"""Image I/O, patch extraction, manifests and the synthetic corpus."""

import contextlib
import sys
import time
import types

import numpy as np
import pytest

from aift.data import (
    DatasetManifest,
    ManifestEntry,
    SynthConfig,
    extract_patches,
    load_image,
    normalize_patch,
    read_pgm,
    synth_corpus,
    write_pgm,
)
from aift.errors import ConfigurationError, DomainError, InputError


class TestPgmIo:
    def test_roundtrip_8bit_within_quantization(self, tmp_path):
        rng = np.random.default_rng(7)
        img = rng.uniform(0.0, 1.0, (11, 17))
        path = tmp_path / "a.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == img.shape
        np.testing.assert_allclose(back, img, atol=0.5 / 255 + 1e-12)

    def test_roundtrip_16bit_exact_levels(self, tmp_path):
        levels = np.arange(12, dtype=np.float64).reshape(3, 4) * 37
        img = levels / 65535.0
        path = tmp_path / "b.pgm"
        write_pgm(path, img, maxval=65535)
        back = read_pgm(path)
        np.testing.assert_array_equal(back * 65535.0, levels)

    def test_write_then_read_is_idempotent(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.uniform(0.0, 1.0, (9, 9))
        p1 = tmp_path / "one.pgm"
        p2 = tmp_path / "two.pgm"
        write_pgm(p1, img)
        write_pgm(p2, read_pgm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_ascii_p2_is_unsupported_magic(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_text("P2 # magic\n# a comment line\n3 2\n10\n0 5 10\n10 5 0\n")
        with pytest.raises(InputError, match="unsupported magic 'P2', expected P5"):
            read_pgm(path)

    def test_binary_header_comment(self, tmp_path):
        path = tmp_path / "c.pgm"
        body = bytes([0, 128, 255, 64])
        path.write_bytes(b"P5\n# shot with rig 3\n2 2\n255\n" + body)
        img = read_pgm(path)
        assert img.shape == (2, 2)
        assert img[0, 2 - 2] == 0.0
        assert img[0, 1] == 128 / 255
        assert img[1, 0] == 1.0

    def test_comments_glued_to_tokens(self, tmp_path):
        path = tmp_path / "glued.pgm"
        path.write_bytes(b"P5#c\n2#w\r1 255\n" + bytes([3, 255]))
        np.testing.assert_array_equal(read_pgm(path), [[3 / 255, 1.0]])

    def test_comment_after_maxval_rejected(self, tmp_path):
        # maxval ends in exactly one whitespace byte; the raster is not a comment's tail
        path = tmp_path / "tail.pgm"
        path.write_bytes(b"P5\n1 1\n255#x\n\x07")
        with pytest.raises(InputError, match="malformed or truncated PGM header"):
            read_pgm(path)

    def test_unterminated_comments_fail_fast(self, tmp_path):
        path = tmp_path / "hostile.pgm"
        path.write_bytes(b"P5 " + b"# " * 10000 + b"x")
        started = time.perf_counter()
        with pytest.raises(InputError):
            read_pgm(path)
        assert time.perf_counter() - started < 1.0

    def test_long_comment_is_read(self, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5 #" + b" #" * 100000 + b"\n1 1 255\n" + bytes([51]))
        assert read_pgm(path)[0, 0] == 51 / 255

    def test_16bit_is_big_endian(self, tmp_path):
        path = tmp_path / "be.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + bytes([0x01, 0x00]))
        assert read_pgm(path)[0, 0] == 256 / 65535

    def test_nonstandard_maxval_scales(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 1\n100\n" + bytes([0, 100]))
        np.testing.assert_allclose(read_pgm(path), [[0.0, 1.0]])

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(15))
        with pytest.raises(InputError):
            read_pgm(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.pgm"
        path.write_bytes(b"P5\n4 4\n")
        with pytest.raises(InputError):
            read_pgm(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(InputError):
            read_pgm(path)

    def test_non_numeric_header_rejected(self, tmp_path):
        path = tmp_path / "nn.pgm"
        path.write_bytes(b"P5\nwide 1\n255\n\x00")
        with pytest.raises(InputError):
            read_pgm(path)

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5\n1 1\n10\n" + bytes([11]))
        with pytest.raises(InputError, match="sample exceeds declared maxval 10"):
            read_pgm(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError):
            read_pgm(tmp_path / "nope.pgm")

    @pytest.mark.parametrize("header, raster", [
        (b"P5\n0 1\n255\n", b""),
        (b"P5\n1 0\n255\n", b""),
        (b"P5\n1 1\n0\n", bytes(1)),
        (b"P5\n1 1\n65536\n", bytes(2)),
    ], ids=["width-0", "height-0", "maxval-0", "maxval-65536"])
    def test_invalid_dimensions_rejected(self, header, raster, tmp_path):
        path = tmp_path / "dims.pgm"
        path.write_bytes(header + raster)
        with pytest.raises(InputError, match="invalid PGM dimensions"):
            read_pgm(path)

    def test_write_rejects_non_2d(self, tmp_path):
        with pytest.raises(InputError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))

    def test_write_rejects_nan(self, tmp_path):
        img = np.full((2, 2), 0.5)
        img[1, 0] = np.nan
        with pytest.raises(InputError, match="NaN"):
            write_pgm(tmp_path / "x.pgm", img)
        assert not (tmp_path / "x.pgm").exists()

    def test_write_rejects_odd_maxval(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2)), maxval=1000)


class TestLoadImage:
    def test_pgm_dispatch(self, tmp_path):
        img = np.linspace(0, 1, 16).reshape(4, 4)
        path = tmp_path / "d.pgm"
        write_pgm(path, img, maxval=65535)
        np.testing.assert_allclose(load_image(path), img, atol=1e-4)

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "d.bmp"
        path.write_bytes(b"BM")
        with pytest.raises(InputError):
            load_image(path)

    def test_ppm_is_an_unsupported_format(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        with pytest.raises(InputError, match="unsupported image format '.ppm'"):
            load_image(path)

    def test_png_grayscale(self, tmp_path):
        Image = pytest.importorskip("PIL.Image")
        arr = np.arange(16, dtype=np.uint8).reshape(4, 4) * 17
        path = tmp_path / "g.png"
        Image.fromarray(arr, mode="L").save(path)
        np.testing.assert_allclose(load_image(path), arr / 255.0)

    def test_png_color_collapses_to_luma(self, tmp_path):
        Image = pytest.importorskip("PIL.Image")
        rgb = np.zeros((2, 2, 3), dtype=np.uint8)
        rgb[..., 0] = 255  # pure red
        path = tmp_path / "r.png"
        Image.fromarray(rgb, mode="RGB").save(path)
        np.testing.assert_allclose(load_image(path), np.full((2, 2), 0.299), atol=1e-9)

    @pytest.mark.parametrize("arr, expected", [
        (np.array([[0, 51], [204, 255]], dtype=np.uint8), [[0.0, 0.2], [0.8, 1.0]]),
        (np.array([[0, 13107], [65535, 257]], dtype=np.uint16),
         [[0.0, 0.2], [1.0, 257 / 65535]]),
        (np.array([[[51, 255]], [[255, 0]]], dtype=np.uint8), [[0.2], [1.0]]),
        (np.array([[[255, 0, 0]], [[0, 255, 0]], [[0, 0, 255]]], dtype=np.uint8),
         [[0.299], [0.587], [0.114]]),
        (np.array([[[255, 0, 0, 7]], [[0, 0, 0, 255]]], dtype=np.uint8), [[0.299], [0.0]]),
    ], ids=["gray8", "gray16", "two-channel", "rgb", "rgba"])
    def test_png_modes_through_a_stub_pillow(self, arr, expected, tmp_path, monkeypatch):
        opened = []

        def open_png(path):
            opened.append(path)
            return contextlib.nullcontext(arr)

        pil = types.ModuleType("PIL")
        pil.Image = types.SimpleNamespace(open=open_png)
        monkeypatch.setitem(sys.modules, "PIL", pil)
        path = tmp_path / "s.png"
        out = load_image(path)
        assert opened == [path]
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("error", [OSError("image file is truncated"),
                                       FileNotFoundError(2, "No such file or directory")],
                             ids=["unreadable", "missing"])
    def test_png_open_error_is_input_error(self, error, tmp_path, monkeypatch):
        def open_png(path):
            raise error

        pil = types.ModuleType("PIL")
        pil.Image = types.SimpleNamespace(open=open_png)
        monkeypatch.setitem(sys.modules, "PIL", pil)
        path = tmp_path / "s.png"
        with pytest.raises(InputError, match=f"cannot read {path}"):
            load_image(path)

    def test_png_without_pillow_names_the_extra(self, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "PIL", None)  # makes the import fail
        with pytest.raises(InputError, match=r"aift\[png\]"):
            load_image(tmp_path / "s.png")


class TestNormalizePatch:
    def test_full_range_output(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            patch = rng.uniform(-3, 9, (8, 8))
            out = normalize_patch(patch)
            assert out.min() == 0.0
            assert out.max() == 1.0

    def test_affine_map_preserves_ordering(self):
        patch = np.array([[2.0, 4.0], [6.0, 10.0]])
        np.testing.assert_allclose(normalize_patch(patch),
                                   [[0.0, 0.25], [0.5, 1.0]])

    def test_constant_patch_maps_to_zeros(self):
        np.testing.assert_array_equal(normalize_patch(np.full((5, 5), 0.7)),
                                      np.zeros((5, 5)))

    def test_already_normalized_is_unchanged(self):
        patch = np.array([[0.0, 0.5], [0.25, 1.0]])
        np.testing.assert_array_equal(normalize_patch(patch), patch)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, value):
        patch = np.zeros((4, 4))
        patch[1, 2] = value
        with pytest.raises(DomainError, match="non-finite"):
            normalize_patch(patch)


class TestExtractPatches:
    def test_exact_tiling(self):
        img = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        tiles = extract_patches(img, 32)
        assert [(y, x) for y, x, _ in tiles] == [(0, 0), (0, 32), (32, 0), (32, 32)]
        for y, x, patch in tiles:
            np.testing.assert_array_equal(patch, img[y:y + 32, x:x + 32])

    def test_remainder_adds_edge_aligned_row(self):
        img = np.zeros((48, 48))
        tiles = extract_patches(img, 32, stride=32)
        offsets = sorted({y for y, _, _ in tiles})
        assert offsets == [0, 16]
        assert len(tiles) == 4

    def test_overlapping_stride(self):
        img = np.zeros((32, 32))
        tiles = extract_patches(img, 16, stride=8)
        assert len(tiles) == 9
        assert sorted({y for y, _, _ in tiles}) == [0, 8, 16]

    def test_every_pixel_covered(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = int(rng.integers(16, 50))
            w = int(rng.integers(16, 50))
            stride = int(rng.integers(4, 17))
            cover = np.zeros((h, w), dtype=int)
            for y, x, _ in extract_patches(np.zeros((h, w)), 16, stride=stride):
                cover[y:y + 16, x:x + 16] += 1
            assert cover.min() >= 1

    def test_patches_are_copies(self):
        img = np.zeros((16, 16))
        _, _, patch = extract_patches(img, 16)[0]
        patch[0, 0] = 5.0
        assert img[0, 0] == 0.0

    def test_patch_larger_than_image_rejected(self):
        with pytest.raises(InputError):
            extract_patches(np.zeros((8, 8)), 16)

    def test_bad_stride_rejected(self):
        # stride 5 over 4 px patches would leave 19 of the 100 pixels uncovered
        for size, patch, stride in ((16, 8, 0), (10, 4, 5)):
            with pytest.raises(InputError):
                extract_patches(np.zeros((size, size)), patch, stride=stride)

    def test_non_2d_rejected(self):
        with pytest.raises(InputError):
            extract_patches(np.zeros((4, 4, 4)), 2)


class TestManifest:
    def entries(self):
        return [
            ManifestEntry("normal/a.pgm", "", "normal", "train"),
            ManifestEntry("normal/b.pgm", "masks/b.pgm", "normal", "test"),
            ManifestEntry("defect/c.pgm", "masks/c.pgm", "defect", "test"),
        ]

    def test_save_load_roundtrip(self, tmp_path):
        manifest = DatasetManifest(tmp_path, self.entries())
        manifest.save()
        back = DatasetManifest.load(tmp_path)
        assert back.entries == manifest.entries
        assert back.root == tmp_path

    def test_split_filters(self, tmp_path):
        manifest = DatasetManifest(tmp_path, self.entries())
        assert [e.path for e in manifest.train_entries()] == ["normal/a.pgm"]
        assert [e.path for e in manifest.test_entries()] == ["normal/b.pgm", "defect/c.pgm"]

    def test_path_helpers(self, tmp_path):
        manifest = DatasetManifest(tmp_path, self.entries())
        train, test_normal, _ = manifest.entries
        assert manifest.image_path(train) == tmp_path / "normal/a.pgm"
        assert manifest.mask_path(train) is None
        assert manifest.mask_path(test_normal) == tmp_path / "masks/b.pgm"

    def test_defect_in_train_split_rejected(self, tmp_path):
        with pytest.raises(InputError):
            DatasetManifest(tmp_path, [ManifestEntry("x.pgm", "", "defect", "train")])

    def test_unknown_label_rejected(self, tmp_path):
        with pytest.raises(InputError):
            DatasetManifest(tmp_path, [ManifestEntry("x.pgm", "", "cracked", "test")])

    def test_unknown_split_rejected(self, tmp_path):
        with pytest.raises(InputError):
            DatasetManifest(tmp_path, [ManifestEntry("x.pgm", "", "normal", "val")])

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(InputError):
            DatasetManifest.load(tmp_path)

    def test_wrong_header_rejected(self, tmp_path):
        (tmp_path / "manifest.csv").write_text("file,mask,label,split\n")
        with pytest.raises(InputError):
            DatasetManifest.load(tmp_path)

    def test_malformed_row_rejected(self, tmp_path):
        (tmp_path / "manifest.csv").write_text(
            "path,mask,label,split\nx.pgm,normal,test\n")
        with pytest.raises(InputError):
            DatasetManifest.load(tmp_path)


class TestSynthConfig:
    def test_validate_returns_self(self):
        cfg = SynthConfig(2, 1, 1)
        assert cfg.validate() is cfg

    def test_rejects_bad_settings(self):
        bad = [
            SynthConfig(0, 1, 1),
            SynthConfig(1, 0, 1),
            SynthConfig(1, 1, 0),
            SynthConfig(1, 1, 1, patch_size=4),
            SynthConfig(1, 1, 1, seed=-1),
        ]
        for cfg in bad:
            with pytest.raises(ConfigurationError):
                cfg.validate()


class TestSynthCorpus:
    def make(self, tmp_path, name="corpus", seed=9):
        cfg = SynthConfig(3, 2, 2, patch_size=16, seed=seed)
        return synth_corpus(cfg, tmp_path / name)

    def test_layout_and_counts(self, tmp_path):
        manifest = self.make(tmp_path)
        assert len(manifest.train_entries()) == 3
        tests = manifest.test_entries()
        assert len(tests) == 4
        assert sum(e.label == "defect" for e in tests) == 2
        for entry in manifest.entries:
            assert manifest.image_path(entry).is_file()
        assert (manifest.root / "manifest.csv").is_file()

    def test_train_split_is_normal_only(self, tmp_path):
        manifest = self.make(tmp_path)
        assert all(e.label == "normal" for e in manifest.train_entries())
        assert all(e.mask == "" for e in manifest.train_entries())

    def test_every_test_entry_has_a_mask(self, tmp_path):
        manifest = self.make(tmp_path)
        for entry in manifest.test_entries():
            mask_path = manifest.mask_path(entry)
            assert mask_path is not None and mask_path.is_file()
            mask = read_pgm(mask_path)
            if entry.label == "normal":
                assert not mask.any()
            else:
                assert mask.any()

    def test_images_are_valid_range(self, tmp_path):
        manifest = self.make(tmp_path)
        for entry in manifest.entries:
            img = read_pgm(manifest.image_path(entry))
            assert img.shape == (16, 16)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_crack_coverage_bounded(self, tmp_path):
        cfg = SynthConfig(1, 1, 8, patch_size=32, seed=1)
        manifest = synth_corpus(cfg, tmp_path / "c")
        for entry in manifest.test_entries():
            if entry.label != "defect":
                continue
            mask = read_pgm(manifest.mask_path(entry)) > 0.5
            frac = mask.mean()
            assert 0.0 < frac <= 0.20

    def test_cracks_are_darker_than_surroundings(self, tmp_path):
        cfg = SynthConfig(1, 1, 6, patch_size=32, seed=4)
        manifest = synth_corpus(cfg, tmp_path / "c")
        for entry in manifest.test_entries():
            if entry.label != "defect":
                continue
            img = read_pgm(manifest.image_path(entry))
            mask = read_pgm(manifest.mask_path(entry)) > 0.5
            assert img[mask].mean() < img[~mask].mean()

    def test_same_seed_is_byte_identical(self, tmp_path):
        m1 = self.make(tmp_path, "one", seed=21)
        m2 = self.make(tmp_path, "two", seed=21)
        files1 = sorted(p.relative_to(m1.root) for p in m1.root.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(m2.root) for p in m2.root.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (m1.root / rel).read_bytes() == (m2.root / rel).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        m1 = self.make(tmp_path, "one", seed=21)
        m2 = self.make(tmp_path, "two", seed=22)
        rel = m1.train_entries()[0].path
        assert (m1.root / rel).read_bytes() != (m2.root / rel).read_bytes()
