"""End-to-end command-line behavior: flags, config files, outputs, exit codes."""

import argparse
import fcntl
import json
import math
import os
import struct
import subprocess
import sys
import threading
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import aift
from aift import __version__
from aift.cli import (_build_parser, _load_training_arrays, _map_stem, _parse_args, _run_dir,
                      _train_config, main)
from aift.errors import IntegrityError
from aift.data import (DatasetManifest, ManifestEntry, SynthConfig, load_image, read_pgm,
                       write_pgm, normalize_patch)
from aift.detection import _CHUNK
from aift.model import generate, init_params, save_checkpoint
from aift.spectral import spectrum_image
from aift.training import TrainConfig, TrainLog, train
from oracles import tile_grid


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "corpus"
    rc = main(["synth", "--normal", "4", "--defect", "2",
               "--patch-size", "16", "--seed", "5", "--out", str(root)])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(init_params(16, seed=0, base_channels=4), path)
    return path


@pytest.fixture(scope="module")
def detect_run(corpus, ckpt, tmp_path_factory):
    out = tmp_path_factory.mktemp("detect") / "run"
    rc = main(["detect", "--ckpt", str(ckpt), "--data", str(corpus),
               "--out", str(out)])
    assert rc == 0
    return out


def patch_image(tmp_path, size=16, seed=2):
    rng = np.random.default_rng(seed)
    path = tmp_path / "patch.pgm"
    write_pgm(path, rng.uniform(0, 1, (size, size)))
    return path


def small_corpus(tmp_path, test_size=16, missing=False):
    """A corpus with one 16 px training image and one test image of ``test_size`` px."""
    data = tmp_path / "data"
    data.mkdir()
    write_pgm(data / "a.pgm", np.random.default_rng(1).uniform(0, 1, (16, 16)))
    if not missing:
        write_pgm(data / "t.pgm", np.random.default_rng(2).uniform(0, 1, (test_size,) * 2))
    DatasetManifest(data, [ManifestEntry("a.pgm", "", "normal", "train"),
                           ManifestEntry("t.pgm", "", "normal", "test")]).save()
    return data


def mixed_corpus(tmp_path):
    """A 16 px corpus whose test split mixes image sizes: five images, both
    labels, and more tiles than one generator pass scores."""
    data = tmp_path / "mixed"
    data.mkdir()
    rng = np.random.default_rng(6)
    shapes = [(16, 16), (16, 16), (24, 40), (16, 16), (40, 16), (16, 16), (16, 16)]
    entries = [ManifestEntry(f"n{i}.pgm", "", "normal", "train") for i in range(2)]
    entries += [ManifestEntry(f"t{i}.pgm", "", ("normal", "defect")[i % 2], "test")
                for i in range(5)]
    for entry, shape in zip(entries, shapes):
        write_pgm(data / entry.path, rng.uniform(0, 1, shape))
    DatasetManifest(data, entries).save()
    return data


def scoring_passes(data, monkeypatch):
    """Start counting the generator passes that scoring makes; returns the
    list that gathers them and the chunk count that the test split of
    ``data`` needs at the default stride."""
    manifest = DatasetManifest.load(data)
    tiles = sum(len(tile_grid(load_image(manifest.image_path(e)).shape, 16, 16))
                for e in manifest.test_entries())
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr("aift.detection.generate", counting)
    return calls, math.ceil(tiles / _CHUNK)


# learning rates and loss weights that parse as floats but are not finite
NON_FINITE = [["--lr", "nan"], ["--lr", "inf"], ["--lr", "1e400"], ["--lambda", "nan"],
              ["--lambda", "inf"]]


def assert_failed_without_output(rc, code, kind, capsys, out, *words):
    """``rc`` is ``code``, stderr is one ``aift: <kind>`` line, and ``out`` was never made."""
    assert rc == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"aift: {kind}"), err
    assert all(word in err[0] for word in words), err
    assert not out.exists()


def fresh_env() -> dict[str, str]:
    """The environment for a fresh interpreter that imports this ``aift``."""
    env = dict(os.environ)
    src = str(Path(aift.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_module(cwd, code, *argv):
    """Run ``python -m aift.cli *argv`` from ``cwd`` in a fresh interpreter.

    This is how the benchmark starts each stage, and unlike ``main`` it
    shows what numpy prints to stderr too.  Checks that the run exits with
    ``code``, prints exactly one stderr line and leaves the tree under
    ``cwd``, where the caller points ``--out``, as it found it.  Returns the
    stderr line.
    """
    before = sorted(cwd.rglob("*"))
    proc = subprocess.run([sys.executable, "-m", "aift.cli", *map(str, argv)],
                          cwd=cwd, env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1, err
    assert sorted(cwd.rglob("*")) == before
    return err[0]


@contextmanager
def held_lock(out):
    """Hold the run lock of directory ``out`` as another run would."""
    out.mkdir(parents=True, exist_ok=True)
    fd = os.open(out / ".aift-lock", os.O_RDWR | os.O_CREAT)
    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    try:
        yield
    finally:
        os.close(fd)


class TestArgumentHandling:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_config_file_sets_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("normal = 2  # train count\nseed = 9\n\n# blank lines ok\n")
        out = tmp_path / "out"
        rc = main(["synth", "--config", str(cfg), "--defect", "1",
                   "--patch-size", "8", "--out", str(out)])
        assert rc == 0
        echo = (out / "effective-config.txt").read_text()
        assert "normal = 2" in echo
        assert "seed = 9" in echo

    def test_defaults_come_from_the_config_classes(self):
        args = _parse_args(["train", "--data", "d", "--out", "o"])
        assert _train_config(args, args.loss, args.seed) == TrainConfig()
        args = _parse_args(["ablation", "--data", "d", "--seeds", "0", "--out", "o"])
        assert _train_config(args, "total", 0) == TrainConfig()
        args = _parse_args(["synth", "--normal", "1", "--defect", "1", "--out", "o"])
        assert args.patch_size == SynthConfig.patch_size

    @pytest.mark.parametrize("command, extra, loss_line", [
        ("train", [], "loss = total"),
        ("ablation", ["--seeds", "0"], "loss-modes = re,gan,total"),
    ])
    def test_training_defaults_in_the_config_echo(self, command, extra, loss_line, corpus,
                                                  tmp_path, monkeypatch):
        # an untrained stand-in model: the echo is of the parsed settings alone
        monkeypatch.setattr("aift.training.train",
                            lambda *a, **k: (init_params(16, seed=0, base_channels=2), TrainLog()))
        out = tmp_path / "run"
        assert main([command, "--data", str(corpus), *extra, "--out", str(out)]) == 0
        echo = (out / "effective-config.txt").read_text().splitlines()
        for line in ("epochs = 50", "batch = 64", "lambda = 0.1", "critic-iters = 10",
                     "lr = 0.0002", "base-channels = 32", loss_line):
            assert line in echo
        loss = _build_parser()[1]["train"]._option_string_actions["--loss"]
        assert loss.choices == ("re", "gan", "total")

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("normal = 2\n")
        out = tmp_path / "out"
        rc = main(["synth", "--config", str(cfg), "--normal", "3", "--defect", "1",
                   "--patch-size", "8", "--out", str(out)])
        assert rc == 0
        assert "normal = 3" in (out / "effective-config.txt").read_text()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        for line in ("lambda = 0.2", "help = 1", f"config = {cfg}"):
            cfg.write_text(line + "\n")
            rc = main(["synth", "--config", str(cfg), "--normal", "1", "--defect", "1",
                       "--out", str(tmp_path / "out")])
            assert rc == 2
            assert not (tmp_path / "out").exists()

    def test_detect_takes_no_mode(self, corpus, ckpt, tmp_path):
        # regeneration from the frequency encoding is the one scoring path
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = roundtrip\n")
        argv = ["detect", "--ckpt", ckpt, "--data", corpus, "--out", tmp_path / "run"]
        line = run_module(tmp_path, 2, *argv, "--mode", "fourier")
        assert line.startswith("aift: configuration error: unrecognized arguments: --mode")
        line = run_module(tmp_path, 2, *argv, "--config", cfg)
        assert line.startswith("aift: configuration error:")
        assert "unknown config key 'mode'" in line

    def test_config_value_type_checked(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("normal = many\n")
        rc = main(["synth", "--config", str(cfg), "--defect", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_config_choices_checked(self, tmp_path, corpus):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("loss = nope\n")
        rc = main(["train", "--config", str(cfg), "--data", str(corpus),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_missing_config_file(self, tmp_path):
        rc = main(["synth", "--config", str(tmp_path / "absent.cfg"),
                   "--normal", "1", "--defect", "1", "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a bare word\n")
        rc = main(["synth", "--config", str(cfg), "--normal", "1", "--defect", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_missing_required_setting(self, tmp_path):
        rc = main(["synth", "--normal", "1", "--out", str(tmp_path / "out")])
        assert rc == 2
        rc = main(["synth", "--normal", "1", "--defect", "1"])
        assert rc == 2

    def test_required_setting_from_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"defect = 1\nout = {tmp_path / 'out'}\n")
        rc = main(["synth", "--config", str(cfg), "--normal", "1",
                   "--patch-size", "8"])
        assert rc == 0
        assert (tmp_path / "out" / "manifest.csv").is_file()

    def test_lambda_alias_reaches_train_knob(self, tmp_path, corpus):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 0.25\nepochs = 1\nbatch = 4\n"
                       "critic-iters = 1\nbase-channels = 4\n")
        out = tmp_path / "out"
        rc = main(["train", "--config", str(cfg), "--data", str(corpus),
                   "--out", str(out)])
        assert rc == 0
        assert "lambda = 0.25" in (out / "effective-config.txt").read_text()

    @pytest.mark.parametrize("argv", [
        ["synth", "--normal", "x", "--defect", "1", "--out", "unused"],
        ["synth", "--normal", "1", "--defect", "1", "--bogus", "--out", "unused"],
        ["train", "--data", "unused", "--loss", "nope", "--out", "unused"],
        ["eval", "--score", "absent.csv", "--out", "unused"],
        [],
    ], ids=["bad-int", "unknown-flag", "bad-choice", "abbreviated-flag", "no-command"])
    def test_flag_errors_share_the_config_error_path(self, argv, capsys):
        assert main(argv) == 2  # returns rather than raising SystemExit
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("aift: configuration error: ")

    @pytest.mark.parametrize("command, setting, word", [
        ("synth", ["--force"], "--force"),
        ("train", ["--beta1", "0.9"], "--beta1"),
        ("synth", "force = yes", "'force'"),
        ("ablation", "beta2 = 0.9", "'beta2'"),
    ], ids=["force-flag", "beta1-flag", "force-key", "beta2-key"])
    def test_removed_settings_are_rejected(self, command, setting, word, corpus,
                                           tmp_path, capsys):
        # synth never wipes a directory, and Adam's betas are constants
        if isinstance(setting, str):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(setting + "\n")
            setting = ["--config", str(cfg)]
        argv = {"synth": ["--normal", "1", "--defect", "1", "--patch-size", "8"],
                "train": ["--data", str(corpus)],
                "ablation": ["--data", str(corpus), "--seeds", "0"]}[command]
        out = tmp_path / "out"
        rc = main([command, *argv, *setting, "--out", str(out)])
        assert_failed_without_output(rc, 2, "configuration error", capsys, out, word)

    def test_non_utf8_config_is_config_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"normal = 2\n\xff\n")
        line = run_module(tmp_path, 2, "synth", "--config", cfg, "--defect", "1",
                          "--out", tmp_path / "out")
        assert line.startswith(f"aift: configuration error: cannot read config file {cfg}")


class TestSeedResolution:
    def test_default_seed_is_zero(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["synth", "--normal", "1", "--defect", "1",
                   "--patch-size", "8", "--out", str(out)])
        assert rc == 0
        assert "seed = 0" in (out / "effective-config.txt").read_text()

    @pytest.mark.parametrize("value", ["7", "lots"])
    def test_environment_does_not_set_the_seed(self, value, tmp_path, monkeypatch):
        def corpus_bytes(out):
            assert main(["synth", "--normal", "2", "--defect", "1",
                         "--patch-size", "8", "--out", str(out)]) == 0
            assert "seed = 0" in (out / "effective-config.txt").read_text().splitlines()
            # the echo names --out, so it differs between the two runs
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                    if p.is_file() and p.name != "effective-config.txt"}

        monkeypatch.delenv("AIFT_SEED", raising=False)
        plain = corpus_bytes(tmp_path / "plain")
        monkeypatch.setenv("AIFT_SEED", value)
        assert plain and corpus_bytes(tmp_path / "env") == plain

    def test_flag_sets_the_seed(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["synth", "--normal", "1", "--defect", "1",
                   "--patch-size", "8", "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert "seed = 3" in (out / "effective-config.txt").read_text()

    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\n")
        for extra, expected in (([], "seed = 9"), (["--seed", "3"], "seed = 3")):
            out = tmp_path / f"out{len(extra)}"
            rc = main(["synth", "--config", str(cfg), "--normal", "1", "--defect", "1",
                       "--patch-size", "8", *extra, "--out", str(out)])
            assert rc == 0
            assert expected in (out / "effective-config.txt").read_text().splitlines()

    def test_negative_seed_rejected(self, tmp_path):
        rc = main(["synth", "--normal", "1", "--defect", "1", "--seed", "-4",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["transform", "detect", "eval", "ablation"])
    def test_no_seed_where_nothing_is_random(self, command, corpus, ckpt, tmp_path):
        argv = {"transform": ["--ckpt", str(ckpt), "--image", str(patch_image(tmp_path))],
                "detect": ["--ckpt", str(ckpt), "--data", str(corpus)],
                "eval": ["--scores", str(tmp_path / "scores.csv")],
                "ablation": ["--data", str(corpus), "--seeds", "0", "--loss-modes", "re",
                             "--epochs", "1", "--batch", "4", "--base-channels", "4"],
                }[command]
        (tmp_path / "scores.csv").write_text("path,label,image_score\na,defect,1.0\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\n")
        for extra in (["--seed", "1"], ["--config", str(cfg)]):
            out = tmp_path / "out"
            assert main([command, *argv, *extra, "--out", str(out)]) == 2
            assert not out.exists()


class TestRunDirProtocol:
    def test_effective_config_echo(self, corpus):
        echo = (corpus / "effective-config.txt").read_text().splitlines()
        assert echo[0] == f"# aift {__version__}"
        assert echo[1] == "command = synth"
        keys = [line.split(" = ")[0] for line in echo[2:]]
        assert keys == sorted(keys)

    def test_lock_released_after_run(self, corpus):
        # the empty lock file stays behind; only a held flock is a lock
        lock = corpus / ".aift-lock"
        assert lock.read_bytes() == b""
        fd = os.open(lock, os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            os.close(fd)

    @staticmethod
    def _eval_into(tmp_path, out):
        scores = tmp_path / "scores.csv"
        scores.write_text("path,label,image_score\na,defect,0.9\nb,normal,0.1\n")
        return main(["eval", "--scores", str(scores), "--out", str(out)])

    def test_held_lock_fails_with_integrity_code(self, tmp_path):
        out = tmp_path / "busy"
        with held_lock(out):
            assert self._eval_into(tmp_path, out) == 4
        assert not (out / "report.csv").exists()
        assert not (out / "effective-config.txt").exists()

    @pytest.mark.parametrize("command, below", [("eval", ""), ("eval", "sub"), ("synth", "")],
                             ids=["file", "below-file", "synth-file"])
    def test_out_at_or_below_a_file_is_integrity_error(self, command, below, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("x")
        scores = tmp_path / "scores.csv"
        scores.write_text("path,label,image_score\na,defect,0.9\nb,normal,0.1\n")
        argv = {"eval": ["--scores", scores],
                "synth": ["--normal", "1", "--defect", "1", "--patch-size", "8"]}[command]
        line = run_module(tmp_path, 4, command, *argv, "--out", taken / below)
        assert line.startswith("aift: integrity error: cannot create output directory")
        assert taken.read_text() == "x"

    def test_lock_of_a_dead_run_is_taken_over(self, tmp_path):
        out = tmp_path / "orphan"
        out.mkdir()
        lock = out / ".aift-lock"
        holder_code = ("import fcntl, os, sys\n"
                       f"fd = os.open({str(lock)!r}, os.O_RDWR | os.O_CREAT)\n"
                       "fcntl.flock(fd, fcntl.LOCK_EX)\n"
                       "print('held', flush=True)\n"
                       "sys.stdin.read()\n")
        with subprocess.Popen([sys.executable, "-c", holder_code], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True) as holder:
            try:
                assert holder.stdout.readline() == "held\n"
                assert self._eval_into(tmp_path, out) == 4
            finally:
                holder.kill()  # SIGKILL: the holder gets no chance to clean up
        assert self._eval_into(tmp_path, out) == 0
        assert (out / "report.csv").is_file()
        assert lock.read_bytes() == b""

    def test_failed_config_echo_releases_the_lock(self, tmp_path):
        out = tmp_path / "run"
        args = argparse.Namespace(out=str(out), command="eval")
        (out / "effective-config.txt").mkdir(parents=True)  # not writable as a file
        with pytest.raises(OSError):
            _run_dir(args).__enter__()
        (out / "effective-config.txt").rmdir()
        with _run_dir(args):
            pass

    def test_concurrent_takeovers_leave_one_holder(self, tmp_path):
        # an empty lock file is left over from an earlier run; the winner
        # holds the directory until every other thread has been refused
        out = tmp_path / "contested"
        out.mkdir()
        (out / ".aift-lock").write_bytes(b"")
        workers = 6
        start = threading.Barrier(workers)
        losers_done = threading.Event()
        wins, losses = [], []

        def contend():
            start.wait(timeout=10)
            try:
                with _run_dir(argparse.Namespace(out=str(out), command="eval")):
                    wins.append(1)
                    losers_done.wait(timeout=10)
            except IntegrityError:
                losses.append(1)
                if len(losses) == workers - 1:
                    losers_done.set()

        threads = [threading.Thread(target=contend) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert (len(wins), len(losses)) == (1, workers - 1)
        with held_lock(out):  # released by the winner
            pass


class TestSynth:
    def test_corpus_layout(self, corpus):
        manifest = DatasetManifest.load(corpus)
        assert len(manifest.train_entries()) == 4
        assert len(manifest.test_entries()) == 4
        for entry in manifest.entries:
            assert manifest.image_path(entry).is_file()

    def test_refuses_nonempty_out(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "stale.txt").write_text("x")
        rc = main(["synth", "--normal", "1", "--defect", "1",
                   "--patch-size", "8", "--out", str(out)])
        assert rc == 4
        assert (out / "stale.txt").exists()
        assert "remove it first" in capsys.readouterr().err

    def test_same_seed_reruns_are_byte_identical(self, tmp_path):
        args = ["--normal", "2", "--defect", "1", "--patch-size", "8", "--seed", "5"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["synth", *args, "--out", str(a)]) == 0
        assert main(["synth", *args, "--out", str(b)]) == 0
        rel_paths = sorted(p.relative_to(a) for p in a.rglob("*.pgm"))
        assert rel_paths
        for rel in rel_paths + ["manifest.csv"]:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()


class TestTrain:
    def test_outputs_and_log_shape(self, corpus, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(corpus), "--epochs", "2", "--batch", "4",
                   "--critic-iters", "1", "--base-channels", "4", "--lr", "1e-3",
                   "--seed", "0", "--ckpt-every", "1", "--out", str(out)])
        assert rc == 0
        assert (out / "model.ckpt").is_file()
        assert (out / "model_epoch0001.ckpt").is_file()
        assert not (out / "model_epoch0002.ckpt").exists()
        log = (out / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,g_loss,dI_loss,dF_loss,recon,seconds"
        assert len(log) == 3
        for line in log[1:]:
            cells = line.split(",")
            assert len(cells) == 6
            assert all(np.isfinite(float(c)) for c in cells[1:])

    def test_missing_manifest_is_input_error(self, tmp_path):
        empty = tmp_path / "nodata"
        empty.mkdir()
        rc = main(["train", "--data", str(empty), "--out", str(tmp_path / "out")])
        assert rc == 3

    def test_non_utf8_manifest_is_input_error(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.csv").write_bytes(b"path,mask,label,split\n\xff.pgm,,normal,train\n")
        line = run_module(tmp_path, 3, "train", "--data", data, "--out", tmp_path / "out")
        assert line.startswith(f"aift: input error: cannot read {data / 'manifest.csv'}")

    @pytest.mark.parametrize("size, split, code, kind, words", [
        (20, "train", 2, "configuration error", "cannot infer a patch size from a 20x20 image"),
        (16, "test", 3, "input error", "has no training entries"),
    ], ids=["patch-size-not-inferable", "no-training-entries"])
    def test_unusable_training_split(self, size, split, code, kind, words, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        write_pgm(data / "a.pgm", np.zeros((size, size)))
        DatasetManifest(data, [ManifestEntry("a.pgm", "", "normal", split)]).save()
        out = tmp_path / "run"
        rc = main(["train", "--data", str(data), "--out", str(out)])
        assert_failed_without_output(rc, code, kind, capsys, out, words)

    def test_a_road_image_trains_on_the_tiles_of_its_grid(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        write_pgm(data / "road.pgm", np.random.default_rng(4).uniform(0, 1, (40, 56)))
        DatasetManifest(data, [ManifestEntry("road.pgm", "", "normal", "train")]).save()
        images, freqs, patch = _load_training_arrays(DatasetManifest.load(data), 16)
        road = read_pgm(data / "road.pgm")
        want = [normalize_patch(road[y:y + 16, x:x + 16])
                for y, x in tile_grid(road.shape, 16, 16)]
        assert patch == 16 and images.shape == (12, 1, 16, 16)
        assert images[:, 0].tobytes() == np.stack(want).tobytes()
        assert freqs.tobytes() == spectrum_image(images).tobytes()

    def test_training_image_smaller_than_the_patch_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(small_corpus(tmp_path)), "--patch-size", "32",
                   "--out", str(out)])
        assert_failed_without_output(rc, 4, "integrity error", capsys, out, "a.pgm", "32px")

    def test_bad_patch_size_is_config_error(self, corpus, tmp_path):
        rc = main(["train", "--data", str(corpus), "--patch-size", "20",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("setting", [["--ckpt-every", "-3"], "ckpt_every = -3"],
                             ids=["flag", "config-key"])
    def test_negative_ckpt_every_is_config_error(self, setting, corpus, tmp_path, capsys):
        if isinstance(setting, str):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(setting + "\n")
            setting = ["--config", str(cfg)]
        out = tmp_path / "run"
        rc = main(["train", "--data", str(corpus), *setting, "--out", str(out)])
        assert_failed_without_output(rc, 2, "configuration error", capsys, out, "-3")

    @pytest.mark.parametrize("setting", NON_FINITE, ids=" ".join)
    def test_non_finite_setting_is_config_error(self, setting, corpus, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(corpus), *setting, "--out", str(out)])
        assert_failed_without_output(rc, 2, "configuration error", capsys, out)


class TestTransform:
    def test_panels_written_and_consistent(self, ckpt, tmp_path):
        img_path = patch_image(tmp_path)
        out = tmp_path / "run"
        rc = main(["transform", "--ckpt", str(ckpt), "--image", str(img_path),
                   "--out", str(out)])
        assert rc == 0
        names = ["x_image", "x_frequency", "generated_frequency", "generated_image"]
        for name in names:
            assert (out / f"{name}.pgm").is_file()
        lines = (out / "panels.csv").read_text().splitlines()
        assert lines[0] == "panel,row,col,value"
        assert len(lines) == 1 + 4 * 16 * 16

        panels = {name: np.zeros((16, 16)) for name in names}
        for line in lines[1:]:
            name, r, c, v = line.split(",")
            panels[name][int(r), int(c)] = float(v)
        for name in names:
            assert panels[name].min() >= 0.0 and panels[name].max() <= 1.0
        expected = spectrum_image(normalize_patch(read_pgm(img_path)))
        np.testing.assert_array_equal(panels["x_frequency"], expected)

    def test_size_mismatch_is_integrity_error(self, ckpt, tmp_path):
        img_path = patch_image(tmp_path, size=8)
        rc = main(["transform", "--ckpt", str(ckpt), "--image", str(img_path),
                   "--out", str(tmp_path / "run")])
        assert rc == 4

    def test_corrupt_checkpoint_is_integrity_error(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        img_path = patch_image(tmp_path)
        rc = main(["transform", "--ckpt", str(bad), "--image", str(img_path),
                   "--out", str(tmp_path / "run")])
        assert rc == 4

    def test_name_that_is_not_utf8_is_integrity_error(self, ckpt, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[blob.index(b"gen.enc.0.w")] = 0xFF
        bad.write_bytes(bytes(blob))
        out = tmp_path / "run"
        rc = main(["detect", "--ckpt", str(bad), "--image", str(patch_image(tmp_path)),
                   "--out", str(out)])
        assert_failed_without_output(rc, 4, "integrity error", capsys, out)

    def test_flipped_weight_byte_is_integrity_error(self, ckpt, tmp_path, capsys):
        # one byte of gen.enc.0.w's float data, found past its name, rank and shape
        bad = tmp_path / "bad.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[blob.index(b"gen.enc.0.w") + len("gen.enc.0.w") + 4 + 4 * 4] ^= 0x7F
        bad.write_bytes(bytes(blob))
        out = tmp_path / "run"
        rc = main(["detect", "--ckpt", str(bad), "--image", str(patch_image(tmp_path)),
                   "--out", str(out)])
        assert_failed_without_output(rc, 4, "integrity error", capsys, out, "checksum")

    def test_shape_whose_size_overflows_is_integrity_error(self, ckpt, tmp_path, capsys):
        # gen.enc.0.w declared as (2**31, 2**31, 4): 2**64 values, 0 in int64
        blob = bytearray(ckpt.read_bytes()[:-4])
        at = blob.index(b"gen.enc.0.w") + len("gen.enc.0.w")
        blob[at:at + 4 + 4 * 4] = struct.pack("<4I", 3, 2**31, 2**31, 4)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(blob)))
        out = tmp_path / "run"
        rc = main(["detect", "--ckpt", str(bad), "--image", str(patch_image(tmp_path)),
                   "--out", str(out)])
        assert_failed_without_output(rc, 4, "integrity error", capsys, out, "listing")

    @pytest.mark.parametrize("command", ["transform", "detect"])
    def test_missing_checkpoint_is_input_error(self, command, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main([command, "--ckpt", str(tmp_path / "missing.ckpt"),
                   "--image", str(patch_image(tmp_path)), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("aift: input error: cannot read")
        assert not out.exists()


class TestDetect:
    def test_scores_and_maps_for_corpus(self, corpus, detect_run):
        manifest = DatasetManifest.load(corpus)
        tests = manifest.test_entries()
        lines = (detect_run / "scores.csv").read_text().splitlines()
        assert lines[0] == "path,label,image_score"
        assert len(lines) == 1 + len(tests)
        for line, entry in zip(lines[1:], tests):
            path, label, score = line.split(",")
            assert path == entry.path
            assert label == entry.label
            assert np.isfinite(float(score))
        for entry in tests:
            stem = entry.path.rsplit("/", 1)[-1][:-4]
            score_map = np.loadtxt(detect_run / "maps" / f"{stem}.csv",
                                   delimiter=",", ndmin=2)
            assert score_map.shape == (16, 16)
            assert score_map.min() >= 0.0
            assert (detect_run / "maps" / f"{stem}.pgm").is_file()

    def test_single_image_mode(self, ckpt, tmp_path):
        img_path = patch_image(tmp_path)
        out = tmp_path / "run"
        rc = main(["detect", "--ckpt", str(ckpt), "--image", str(img_path),
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "scores.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("patch.pgm,,")

    def test_reruns_are_byte_identical(self, corpus, ckpt, detect_run, tmp_path):
        out = tmp_path / "again"
        rc = main(["detect", "--ckpt", str(ckpt), "--data", str(corpus),
                   "--out", str(out)])
        assert rc == 0
        assert ((out / "scores.csv").read_bytes()
                == (detect_run / "scores.csv").read_bytes())
        for path in sorted((detect_run / "maps").glob("*.csv")):
            assert (out / "maps" / path.name).read_bytes() == path.read_bytes()

    def test_test_split_is_scored_in_chunks_across_images(self, ckpt, tmp_path, monkeypatch):
        data = mixed_corpus(tmp_path)
        calls, chunks = scoring_passes(data, monkeypatch)
        assert chunks > 1
        rc = main(["detect", "--ckpt", str(ckpt), "--data", str(data),
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        assert len(calls) == chunks

    def test_rejects_both_data_and_image(self, corpus, ckpt, tmp_path):
        img_path = patch_image(tmp_path)
        rc = main(["detect", "--ckpt", str(ckpt), "--data", str(corpus),
                   "--image", str(img_path), "--out", str(tmp_path / "run")])
        assert rc == 2

    def test_rejects_neither_source(self, ckpt, tmp_path):
        rc = main(["detect", "--ckpt", str(ckpt), "--out", str(tmp_path / "run")])
        assert rc == 2

    @pytest.mark.parametrize("stride", ["999", "17", "-5"])
    def test_bad_stride_is_config_error_before_any_output(self, corpus, ckpt,
                                                          tmp_path, stride):
        road = tmp_path / "road.pgm"
        write_pgm(road, np.random.default_rng(3).uniform(0, 1, (24, 40)))
        for source in (["--data", str(corpus)], ["--image", str(road)]):
            out = tmp_path / "run"
            rc = main(["detect", "--ckpt", str(ckpt), *source, "--stride", stride,
                       "--out", str(out)])
            assert rc == 2
            assert not out.exists()

    def test_strided_image_covers_the_whole_image(self, ckpt, tmp_path):
        road = tmp_path / "road.pgm"
        write_pgm(road, np.random.default_rng(3).uniform(0, 1, (24, 40)))
        out = tmp_path / "run"
        rc = main(["detect", "--ckpt", str(ckpt), "--image", str(road),
                   "--stride", "8", "--out", str(out)])
        assert rc == 0
        score_map = np.loadtxt(out / "maps" / "road.csv", delimiter=",", ndmin=2)
        assert score_map.shape == (24, 40)

    def test_missing_image_is_input_error(self, ckpt, tmp_path):
        rc = main(["detect", "--ckpt", str(ckpt),
                   "--image", str(tmp_path / "absent.pgm"),
                   "--out", str(tmp_path / "run")])
        assert rc == 3

    def test_image_smaller_than_the_patch_is_integrity_error(self, ckpt, tmp_path, capsys):
        out = tmp_path / "run"
        for source in (["--image", str(patch_image(tmp_path, size=8))],
                       ["--data", str(small_corpus(tmp_path, test_size=8))]):
            rc = main(["detect", "--ckpt", str(ckpt), *source, "--out", str(out)])
            assert_failed_without_output(rc, 4, "integrity error", capsys, out, "8")

    def test_missing_manifest_image_leaves_no_directory(self, ckpt, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["detect", "--ckpt", str(ckpt),
                   "--data", str(small_corpus(tmp_path, missing=True)), "--out", str(out)])
        assert_failed_without_output(rc, 3, "input error", capsys, out, "t.pgm")

    def test_comma_path_round_trips_through_eval(self, ckpt, tmp_path):
        data = tmp_path / "data"
        (data / "normal").mkdir(parents=True)
        rng = np.random.default_rng(4)
        for name in ("a,b.pgm", 'q"d.pgm'):
            write_pgm(data / "normal" / name, rng.uniform(0, 1, (16, 16)))
        DatasetManifest(data, [ManifestEntry("normal/a,b.pgm", "", "normal", "test"),
                               ManifestEntry('normal/q"d.pgm', "", "defect", "test")]).save()
        run = tmp_path / "run"
        assert main(["detect", "--ckpt", str(ckpt), "--data", str(data),
                     "--out", str(run)]) == 0
        rows = (run / "scores.csv").read_text().splitlines()
        assert rows[1].startswith('"normal/a,b.pgm",normal,')
        assert rows[2].startswith('"normal/q""d.pgm",defect,')
        assert main(["eval", "--scores", str(run / "scores.csv"),
                     "--out", str(tmp_path / "report")]) == 0

    def test_ascii_p2_image_is_input_error(self, ckpt, tmp_path):
        image = tmp_path / "ascii.pgm"
        image.write_text("P2\n16 16\n255\n" + " 7" * 256 + "\n")
        line = run_module(tmp_path, 3, "detect", "--ckpt", ckpt, "--image", image,
                          "--out", tmp_path / "run")
        assert line == f"aift: input error: {image}: unsupported magic 'P2', expected P5"

    def test_map_stems_are_never_reused(self):
        for paths, expected in (
                (["x/b.pgm", "b.pgm"], ["b", "b_2"]),
                (["b.pgm", "x/b.pgm", "x_b.pgm", "y/x_b.pgm"],
                 ["b", "x_b", "x_b_2", "y_x_b"]),
                (["normal/a.pgm", "defect/c.pgm"], ["a", "c"])):
            used: set[str] = set()
            assert [_map_stem(used, p) for p in paths] == expected

    @pytest.mark.parametrize("command", ["detect", "ablation"])
    def test_no_test_entries_is_input_error(self, command, ckpt, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        write_pgm(data / "a.pgm", np.zeros((16, 16)))
        DatasetManifest(data, [ManifestEntry("a.pgm", "", "normal", "train")]).save()
        source = ["--ckpt", str(ckpt)] if command == "detect" else ["--seeds", "0"]
        out = tmp_path / "run"
        assert main([command, *source, "--data", str(data), "--out", str(out)]) == 3
        assert not out.exists()


class TestEval:
    def test_full_report_from_detect_outputs(self, corpus, detect_run, tmp_path):
        out = tmp_path / "run"
        rc = main(["eval", "--scores", str(detect_run / "scores.csv"),
                   "--maps", str(detect_run / "maps"), "--gt", str(corpus / "masks"),
                   "--out", str(out)])
        assert rc == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "threshold,precision,recall,f_measure"
        assert len(report) == 101
        assert report[-1].startswith("# aiu=")
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "aiu,ods_threshold,ods,ois,auroc,n_images,tolerance"
        cells = summary[1].split(",")
        assert all(cells[i] != "" for i in range(5))
        assert cells[5] == "4"

    def test_scores_only_report(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("path,label,image_score\n"
                          "a.pgm,defect,0.9\nb.pgm,normal,0.1\n")
        out = tmp_path / "run"
        rc = main(["eval", "--scores", str(scores), "--out", str(out)])
        assert rc == 0
        summary = (tmp_path / "run" / "summary.csv").read_text().splitlines()
        cells = summary[1].split(",")
        assert cells[0] == ""  # no segmentation side
        assert float(cells[4]) == 1.0

    def test_misaligned_maps_and_gt(self, detect_run, corpus, tmp_path):
        gt = tmp_path / "gt"
        gt.mkdir()
        masks = sorted((corpus / "masks").glob("*.pgm"))
        for mask in masks[:-1]:
            (gt / mask.name).write_bytes(mask.read_bytes())
        rc = main(["eval", "--maps", str(detect_run / "maps"), "--gt", str(gt),
                   "--out", str(tmp_path / "run")])
        assert rc == 3

    def test_maps_without_gt_is_config_error(self, detect_run, tmp_path):
        rc = main(["eval", "--maps", str(detect_run / "maps"),
                   "--out", str(tmp_path / "run")])
        assert rc == 2

    def test_gt_without_maps_is_config_error(self, corpus, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("path,label,image_score\na,defect,0.9\nb,normal,0.1\n")
        out = tmp_path / "run"
        rc = main(["eval", "--scores", str(scores), "--gt", str(corpus / "masks"),
                   "--out", str(out)])
        assert_failed_without_output(rc, 2, "configuration error", capsys, out, "--gt needs --maps")

    def test_non_utf8_scores_is_input_error(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_bytes(b"path,label,image_score\n\xff,defect,0.9\nb,normal,0.1\n")
        line = run_module(tmp_path, 3, "eval", "--scores", scores, "--out", tmp_path / "run")
        assert line.startswith(f"aift: input error: cannot read scores file {scores}")

    def test_no_inputs_is_config_error(self, tmp_path):
        rc = main(["eval", "--out", str(tmp_path / "run")])
        assert rc == 2

    def test_mask_shape_mismatch_is_input_error(self, tmp_path, capsys):
        maps, gt = tmp_path / "maps", tmp_path / "gt"
        maps.mkdir()
        gt.mkdir()
        (maps / "crack7.csv").write_text("\n".join([",".join(["0.5"] * 16)] * 16) + "\n")
        write_pgm(gt / "crack7.pgm", np.zeros((8, 8)))
        out = tmp_path / "run"
        rc = main(["eval", "--maps", str(maps), "--gt", str(gt), "--out", str(out)])
        assert_failed_without_output(rc, 3, "input error", capsys, out, "crack7")

    @pytest.mark.parametrize("value", ["1.5", "-0.25", "nan", "inf"])
    def test_map_value_outside_unit_interval_is_input_error(self, value, tmp_path, capsys):
        maps, gt = tmp_path / "maps", tmp_path / "gt"
        maps.mkdir()
        gt.mkdir()
        (maps / "m.csv").write_text(f"0.0,0.5\n{value},1.0\n")
        write_pgm(gt / "m.pgm", np.zeros((2, 2)))
        out = tmp_path / "run"
        rc = main(["eval", "--maps", str(maps), "--gt", str(gt), "--out", str(out)])
        assert_failed_without_output(rc, 3, "input error", capsys, out, "malformed score map")

    @pytest.mark.parametrize("text", ["0.0,0.5\n0.5\n", "0.0,0.5\nhigh,1.0\n"],
                             ids=["ragged", "non-numeric"])
    def test_unparsable_score_map_is_input_error(self, text, tmp_path, capsys):
        maps, gt = tmp_path / "maps", tmp_path / "gt"
        maps.mkdir()
        gt.mkdir()
        (maps / "m.csv").write_text(text)
        write_pgm(gt / "m.pgm", np.zeros((2, 2)))
        out = tmp_path / "run"
        rc = main(["eval", "--maps", str(maps), "--gt", str(gt), "--out", str(out)])
        assert_failed_without_output(rc, 3, "input error", capsys, out,
                                     f"malformed score map {maps / 'm.csv'}")

    @pytest.mark.parametrize("argv, words", [
        (["--scores", "nothing.csv"], ["scores file", "not found"]),
        (["--maps", "nothing", "--gt", "gt"], ["maps directory", "not found"]),
        (["--maps", "maps", "--gt", "nothing"], ["ground-truth directory", "not found"]),
        (["--maps", "empty", "--gt", "gt"], ["no score-map CSVs under"]),
    ], ids=["scores-file", "maps-dir", "gt-dir", "no-map-csvs"])
    def test_missing_inputs_are_input_errors(self, argv, words, tmp_path, capsys):
        for name in ("maps", "gt", "empty"):
            (tmp_path / name).mkdir()
        (tmp_path / "maps" / "m.csv").write_text("0.0,0.5\n0.5,1.0\n")
        write_pgm(tmp_path / "gt" / "m.pgm", np.zeros((2, 2)))
        out = tmp_path / "run"
        rc = main(["eval", *(a if a.startswith("--") else str(tmp_path / a) for a in argv),
                   "--out", str(out)])
        assert_failed_without_output(rc, 3, "input error", capsys, out, *words)

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf", "two"])
    def test_bad_tolerance_is_config_error(self, tolerance, detect_run, corpus,
                                           tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["eval", "--maps", str(detect_run / "maps"), "--gt", str(corpus / "masks"),
                   f"--tolerance={tolerance}", "--out", str(out)])
        assert_failed_without_output(rc, 2, "configuration error", capsys, out, "--tolerance")

    def test_tolerance_echo_is_a_float(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("path,label,image_score\na,defect,0.9\nb,normal,0.1\n")
        out = tmp_path / "run"
        assert main(["eval", "--scores", str(scores), "--tolerance", "2",
                     "--out", str(out)]) == 0
        assert "tolerance = 2.0" in (out / "effective-config.txt").read_text().splitlines()

    def test_module_entry_point_exits_with_the_config_code(self, detect_run, corpus, tmp_path):
        line = run_module(tmp_path, 2, "eval", "--tolerance", "-1",
                          "--maps", detect_run / "maps", "--gt", corpus / "masks",
                          "--out", tmp_path / "run")
        assert line.startswith("aift: configuration error: argument --tolerance")

    def test_empty_score_map_is_one_input_error_line(self, tmp_path):
        maps, gt = tmp_path / "maps", tmp_path / "gt"
        maps.mkdir()
        gt.mkdir()
        (maps / "m.csv").write_text("")
        write_pgm(gt / "m.pgm", np.zeros((2, 2)))
        line = run_module(tmp_path, 3, "eval", "--maps", maps, "--gt", gt,
                          "--out", tmp_path / "run")
        assert line == f"aift: input error: malformed score map {maps / 'm.csv'}: no values"

    @pytest.mark.parametrize("rows, words", [
        ("a,defect,0.9\nb,defekt,0.1\n", ["label", "b,defekt,0.1"]),
        ("a,normal,0.9\nb,normal,0.1\n", ["no defect rows"]),
        ("a,defect,0.9\n", ["no normal rows"]),
        ("patch.pgm,,0.9\n", ["label", "patch.pgm,,0.9"]),  # as detect --image writes it
        ("a,defect,nan\nb,normal,0.1\n", ["non-finite score", "a,defect,nan"]),
        ("a,defect,0.9\nb,normal,-inf\n", ["non-finite score", "b,normal,-inf"]),
        ("a,defect\nb,normal,0.1\n", ["malformed row", "'a,defect'"]),
        ("a,defect,high\nb,normal,0.1\n", ["non-numeric score", "a,defect,high"]),
        ("", ["no score rows"]),
    ], ids=["unknown-label", "no-defect", "no-normal", "empty-label", "nan-score",
            "inf-score", "two-fields", "non-numeric-score", "no-rows"])
    def test_scores_labels_are_checked(self, rows, words, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("path,label,image_score\n" + rows)
        line = run_module(tmp_path, 3, "eval", "--scores", scores, "--out", tmp_path / "run")
        assert line.startswith("aift: input error:")
        assert all(word in line for word in words), line

    def test_malformed_scores_is_input_error(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("wrong,header,here\n")
        rc = main(["eval", "--scores", str(scores), "--out", str(tmp_path / "run")])
        assert rc == 3


class TestAblation:
    def test_grid_rows_and_summary(self, corpus, tmp_path):
        out = tmp_path / "run"
        rc = main(["ablation", "--data", str(corpus), "--seeds", "0,1",
                   "--loss-modes", "re", "--epochs", "1", "--batch", "4",
                   "--critic-iters", "1", "--base-channels", "4", "--lr", "1e-3",
                   "--out", str(out)])
        assert rc == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        assert rows[0] == "mode,seed,AUROC,AIU,ODS,OIS"
        assert len(rows) == 3
        for row in rows[1:]:
            mode, seed, *cells = row.split(",")
            assert mode == "re"
            assert int(seed) in (0, 1)
            assert all(np.isfinite(float(c)) for c in cells)
        summary = (out / "ablation_summary.csv").read_text().splitlines()
        assert summary[0] == "mode,AUROC,AIU,ODS,OIS"
        assert len(summary) == 2
        row_cells = np.array([[float(c) for c in r.split(",")[2:]] for r in rows[1:]])
        mean_cells = [float(c) for c in summary[1].split(",")[1:]]
        for col in range(4):
            assert mean_cells[col] == pytest.approx(row_cells[:, col].mean())

    def test_each_cell_scores_the_split_in_chunks(self, tmp_path, monkeypatch):
        data = mixed_corpus(tmp_path)
        calls, chunks = scoring_passes(data, monkeypatch)
        rc = main(["ablation", "--data", str(data), "--seeds", "0,1", "--loss-modes", "re",
                   "--epochs", "1", "--batch", "2", "--critic-iters", "1",
                   "--base-channels", "2", "--out", str(tmp_path / "run")])
        assert rc == 0
        assert len(calls) == 2 * chunks

    def test_bad_seed_list(self, corpus, tmp_path):
        rc = main(["ablation", "--data", str(corpus), "--seeds", "0,x",
                   "--out", str(tmp_path / "run")])
        assert rc == 2

    @pytest.mark.parametrize("seeds", ["-1", ",", "0,-2"],
                             ids=["negative", "empty", "one-negative"])
    def test_seed_list_needs_non_negative_seeds(self, seeds, corpus, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["ablation", "--data", str(corpus), f"--seeds={seeds}", "--out", str(out)])
        assert_failed_without_output(rc, 2, "configuration error", capsys, out,
                                     "--seeds must list non-negative integers")

    def test_bad_mode_list(self, corpus, tmp_path):
        rc = main(["ablation", "--data", str(corpus), "--seeds", "0",
                   "--loss-modes", "re,nope", "--out", str(tmp_path / "run")])
        assert rc == 2

    @pytest.mark.parametrize("setting", [["--lr", "-1"], ["--epochs", "0"]] + NON_FINITE)
    def test_bad_train_setting_leaves_no_directory(self, setting, corpus, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["ablation", "--data", str(corpus), "--seeds", "0", *setting,
                   "--out", str(out)])
        assert_failed_without_output(rc, 2, "configuration error", capsys, out)

    def test_test_image_smaller_than_the_patch_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["ablation", "--data", str(small_corpus(tmp_path, test_size=8)),
                   "--seeds", "0", "--out", str(out)])
        assert_failed_without_output(rc, 4, "integrity error", capsys, out, "t.pgm")

    def test_training_image_smaller_than_the_patch_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["ablation", "--data", str(small_corpus(tmp_path)), "--seeds", "0",
                   "--patch-size", "32", "--out", str(out)])
        assert_failed_without_output(rc, 4, "integrity error", capsys, out, "a.pgm", "32px")

    def test_rows_keep_the_seed_order_and_duplicates(self, corpus, tmp_path, monkeypatch):
        trained = []

        def counting_train(dataset, cfg, **kwargs):
            trained.append((cfg.loss_mode, cfg.seed))
            return train(dataset, cfg, **kwargs)

        monkeypatch.setattr("aift.training.train", counting_train)
        out = tmp_path / "run"
        rc = main(["ablation", "--data", str(corpus), "--seeds", "1,0,1",
                   "--loss-modes", "total,re", "--epochs", "1", "--batch", "4",
                   "--critic-iters", "1", "--base-channels", "4", "--out", str(out)])
        assert rc == 0
        rows = (out / "ablation.csv").read_text().splitlines()[1:]
        assert [tuple(r.split(",")[:2]) for r in rows] == [
            ("total", "1"), ("re", "1"), ("total", "0"), ("re", "0"), ("total", "1"), ("re", "1")]
        assert rows[0] == rows[4] and rows[1] == rows[5]
        assert trained == [("total", 1), ("re", 1), ("total", 0), ("re", 0)]

    def test_one_class_test_split_trains_nothing(self, tmp_path, monkeypatch, capsys):
        trained = []
        monkeypatch.setattr("aift.training.train", lambda *a, **k: trained.append(a))
        data = small_corpus(tmp_path)  # its one test image is normal
        out = tmp_path / "run"
        rc = main(["ablation", "--data", str(data), "--seeds", "0", "--out", str(out)])
        assert_failed_without_output(rc, 3, "input error", capsys, out,
                                     "no defect rows; AUROC needs both classes")
        assert trained == []

    def test_mask_shape_mismatch_trains_nothing(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "corpus"
        assert main(["synth", "--normal", "8", "--defect", "2", "--patch-size", "16",
                     "--seed", "1", "--out", str(data)]) == 0
        write_pgm(data / "masks" / "test_defect_00000.pgm", np.zeros((8, 8)))
        capsys.readouterr()
        trained = []
        monkeypatch.setattr("aift.training.train", lambda *a, **k: trained.append(a))
        out = tmp_path / "abl"
        rc = main(["ablation", "--data", str(data), "--seeds", "0", "--loss-modes", "re",
                   "--epochs", "1", "--batch", "4", "--critic-iters", "1",
                   "--base-channels", "2", "--out", str(out)])
        assert_failed_without_output(rc, 3, "input error", capsys, out,
                                     "mask test_defect_00000: shape (8, 8) differs")
        assert trained == []


def modules_loaded(cwd, *commands) -> list[set[str]]:
    """The ``aift`` modules a fresh interpreter holds after ``import aift``
    and after each of ``commands``, run in turn through ``main``."""
    script = ("import json, sys\n"
              "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'aift')\n"
              "import aift\n"
              "steps = [loaded()]\n"
              "from aift.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert main(argv) == 0, argv\n"
              "    steps.append(loaded())\n"
              "print(json.dumps(steps))\n")
    argvs = json.dumps([[str(a) for a in argv] for argv in commands])
    proc = subprocess.run([sys.executable, "-c", script, argvs], cwd=cwd, env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [set(step) for step in json.loads(proc.stdout.splitlines()[-1])]


class TestModuleLoading:
    """Each command loads only the modules it runs, which keeps start-up short."""

    def test_import_aift_loads_no_submodule(self, tmp_path):
        assert modules_loaded(tmp_path) == [{"aift"}]

    def test_synth_and_eval_load_no_model_code(self, corpus, detect_run, tmp_path):
        _, after_synth, after_eval = modules_loaded(
            tmp_path,
            ["synth", "--normal", "2", "--defect", "1", "--patch-size", "8",
             "--out", tmp_path / "corpus"],
            ["eval", "--scores", detect_run / "scores.csv", "--maps", detect_run / "maps",
             "--gt", corpus / "masks", "--tolerance", "2", "--out", tmp_path / "eval"])
        engine = {f"aift.{m}" for m in
                  ("autodiff", "model", "optim", "training", "detection", "spectral")}
        assert not after_synth & engine
        assert not after_eval & engine
        assert "aift.metrics" in after_eval

    def test_detect_loads_no_training_or_metrics_code(self, corpus, ckpt, tmp_path):
        _, after_detect = modules_loaded(
            tmp_path, ["detect", "--ckpt", ckpt, "--data", corpus, "--out", tmp_path / "run"])
        assert "aift.detection" in after_detect
        assert not after_detect & {"aift.training", "aift.optim", "aift.metrics"}
