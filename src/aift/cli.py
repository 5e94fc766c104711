"""Command-line surface: synth, train, transform, detect, eval, ablation.

Every command takes an optional ``--config`` file of ``key = value`` lines
(``#`` starts a comment).  argparse is the one parser and validator: a
config file is read as ``--key=value`` flags placed before the command
line's own, so explicit flags override file values, and unknown keys are
rejected like unknown flags.  Only ``synth`` and ``train`` draw random
numbers, so only they take ``--seed``: the flag, else the config file,
else 0.

Every command reads and checks all of its inputs and settings first, and
only then creates its output directory, writes an ``effective-config.txt``
echo (with a tool-version line) into it and refuses to share it with a
concurrently running command by holding an ``flock`` on its ``.aift-lock``
file; the kernel releases it when the run ends, however it ends.  All
numerical outputs are deterministic for a fixed seed: floats are serialized
with ``repr`` so reruns produce byte-identical CSVs.

Exit codes: 0 success, 2 configuration error (every settings error, from a
flag or a config file, prints one ``aift: configuration error:`` line), 3
input error, 4 integrity error, 1 any other failure.  A failure with code
2, 3 or 4 creates no output directory.
"""

from __future__ import annotations

import argparse
import csv
import fcntl
import math
import os
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import Tensor, no_grad
from .data import (DatasetManifest, ManifestEntry, SynthConfig, extract_patches,
                   load_image, normalize_patch, read_pgm, synth_corpus, write_pgm)
from .detection import detect_full_image
from .errors import (AiftError, ConfigurationError, InputError, IntegrityError)
from .metrics import evaluate
from .model import (F2I, I2F, PATCH_SIZES, generate, load_checkpoint,
                    save_checkpoint)
from .spectral import spectrum_image
from .training import LOSS_MODES, TrainConfig, train

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_INTEGRITY = 4

_LOCK_NAME = ".aift-lock"


def _ft(x: float) -> str:
    """Serialize a float so that reruns are byte-identical and parsing is exact."""
    return repr(float(x))


# -- argument handling --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises every parse error as a ConfigurationError; subparsers inherit it.

    Flags must be spelled out, as config keys must: an abbreviation such as
    ``--seed`` would otherwise pass as ablation's ``--seeds``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ConfigurationError(message)


def _non_negative(kind):
    """An argparse ``type=`` that accepts finite ``kind`` values >= 0."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = -1
        if not (math.isfinite(value) and value >= 0):
            raise argparse.ArgumentTypeError(
                f"expected a finite {kind.__name__} >= 0, got {text!r}")
        return value
    return parse


def _add_seed(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_non_negative(int), default=0, help="RNG seed")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE",
                     help="key = value defaults file; flags override it")
    sub.add_argument("--out", required=True, help="output directory")


def _add_train_knobs(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    sub.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    sub.add_argument("--lambda", dest="lambda", type=float, default=TrainConfig.lam,
                     help="reconstruction weight in the total loss")
    sub.add_argument("--critic-iters", type=int, default=TrainConfig.critic_iters,
                     help="discriminator updates per generator update")
    sub.add_argument("--lr", type=float, default=TrainConfig.lr)
    sub.add_argument("--base-channels", type=int, default=TrainConfig.base_channels,
                     help="channel width of the first conv stage")
    sub.add_argument("--patch-size", type=int, default=0,
                     help="0 infers the size from the first training image")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="aift",
        description="Adversarial image-to-frequency transform for road-defect detection")
    parser.add_argument("--version", action="version", version=f"aift {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    subs: dict[str, argparse.ArgumentParser] = {}

    s = subs["synth"] = subparsers.add_parser(
        "synth", help="generate the synthetic pavement corpus")
    s.add_argument("--normal", type=int, required=True,
                   help="number of normal training patches")
    s.add_argument("--defect", type=int, required=True,
                   help="number of defect test patches (matched by as many normal test patches)")
    s.add_argument("--patch-size", type=int, default=SynthConfig.patch_size)
    _add_seed(s)
    _add_common(s)

    s = subs["train"] = subparsers.add_parser("train", help="train a model on a corpus")
    s.add_argument("--data", required=True, help="corpus directory with manifest.csv")
    s.add_argument("--loss", choices=LOSS_MODES, default="total")
    _add_train_knobs(s)
    s.add_argument("--ckpt-every", type=_non_negative(int), default=0,
                   help="write a checkpoint every K epochs (0: final only)")
    _add_seed(s)
    _add_common(s)

    s = subs["transform"] = subparsers.add_parser(
        "transform", help="write the four transform panels for one patch")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--image", required=True)
    _add_common(s)

    s = subs["detect"] = subparsers.add_parser(
        "detect", help="score images against a trained model")
    s.add_argument("--ckpt", required=True)
    source = s.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="corpus directory (scores its test split)")
    source.add_argument("--image", help="single image file")
    s.add_argument("--stride", type=int, default=0,
                   help="patch stride for images larger than the patch size (0: patch size)")
    _add_common(s)

    s = subs["eval"] = subparsers.add_parser(
        "eval", help="compute AIU/ODS/OIS/AUROC reports")
    s.add_argument("--scores", help="scores.csv from the detect command (for AUROC)")
    s.add_argument("--maps", help="directory of score-map CSVs (for AIU/ODS/OIS)")
    s.add_argument("--gt", help="directory of ground-truth mask PGMs")
    s.add_argument("--tolerance", type=_non_negative(float), default=0.0,
                   help="pixel distance tolerance for F-measure matching")
    _add_common(s)

    s = subs["ablation"] = subparsers.add_parser(
        "ablation", help="train and evaluate the loss-mode ablation grid")
    s.add_argument("--data", required=True)
    s.add_argument("--seeds", required=True, help="comma-separated seeds, e.g. 0,1,2")
    s.add_argument("--loss-modes", default=",".join(LOSS_MODES),
                   help="comma-separated subset of re,gan,total")
    _add_train_knobs(s)
    _add_common(s)

    return parser, subs


def _config_tokens(path: str, sub: argparse.ArgumentParser) -> list[str]:
    """Turn a config file's ``key = value`` lines into ``--key=value`` flags.

    The one-token form keeps a value such as ``-1e-3`` from reading as an
    option.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file {path} not found")
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    tokens: list[str] = []
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = (part.strip() for part in stripped.partition("="))
        flag = "--" + key.replace("_", "-")
        if flag not in sub._option_string_actions or flag in ("--help", "--config"):
            raise ConfigurationError(f"{path}:{line_no}: unknown config key '{key}' "
                                     f"for {sub.prog}")
        tokens.append(f"{flag}={value}")
    return tokens


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser, subs = _build_parser()
    pre = _Parser(add_help=False)
    pre.add_argument("command", nargs="?")
    pre.add_argument("--config")
    found, _ = pre.parse_known_args(argv)
    if found.config and found.command in subs:
        # right after the command name, so the command line's flags come later and win
        at = argv.index(found.command) + 1
        argv = [*argv[:at], *_config_tokens(found.config, subs[found.command]), *argv[at:]]
    return parser.parse_args(argv)


# -- output directory protocol ---------------------------------------------------


@contextmanager
def _run_dir(args: argparse.Namespace):
    """Create the output directory, hold its lock and write the config echo.

    Commands enter it only once every input and setting has been read and
    checked.  The lock is an ``flock`` on the ``.aift-lock`` file, held for
    the whole run and released when its descriptor is closed, on leaving
    the block or by the kernel when the process dies.  The file stays empty
    and is never deleted: a left-over file is not a lock, and deleting it
    would let a run still waiting on the old inode lock it while a new run
    locks a fresh one.
    """
    path = Path(args.out)
    lines = [f"# aift {__version__}", f"command = {args.command}"]
    for key in sorted(vars(args)):
        if key not in ("command", "config"):
            lines.append(f"{key.replace('_', '-')} = {getattr(args, key)}")
    try:
        path.mkdir(parents=True, exist_ok=True)
        fd = os.open(path / _LOCK_NAME, os.O_RDWR | os.O_CREAT)
    except OSError as exc:
        raise IntegrityError(f"cannot create output directory {path}: {exc.strerror}") from None
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise IntegrityError(f"output directory {path} is in use by another run") from None
        (path / "effective-config.txt").write_text("\n".join(lines) + "\n")
        yield path
    finally:
        os.close(fd)  # releases the flock


# -- shared data plumbing ---------------------------------------------------------


def _infer_patch_size(image: np.ndarray, flag_value: int) -> int:
    if flag_value:
        if flag_value not in PATCH_SIZES:
            raise ConfigurationError(
                f"patch-size must be one of {PATCH_SIZES}, got {flag_value}")
        return flag_value
    h, w = image.shape
    if h == w and h in PATCH_SIZES:
        return h
    raise ConfigurationError(
        f"cannot infer a patch size from a {h}x{w} image; pass --patch-size")


def _load_training_arrays(manifest: DatasetManifest, patch_flag: int):
    entries = manifest.train_entries()
    if not entries:
        raise InputError(f"manifest under {manifest.root} has no training entries")
    first = load_image(manifest.image_path(entries[0]))
    patch = _infer_patch_size(first, patch_flag)
    patches: list[np.ndarray] = []
    for i, entry in enumerate(entries):
        image = load_image(manifest.image_path(entry)) if i else first
        patches.extend(normalize_patch(p) for _, _, p in extract_patches(image, patch))
    images = np.stack(patches)[:, None, :, :]
    freqs = np.stack([spectrum_image(p) for p in patches])[:, None, :, :]
    return images, freqs, patch


def _fits_patch(name: str, image: np.ndarray, patch: int) -> np.ndarray:
    if min(image.shape) < patch:
        raise IntegrityError(
            f"{name}: image shape {image.shape} is smaller than the {patch}px patch size")
    return image


def _test_images(manifest: DatasetManifest, patch: int) -> list[tuple[ManifestEntry, np.ndarray]]:
    """Load the whole test split into memory as (entry, image) pairs."""
    entries = manifest.test_entries()
    if not entries:
        raise InputError(f"manifest under {manifest.root} has no test entries")
    return [(e, _fits_patch(e.path, load_image(manifest.image_path(e)), patch)) for e in entries]


def _train_config(args: argparse.Namespace, loss_mode: str, seed: int) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs, batch_size=args.batch, lam=getattr(args, "lambda"),
        critic_iters=args.critic_iters, lr=args.lr, loss_mode=loss_mode, seed=seed,
        base_channels=args.base_channels,
    ).validate()


def _map_stem(used: set[str], rel_path: str) -> str:
    """Return a map file stem not yet in ``used`` and add it there.

    The image's own stem comes first, since ``eval`` pairs maps with masks
    by stem; a taken stem falls back to the flattened path, numbered until
    it is free.
    """
    stem = Path(rel_path).stem
    if stem in used:
        base = stem = rel_path.replace("/", "_").rsplit(".", 1)[0]
        n = 1
        while stem in used:
            n += 1
            stem = f"{base}_{n}"
    used.add(stem)
    return stem


def _read_mask(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    """The binary ground-truth mask at ``path``, whose score map has ``shape``."""
    gt = read_pgm(path) > 0.5
    if gt.shape != shape:
        raise InputError(
            f"mask {path.stem}: shape {gt.shape} differs from its score map's {shape}")
    return gt


def _read_map_csv(path: Path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an empty file is rejected below, in one line
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise InputError(f"malformed score map {path}: {exc}") from exc
    if arr.size == 0:
        raise InputError(f"malformed score map {path}: no values")
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # also false for NaN
        raise InputError(f"malformed score map {path}: values must be finite and in [0, 1]")
    return arr


# -- commands -----------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> None:
    out = Path(args.out)
    if out.is_dir() and any(out.iterdir()):  # a file is left to _run_dir to refuse
        raise IntegrityError(
            f"output directory {out} is not empty; remove it first or pick another --out")
    cfg = SynthConfig(n_train=args.normal, n_test_normal=args.defect,
                      n_test_defect=args.defect, patch_size=args.patch_size,
                      seed=args.seed).validate()
    with _run_dir(args) as run:
        manifest = synth_corpus(cfg, run)
        print(f"wrote {len(manifest.entries)} corpus entries under {run}")


def cmd_train(args: argparse.Namespace) -> None:
    manifest = DatasetManifest.load(args.data)
    images, freqs, patch = _load_training_arrays(manifest, args.patch_size)
    cfg = _train_config(args, args.loss, args.seed)
    with _run_dir(args) as run:
        every = args.ckpt_every

        def on_epoch(epoch, params, record):
            print(f"epoch {epoch}/{cfg.epochs}: g_loss={record.g_loss:.5f} "
                  f"recon={record.recon:.5f}", flush=True)
            if every > 0 and epoch % every == 0 and epoch != cfg.epochs:
                save_checkpoint(params, run / f"model_epoch{epoch:04d}.ckpt")

        params, log = train((images, freqs), cfg, epoch_callback=on_epoch)
        save_checkpoint(params, run / "model.ckpt")
        (run / "train_log.csv").write_text(log.to_csv())
        print(f"trained {patch}px model on {images.shape[0]} patches -> {run / 'model.ckpt'}")


def cmd_transform(args: argparse.Namespace) -> None:
    params = load_checkpoint(args.ckpt)
    image = load_image(args.image)
    p = params.patch_size
    if image.shape != (p, p):
        raise IntegrityError(
            f"image shape {image.shape} does not match the checkpoint patch size {p}")
    x_image = normalize_patch(image)
    x_freq = spectrum_image(x_image)
    with no_grad():
        gen_freq = generate(params, Tensor(x_image[None, None]), I2F).data[0, 0]
        gen_image = generate(params, Tensor(x_freq[None, None]), F2I).data[0, 0]
    panels = [("x_image", x_image), ("x_frequency", x_freq),
              ("generated_frequency", gen_freq), ("generated_image", gen_image)]
    with _run_dir(args) as run:
        lines = ["panel,row,col,value"]
        for name, arr in panels:
            write_pgm(run / f"{name}.pgm", arr)
            # tolist gives Python floats, whose repr is _ft's
            for r, row in enumerate(arr.tolist()):
                lines += (f"{name},{r},{c},{v!r}" for c, v in enumerate(row))
        (run / "panels.csv").write_text("\n".join(lines) + "\n")
        print(f"wrote 4 transform panels under {run}")


def cmd_detect(args: argparse.Namespace) -> None:
    params = load_checkpoint(args.ckpt)
    p = params.patch_size
    if not 0 <= args.stride <= p:
        raise ConfigurationError(
            f"stride must lie in [0, {p}] (0: the patch size), got {args.stride}")
    if args.data:
        tests = [(e.path, e.label, image) for e, image
                 in _test_images(DatasetManifest.load(args.data), p)]
    else:
        name = Path(args.image).name
        tests = [(name, "", _fits_patch(name, load_image(args.image), p))]

    with _run_dir(args) as run:
        maps_dir = run / "maps"
        maps_dir.mkdir(exist_ok=True)
        rows = [["path", "label", "image_score"]]
        used: set[str] = set()
        for name, label, image in tests:
            result = detect_full_image(params, image, stride=args.stride or None)
            stem = _map_stem(used, name)
            # tolist gives Python floats, whose repr is _ft's
            lines = [",".join(map(repr, row)) for row in result.score_map.tolist()]
            (maps_dir / f"{stem}.csv").write_text("\n".join(lines) + "\n")
            write_pgm(maps_dir / f"{stem}.pgm",
                      normalize_patch(result.score_map), maxval=65535)
            rows.append([name, label, _ft(result.image_score)])
        with open(run / "scores.csv", "w", newline="") as fh:  # quotes a path holding a comma
            csv.writer(fh, lineterminator="\n").writerows(rows)
        print(f"scored {len(rows) - 1} image(s) -> {run / 'scores.csv'}")


def _check_both_classes(labels, source: str) -> None:
    """Reject a label set (True for defect) that AUROC cannot rank."""
    if all(labels) or not any(labels):
        missing = "normal" if all(labels) else "defect"
        raise InputError(f"{source}: no {missing} rows; AUROC needs both classes")


def _read_scores_csv(path: str):
    p = Path(path)
    if not p.is_file():
        raise InputError(f"scores file {path} not found")
    try:
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read scores file {path}: {exc}") from None
    if not rows or rows[0] != ["path", "label", "image_score"]:
        raise InputError(f"{path}: expected a scores.csv with header path,label,image_score")
    scores, labels = [], []
    for parts in rows[1:]:
        line = ",".join(parts)
        if len(parts) != 3:
            raise InputError(f"{path}: malformed row {line!r}")
        try:
            score = float(parts[2])
        except ValueError:
            raise InputError(f"{path}: non-numeric score in row {line!r}")
        if not math.isfinite(score):
            raise InputError(f"{path}: non-finite score in row {line!r}")
        scores.append(score)
        if parts[1] not in ("normal", "defect"):
            raise InputError(f"{path}: label must be normal or defect in row {line!r}")
        labels.append(parts[1] == "defect")
    if not scores:
        raise InputError(f"{path}: no score rows")
    _check_both_classes(labels, path)
    return np.array(scores), np.array(labels)


def _load_maps_and_gt(maps_dir: str, gt_dir: str):
    maps_path = Path(maps_dir)
    gt_path = Path(gt_dir)
    if not maps_path.is_dir():
        raise InputError(f"maps directory {maps_dir} not found")
    if not gt_path.is_dir():
        raise InputError(f"ground-truth directory {gt_dir} not found")
    map_files = sorted(maps_path.glob("*.csv"))
    if not map_files:
        raise InputError(f"no score-map CSVs under {maps_dir}")
    gt_stems = {p.stem for p in gt_path.glob("*.pgm")}
    map_stems = {p.stem for p in map_files}
    if map_stems != gt_stems:
        missing = sorted(map_stems - gt_stems)[:3]
        extra = sorted(gt_stems - map_stems)[:3]
        raise InputError(
            f"score maps and ground truth are misaligned "
            f"(maps without masks: {missing}, masks without maps: {extra})")
    preds = [_read_map_csv(p) for p in map_files]
    gts = [_read_mask(gt_path / f"{p.stem}.pgm", pred.shape) for p, pred in zip(map_files, preds)]
    return preds, gts


def cmd_eval(args: argparse.Namespace) -> None:
    if not args.maps and not args.scores:
        raise ConfigurationError("pass --maps (with --gt) and/or --scores")
    if args.maps and not args.gt:
        raise ConfigurationError("--maps needs --gt")
    if args.gt and not args.maps:
        raise ConfigurationError("--gt needs --maps")
    preds = gts = scores = labels = None
    if args.maps:
        preds, gts = _load_maps_and_gt(args.maps, args.gt)
    if args.scores:
        scores, labels = _read_scores_csv(args.scores)
    report = evaluate(preds, gts, scores, labels, tolerance=args.tolerance)
    with _run_dir(args) as run:
        text = report.to_csv()
        (run / "report.csv").write_text(text)
        (run / "summary.csv").write_text(report.summary_csv())
        print(text.splitlines()[-1].lstrip("# "))


def cmd_ablation(args: argparse.Namespace) -> None:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigurationError(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if not seeds or any(s < 0 for s in seeds):
        raise ConfigurationError(f"--seeds must list non-negative integers, got {args.seeds!r}")
    modes = [m.strip() for m in args.loss_modes.split(",") if m.strip()]
    if not modes or any(m not in LOSS_MODES for m in modes):
        raise ConfigurationError(
            f"--loss-modes must be a subset of {','.join(LOSS_MODES)}, got {args.loss_modes!r}")

    grid = [(mode, seed) for seed in seeds for mode in modes]
    configs = {key: _train_config(args, *key) for key in grid}  # a repeated seed trains once
    manifest = DatasetManifest.load(args.data)
    images, freqs, patch = _load_training_arrays(manifest, args.patch_size)
    tests = _test_images(manifest, patch)
    labels = np.array([e.label == "defect" for e, _ in tests])
    _check_both_classes(labels, f"{manifest.root / 'manifest.csv'} test split")
    seg_gts = [_read_mask(manifest.mask_path(e), image.shape) for e, image in tests if e.mask]

    with _run_dir(args) as run:
        cells_of: dict[tuple[str, int], list] = {}
        for key, cfg in configs.items():
            params, _ = train((images, freqs), cfg)
            results = [detect_full_image(params, image) for _, image in tests]
            seg_maps = [r.score_map for r, (e, _) in zip(results, tests) if e.mask]
            report = evaluate(seg_maps or None, seg_gts or None,
                              np.array([r.image_score for r in results]), labels)
            cells_of[key] = [report.auroc, report.aiu, report.ods, report.ois]
            print(f"mode={cfg.loss_mode} seed={cfg.seed} auroc={report.auroc:.4f}", flush=True)
        rows = ["mode,seed,AUROC,AIU,ODS,OIS"]
        for mode, seed in grid:
            rows.append(f"{mode},{seed}," + ",".join(
                "" if c is None else _ft(c) for c in cells_of[(mode, seed)]))
        (run / "ablation.csv").write_text("\n".join(rows) + "\n")

        summary = ["mode,AUROC,AIU,ODS,OIS"]
        for mode in modes:
            stack = [cells_of[key] for key in grid if key[0] == mode]
            means = []
            for col in range(4):
                values = [row[col] for row in stack if row[col] is not None]
                means.append(_ft(np.mean(values)) if values else "")
            summary.append(f"{mode}," + ",".join(means))
        (run / "ablation_summary.csv").write_text("\n".join(summary) + "\n")
        print(f"wrote {len(rows) - 1} ablation rows -> {run / 'ablation.csv'}")


_HANDLERS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "transform": cmd_transform,
    "detect": cmd_detect,
    "eval": cmd_eval,
    "ablation": cmd_ablation,
}


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        _HANDLERS[args.command](args)
        return EXIT_OK
    except ConfigurationError as exc:
        print(f"aift: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"aift: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except IntegrityError as exc:
        print(f"aift: integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except AiftError as exc:
        print(f"aift: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
