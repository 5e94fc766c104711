"""Fixtures, set-up, rounds and output checks of the three workloads.

Every input derives from the run's seed.  Fixtures (the corpus and the
``score`` checkpoint) are made before any timed work, in a process of
their own.  A workload object is built by the timed set-up; ``round``
runs one round of its fixed work and returns the seconds it took; ``check``
runs the output checks once the rounds are over.  Each round starts from
the same state, so it must reproduce the first round bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import aift
import checkers
import tracing

# the acceptance config of the training criteria, at 32 px
PATCH = 32
TRAIN_KNOBS = dict(batch_size=50, base_channels=16, critic_iters=2, lr=1e-3)
N_TRAIN = 100          # two batches of 50: one for the total step, one for re
N_TEST = 40            # normal and as many defect test patches
ROAD_TILES = 3         # roads are 3 x 3 test patches, 96 x 96 px
N_ROADS = 2
ROAD_STRIDE = 16       # overlapping patch grid on the roads
TOLERANCES = (0.0, 2.0)
RE_CONTINUE = 3        # extra re steps after the rounds, for the falling-loss check


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def make_fixtures(workload: str, seed: int, work: Path) -> None:
    """The seeded corpus, and for ``score`` a checkpoint and the road images."""
    if workload == "cli":
        (work / "cli").mkdir(parents=True)
        return
    manifest = aift.synth_corpus(aift.SynthConfig(N_TRAIN, N_TEST, N_TEST, PATCH, seed),
                                 work / "corpus")
    if workload != "score":
        return
    images, freqs = _training_arrays(manifest)
    params, _ = aift.train((images, freqs), aift.TrainConfig(epochs=1, seed=seed, **TRAIN_KNOBS))
    aift.save_checkpoint(params, work / "model.ckpt")
    rng = np.random.default_rng([seed, 1])
    tests = manifest.test_entries()
    (work / "roads").mkdir()
    for r in range(N_ROADS):
        side = ROAD_TILES * PATCH
        road, mask = np.zeros((side, side)), np.zeros((side, side))
        for k, idx in enumerate(rng.choice(len(tests), ROAD_TILES * ROAD_TILES, replace=False)):
            y, x = (k // ROAD_TILES) * PATCH, (k % ROAD_TILES) * PATCH
            road[y:y + PATCH, x:x + PATCH] = aift.load_image(manifest.image_path(tests[idx]))
            mask[y:y + PATCH, x:x + PATCH] = aift.load_image(manifest.mask_path(tests[idx]))
        aift.write_pgm(work / "roads" / f"road_{r}.pgm", road)
        aift.write_pgm(work / "roads" / f"mask_{r}.pgm", mask)


def _training_arrays(manifest):
    patches = [aift.normalize_patch(aift.load_image(manifest.image_path(e)))
               for e in manifest.train_entries()]
    images = np.stack(patches)[:, None]
    freqs = np.stack([aift.spectrum_image(p) for p in patches])[:, None]
    return images, freqs


class Train:
    """One train_step in total mode and one in re mode, from the same start."""

    OPS = 2

    def __init__(self, work: Path, seed: int, traced: bool = False):
        images, freqs = _training_arrays(aift.DatasetManifest.load(work / "corpus"))
        self.images, self.freqs = images, freqs
        self.configs = {mode: aift.TrainConfig(loss_mode=mode, seed=seed, **TRAIN_KNOBS).validate()
                        for mode in ("total", "re")}
        self.batches = {"total": (images[:50], freqs[:50]), "re": (images[50:], freqs[50:])}
        self.init = aift.init_params(PATCH, seed, TRAIN_KNOBS["base_channels"])
        self.state = {mode: self._fresh() for mode in self.configs}
        self.problems: list[str] = []
        self.failed = 0

    def _fresh(self):
        params = aift.AiftParams(self.init.patch_size, self.init.base_channels, self.init.seed,
                                 {k: aift.Tensor(t.data.copy(), requires_grad=True)
                                  for k, t in self.init.tensors.items()})
        cfg = self.configs["total"]
        g_opt = aift.Adam(params.generator_tensors(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
        d_opt = aift.Adam(params.discriminator_tensors(), lr=cfg.lr, beta1=cfg.beta1,
                          beta2=cfg.beta2)
        return params, g_opt, d_opt

    def round(self, index: int) -> float:
        if self.state is None:
            self.state = {mode: self._fresh() for mode in self.configs}
        seconds = 0.0
        losses = {}
        for mode, (params, g_opt, d_opt) in self.state.items():
            disc = {k: t.data.copy() for k, t in params.discriminator_tensors().items()}
            started = time.perf_counter()
            losses[mode] = aift.train_step(params, self.batches[mode], self.configs[mode],
                                           g_opt, d_opt)
            seconds += time.perf_counter() - started
            try:
                checkers.check_losses_finite(losses[mode])
                if mode == "re":
                    checkers.check_disc_untouched(disc, params)
            except checkers.CheckFailed as exc:
                self.problems.append(str(exc))
        self.last, self.state = self.state, None
        self.digest = _digest(losses, *(t.data for params, _, _ in self.last.values()
                                        for t in params.tensors.values()))
        self.losses = losses
        return seconds

    def check(self, oracles) -> None:
        patches = self.images[:, 0]
        checkers.check_spectra(patches, self.freqs[:, 0])
        total = self.last["total"][0].tensors
        checkers.check_conv(oracles, patches[:2, None], total["gen.enc.0.w"].data, transpose=False)
        x = np.random.default_rng(0).uniform(0.0, 1.0, (2, 16, 16, 16))
        checkers.check_conv(oracles, x, total["gen.dec_image.3.w"].data, transpose=True)
        params, g_opt, d_opt = self.last["re"]
        disc = {k: t.data.copy() for k, t in params.discriminator_tensors().items()}
        recons = [self.losses["re"].recon]
        for _ in range(RE_CONTINUE):
            step = aift.train_step(params, self.batches["re"], self.configs["re"], g_opt, d_opt)
            recons.append(step.recon)
        checkers.check_recon_falls(recons)
        checkers.check_disc_untouched(disc, params)


class Score:
    """detect every test patch, detect_full_image every road, then evaluate."""

    def __init__(self, work: Path, seed: int, traced: bool = False):
        self.params = aift.load_checkpoint(work / "model.ckpt")
        self.manifest = aift.DatasetManifest.load(work / "corpus")
        self.entries = self.manifest.test_entries()
        self.roads = [(work / "roads" / f"road_{r}.pgm", work / "roads" / f"mask_{r}.pgm")
                      for r in range(N_ROADS)]
        self.OPS = len(self.entries) + len(self.roads) + len(TOLERANCES)
        self.problems: list[str] = []
        self.failed = 0

    def round(self, index: int) -> float:
        m, params = self.manifest, self.params
        started = time.perf_counter()
        images, maps, gts, scores, labels = [], [], [], [], []
        for entry in self.entries:
            image = aift.normalize_patch(aift.load_image(m.image_path(entry)))
            result = aift.detect(params, image)
            images.append(image)
            maps.append(result.score_map)
            gts.append(aift.load_image(m.mask_path(entry)) > 0.5)
            scores.append(result.image_score)
            labels.append(entry.label == "defect")
        roads, road_maps, road_scores = [], [], []
        for road_path, mask_path in self.roads:
            road = aift.load_image(road_path)
            result = aift.detect_full_image(params, road, stride=ROAD_STRIDE)
            roads.append(road)
            road_maps.append(result.score_map)
            road_scores.append(result.image_score)
            gts.append(aift.load_image(mask_path) > 0.5)
        reports = [aift.evaluate(maps + road_maps, gts, np.array(scores), np.array(labels),
                                 tolerance=tol) for tol in TOLERANCES]
        seconds = time.perf_counter() - started
        self.out = SimpleNamespace(images=images, maps=maps, gts=gts, scores=scores,
                                   labels=labels, roads=roads, road_maps=road_maps,
                                   road_scores=road_scores, reports=reports)
        self.digest = _digest(scores, road_scores, *maps, *road_maps,
                              *(r.to_csv() for r in reports))
        return seconds

    def check(self, oracles) -> None:
        o = self.out
        all_maps = o.maps + o.road_maps
        checkers.check_maps(all_maps, o.scores + o.road_scores)
        for road, road_map in zip(o.roads, o.road_maps):
            checkers.check_full_image(lambda t: aift.detect(self.params, t).score_map,
                                      road, road_map, PATCH, ROAD_STRIDE)
        step = max(1, len(o.images) // 8)
        sample = o.images[::step]
        checkers.check_spectra(sample, [aift.spectrum_image(p) for p in sample])
        rep0, rep2 = o.reports
        checkers.check_metrics_tol0(oracles, rep0, all_maps, o.gts, o.scores, o.labels)
        checkers.check_tolerance_matching(rep2, all_maps, o.gts, 2.0)
        if (rep2.aiu, rep2.auroc) != (rep0.aiu, rep0.auroc):
            raise checkers.CheckFailed("AIU or AUROC depends on the matching tolerance")


class Cli:
    """The user pipeline as fresh ``aift`` processes: synth, train, detect, eval x2.

    Traced, each stage runs under tracing.py and its spans are kept, and a
    process that only imports aift.cli is timed as well.
    """

    def __init__(self, work: Path, seed: int, traced: bool = False):
        import aift.cli  # noqa: F401  (what every stage process pays first)
        self.dir = work / "cli"
        self.seed = seed
        self.traced = traced
        self.stages = self._stages()
        self.OPS = len(self.stages)
        self.problems: list[str] = []
        self.failed = 0
        self.spans: list[list] = []
        self.stage_walls: dict[str, float] = {}

    def _stages(self):
        s = str(self.seed)
        k = TRAIN_KNOBS
        evals = [(f"eval_tol{tol:g}",
                  ["eval", "--scores", "round/detect/scores.csv", "--maps", "round/detect/maps",
                   "--gt", "round/corpus/masks", "--tolerance", repr(tol), "--out",
                   f"round/eval_tol{tol:g}"]) for tol in TOLERANCES]
        return [
            ("synth", ["synth", "--normal", "50", "--defect", "8", "--patch-size", str(PATCH),
                       "--seed", s, "--out", "round/corpus"]),
            ("train", ["train", "--data", "round/corpus", "--epochs", "1",
                       "--batch", str(k["batch_size"]), "--critic-iters", str(k["critic_iters"]),
                       "--lr", repr(k["lr"]), "--base-channels", str(k["base_channels"]),
                       "--seed", s, "--out", "round/train"]),
            ("detect", ["detect", "--ckpt", "round/train/model.ckpt", "--data", "round/corpus",
                        "--out", "round/detect"]),
            *evals,
        ]

    def _command(self, name, argv):
        if name == "import":
            return [sys.executable, "-c", "import aift.cli"]
        if self.traced:
            tracer = Path(__file__).resolve().parent / "tracing.py"
            return [sys.executable, str(tracer), str(self.dir / f"spans_{name}.json"), *argv]
        return [sys.executable, "-m", "aift.cli", *argv]

    def round(self, index: int) -> float:
        shutil.rmtree(self.dir / "round", ignore_errors=True)
        seconds = 0.0
        stages = ([("import", None)] if self.traced else []) + self.stages
        for name, argv in stages:
            started = time.perf_counter()
            proc = subprocess.run(self._command(name, argv), cwd=self.dir,
                                  capture_output=True, text=True, timeout=150)
            wall = time.perf_counter() - started
            if index >= 1:
                self.stage_walls[name] = self.stage_walls.get(name, 0.0) + wall
            if name == "import":
                continue
            seconds += wall
            try:
                checkers.check_stage(name, proc.returncode, proc.stderr)
            except checkers.CheckFailed as exc:
                self.failed += 1
                self.problems.append(str(exc))
            if self.traced and proc.returncode == 0:
                offset = len(self.spans)
                for span in json.loads((self.dir / f"spans_{name}.json").read_text()):
                    if span[tracing.PARENT] >= 0:
                        span[tracing.PARENT] += offset
                    span[tracing.ROUND] = index
                    self.spans.append(span)
        ref = self.dir / "ref"
        if index == 0:
            (self.dir / "round").rename(ref)
        else:
            try:
                checkers.check_same_tree(ref, self.dir / "round")
            except checkers.CheckFailed as exc:
                self.problems.append(str(exc))
        # the output trees were compared file by file above
        self.digest = "same tree as round 0"
        return seconds

    def check(self, oracles) -> None:
        ref = self.dir / "ref"
        rows = [row.split(",") for row in
                (ref / "detect" / "scores.csv").read_text().splitlines()[1:]]
        stems = [Path(row[0]).stem for row in rows]
        scores = [float(row[2]) for row in rows]
        labels = [row[1] == "defect" for row in rows]
        maps = [np.loadtxt(ref / "detect" / "maps" / f"{s}.csv", delimiter=",", ndmin=2)
                for s in stems]
        gts = [aift.read_pgm(ref / "corpus" / "masks" / f"{s}.pgm") > 0.5 for s in stems]
        checkers.check_maps(maps, scores)
        order = sorted(range(len(stems)), key=lambda i: stems[i])  # eval reads maps by name
        maps = [maps[i] for i in order]
        gts = [gts[i] for i in order]
        reports = [read_report(ref / f"eval_tol{tol:g}") for tol in TOLERANCES]
        checkers.check_metrics_tol0(oracles, reports[0], maps, gts, scores, labels)
        checkers.check_tolerance_matching(reports[1], maps, gts, 2.0)


def read_report(run_dir: Path):
    """summary.csv and the PR curve of report.csv, as written by ``aift eval``."""
    header, row = (run_dir / "summary.csv").read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    curve = []
    for line in (run_dir / "report.csv").read_text().splitlines()[1:]:
        if line.startswith("#"):
            continue
        t, p, r, f = (float(v) for v in line.split(","))
        curve.append(SimpleNamespace(threshold=t, precision=p, recall=r, f=f))
    return SimpleNamespace(aiu=float(values["aiu"]), ods_threshold=float(values["ods_threshold"]),
                           ods=float(values["ods"]), ois=float(values["ois"]),
                           auroc=float(values["auroc"]), curve=curve)


WORKLOADS = {"train": Train, "score": Score, "cli": Cli}
