"""Span tracer for the traced benchmark run, and the per-layer metrics.

``Tracer.install`` replaces the public functions of the ``aift`` layers with
wrappers that record one span per call: a name, an optional conv layer
label, a start, an end, the index of the enclosing span and the round the
call belongs to (-1 set-up, 0 warm-up, 1.. timed rounds).  A name bound
with ``from ... import`` is replaced in every ``aift`` module that holds
it, so ``aift.training.generate`` and ``aift.detection.generate`` are both
traced.  Conv backward is timed by wrapping the closure that the forward
pass records on its output tensor.  ``train_step`` is split into its critic
and generator phases at the generator optimizer's ``zero_grad`` call.

Spans stay in memory; ``write_trace`` stores them with a per-name summary
of total and self time when the run ends.

Run as a script, the module traces one ``aift`` command in this process:

    python3 aiftbench/tracing.py SPANS.json synth --normal 50 ... --out DIR
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

CONV_LAYERS = ([f"gen.enc.{i}" for i in range(4)]
               + [f"gen.dec_image.{i}" for i in range(4)]
               + [f"gen.dec_freq.{i}" for i in range(4)]
               + [f"disc.trunk.{i}" for i in range(4)])

CLI_STAGES = ("synth", "train", "detect", "eval_tol0", "eval_tol2")

# Every per-layer metric, in the order of BENCHMARK.json.  A traced run of
# any workload reports all of them; a layer the workload never reaches
# reads 0.
PER_LAYER = (
    [("autodiff.conv2d.fwd_ms", "ms"), ("autodiff.conv2d.bwd_ms", "ms"),
     ("autodiff.conv_transpose2d.fwd_ms", "ms"),
     ("autodiff.conv_transpose2d.bwd_ms", "ms"),
     ("autodiff.backward_ms", "ms"), ("autodiff.conv_calls", "count")]
    + [(f"model.{layer}.{d}_ms", "ms") for layer in CONV_LAYERS for d in ("fwd", "bwd")]
    + [("model.generate_ms", "ms"), ("model.discriminate_ms", "ms"),
       ("model.load_checkpoint_ms", "ms"),
       ("training.step_total_ms", "ms"), ("training.step_re_ms", "ms"),
       ("training.critic_phase_ms", "ms"), ("training.generator_phase_ms", "ms"),
       ("optim.adam_step_ms", "ms"),
       ("spectral.spectrum_image_ms", "ms"), ("spectral.dft2_ms", "ms"),
       ("detection.detect_ms", "ms"), ("detection.detect_full_image_ms", "ms"),
       ("detection.jeffrey_divergence_ms", "ms"), ("detection.patches_per_s", "1/s"),
       ("metrics.evaluate_tol0_ms", "ms"), ("metrics.evaluate_tol2_ms", "ms"),
       ("metrics.aiu_ms", "ms"), ("metrics.auroc_ms", "ms"),
       ("data.load_image_ms", "ms"), ("data.synth_corpus_s", "s"),
       ("cli.import_s", "s")]
    + [(f"cli.{stage}_s", "s") for stage in CLI_STAGES]
)

# span fields
NAME, LAYER, START, END, PARENT, ROUND = range(6)
CHECKS = -2  # round tag of the output checks, left out of every metric


class Tracer:
    """Records spans around the aift layer boundaries of this process."""

    def __init__(self):
        self.spans: list[list] = []
        self.round = -1
        self._stack: list[int] = []
        self._layers: dict[int, str] = {}
        self._g_opt = None
        self._phase_mark = None

    # -- recording --------------------------------------------------------

    def _enter(self, name: str, layer: str = "") -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, self.round])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _exit(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return wrapper

    def _wrap_model(self, fn, name):
        """generate/discriminate: label the conv calls inside with weight names."""
        @functools.wraps(fn)
        def wrapper(params, *args, **kwargs):
            outer = self._layers
            self._layers = {id(t): key[:-2] for key, t in params.tensors.items()
                            if key.endswith(".w")}
            idx = self._enter(name)
            try:
                return fn(params, *args, **kwargs)
            finally:
                self._exit(idx)
                self._layers = outer
        return wrapper

    def _wrap_conv(self, fn, op):
        @functools.wraps(fn)
        def wrapper(x, k, *args, **kwargs):
            layer = self._layers.get(id(k), "")
            idx = self._enter(f"{op}.fwd", layer)
            try:
                out = fn(x, k, *args, **kwargs)
            finally:
                self._exit(idx)
            inner = out._backward
            if inner is not None:
                def backward(g):
                    bidx = self._enter(f"{op}.bwd", layer)
                    try:
                        inner(g)
                    finally:
                        self._exit(bidx)
                out._backward = backward
            return out
        return wrapper

    def _wrap_train_step(self, fn):
        @functools.wraps(fn)
        def wrapper(params, batch, config, g_opt, d_opt):
            self._g_opt = g_opt
            self._phase_mark = None
            idx = self._enter(f"training.step_{config.loss_mode}")
            try:
                return fn(params, batch, config, g_opt, d_opt)
            finally:
                self._exit(idx)
                start, end, rnd = (self.spans[idx][i] for i in (START, END, ROUND))
                mark = self._phase_mark if self._phase_mark is not None else start
                # derived spans: outside the call tree, so self times stay exact
                self.spans.append(["training.critic_phase", "", start, mark, -1, rnd])
                self.spans.append(["training.generator_phase", "", mark, end, -1, rnd])
                self._g_opt = None
        return wrapper

    def _wrap_zero_grad(self, fn):
        @functools.wraps(fn)
        def wrapper(opt):
            if opt is self._g_opt:
                self._phase_mark = time.perf_counter()
            return fn(opt)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap the public layer functions in every loaded aift module."""
        from aift import autodiff, data, detection, metrics, model, optim, spectral, training

        def fixed(name):
            return lambda args, kwargs: name

        def evaluate_name(args, kwargs):
            tol = kwargs.get("tolerance", args[4] if len(args) > 4 else 0.0)
            return f"metrics.evaluate_tol{float(tol):g}"

        replace = {
            autodiff.conv2d: self._wrap_conv(autodiff.conv2d, "autodiff.conv2d"),
            autodiff.conv_transpose2d: self._wrap_conv(autodiff.conv_transpose2d,
                                                       "autodiff.conv_transpose2d"),
            model.generate: self._wrap_model(model.generate, "model.generate"),
            model.discriminate: self._wrap_model(model.discriminate, "model.discriminate"),
            training.train_step: self._wrap_train_step(training.train_step),
            metrics.evaluate: self._wrap(metrics.evaluate, evaluate_name),
        }
        for mod, names in ((model, ("load_checkpoint",)),
                           (spectral, ("spectrum_image", "dft2")),
                           (detection, ("detect", "detect_full_image", "jeffrey_divergence")),
                           (metrics, ("aiu", "auroc")),
                           (data, ("load_image", "synth_corpus"))):
            layer = mod.__name__.split(".")[-1]
            for name in names:
                fn = getattr(mod, name)
                replace[fn] = self._wrap(fn, fixed(f"{layer}.{name}"))

        by_id = {id(fn): (fn, wrapper) for fn, wrapper in replace.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "aift" or mod_name.startswith("aift.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        autodiff.Tensor.backward = self._wrap(autodiff.Tensor.backward,
                                              fixed("autodiff.backward"))
        optim.Adam.step = self._wrap(optim.Adam.step, fixed("optim.adam_step"))
        optim.Adam.zero_grad = self._wrap_zero_grad(optim.Adam.zero_grad)
        return self


# -- aggregation ---------------------------------------------------------------


def span_table(spans) -> dict[str, dict]:
    """Calls, total ms and self ms per span name over the timed rounds.

    Conv spans are also listed per layer, as ``name[layer]``.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    table: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if s[ROUND] < 1:
            continue
        dur = s[END] - s[START]
        keys = [s[NAME]] + ([f"{s[NAME]}[{s[LAYER]}]"] if s[LAYER] else [])
        for key in keys:
            row = table.setdefault(key, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += 1e3 * dur
            row["self_ms"] += 1e3 * (dur - child[i])
    return table


def layer_metrics(spans, n_rounds: int, stage_walls: dict[str, float] | None = None):
    """Every PER_LAYER metric from the spans of a traced run.

    Times are summed over the timed rounds and divided by their number,
    except per-call figures (load_checkpoint, spectral, detect, load_image),
    which divide by the number of calls in the whole run.
    """
    run = [s for s in spans if s[ROUND] != CHECKS]
    timed = [s for s in run if s[ROUND] >= 1]

    def total(name, pool=timed, layer=None):
        dur = [s[END] - s[START] for s in pool
               if s[NAME] == name and (layer is None or s[LAYER] == layer)]
        return sum(dur), len(dur)

    def per_round_ms(name, layer=None):
        return 1e3 * total(name, layer=layer)[0] / n_rounds

    def per_call_ms(name, pool=run):
        secs, calls = total(name, pool)
        return 1e3 * secs / calls if calls else 0.0

    out: dict[str, float] = {}
    for op in ("conv2d", "conv_transpose2d"):
        for d in ("fwd", "bwd"):
            out[f"autodiff.{op}.{d}_ms"] = per_round_ms(f"autodiff.{op}.{d}")
    out["autodiff.backward_ms"] = per_round_ms("autodiff.backward")
    out["autodiff.conv_calls"] = (total("autodiff.conv2d.fwd")[1]
                                  + total("autodiff.conv_transpose2d.fwd")[1]) / n_rounds
    for layer in CONV_LAYERS:
        op = "conv2d" if ".enc." in layer or ".trunk." in layer else "conv_transpose2d"
        for d in ("fwd", "bwd"):
            out[f"model.{layer}.{d}_ms"] = per_round_ms(f"autodiff.{op}.{d}", layer)
    out["model.generate_ms"] = per_round_ms("model.generate")
    out["model.discriminate_ms"] = per_round_ms("model.discriminate")
    out["model.load_checkpoint_ms"] = per_call_ms("model.load_checkpoint")
    for name in ("step_total", "step_re", "critic_phase", "generator_phase"):
        out[f"training.{name}_ms"] = per_round_ms(f"training.{name}")
    out["optim.adam_step_ms"] = per_round_ms("optim.adam_step")
    out["spectral.spectrum_image_ms"] = per_call_ms("spectral.spectrum_image")
    out["spectral.dft2_ms"] = per_call_ms("spectral.dft2")
    out["detection.detect_ms"] = per_call_ms("detection.detect", timed)
    out["detection.detect_full_image_ms"] = per_call_ms("detection.detect_full_image", timed)
    out["detection.jeffrey_divergence_ms"] = per_round_ms("detection.jeffrey_divergence")
    secs, calls = total("detection.detect")
    out["detection.patches_per_s"] = calls / secs if secs else 0.0
    for name in ("evaluate_tol0", "evaluate_tol2", "aiu", "auroc"):
        out[f"metrics.{name}_ms"] = per_round_ms(f"metrics.{name}")
    out["data.load_image_ms"] = per_call_ms("data.load_image")
    out["data.synth_corpus_s"] = total("data.synth_corpus")[0] / n_rounds
    walls = stage_walls or {}
    out["cli.import_s"] = walls.get("import", 0.0)
    for stage in CLI_STAGES:
        out[f"cli.{stage}_s"] = walls.get(stage, 0.0)
    units = dict(PER_LAYER)
    return {name: {"value": out[name], "unit": units[name]} for name, _ in PER_LAYER}


def write_trace(out_dir: Path, spans, summary: dict) -> None:
    """Store the raw spans and the per-name total/self table of the timed rounds."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "spans.jsonl", "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    summary = dict(summary, layers=span_table(spans))
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


def _trace_cli_command(spans_out: str, argv: list[str]) -> int:
    import aift.cli
    tracer = Tracer().install()
    tracer.round = 1
    code = aift.cli.main(argv)
    Path(spans_out).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(_trace_cli_command(sys.argv[1], sys.argv[2:]))
