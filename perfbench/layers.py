"""Which augseg function each layer metric times, and what it should move.

``LAYERS`` is the single table behind the traced run.  ``sites`` are the
attributes the tracer replaces (where callers look the function up),
``runs_on`` is where the coverage guard demands at least one call, and
``moves`` names, per workload, the end-to-end metrics a change to that
layer should move; a workload left out, or given an empty tuple, is one
where the prediction is no change.  Gated metrics are those in
BENCHMARK.json; ``job_s``, ``*.p50`` and the throughputs are printed in
the report line.
"""

ALL = ("train_wavelet", "eval_bulk", "ablate_table6")
TABLE = ("ablate_table6",)
ARMS = ("none", "image_level", "feature_spatial", "feature_wavelet")

STEP = ("train_step_ms.min", "train_step_ms.p90", "train_samples_per_s")
EPOCH = ("train_epoch_ms.min", "train_epoch_ms.p90")
EVAL = ("eval_sample_ms.min", "eval_sample_ms.p90", "eval_samples_per_s")
TABLE_S = ("job_s",)     # on ablate_table6, job_s is the table's wall-clock


def _layer(sites, runs_on, moves):
    return {"sites": sites, "runs_on": runs_on, "moves": moves}


def _train_only(extra=()):
    # eval_bulk trains its (unaugmented) checkpoint during set-up and
    # reruns part of that training between jobs, so the training layers
    # run there too; they move its train_* metrics and never its eval_*
    # ones.
    return {"train_wavelet": STEP + extra, "eval_bulk": STEP + extra,
            "ablate_table6": STEP + extra + TABLE_S}


_EVERYWHERE = {w: STEP + EVAL + TABLE_S for w in ALL}
_SETUP = {w: ("setup_s",) for w in ALL}

LAYERS = {
    "autodiff.GradTape.backward": _layer(
        [("augseg.autodiff", "GradTape.backward")], ALL, _train_only()),
    "model.Network.encode": _layer(
        [("augseg.model", "Network.encode")], ALL, _EVERYWHERE),
    "model.Network.forward.train": _layer(
        [("augseg.model", "Network.forward")], ALL, _train_only()),
    "model.Network.forward.eval": _layer(
        [("augseg.model", "Network.forward")], ALL,
        {w: EPOCH + EVAL + TABLE_S for w in ALL}),
    "wavelet.wt_aug": _layer(
        [("augseg.trainer", "wt_aug"), ("augseg.model", "wt_aug")],
        ("train_wavelet", "ablate_table6"),
        {"train_wavelet": STEP, "ablate_table6": STEP + TABLE_S}),
    "fusion.cg_fuse": _layer([("augseg.model", "cg_fuse")], ALL, _EVERYWHERE),
    "model.ccu": _layer([("augseg.model", "ccu")], ALL, _EVERYWHERE),
    "model.seg_head": _layer([("augseg.model", "seg_head")], ALL, _EVERYWHERE),
    "losses.combined_loss": _layer(
        [("augseg.trainer", "combined_loss")], ALL, _train_only()),
    "trainer.adam_step": _layer(
        [("augseg.trainer", "adam_step")], ALL, _train_only()),
    "trainer.train": _layer(
        [("augseg.trainer", "train")], ALL, _train_only(EPOCH)),
    "trainer.evaluate": _layer(
        [("augseg.trainer", "evaluate")], ALL,
        {w: EVAL + TABLE_S for w in ALL}),
    "metrics.hd95": _layer([("augseg.trainer", "hd95")], ALL,
                           {w: EVAL for w in ALL}),
    "metrics.dice_score": _layer([("augseg.trainer", "dice_score")], ALL,
                                 {w: EVAL for w in ALL}),
    "metrics.wilcoxon_signed_rank": _layer(
        [("augseg.trainer", "wilcoxon_signed_rank")], TABLE,
        {"ablate_table6": TABLE_S}),
    "synth.load_sample": _layer([("augseg.trainer", "load_sample")], ALL,
                                {w: EVAL for w in ALL}),
    "synth.corrupt": _layer([("augseg.synth", "corrupt")], TABLE,
                            {"ablate_table6": STEP + TABLE_S}),
    "synth.feature_spatial_aug": _layer(
        [("augseg.trainer", "feature_spatial_aug")], TABLE,
        {"ablate_table6": STEP + TABLE_S}),
    "synth.write_dataset": _layer(
        [("augseg.synth", "write_dataset")], ALL, _SETUP),
    "model.save_checkpoint": _layer(
        [("augseg.model", "save_checkpoint"),
         ("augseg.trainer", "save_checkpoint")], ALL, _SETUP),
    "model.load_checkpoint": _layer(
        [("augseg.model", "load_checkpoint"),
         ("augseg.trainer", "load_checkpoint")], ALL,
        _SETUP | {"eval_bulk": ("setup_s", "job_s")}),
}

OVERHEAD = ("train_step_ms.p50", "train_step_ms.min", "eval_sample_ms.p50",
            "eval_sample_ms.min")

# Metrics derived from the spans and probes rather than one wrapped function.
DERIVED = {
    # eval-mode forwards nested inside trainer.train: the train-Dice monitor
    "trainer.monitor.ms": _layer(
        [], ALL, {w: EPOCH + TABLE_S for w in ALL}),
    "autodiff.tape_nodes_per_step": _layer([], ALL, _train_only()),
    **{f"trainer.epoch_ms.{arm}": _layer(
        [], TABLE + {"none": ("eval_bulk",),
                     "feature_wavelet": ("train_wavelet",)}.get(arm, ()),
        {"ablate_table6": EPOCH + TABLE_S}) for arm in ARMS},
    # traced minus untraced; moves nothing, it is the cost of tracing
    **{f"trace_overhead.{m}": _layer([], ALL, {}) for m in OVERHEAD},
}


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.ms", "ms"), (f"{layer}.self_ms", "ms"),
                  (f"{layer}.calls", "count")]
    for name in DERIVED:
        names.append((name, "count" if name.endswith("per_step") else "ms"))
    return names


def expected_on(workload):
    """Layer names that must record at least one call on ``workload``."""
    return [n for n, spec in LAYERS.items() if workload in spec["runs_on"]]
