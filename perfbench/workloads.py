"""The three workloads: set-up, the closed measuring loop, output checks.

Each workload runs in one process on one thread.  Its inputs come only
from ``--seed``: the synthetic sample seeds, the few-shot subsets, the
network initialisation and every augmentation draw derive from it.

A ``Probe`` times the end-to-end metrics from outside ``augseg.trainer``
by wrapping the names its loops call: ``_rng(seed, epoch, 0)`` opens an
epoch and its first step, ``adam_step`` closes a step, ``load_sample``
inside ``evaluate`` opens an eval sample.  The same wrappers check every
loss and every eval record as the program produces them.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import replace

import numpy as np

from augseg import autodiff, model, synth, trainer
from augseg.model import Network, NetworkConfig
from augseg.trainer import TrainConfig

import layers
from tracer import check_coverage, inside, summarize

# A 3e-3 learning rate (thirty times the paper's) fits the 2-shot subset
# within 40-50 epochs, so ``train_dice`` is steady across seeds and the
# table arms differ on the test samples: every Wilcoxon takes the exact
# path instead of degenerating.
LEARNING_RATE = 3e-3
SETUP_REPS = 7

# ``min_jobs`` jobs always run, however long they take, and the Dice
# metrics come from exactly those jobs (``fit_runs`` trainings), so they
# do not depend on how fast the program is.
WORKLOADS = {
    # Train feature_wavelet 2-shot and evaluate a small test split, per job.
    "train_wavelet": dict(train=10, test=25, epochs=50, shots=2, min_jobs=6,
                          fit_runs=6),
    # Train one unaugmented checkpoint during set-up (no wt_aug, so the
    # eval path is all that the wavelet layer could touch); each job
    # evaluates the whole split.  After each job the first
    # ``retrain_epochs`` epochs of that training are rerun and must repeat
    # its log exactly; this spreads the train_* samples over the whole run
    # instead of one stretch of set-up, and is outside the job's time.
    "eval_bulk": dict(train=10, test=300, epochs=100, shots=2, min_jobs=3,
                      fit_runs=1, retrain_epochs=25),
    # Each job is one table6 ablation (4 arms, 1 seed, 6 exact Wilcoxons).
    "ablate_table6": dict(train=10, test=20, epochs=40, shots=2, min_jobs=2,
                          fit_runs=8),
}

# Eval forwards outside a training tape must not record; builds whose
# tape only records inside ``use_tape`` have no ``no_grad`` to enter.
_no_grad = getattr(autodiff, "no_grad", contextlib.nullcontext)


def percentile(values, q):
    """Nearest-rank percentile; the benchmark reports p50 and p90."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Probe:
    """End-to-end timing boundaries and output checks inside the trainer."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.step_ms, self.epoch_ms, self.eval_sample_ms = [], [], []
        self.epoch_arm = []
        self.train_s = self.eval_s = 0.0
        self.train_samples = self.eval_samples = 0
        self.attempted = self.failed = 0
        self.tape_nodes = []
        self.fit_dice = []      # final-epoch train-subset Dice per training
        self._arm = None
        self._epoch_start = self._step_start = self._sample_start = None
        self._in_eval = False
        self._restore = []

    def check(self, ok, what):
        """Count one checked operation; report it on stderr if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._restore.append((owner, attr, original))

    def install(self):
        self._patch(trainer, "_rng", self._wrap_rng)
        self._patch(trainer, "adam_step", self._wrap_adam)
        self._patch(trainer, "combined_loss", self._wrap_loss)
        self._patch(trainer, "train", self._wrap_train)
        self._patch(trainer, "evaluate", self._wrap_evaluate)
        self._patch(trainer, "load_sample", self._wrap_load_sample)
        self._patch(autodiff.GradTape, "backward", self._wrap_backward)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _close_epoch(self, now):
        if self._epoch_start is not None:
            self.epoch_ms.append((now - self._epoch_start) * 1e3)
            self.epoch_arm.append(self._arm)
            self._epoch_start = None

    def _wrap_rng(self, original):
        def rng(seed, epoch, stream):
            if stream == 0:
                now = self.clock()
                self._close_epoch(now)
                self._epoch_start = self._step_start = now
            return original(seed, epoch, stream)
        return rng

    def _wrap_adam(self, original):
        def adam_step(*args, **kwargs):
            out = original(*args, **kwargs)
            now = self.clock()
            self.step_ms.append((now - self._step_start) * 1e3)
            self._step_start = now
            return out
        return adam_step

    def _wrap_loss(self, original):
        def combined_loss(logits, labels):
            loss = original(logits, labels)
            self.train_samples += len(labels)
            self.check(math.isfinite(loss.item()), "non-finite training loss")
            return loss
        return combined_loss

    def _wrap_backward(self, original):
        def backward(tape, loss):
            self.tape_nodes.append(len(tape))
            return original(tape, loss)
        return backward

    def _wrap_train(self, original):
        def train(train_cfg, *args, **kwargs):
            self._arm = train_cfg.augmentation
            start = self.clock()
            try:
                net, rows, ids = original(train_cfg, *args, **kwargs)
            finally:
                now = self.clock()
                self._close_epoch(now)
                self.train_s += now - start
            self.fit_dice.append(rows[-1][2])
            self.check(0.0 <= rows[-1][2] <= 1.0, f"train Dice {rows[-1]}")
            return net, rows, ids
        return train

    def _close_sample(self, now):
        if self._sample_start is not None:
            self.eval_sample_ms.append((now - self._sample_start) * 1e3)
            self._sample_start = None

    def _wrap_load_sample(self, original):
        def load_sample(*args, **kwargs):
            if self._in_eval:
                now = self.clock()
                self._close_sample(now)
                self._sample_start = now
            return original(*args, **kwargs)
        return load_sample

    def _wrap_evaluate(self, original):
        def evaluate(*args, **kwargs):
            self._in_eval = True
            start = self.clock()
            try:
                records, summary = original(*args, **kwargs)
            finally:
                now = self.clock()
                self._close_sample(now)
                self._in_eval = False
                self.eval_s += now - start
            self.eval_samples += len(records)
            for r in records:
                self.check(all(0.0 <= d <= 1.0 for d in r.dice.values())
                           and all(math.isfinite(h) for h in r.hd95.values()),
                           f"eval record {r.sample_id}: dice {r.dice}, "
                           f"hd95 {r.hd95}")
            return records, summary
        return evaluate


def _sample_seeds(seed, spec):
    base = seed * 10_000
    return (range(base, base + spec["train"]),
            range(base + spec["train"], base + spec["train"] + spec["test"]))


def same_logits(a, b, data_dir):
    """Eval logits of two networks on the first test sample, bit for bit."""
    manifest = synth.load_manifest(os.path.join(data_dir, "manifest.json"))
    entry = next(e for e in manifest["samples"] if e["split"] == "test")
    image, _ = synth.load_sample(data_dir, entry)
    with _no_grad():
        la = a.forward(autodiff.Tensor(image[None]), mode="eval").numpy()
        lb = b.forward(autodiff.Tensor(image[None]), mode="eval").numpy()
    return np.array_equal(la, lb)


def setup(work_dir, spec, seed, rep, probe):
    """Synthesise the dataset, build the network, save and reload it.

    Returns (data dir, seconds).  The reload check is not timed.
    """
    data_dir = os.path.join(work_dir, f"data{rep}")
    ckpt_dir = os.path.join(work_dir, f"init{rep}")
    train_seeds, test_seeds = _sample_seeds(seed, spec)
    start = time.perf_counter()
    synth.write_dataset(data_dir, train_seeds, test_seeds)
    net = Network(NetworkConfig(param_seed=seed))
    model.save_checkpoint(ckpt_dir, net, epoch=0, seed=seed)
    loaded, _ = model.load_checkpoint(ckpt_dir)
    elapsed = time.perf_counter() - start
    probe.check(same_logits(net, loaded, data_dir),
                "reloaded checkpoint changed eval logits")
    shutil.rmtree(ckpt_dir)
    return data_dir, elapsed


def _train_cfg(spec, seed, **kw):
    return TrainConfig(learning_rate=LEARNING_RATE, batch_size=2,
                       epochs=spec["epochs"], shots=spec["shots"], seed=seed,
                       **kw)


class Phase:
    """One measured phase of a workload: set-up, then jobs in a closed loop."""

    def __init__(self, name, seed, work_dir, probe, reps):
        self.name, self.seed, self.work_dir = name, seed, work_dir
        self.spec = WORKLOADS[name]
        self.probe = probe
        self.reps = reps
        self.setup_s = []
        self.job_s = []
        self.test_dice = []     # mean test Dice of each of the first min_jobs
        self.data_dir = None
        self.ckpt_dir = None
        self.first_summary = None
        self.fit_rows = None

    def run_setup(self):
        for rep in range(self.reps):
            if self.data_dir:
                shutil.rmtree(self.data_dir)
            self.data_dir, elapsed = setup(self.work_dir, self.spec, self.seed,
                                           rep, self.probe)
            self.setup_s.append(elapsed)
        if self.name == "eval_bulk":
            out = os.path.join(self.work_dir, "trained")
            net, self.fit_rows, _ = trainer.train(
                _train_cfg(self.spec, self.seed),
                NetworkConfig(param_seed=self.seed), self.data_dir, out_dir=out)
            self.ckpt_dir = os.path.join(out, "checkpoint")
            loaded, _ = model.load_checkpoint(self.ckpt_dir)
            self.probe.check(same_logits(net, loaded, self.data_dir),
                             "reloaded trained checkpoint changed eval logits")

    def job(self, index):
        job_seed = self.seed * 1000 + index
        if self.name == "train_wavelet":
            net, _, _ = trainer.train(
                _train_cfg(self.spec, job_seed, augmentation="feature_wavelet"),
                NetworkConfig(param_seed=job_seed), self.data_dir)
            _, summary = trainer.evaluate(net, self.data_dir)
            return summary["mean_dice"]
        if self.name == "eval_bulk":
            _, summary = trainer.evaluate(self.ckpt_dir, self.data_dir)
            if self.first_summary is None:
                self.first_summary = summary
            self.probe.check(summary == self.first_summary,
                             "repeated eval of one checkpoint differs")
            return summary["mean_dice"]
        results, tests = trainer.ablation_run(
            trainer.table6_arms(), [job_seed], _train_cfg(self.spec, job_seed),
            NetworkConfig(), self.data_dir)
        for arm, r in results.items():
            self.probe.check(
                bool(np.all((r["per_sample_dice"] >= 0) &
                            (r["per_sample_dice"] <= 1)))
                and math.isfinite(r["mean_hd95"]), f"arm {arm}: {r}")
        for pair, t in tests.items():
            self.probe.check(t.method == "exact" and 0.0 <= t.p_value <= 1.0,
                             f"wilcoxon {pair}: {t}")
        return float(np.mean([r["mean_dice"] for r in results.values()]))

    def retrain(self):
        """Rerun the start of the set-up training; its log must repeat."""
        epochs = self.spec["retrain_epochs"]
        _, rows, _ = trainer.train(
            replace(_train_cfg(self.spec, self.seed), epochs=epochs),
            NetworkConfig(param_seed=self.seed), self.data_dir)
        self.probe.check(rows == self.fit_rows[:epochs],
                         "retraining the checkpoint changed its log")

    def run_jobs(self, seconds=None, jobs=None, tracer=None):
        """Run jobs until ``seconds`` pass (and at least ``min_jobs`` ran),
        or exactly ``jobs`` jobs."""
        start = time.perf_counter()
        index = 0
        while True:
            if jobs is not None and index >= jobs:
                break
            if jobs is None and index >= self.spec["min_jobs"] and \
                    time.perf_counter() - start >= seconds:
                break
            if tracer is not None:
                tracer.run_id = f"job{index}"
            t0 = time.perf_counter()
            try:
                dice = self.job(index)
            except Exception:
                traceback.print_exc()
                self.probe.check(False, f"job {index} raised")
                dice = None
            self.job_s.append(time.perf_counter() - t0)
            if index < self.spec["min_jobs"] and dice is not None:
                self.test_dice.append(dice)
            if "retrain_epochs" in self.spec:
                try:
                    self.retrain()
                except Exception:
                    traceback.print_exc()
                    self.probe.check(False, f"retrain after job {index} raised")
            index += 1


def run_phase(name, seed, work_dir, seconds=None, jobs=None, tracer=None):
    """Set up and measure one workload; returns (probe, phase)."""
    probe = Probe()
    probe.install()
    if tracer is not None:
        sites = {site: layer for layer, spec in layers.LAYERS.items()
                 for site in spec["sites"]}
        for (module, attr), layer in sites.items():
            tracer.wrap(module, attr, layer, name_fn=_forward_name
                        if attr == "Network.forward" else None)
    phase = Phase(name, seed, work_dir, probe,
                      reps=1 if tracer is not None else SETUP_REPS)
    try:
        if tracer is not None:
            tracer.run_id = "setup"
        phase.run_setup()
        phase.run_jobs(seconds=seconds, jobs=jobs, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        probe.uninstall()
    return probe, phase


def _forward_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    return f"model.Network.forward.{mode}"


def end_to_end(probe, phase):
    """(gated, reported) metrics of one untraced phase, by name.

    The host's speed drifts by a fifth or more over tens of seconds, so a
    median or p90 over one run mostly says which state the host was in.
    The gated latencies are minimums, the program's cost when nothing else
    contends; percentiles, whole-job times and throughputs are reported
    but not gated.
    """
    steps, epochs, samples = probe.step_ms, probe.epoch_ms, probe.eval_sample_ms
    fit = probe.fit_dice[:phase.spec["fit_runs"]]
    if not (steps and epochs and samples and phase.test_dice) or \
            len(fit) < phase.spec["fit_runs"]:
        raise RuntimeError(
            f"nothing measured: {len(steps)} steps, {len(epochs)} epochs, "
            f"{len(samples)} eval samples, {len(fit)} trainings, "
            f"{len(phase.test_dice)} jobs")
    gated = {
        "setup_s": (statistics.median(phase.setup_s), "s"),
        "train_step_ms.min": (min(steps), "ms"),
        "train_epoch_ms.min": (min(epochs), "ms"),
        "eval_sample_ms.min": (min(samples), "ms"),
        # median: one 2-shot run in eight stalls near 0.75 at this budget
        "train_dice": (statistics.median(fit), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    reported = {
        "job_s": (statistics.median(phase.job_s), "s"),
        "train_step_ms.p50": (percentile(steps, 50), "ms"),
        "train_step_ms.p90": (percentile(steps, 90), "ms"),
        "train_epoch_ms.p50": (percentile(epochs, 50), "ms"),
        "train_epoch_ms.p90": (percentile(epochs, 90), "ms"),
        "train_samples_per_s": (probe.train_samples / probe.train_s, "1/s"),
        "eval_sample_ms.p50": (percentile(samples, 50), "ms"),
        "eval_sample_ms.p90": (percentile(samples, 90), "ms"),
        "eval_samples_per_s": (probe.eval_samples / probe.eval_s, "1/s"),
        "eval_mean_dice": (float(np.mean(phase.test_dice)), "1"),
    }
    return gated, reported


def per_layer(name, tracer, probe, untraced):
    """Per-layer metrics of one traced phase; enforces span coverage."""
    stats = summarize(tracer.spans)
    check_coverage(stats, layers.expected_on(name))
    out = {}
    for layer in layers.LAYERS:
        s = stats.get(layer, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        out[f"{layer}.ms"] = s["ms"]
        out[f"{layer}.self_ms"] = s["self_ms"]
        out[f"{layer}.calls"] = s["calls"]
    out["trainer.monitor.ms"] = inside(
        tracer.spans, "model.Network.forward.eval", "trainer.train")
    out["autodiff.tape_nodes_per_step"] = statistics.median(probe.tape_nodes)
    for arm in layers.ARMS:
        ms = [e for e, a in zip(probe.epoch_ms, probe.epoch_arm) if a == arm]
        out[f"trainer.epoch_ms.{arm}"] = statistics.median(ms) if ms else 0.0
    traced = {"train_step_ms.p50": percentile(probe.step_ms, 50),
              "train_step_ms.min": min(probe.step_ms),
              "eval_sample_ms.p50": percentile(probe.eval_sample_ms, 50),
              "eval_sample_ms.min": min(probe.eval_sample_ms)}
    for metric in layers.OVERHEAD:
        out[f"trace_overhead.{metric}"] = traced[metric] - untraced[metric][0]
    units = dict(layers.per_layer_names())
    return {k: (v, units[k]) for k, v in out.items()}
