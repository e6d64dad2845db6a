"""Benchmark command for augseg.

    python3 perfbench/run.py --workload train_wavelet --seed 1 --seconds 25 --trace 0

Run from the repository root.  With ``--trace 0`` it sets up the workload,
measures it for ``--seconds`` seconds and prints the end-to-end metrics.
With ``--trace 1`` it does the same untraced, then repeats a fixed number
of jobs with spans around every layer function, writes the spans to
``.perfbench_work/`` and prints the per-layer metrics, tracing overhead
included.  The last line of standard output is the result object; the
line before it is a report with the environment and every count.
"""

import os

# Pinned before numpy is imported anywhere: one process, one BLAS thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed,
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "augseg")):
        print(f"augseg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work")
    run_dir = os.path.join(work, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        probe, phase = workloads.run_phase(
            args.workload, args.seed, run_dir, seconds=args.seconds)
        e2e, reported = workloads.end_to_end(probe, phase)
        attempted, failed = probe.attempted, probe.failed
        report = {"workload": args.workload, "env": environment(args.seed),
                  "jobs": len(phase.job_s), "steps": len(probe.step_ms),
                  "epochs": len(probe.epoch_ms),
                  "eval_samples": len(probe.eval_sample_ms)}
        metrics = e2e
        if args.trace:
            shutil.rmtree(run_dir)
            os.makedirs(run_dir)
            tracer = Tracer()
            tprobe, _ = workloads.run_phase(
                args.workload, args.seed, run_dir,
                jobs=phase.spec["min_jobs"], tracer=tracer)
            attempted += tprobe.attempted
            failed += tprobe.failed
            metrics = workloads.per_layer(args.workload, tracer, tprobe,
                                          {**e2e, **reported})
            spans_path = os.path.join(
                work, f"spans-{args.workload}-{args.seed}.jsonl")
            tracer.write_jsonl(spans_path)
            report["spans"] = os.path.relpath(spans_path, ROOT)
            report["spans_count"] = len(tracer.spans)
        report["ops_failed_frac"] = failed / max(attempted, 1)
        report["ops_attempted"] = attempted
        report["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in {**e2e, **reported}.items()}
        if args.workload == "ablate_table6":
            report["metrics"]["table_s"] = report["metrics"]["job_s"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
