"""Swin MAE benchmark: one closed-loop workload per run, timed from outside.

    python3 perfbench/run.py --workload desk-pretrain --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
With `--trace 0` the last line of stdout is the end-to-end result; with
`--trace 1` it holds the per-layer metrics and the spans are written to
`perfbench/runs/`. The line before it holds the machine facts and details.
Exits 1 when an output check fails and 2 when the sources are missing.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
WORKLOAD_NAMES = ("desk-pretrain", "transfer", "fullscale-step")
SETUP_REPEATS = 3
MAX_THREADS = 2

END_TO_END = (
    ("setup_s", "s"), ("train_img_per_s", "img/s"), ("step_ms_p50", "ms"),
    ("step_ms_tail", "ms"), ("eval_img_per_s", "img/s"), ("peak_rss_mb", "MB"),
    ("loss_final", "loss"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fix_blas_threads():
    """Pin every BLAS pool before numpy loads; returns the thread count."""
    threads = max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _read(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return ""


def machine_facts(threads):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level")).strip()
        kind = _read(os.path.join(base, entry, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(os.path.join(base, entry, "size")).strip()
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "l2": caches.get("l2", "?"), "l3": caches.get("l3", "?"),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
    }


def run(args, threads, import_s):
    from tracer import Recorder, Tracer, per_layer_names, tail_percentile
    from workloads import WORKLOADS

    work_dir = os.path.join(RUNS, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work_dir)
        rec = Recorder()
        tracer = Tracer(rec) if args.trace else None
        wl.prepare()

        setup_times = []
        for _ in range(SETUP_REPEATS):
            with traced(tracer, "bench.setup", kind="setup"):
                t = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t)
        checks = list(wl.checks)
        wl.warmup()

        rec.install()
        units, failed_units = [], 0
        train_s = 0.0
        t_begin = time.perf_counter()
        try:
            while True:
                # a traced run alternates untraced and traced units
                unit_tracer = tracer if len(units) % 2 == 1 else None
                rec.traced = unit_tracer is not None
                wl.reset()
                with traced(unit_tracer, "bench.unit"):
                    rec.mark()
                    t0, eval0 = time.perf_counter(), rec.eval_s
                    result = wl.unit(rec, unit_tracer)
                    unit_s = time.perf_counter() - t0
                train_s += unit_s - (rec.eval_s - eval0)
                units.append(result)
                elapsed = time.perf_counter() - t_begin
                enough = len(rec.steps) > 10 and (not tracer or len(units) >= 2)
                if enough and elapsed + unit_s > args.seconds:
                    break
        except Exception:  # a step or evaluation raised: report it as failed
            traceback.print_exc()
            failed_units = 1
        finally:
            rec.uninstall()

        for i, u in enumerate(units):
            losses = u["losses"]
            checks += [(f"unit {i}: {name}", ok, detail) for name, ok, detail in u["checks"]]
            checks.append((f"unit {i}: every loss finite",
                           all(map(math.isfinite, losses)), f"{len(losses)} losses"))
            checks.append((f"unit {i}: loss_final below first loss",
                           bool(losses) and u["loss_final"] < losses[0],
                           f"{u['loss_final']!r} vs {losses[0] if losses else None!r}"))
            checks.append((f"unit {i}: bit-identical to unit 0",
                           u["signature"] == units[0]["signature"], ""))
        bad = [c for c in checks if not c[1]]
        for name, _, detail in bad:
            print(f"check failed: {name} ({detail})", file=sys.stderr)
        attempted = len(rec.steps) + len(rec.eval_rates) + len(checks) + failed_units
        failed = len(bad) + failed_units
        correct = failed == 0 and bool(units)

        details = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine_facts(threads), "units": len(units),
            "steps": len(rec.steps), "fail_ratio": failed / attempted,
            "setup_repeats_s": setup_times, "import_s": import_s,
        }
        if units and "miou_pct" in units[-1]:
            details["miou_pct"] = units[-1]["miou_pct"]
        metrics = {}
        if correct and not tracer:
            step_ms = [ms for ms, _ in rec.steps]
            tail, pct, n = tail_percentile(step_ms)
            details.update(tail_percentile=pct, tail_samples=n)
            values = {
                "setup_s": import_s + statistics.median(setup_times),
                "train_img_per_s": rec.images / train_s,
                "step_ms_p50": statistics.median(step_ms),
                "step_ms_tail": tail,
                "eval_img_per_s": statistics.median(rec.eval_rates),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "loss_final": units[-1]["loss_final"],
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        elif correct:
            traced_ms = [ms for ms, t in rec.steps if t]
            plain_ms = [ms for ms, t in rec.steps if not t]
            overhead = statistics.median(traced_ms) - statistics.median(plain_ms)
            values = tracer.metrics(overhead)
            metrics = {k: {"value": values[k], "unit": u} for k, u in per_layer_names()}
            trace_path = os.path.join(RUNS, f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_path, "w", encoding="utf-8") as f:
                json.dump({"details": details, "metrics": values, **tracer.dump()}, f)
            details["trace_file"] = os.path.relpath(trace_path, ROOT)
        print(json.dumps(details))
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


@contextlib.contextmanager
def traced(tracer, name, kind=None):
    """Install the tracer (if any) around one span opened by the benchmark."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        with tracer.span(name, kind):
            yield
    finally:
        tracer.uninstall()


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "swinmae", "__init__.py")):
        print(f"error: no swinmae sources under {SRC}", file=sys.stderr)
        return 2
    threads = fix_blas_threads()
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy.ndimage  # noqa: F401  (augmentation imports it on first use)
    import swinmae.data  # noqa: F401
    import swinmae.segmentation  # noqa: F401

    import_s = time.perf_counter() - T_START
    return run(args, threads, import_s)


if __name__ == "__main__":
    sys.exit(main())
