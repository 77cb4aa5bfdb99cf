"""The hadaseg benchmark: cGAN training steps and checkpoint evaluation.

Run from the root of a checkout, which it imports the package from (./src):

    python3 perfbench/run.py --workload train_k3 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each is there):
  train_k3  train_cgan at the C7 smoke configuration, Hadamard head, k=3
  train_k6  the same with k=6 (64 code channels)
  eval_k3   what ``hadaseg eval`` does on a k=3 checkpoint and 50 images

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it times half the run untraced and half under a tracer
that wraps every public hadaseg function, writes the spans to
``.perfbench_work/spans/`` and reports the per-layer metrics. Every run
first prints an ``env`` line and one line per metric, then, as the last
line, one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
A failed correctness check still prints that line, with ``correct`` false,
and exits 1.

Every time in the end-to-end metrics is scaled to a nominal host speed by
a fixed numpy kernel timed between the timed windows (see hostspeed.py);
a ``wall`` line above the JSON gives the unscaled figures.

Before numpy loads, the process fixes BLAS to one thread and tells glibc
malloc to keep freed memory mapped (see ``_set_process_up``); the ``env``
line records both.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("train_k3", "train_k6", "eval_k3")
# One BLAS thread keeps runs steady on a shared machine; two threads
# measured no faster on this model.
BLAS_THREADS = 1
# Absolute tolerance on the reference pixel accuracy: 6 of the reference
# set's 65536 pixels may flip on a near-tie between BLAS builds.
PIXEL_ACCURACY_ATOL = 1e-4
# Relative tolerance on the reference losses: BLAS thread counts change
# the last bits of every matmul, and three Adam steps carry them forward.
LOSS_RTOL = 1e-6


def _set_process_up() -> bool:
    """Fix the BLAS thread count and the allocator before numpy loads.

    glibc malloc is told to keep freed memory mapped: no mmap for large
    blocks and no heap trimming. By default every im2col buffer above 32 MB
    is mapped and unmapped per call, and an eval pass re-faults ~150 MB of
    pages; what a page fault costs swings with the host's load, and it moved
    eval_k3's p90 by half from run to run. Returns whether glibc took it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_max = -1, -4
    return libc.mallopt(m_mmap_max, 0) == 1 and libc.mallopt(m_trim_threshold, 2**30) == 1


def _import_package():
    """Import hadaseg from this checkout's source tree, or exit nonzero."""
    sys.path.insert(0, str(SRC))
    try:
        import hadaseg
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hadaseg from {SRC}: {exc}")
    if not Path(hadaseg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: hadaseg was imported from {hadaseg.__file__}, not {SRC}")


def _openblas_threads():
    """The thread count the loaded OpenBLAS reports, or None."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(malloc_keeps_freed_memory: bool) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "malloc_keeps_freed_memory": malloc_keeps_freed_memory,
    }


def record_reference(workdir: Path) -> None:
    """Write perfbench/reference.json from this checkout's results."""
    import checks
    import workloads

    reference = {
        "train_k3": {"losses": workloads.reference_train(3)[0]},
        "train_k6": {"losses": workloads.reference_train(6)[0]},
        "eval_k3": {"pixel_accuracy": workloads.reference_eval(workdir)},
    }
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n", encoding="ascii")
    print(f"wrote {checks.REFERENCE_PATH}")


def _check_reference(workload: str, measured: dict) -> bool:
    import checks

    expected = checks.load_reference()[workload]
    if "losses" in expected:
        return checks.close(measured, expected["losses"], LOSS_RTOL)
    return abs(measured["pixel_accuracy"] - expected["pixel_accuracy"]) <= PIXEL_ACCURACY_ATOL


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(workload: str, outcome) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and one line per metric under its
    per-workload name (train_step_* or eval_batch_*).

    Times are scaled to the nominal host speed of hostspeed.py; the wall
    times they come from are printed on ``wall`` lines.
    """
    ms = [1000.0 * s for s in outcome.op_scaled]
    values = {
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": _p90(ms),
        "images_per_s": outcome.images / outcome.timed_scaled,
        "setup_s": statistics.median(outcome.setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_ratio": (outcome.attempted - outcome.failed) / outcome.attempted,
    }
    n = len(ms)
    if workload.startswith("train"):
        lines = [
            f"train_step_ms_p50 = {values['op_ms_p50']:.3f} ms (n={n} steps)",
            f"train_step_ms_p90 = {values['op_ms_p90']:.3f} ms (n={n} steps)",
            f"train_steps_per_s = {n / outcome.timed_seconds:.4f} 1/s",
        ]
    else:
        lines = [
            f"eval_batch_ms_p50 = {values['op_ms_p50']:.3f} ms (n={n} batches of 8)",
            f"eval_batch_ms_p90 = {values['op_ms_p90']:.3f} ms (n={n} batches of 8)",
            f"eval_images_per_s = {values['images_per_s']:.3f} 1/s",
        ]
    wall_ms = [1000.0 * s for s in outcome.op_seconds]
    lines += [
        f"setup_s = {values['setup_s']:.4f} s (median of {len(outcome.setup_seconds)})",
        f"wall op_ms_p50 = {statistics.median(wall_ms):.3f} ms, op_ms_p90 = {_p90(wall_ms):.3f}"
        f" ms, images_per_s = {outcome.images / outcome.timed_seconds:.3f} 1/s,"
        f" setup_s = {statistics.median(outcome.setup_seconds):.4f} s",
        f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB",
        f"failed_ops_ratio = {outcome.failed / outcome.attempted:.4f}"
        f" ({outcome.failed} of {outcome.attempted})",
    ]
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="rewrite perfbench/reference.json from this checkout and exit",
    )
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    malloc_set = _set_process_up()
    _import_package()
    import checks
    import workloads

    print("env " + json.dumps(environment(malloc_set), sort_keys=True), flush=True)
    workdir = WORK / f"run-{os.getpid()}"
    try:
        if args.record_reference:
            record_reference(workdir)
            return 0
        gradient_errors = checks.gradient_checks()
        if args.workload == "eval_k3":
            outcome = workloads.run_eval(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            code_bits = int(args.workload.removeprefix("train_k"))
            outcome = workloads.run_train(
                code_bits, args.seed, args.seconds, bool(args.trace), workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = {
        f"gradient_{name}": err < checks.GRADIENT_TOLERANCE
        for name, err in gradient_errors.items()
    }
    results["reference"] = _check_reference(args.workload, outcome.reference)
    results.update(outcome.checks)
    results["no_failed_ops"] = outcome.failed == 0

    if args.trace:
        layers = dict(outcome.layers)
        for code_bits in (3, 6):
            ratio, agree = workloads.fwht_dense_ratio(code_bits)
            layers[f"codes.fwht_dense_ratio.n{2 ** code_bits}"] = ratio
            results[f"fwht_matches_dense_n{2 ** code_bits}"] = agree
        spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        outcome.tracer.dump(spans_path)
        print(f"spans: {len(outcome.tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        declared_metrics = declared["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in declared_metrics}
    else:
        declared_metrics = declared["end_to_end"]
        values, lines = end_to_end(args.workload, outcome)
        for line in lines:
            print(line)

    for name, passed in results.items():
        detail = ""
        if name.startswith("gradient_"):
            detail = f" (max relative error {gradient_errors[name.removeprefix('gradient_')]:.2e})"
        print(f"check {name}: {'pass' if passed else 'FAIL'}{detail}")
    metrics = {}
    for metric in declared_metrics:
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        if args.trace:
            print(f"{metric['name']} = {values[metric['name']]!r} {metric['unit']}")
    correct = all(results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
