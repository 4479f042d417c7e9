"""Benchmark of kaarbench: one workload in one process, BLAS pinned to one thread.

    python3 benchmark/run.py --workload game-d1-certified --seed 0 --seconds 15 --trace 0

The run sets up once (imports, preset, process-wide caches, one warm-up
operation at a tiny size), then repeats the workload's operation until
--seconds have passed, always finishing the operation under way.

--trace 0 reports the end-to-end metrics: wall_s and cpu_s, the medians of
one operation's wall and CPU time; setup_s, the median set-up time of this
process and of fresh processes that only set up; peak_rss_mb, the peak
resident set of this process.  --trace 1 alternates untraced and traced
operations on the same inputs and reports the per-layer metrics of
tracer.py, each the traced set-up plus the median traced operation, and
trace.overhead_s.  Every operation's output is checked independently after
the timed region.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; a record with the library
versions, BLAS threads, core count and stream seeds precedes it and is also
written under .benchmark_out/records/.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.  With two
# OpenBLAS threads on this kind of 2-core machine a d = 1, n = 2048 game
# runs 3-4x slower and varies widely as soon as one other process is busy.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import time  # noqa: E402

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchmark_out"
SETUP_SAMPLES = 5  # this process plus four set-up-only processes
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0, help="stream seeds of the run derive from it")
    p.add_argument("--seconds", type=float, default=15.0, help="length of the timed region")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def openblas_libraries() -> list[dict]:
    """Config string and live thread count of each OpenBLAS that numpy and scipy bundle."""
    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                    get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                    found.append({"library": path.name, "config": get_config().decode(),
                                  "threads": get_threads()})
                    break
    return found


def environment(seed: int, stream_seeds: list[int]) -> dict:
    import numpy
    import scipy

    libs = openblas_libraries()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": libs,
        "blas_threads": sorted({lib["threads"] for lib in libs}),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "stream_seeds": stream_seeds,
    }


def set_up(args, run_dir: Path, tracer=None):
    """Everything before the timed region.  Returns (workload, seconds since start)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    if tracer is None:
        workload.prepare()
    else:
        with tracer.installed():
            workload.prepare()
    workload.warm_up(run_dir / "warm-up")
    return workload, time.perf_counter() - T0


def probe_setup(args) -> float:
    """Set-up time of a fresh process that runs the same set-up and nothing else."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited {done.returncode}:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def timed_op(workload, i: int, run_dir: Path, tracer=None) -> dict:
    out_dir = run_dir / (f"op{i}-traced" if tracer else f"op{i}")
    before = tracer.snapshot() if tracer else None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            output = workload.op(i, out_dir)
        else:
            with tracer.installed():
                output = workload.op(i, out_dir)
        error = None
    except Exception:  # a failed operation is counted and the run goes on
        output, error = None, traceback.format_exc()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    record = {"op": i, "traced": tracer is not None, "stream_seeds": workload.stream_seeds(i),
              "wall_s": wall, "cpu_s": cpu, "output": output, "error": error}
    if tracer is not None:
        after = tracer.snapshot()
        record["layers"] = {name: after[name] - before[name] for name in after}
    return record


def measure(args, run_dir: Path) -> tuple[dict, dict]:
    import tracer as tr
    from checks import Check

    tracer = tr.Tracer() if args.trace else None
    workload, setup_s = set_up(args, run_dir, tracer)
    setup_layers = tracer.snapshot() if tracer else None
    unpinned = [lib for lib in openblas_libraries() if lib["threads"] != 1]
    if unpinned:
        raise RuntimeError(f"BLAS is not pinned to one thread: {unpinned}")

    ops = []
    start = time.perf_counter()
    i = 0
    while not ops or time.perf_counter() - start < args.seconds:
        ops.append(timed_op(workload, i, run_dir))
        if tracer is not None:
            ops.append(timed_op(workload, i, run_dir, tracer))
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = [op for op in ops if op["error"] is not None]
    for op in failed:
        print(f"op {op['op']} failed:\n{op['error']}", file=sys.stderr)
    tally: dict[str, list[int]] = {}
    correct = True
    for op in ops:
        if op["error"] is None:
            try:
                checks = workload.check(op["output"])
            except Exception:  # a malformed output fails its checks instead of ending the run
                checks = [Check("well-formed-output", False, traceback.format_exc(limit=-1).strip())]
            for c in checks:
                tally.setdefault(c.name, [0, 0])[0 if c.ok else 1] += 1
                if not c.ok:
                    correct = False
                    print(f"check {c.name} FAILED on op {op['op']}: {c.detail}", file=sys.stderr)
                    op.setdefault("failed_checks", []).append(f"{c.name}: {c.detail}")
    for name, (passed, bad) in tally.items():
        print(f"check {name}: {'pass' if bad == 0 else 'FAIL'} ({passed}/{passed + bad} operations)")

    walls = [op["wall_s"] for op in ops if not op["traced"]]
    if tracer is None:
        setup_samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(op["cpu_s"] for op in ops), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        setup_samples = [setup_s]
        traced = [op for op in ops if op["traced"]]
        metrics = {
            name: (setup_layers[name] + statistics.median(op["layers"][name] for op in traced), unit)
            for name, unit in tr.LAYER_METRICS
        }
        metrics["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced)
                                       - statistics.median(walls), "s")
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds, "tiny": args.tiny,
        **environment(args.seed, sorted({s for op in ops for s in op["stream_seeds"]})),
        "setup_samples_s": setup_samples,
        "ops": [{k: v for k, v in op.items() if k != "output"} for op in ops],
        "checks": tally,
        "result": result,
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kaarbench" / "__init__.py").is_file():
        print(f"benchmark: no kaarbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            _, setup_s = set_up(args, run_dir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result, record = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (records / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']!r} {metric['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    print("record: " + json.dumps({k: v for k, v in record.items() if k not in ("ops", "result")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
