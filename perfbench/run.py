"""alphacoh benchmark: one workload, one seed, one JSON line of metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 10 --trace 0

`--trace 0` times the workload untraced and reports the end-to-end metrics;
`--trace 1` runs the same passes untraced and then traced, and reports the
per-layer metrics with the tracing overhead. The last line of standard output
is the JSON result; a fuller record with provenance goes to
`.perfbench_out/<workload>-seed<seed>-trace<0|1>.json`.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: imports, inputs, warm-up

import os  # noqa: E402

# one process, one BLAS thread: the workloads are single-caller closed loops
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_PROBES = 8  # extra fresh processes timed for set-up, besides this one
MIN_PASSES = 3


class BenchError(Exception):
    """The benchmark cannot run here; exit without a result."""


def bootstrap():
    """Put the checkout's own package first on the path and import the workloads."""
    if not (SRC / "alphacoh" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'alphacoh'}")
    if not SPEC_PATH.is_file():
        raise BenchError(f"missing {SPEC_PATH}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import alphacoh

    if Path(alphacoh.__file__).resolve().parent != (SRC / "alphacoh").resolve():
        raise BenchError(f"imported alphacoh from {alphacoh.__file__}, not from {SRC}")
    import workloads

    return workloads


def make_workload(workloads, name: str, seed: int, work_dir: Path):
    wl = workloads.WORKLOADS[name](seed, str(work_dir))
    wl.warm_up()
    return wl


def setup_probe(name: str, seed: int) -> None:
    """Child mode: build the workload once and print this process's set-up seconds."""
    workloads = bootstrap()
    work_dir = OUT_DIR / f"setup-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        make_workload(workloads, name, seed, work_dir)
        print(repr(time.perf_counter() - T0))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


class SetupProbes:
    """Set-up time of SETUP_PROBES fresh processes, run one at a time.

    A probe runs before the timed passes, one after each pass and the rest at
    the end, so the samples spread over the run and the host's slow and fast
    phases rather than falling in one of them.
    """

    def __init__(self, name: str, seed: int, own: float):
        self.name, self.seed = name, seed
        self.samples = [own]

    def probe(self) -> None:
        if len(self.samples) > SETUP_PROBES:
            return
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", self.name, "--seed", str(self.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        self.samples.append(float(proc.stdout.strip().splitlines()[-1]))

    def finish(self) -> list[float]:
        while len(self.samples) <= SETUP_PROBES:
            self.probe()
        return self.samples


def timed_passes(wl, tracer, seconds: float, count: int | None = None, between=None) -> tuple[list, float]:
    """Run passes for `count` passes, or until `seconds` (and MIN_PASSES) are done.

    `between` is called after each pass, outside the timed window.
    """
    passes = []
    elapsed = 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass(tracer))
        elapsed += time.perf_counter() - t0
        if count is not None:
            if len(passes) >= count:
                break
        elif elapsed >= seconds and len(passes) >= MIN_PASSES:
            break
        if between is not None:
            between()
    return passes, elapsed


# ---------------------------------------------------------------------------
# provenance


def _read_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "alphacoh").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # the layout of show_config differs across numpy releases
        blas_info = {"name": "unknown", "version": "unknown"}
    return {
        "commit": _read_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": 1,
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def with_units(values: dict, declared: list[dict]) -> dict:
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise BenchError(
            f"metrics {sorted(set(values) ^ set(names))} differ from those BENCHMARK.json declares"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_untraced(wl, args, probes: SetupProbes) -> tuple[dict, dict]:
    from tracing import NullTracer

    probes.probe()
    passes, wall = timed_passes(wl, NullTracer(), args.seconds, wl.fixed_passes, between=probes.probe)
    setup_samples = probes.finish()
    values, detail = wl.summarize(passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kilobytes on Linux
    values["setup_s"] = statistics.median(setup_samples)
    values["peak_rss_mb"] = peak_kb / 1024.0
    values["ok_share"] = 1.0 - (wl.failed + wl.known_defect) / wl.attempted
    detail["samples"].update(setup_s=len(setup_samples), peak_rss_mb=1, ok_share=wl.attempted)
    detail.update(setup_s_all=setup_samples, measured_wall_s=wall, passes=len(passes),
                  failed_share=wl.failed / wl.attempted, known_defect_share=wl.known_defect / wl.attempted)
    return values, detail


def run_traced(wl, args) -> tuple[dict, dict]:
    """The same passes untraced and traced; their wall-time difference is the overhead."""
    import layers
    from tracing import NullTracer, Tracer, instrument

    run = wl.trace_pass
    count = wl.trace_passes
    tracer = Tracer()
    untraced_wall, windows, passes = 0.0, [], []
    # alternate the order (untraced, traced), (traced, untraced), ... so drift cancels
    for i in range(count):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if not traced:
                t0 = time.perf_counter()
                run(NullTracer())
                untraced_wall += time.perf_counter() - t0
                continue
            with instrument(tracer):
                t0 = time.perf_counter()
                passes.append(run(tracer))
                windows.append((t0, time.perf_counter()))
    extra = {"harness.witness_draws": sum(p.get("witness_draws", 0) for p in passes)}
    values = layers.layer_metrics(tracer, windows, untraced_wall, extra)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{wl.name}-seed{args.seed}-spans.npz"
    tracer.write(spans_path)
    detail = {
        "trace_passes": count,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "missing_targets": sorted(tracer.missing_targets),
        "hook_errors": tracer.hook_errors,
        "self_s_by_part": layers.split_by_part(tracer),
    }
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "search", "measures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        workloads = bootstrap()
        spec = load_spec()
        work_dir = OUT_DIR / f"work-{os.getpid()}"
        work_dir.mkdir(parents=True, exist_ok=True)
        try:
            wl = make_workload(workloads, args.workload, args.seed, work_dir)
            own_setup = time.perf_counter() - T0
            if args.trace:
                values, detail = run_traced(wl, args)
                metrics = with_units(values, spec["per_layer"])
            else:
                probes = SetupProbes(args.workload, args.seed, own_setup)
                values, detail = run_untraced(wl, args, probes)
                metrics = with_units(values, spec["end_to_end"])
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": not wl.gate_failures,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": metrics,
    }
    record = {
        "schema": 1,
        "workload": args.workload,
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "result": result,
        "detail": detail,
        "gate_failures": wl.gate_failures,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in wl.gate_failures:
        print(f"gate failed: {failure}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
