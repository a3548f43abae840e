"""The convoforge benchmark.

    python3 benchmarks/run.py --workload annotate --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It generates the workload's corpus from the
seed (untimed), then measures ``convoforge run CONFIG`` end to end in a closed
loop: one client, one run at a time, each run a fresh child process, until
``--seconds`` have passed. Every run's output is checked. With ``--trace 1``
each untraced run is followed by a traced in-process run (``traced.py``) that
times every layer from outside; end-to-end numbers come only from untraced
runs.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, holding the end-to-end metrics of
BENCHMARK.json with ``--trace 0`` and its per-layer metrics with ``--trace 1``.
Lines before it print every metric with its unit as median and quartiles.
Run records, spans and machine details are written to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_MIN = 7
# Every child is killed once the invocation has run this long, and no run
# starts after half of it, so that the benchmark always ends within 180 s.
HARD_LIMIT_S = 160.0

sys.path.insert(0, str(SRC))
import check  # noqa: E402  (found because the script's directory is on sys.path)
import corpora  # noqa: E402
from traced import ROOT_SPAN  # noqa: E402


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stderr_lines: int
    problems: list


def child_env() -> dict:
    """The current environment with the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], log_prefix: Path, deadline: float) -> ChildRun:
    """Run one child to completion; wall time from spawn to exit, CPU time
    and peak RSS from that child's own rusage."""
    env = child_env()
    stderr_path = log_prefix.with_suffix(".stderr")
    with open(log_prefix.with_suffix(".stdout"), "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr_lines = stderr_path.read_bytes().count(b"\n")
    problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode, stderr_lines, problems)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def machine_info() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "convoforge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        commit = result.stdout.strip() or None
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": blas_threads(numpy), "commit": commit,
            "src_sha256": digest.hexdigest()}


def blas_threads(numpy) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None when not found."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def self_times(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: total and self wall time and peak-RSS growth, summed
    over that name's spans in one traced run."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, dict[str, float]] = {}
    for span, children in zip(spans, child_time):
        entry = out.setdefault(span["name"], {"total_s": 0.0, "self_s": 0.0,
                                              "rss_growth_mb": 0.0})
        duration = span["end"] - span["start"]
        entry["total_s"] += duration
        entry["self_s"] += duration - children
        entry["rss_growth_mb"] += (span["rss_end_kb"] - span["rss_start_kb"]) / 1024.0
    return out


def per_layer_value(name: str, traces: list[dict], runs: list[ChildRun],
                    setup: list[float]) -> float:
    """One per-layer metric; 0 for a layer the workload does not run."""
    if name == "cli.stderr_lines":
        return statistics.median_low(r.stderr_lines for r in runs)
    if name == "trace.overhead_s":
        traced_total = statistics.median(t["spans"][ROOT_SPAN]["total_s"] for t in traces)
        return traced_total - (statistics.median(r.wall_s for r in runs)
                               - statistics.median(setup))
    if name in traces[0]["counts"]:
        return statistics.median_low(t["counts"][name] for t in traces)
    for suffix, field in (("_s", "total_s"), (".rss_growth_mb", "rss_growth_mb")):
        if name.endswith(suffix):
            span = name[: -len(suffix)]
            return statistics.median(t["spans"].get(span, {}).get(field, 0.0) for t in traces)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="convoforge end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    hard_deadline = started + HARD_LIMIT_S

    if not (SRC / "convoforge" / "cli.py").is_file():
        print(f"error: no convoforge sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    base = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    utterances = corpora.write_corpus(args.workload, args.seed, base / "in")
    config = corpora.pipeline_config(args.workload, base / "in", base / "out")
    config_path = base / "config.json"
    config_path.write_text(json.dumps(config, indent=1))

    setup_argv = [sys.executable, "-c", "import convoforge.cli"]
    spawn(setup_argv, base / "setup", hard_deadline)  # warm-up: compiles bytecode
    setup: list[float] = []

    def checked(child: ChildRun) -> ChildRun:
        if child.problems:
            return child
        try:
            child.problems = check.check_output(base / "out", config, args.workload,
                                                args.seed, utterances)
        except Exception as exc:  # a broken output fails the run, not the benchmark
            traceback.print_exc()
            child.problems = [f"output check raised {type(exc).__name__}: {exc}"]
        return child

    runs: list[ChildRun] = []
    traced_runs: list[ChildRun] = []
    traces: list[dict] = []
    window_end = time.perf_counter() + min(args.seconds, HARD_LIMIT_S / 2)
    while not runs or time.perf_counter() < window_end:
        # One set-up per run, so that set-up is sampled across the same
        # stretch of time as the runs.
        setup.append(spawn(setup_argv, base / "setup", hard_deadline).wall_s)
        shutil.rmtree(base / "out", ignore_errors=True)
        runs.append(checked(spawn([sys.executable, "-m", "convoforge.cli", "run",
                                   str(config_path)], base / "run", hard_deadline)))
        if args.trace:
            shutil.rmtree(base / "out", ignore_errors=True)
            spans_path = base / "spans.json"
            spans_path.unlink(missing_ok=True)
            child = checked(spawn([sys.executable, str(HERE / "traced.py"),
                                   str(config_path), str(spans_path)],
                                  base / "traced", hard_deadline))
            traced_runs.append(child)
            if not child.problems:
                recorded = json.loads(spans_path.read_text())
                traces.append({"spans": self_times(recorded["spans"]),
                               "counts": recorded["counts"], "raw": recorded["spans"]})

    while len(setup) < SETUP_MIN:
        setup.append(spawn(setup_argv, base / "setup", hard_deadline).wall_s)

    attempted = len(runs) + len(traced_runs)
    failures = [r for r in runs + traced_runs if r.problems]
    good = [r for r in runs if not r.problems] or runs
    info = machine_info()
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {args.workload} seed {args.seed}: {utterances} utterances, "
          f"{len(runs)} untraced and {len(traced_runs)} traced runs in "
          f"{time.perf_counter() - started:.1f} s")
    for failure in failures[:3]:
        print(f"failed run: {'; '.join(failure.problems[:3])}")

    series = {
        "run_s": [r.wall_s for r in good],
        "utts_per_s": [utterances / r.wall_s for r in good],
        "cpu_s": [r.cpu_s for r in good],
        "peak_rss_mb": [r.peak_rss_mb for r in good],
        "setup_s": setup,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    for name, values in series.items():
        q1, median, q3 = quartiles(values)
        print(f"{name:<14} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"n={len(values)}  {units[name]}")
        if not args.trace:
            metrics[name] = {"value": median, "unit": units[name]}
    print(f"{'failed_ratio':<14} {len(failures) / attempted:.6g}  "
          f"({len(failures)} of {attempted} runs)  ratio")

    if args.trace:
        print(f"{'span':<40} {'total_s':>10} {'self_s':>10} {'rss_growth_mb':>14}")
        for name in traces[0]["spans"] if traces else ():
            row = [statistics.median(t["spans"][name][field] for t in traces)
                   for field in ("total_s", "self_s", "rss_growth_mb")]
            print(f"{name:<40} {row[0]:>10.4f} {row[1]:>10.4f} {row[2]:>14.2f}")
        for m in spec["per_layer"]:
            # With every traced run failed there is nothing to report.
            value = per_layer_value(m["name"], traces, good, setup) if traces else 0
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']:<44} {value:.6g} {m['unit']}")

    record = {"workload": args.workload, "seed": args.seed, "utterances": utterances,
              "machine": info, "setup_s": setup, "runs": [asdict(r) for r in runs],
              "traced_runs": [asdict(r) for r in traced_runs],
              "traces": [t["raw"] for t in traces]}
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
