#!/usr/bin/env python3
"""hhattrib benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout; the library is imported from `src/`:

    python3 perfbench/run.py --workload cv-gen-day --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

`--trace 0` runs untraced passes and reports the end-to-end metrics.
`--trace 1` alternates untraced and traced passes and reports the median
per-layer metrics of the traced ones plus the tracing overhead (traced
minus untraced pass time, both estimated as below). A pass is started
only while it is expected to end within `--seconds`; the first always
runs.

`wall_s` estimates one full pass from the median repeated unit of work
in the run: the median CV split times the five splits of a table, or
the median four-command CLI pass. Splitting a CV table into its splits
gives cv-unified, whose single table fills a run, a median as well.
`setup_s` is the median of several set-ups. The last
line of standard output is one JSON object; the lines above it are the
machine record and a readable table. `--workload all` runs every workload
in its own process, both ways, and prints every metric plus the growth of
`fit_priors` from 1x to 4x the households.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("cv-unified", "cv-gen-day", "cv-prior-4x", "cli-temporal")
SETUP_REPEATS = 9
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "P": "fraction", "AUC": "fraction"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the CV splits; the corpus does not depend on it")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=20, dest="corpus_seed",
                        help="synthetic corpus seed (criterion 8 uses 20)")
    return parser.parse_args(argv)


def import_library():
    """Import hhattrib from this checkout's src/, never from elsewhere."""
    if not (SRC / "hhattrib" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library at {SRC / 'hhattrib'}")
    sys.path.insert(0, str(SRC))
    import hhattrib
    if not Path(hhattrib.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: hhattrib imported from {hhattrib.__file__}")


def machine_record() -> list[str]:
    """Machine facts that explain the timings; never compared between runs."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    start = time.perf_counter()
    total = 0
    for k in range(2_000_000):
        total += k * k
    calibration = time.perf_counter() - start
    return [
        f"python {platform.python_version()} numpy {numpy.__version__} "
        f"scipy {scipy.__version__}",
        f"blas {blas.get('name')} {blas.get('version')} threads "
        f"{threads or 'default'}",
        f"nproc {os.cpu_count()} usable {len(os.sched_getaffinity(0))}",
        f"calibration_loop_s {calibration:.4f}",
    ]


def passes_for(seconds, run_one):
    """Run passes until the next one would end after ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        results.append(run_one())
        last = time.perf_counter() - before
        if time.perf_counter() - start + last > seconds:
            return results


def pass_estimate(workload, results) -> float:
    """One pass's time, from the median unit of work in ``results``."""
    return workload.units_per_pass * statistics.median(
        u for r in results for u in r.units)


def check_repeats(results):
    """Every pass must give the first pass's P and AUC exactly."""
    good = [r for r in results if r.P is not None]
    if not good:
        return
    reference = (good[0].P, good[0].AUC)
    for r in results:
        if r.P is not None and (r.P, r.AUC) != reference:
            r.failed = r.attempted
            r.problems.append(f"P/AUC {(r.P, r.AUC)} differ from {reference}")


def run_workload(args) -> int:
    import_library()
    import spans
    import workloads

    for line in machine_record():
        print("#", line)
    workload = workloads.WORKLOADS[args.workload]()
    work_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        setups = [workload.setup(args.corpus_seed, args.seed, work_dir)
                  for _ in range(SETUP_REPEATS)]
        if args.trace == 0:
            plain = passes_for(args.seconds, workload.run_pass)
            traced, recorders = [], []
        else:
            plain, traced, recorders = [], [], []

            def pair():
                plain.append(workload.run_pass())
                recorder = spans.Recorder()
                with recorder.installed():
                    traced.append(workload.run_pass())
                recorders.append(recorder)

            passes_for(args.seconds, pair)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    results = plain + traced
    check_repeats(results)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for r in results:
        for problem in r.problems:
            print("# failed check:", problem)
    good = [r for r in results if r.P is not None]
    if not good:
        print("perfbench: no pass produced P and AUC", file=sys.stderr)
        return 1

    walls = [r.wall_s for r in plain]
    print(f"# untraced passes {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls)
          + f" (median unit {pass_estimate(workload, plain) / workload.units_per_pass:.3f}"
          f" x {workload.units_per_pass})")
    print(f"# setups {len(setups)}: " + " ".join(f"{s:.4f}" for s in setups))
    print(f"# error_rate {failed / attempted} ({failed} of {attempted} operations)")
    if args.trace == 0:
        metrics = {
            "wall_s": pass_estimate(workload, plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "P": good[0].P,
            "AUC": good[0].AUC,
        }
        units = END_TO_END_UNITS
    else:
        metrics, units = layer_metrics(workload, plain, traced, recorders)
    for name, value in metrics.items():
        print(f"# {name} {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def layer_metrics(workload, plain, traced, recorders):
    """Median over traced passes of each layer metric, plus overhead."""
    per_pass = [rec.metrics() for rec in recorders]
    metrics = {name: statistics.median_low(p[name] for p in per_pass)
               for name in per_pass[0]}
    traced_walls = [r.wall_s for r in traced]
    metrics["trace.overhead_s"] = (pass_estimate(workload, traced)
                                   - pass_estimate(workload, plain))
    metrics["trace.coverage"] = statistics.median(
        rec.total_self_s() / r.wall_s for rec, r in zip(recorders, traced))
    print(f"# traced passes {len(traced_walls)}: "
          + " ".join(f"{w:.3f}" for w in traced_walls))
    missing = sorted({site for rec in recorders for site in rec.missing})
    if missing:
        print("# sites not in the library, untraced:", " ".join(missing))
    units = {name: ("s" if name.endswith("_s") else
                    "ratio" if name == "trace.coverage" else "count")
             for name in metrics}
    return metrics, units


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced; one table."""
    table, ok = {}, True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--corpus-seed", str(args.corpus_seed)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            table.setdefault(name, {"error_rate": (
                result["failed"] / result["attempted"], "fraction")})
            for metric, entry in result["metrics"].items():
                table[name][metric] = (entry["value"], entry["unit"])
    names = list(table)
    print("metric\tunit\t" + "\t".join(names))
    metrics = list(dict.fromkeys(m for col in table.values() for m in col))
    for metric in metrics:
        cells = [table[n].get(metric, (None, "")) for n in names]
        unit = next(u for _, u in cells if u)
        print(f"{metric}\t{unit}\t" + "\t".join(
            "NA" if v is None else f"{v:.6g}" for v, _ in cells))
    key = "temporal.fit_priors.self_s"
    big = table.get("cv-prior-4x", {}).get(key, (0.0,))[0]
    small = table.get("cv-gen-day", {}).get(key, (0.0,))[0]
    if big and small:
        print(f"growth {key}: {big:.3f} s at 4x households vs {small:.3f} s at 1x "
              f"= {big / small:.1f}x (linear would be 4x, quadratic 16x)")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
