#!/usr/bin/env python3
"""Session-level benchmark of the CoReDA library.

Builds perfbench/ (which compiles the library from ../src), runs one
workload, checks its outputs and prints one JSON result as the last line:

    python3 perfbench/run.py --workload home_serve --seed 1 --seconds 10 \
        --trace 0 [--jobs N]

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the spans to <build dir>/run/<workload>.spans.tsv). LAYERS.md
describes the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("home_serve", "fleet_zipf", "nightly_retrain")
# The program must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    configured = os.environ.get("CARGO_TARGET_DIR")
    return Path(configured).resolve() if configured else ROOT / ".bench_build"


def build(out: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: library sources not found under {ROOT / 'src'}")
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j",
                    str(os.cpu_count() or 1), "--target", "coreda_perfbench"],
                   check=True, stdout=sys.stderr)
    return out / "coreda_perfbench"


def declared_metrics(trace: bool):
    """Metric names BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker threads (0 = all cores)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    out = build_dir()
    try:
        program = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")
    run_dir = out / "run"
    try:
        proc = subprocess.run(
            [str(program), f"--workload={args.workload}",
             f"--seed={args.seed}", f"--seconds={args.seconds}",
             f"--trace={args.trace}", f"--jobs={args.jobs}",
             f"--out-dir={run_dir}"],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish in "
                 f"{RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"run.py: {args.workload} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    attempted = result["attempted"]
    failed = result["failed"]
    failures = list(result["failures"])
    # Digests recorded for this seed must match exactly.
    expected = json.loads((HERE / "expected.json").read_text())
    recorded = expected.get(args.workload, {}).get(str(args.seed), {})
    for name, value in sorted(result["digests"].items()):
        want = recorded.get(name)
        if want is not None:
            attempted += 1
            if want != value:
                failed += 1
                failures.append(f"digest {name}: {value} != recorded {want}")
        print(f"# digest {name} = {value}"
              + ("" if want is None else
                 " (matches recorded)" if want == value else " (MISMATCH)"))

    metrics = result["per_layer" if args.trace else "end_to_end"]
    if list(metrics) != declared_metrics(bool(args.trace)):
        sys.exit("run.py: program metrics differ from BENCHMARK.json")
    print(f"# host: nproc={result['nproc']} jobs={result['jobs']} "
          f"cpu=\"{result['cpu']}\"")
    for name, m in metrics.items():
        print(f"# {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"# failed_share = {failed}/{attempted} = {failed / attempted:.3g}")
    for f in failures:
        print(f"# FAILED: {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
