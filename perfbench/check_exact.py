#!/usr/bin/env python3
"""Checks that the benchmark's work counts and digests are exact.

Runs every workload traced three times, at --jobs 1 and twice at all cores,
and fails unless every count metric and every digest is identical across
the three runs:

    python3 perfbench/check_exact.py [--seed 1] [--seconds 4]

Counts come from each workload's fixed count pass, so they must repeat
bit for bit at any job count; a difference is a determinism bug.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("home_serve", "fleet_zipf", "nightly_retrain")
# Per-layer metrics computed from exact counts (the rest are timings).
EXACT = (
    "sensors.samples_per_session", "sensors.samples_per_virtual_s",
    "pavenet.announcements_per_session", "pavenet.detect_per_ksample",
    "pavenet.frames_sent_per_session", "pavenet.delivery_ratio",
    "pavenet.station_packets_per_session", "core.virtual_s_per_session",
    "core.completion_rate", "patient.steps_per_session",
    "planning.lane_occupancy", "planning.skipped_steps_per_user",
    "reminding.prompts_per_session", "reminding.minimal_share",
    "reminding.praises_per_session", "serve.shard_skew",
    "serve.pool_hit_rate", "serve.cold_load_share",
    "serve.reference_start_share", "serve.resident_bytes_per_user",
    "store.bytes_per_append", "store.anchor_share", "store.compactions",
    "store.dead_ratio", "store.segments", "store.appends_per_session",
    "exec.sessions_per_drain",
)


def run(workload, seed, seconds, jobs):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
         "--jobs", str(jobs)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    digests = dict(re.findall(r"^# digest (\S+) = (\S+)", out, re.M))
    values = {k: result["metrics"][k]["value"] for k in EXACT}
    return result["correct"], values, digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=4)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        runs = [run(workload, args.seed, args.seconds, jobs)
                for jobs in (1, 0, 0)]
        same = all(r[1:] == runs[0][1:] for r in runs[1:])
        correct = all(r[0] for r in runs)
        ok = ok and same and correct
        nonzero = {k: v for k, v in runs[0][1].items() if v != 0}
        print(f"{workload}: {'identical' if same else 'DIFFERENT'} at jobs "
              f"1/all/all, correct={correct}, digests {runs[0][2]}")
        for name, value in nonzero.items():
            flag = "" if all(r[1][name] == value for r in runs) else "  <-- differs"
            print(f"  {name:38s} {value!r}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
