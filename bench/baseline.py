"""Run every workload once per seed (untraced) plus one traced run, and write
the medians, quartiles and spreads of every metric to a JSON file.

From the repository root:

    python3 bench/baseline.py --output bench/baseline.json

Seeds 1-10 (their first jobs have recorded digests) and every workload.

The spread of a metric is the distance between the first and third quartile
of its per-seed values (``statistics.quantiles(values, n=4)``) over their
median; the benchmark's bounds in BENCHMARK.json are judged against it.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run

SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300, check=True, cwd=run.ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", required=True)
    args = parser.parse_args()
    first = SEEDS[0]
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"run_seconds": seconds, "seeds": [first, SEEDS[-1]], "workloads": {}}
    for workload in run.WORKLOADS:
        per_metric: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in SEEDS:
            result = run_once(workload, seed, seconds, 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
        traced = run_once(workload, first, seconds, 1)
        details = json.loads((run.RESULTS_DIR / f"{workload}-seed{first}-trace1.json").read_text())
        report["environment"] = details["environment"]
        entry = {"jobs_attempted": attempted, "jobs_failed": failed + traced["failed"],
                 "end_to_end": {k: summarize(v) for k, v in per_metric.items()},
                 "per_layer_seed_%d" % first: {k: m["value"] for k, m in traced["metrics"].items()},
                 "traced_receiver_us_per_trial": details["receiver_us_per_trial"],
                 "traced_per_call_us": details["per_call_us"],
                 "traced_first_job": details["first_job"]}
        report["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            flag = "" if stats["spread"] < bounds[name] / 3 else "  WIDE"
            print(f"{workload:12} {name:14} median {stats['median']:12.6g} "
                  f"spread {stats['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
    with open(args.output, "w") as fh:
        fh.write(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
