"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py --runs 10 [--out FILE]

Runs ``run.py`` on every workload once per seed, seeds 1 to ``--runs``,
seed-major so that slow drift in machine speed reaches every workload
alike, with the ``run_seconds`` and command of ``BENCHMARK.json``. For each
end-to-end metric it prints the median, the quartiles and the spread: the
distance between the quartiles as a share of the median, the figure the
benchmark's bounds must exceed. With ``--out`` it also makes one traced
run of every workload, with the layer sweep, and writes the machine, the
workloads, every run and the summary to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    """One ``run.py`` call; its result JSON plus ``report`` (the lines before it)."""
    command = [sys.executable if spec["command"][0] == "python3" else spec["command"][0],
               *spec["command"][1:], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    result["wall_s"] = elapsed
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = list(inputs.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(1, 1 + args.runs):
        for workload in workloads:
            result = run(spec, workload, seed, 0)
            verdicts = [json.loads(line.split(" ", 2)[2]) for line in result["report"]
                        if line.startswith("core verdicts ")]
            runs[workload].append({"seed": seed, "wall_s": result["wall_s"],
                                   "attempted": result["attempted"], "failed": result["failed"],
                                   **({"core_verdicts": verdicts[0]} if verdicts else {}),
                                   "inputs": [line for line in result["report"]
                                              if line.startswith("inputs for ")],
                                   **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload:<13} seed {seed:<3} {result['wall_s']:6.1f} s wall  " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    worst = 0.0
    for workload in workloads:
        summary[workload] = {}
        for name, bound in bounds.items():
            stats = summarise([r[name] for r in runs[workload]])
            summary[workload][name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- above bound/3"
            worst = max(worst, stats["spread"] / bound)
            print(f"{workload:<13} {name:<16} median {stats['median']:10.4g}  "
                  f"q1 {stats['q1']:10.4g}  q3 {stats['q3']:10.4g}  "
                  f"spread {stats['spread']:.4f} (bound {bound}){flag}")
    print(f"largest spread/bound: {worst:.3f}")
    if args.out:
        result = run(spec, "all", 1, 1)
        traced = {
            workload: {
                "seed": 1,
                "predictions": [line.strip() for line in traced_run["report"]
                                if line.strip().startswith("prediction")],
                "metrics": {k: v["value"] for k, v in traced_run["metrics"].items()},
            }
            for workload, traced_run in result["workloads"].items()
        }
        args.out.write_text(json.dumps({
            "machine": machine(),
            "run_seconds": spec["run_seconds"],
            "workloads": {w["name"]: {"query_mix": inputs.WORKLOADS[w["name"]][2], "why": w["why"]}
                          for w in spec["workloads"] if w["name"] in workloads},
            "end_to_end": summary,
            "runs": runs,
            "traced": traced,
            "layer_sweep_s": result["sweep"],
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
