"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that an untraced run emits every end-to-end
metric and a traced run every per-layer metric that BENCHMARK.json names,
each with its unit, and that two traced runs at one seed give exactly the
same call counts.  Workloads listed in BENCHMARK.json must also run without
a failed operation and pass their output checks.  Exits 1 on any mismatch.
"""

import json
import sys

import run  # first, so the BLAS thread count is fixed before numpy loads

SEED = 5
# Root kinds whose spans must show calls, for the workloads BENCHMARK.json lists.
FIRES = {"dots-lds": ("step", "eval"), "dots-lds-em": ("iter", "eval")}


def main():
    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    listed = [w["name"] for w in spec["workloads"]]
    if e2e != dict(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if layers != dict(run.per_layer_names()):
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_names()")
    problems += [f"unknown workload {w}" for w in listed if w not in run.WORKLOADS]

    for workload in run.WORKLOADS:
        plain, details = run.run_once(workload, SEED, 0.0, False, run.TINY)
        traced = [run.run_once(workload, SEED, 0.0, True, run.TINY)[0] for _ in range(2)]
        for result, expected in ((plain, e2e), *((t, layers) for t in traced)):
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected:
                problems.append(f"{workload}: emitted metrics differ from BENCHMARK.json")
            if result["attempted"] < 1:
                problems.append(f"{workload}: no operation attempted")
        counts = [
            {k: v["value"] for k, v in t["metrics"].items() if ".calls_per_" in k}
            for t in traced
        ]
        if counts[0] != counts[1]:
            problems.append(f"{workload}: call counts differ between two traced runs")
        if workload in listed:
            for result in (plain, *traced):
                if not result["correct"] or result["failed"]:
                    problems.append(
                        f"{workload}: correct={result['correct']} failed={result['failed']} "
                        f"{details['errors']} {details['check_failures']}"
                    )
            for kind in FIRES.get(workload, ()):
                if not any(v for k, v in counts[0].items() if k.endswith(f"_per_{kind}")):
                    problems.append(f"{workload}: no traced calls per {kind}")
            missing = [k for k, v in plain["metrics"].items() if v["value"] is None]
            if missing:
                problems.append(f"{workload}: no value for {missing}")
        print(f"{workload}: attempted {plain['attempted']} failed {plain['failed']}", flush=True)

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
