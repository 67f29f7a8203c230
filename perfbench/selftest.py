"""Self-test of the traced run.

    python3 perfbench/selftest.py [--seed N]

Runs one traced pool of each workload (a minute or two) and fails, listing
the offenders, when a layer in ``layers.py`` records no calls on a workload
the table assigns it to, when a binding site named in
``layers.REQUIRED_SITES`` was not wrapped, when an answer is wrong, or when
the per-layer list in BENCHMARK.json differs from the table.
"""

import argparse
import json
import sys

from calibrate import Clock
from layers import DERIVED, LAYERS, REQUIRED_SITES, metric_units
from run import ROOT, Program, Tally, run_pools
from spans import Tracer
from workloads import WORKLOADS


def check_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    if listed != metric_units():
        return ["BENCHMARK.json per_layer differs from layers.py"]
    if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
        return ["BENCHMARK.json workloads differ from workloads.py"]
    return []


def main(argv=None):
    parser = argparse.ArgumentParser(description="self-test of the traced run")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    prog = Program()
    errors = check_benchmark_json()
    for workload in WORKLOADS:
        tally = Tally()
        tracer = Tracer()
        sites = tracer.install()
        try:
            run_pools(prog, workload, args.seed, tally, Clock(), count=1, tracer=tracer,
                      roots={})
        finally:
            tracer.uninstall()
        for name, need in REQUIRED_SITES.items():
            if not need <= sites[name]:
                errors.append(f"{name}: not wrapped in {sorted(need - sites[name])}")
        values = tracer.layer_metrics(1)
        calls = []
        for layer in LAYERS:
            n = values[f"{layer.name}.calls"]
            calls.append(f"{layer.name}={n:g}")
            if workload in layer.on and n == 0:
                errors.append(f"{layer.name}: no calls on {workload}")
        for name, (_, _, on) in DERIVED.items():
            if workload in on and name in values and values[name] == 0:
                errors.append(f"{name}: zero on {workload}")
        errors += [f"{workload}: wrong answer for {s}: {r}" for s, r in tally.failures]
        print(f"{workload}: {tally.attempted} queries, {len(tally.failures)} failed; "
              + ", ".join(calls))
    for e in errors:
        print("SELFTEST FAILED:", e, file=sys.stderr)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
