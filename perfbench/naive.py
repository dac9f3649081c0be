"""One unit of the ieee24-naive workload, in a fresh process.

    python3 perfbench/naive.py --seed S --detections N --out OUT.json [--spans SPANS.json]

Generates the shipped 24-bus block (configs/ieee24.yaml, its own seed),
then for the first N (bus, window) pairs of a seed-ordered list of the
plan's voltage-measured buses, each on both shipped windows, builds a
naive ramp attack with a seed-drawn ramp and times ``pmufdi.detect`` on
it. Units of one seed do the same detections. Writes one record per
detection to OUT.json.
"""

import argparse
import json
import time

from tracer import Tracer


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--detections", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    start = time.perf_counter()
    import numpy as np
    import pmufdi
    from pmufdi.experiment import load_config
    import_s = time.perf_counter() - start
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()

    cfg = load_config("configs/ieee24.yaml")
    case, plan = cfg.load_grid()
    _, block, dep = pmufdi.generate_block(
        case, plan, cfg.duration_s, cfg.rate_hz, cfg.seed, policy=cfg.disturbance
    )
    windows = [block.window(first, last) for first, last in cfg.windows]
    buses = np.random.default_rng(args.seed).permutation(plan.voltage_buses)
    pairs = [(int(bus), window) for bus in buses for window in range(len(windows))]
    rng = np.random.default_rng(args.seed)

    records = []
    for bus, window in pairs[:args.detections]:
        _, attacked = pmufdi.naive_ramp_attack(
            windows[window], dep, (bus,), scale=cfg.naive_scale,
            seed=int(rng.integers(0, 2**31)),
        )
        record = {"bus": bus, "window": window, "flagged": [], "error": ""}
        t0 = time.perf_counter()
        try:
            result = pmufdi.detect(attacked, dep, weight=cfg.weight,
                                   options=cfg.solver, thresholds=cfg.thresholds)
            record["flagged"] = list(result.state_support)
            record["iterations"] = result.diagnostics.iterations
        except Exception as exc:  # a raising detect call is a failed item
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["latency_s"] = time.perf_counter() - t0
        records.append(record)

    with open(args.out, "w") as fh:
        json.dump(records, fh)
    if tracer is not None:
        tracer.dump(args.spans, import_s=import_s)


if __name__ == "__main__":
    main()
