#!/usr/bin/env python3
"""Self-test of the benchmark: does it see a known delay where it should?

`--inject-fingerprint-delay` follows every `StructureFingerprint::of` pass
the program makes with three more passes over the same graph, inside the
timed operation: the fingerprint layer takes about four times as long and
nothing else changes. The layer map predicts:

* the traced run attributes the delay to `sparse.fingerprint_ms`, which
  grows about fourfold on both workloads;
* `op_p50_ms` moves by more than its bound on serve-mix, where
  fingerprinting is a large share of a request;
* `op_p50_ms` stays within its bound on spmm-hot, where one pass is about
  4% of one `Plan::execute` on average. The share is larger on PT, the
  fastest graph, which weighs as much as the others in the geometric mean
  of per-graph medians, so the move there is well above 4%.

Run from the repository root:

    python3 perfbench/selftest.py [--seconds 10] [--seed 7]

Exits 0 when every prediction holds, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

COMMAND = [
    "cargo", "run", "--release", "--offline", "--quiet",
    "--manifest-path", "perfbench/Cargo.toml", "--",
]


def bench(workload, seed, seconds, trace, delay):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if delay:
        args.append("--inject-fingerprint-delay")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    out = subprocess.run(COMMAND + args, env=env, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--seed", type=int, default=7)
    a = p.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["op_p50_ms"]

    ok = True
    for workload, should_move in (("serve-mix", True), ("spmm-hot", False)):
        base = bench(workload, a.seed, a.seconds, 0, False)
        slow = bench(workload, a.seed, a.seconds, 0, True)
        tbase = bench(workload, a.seed, a.seconds, 1, False)
        tslow = bench(workload, a.seed, a.seconds, 1, True)
        move = slow["op_p50_ms"] / base["op_p50_ms"] - 1
        fp = tslow["sparse.fingerprint_ms"] / tbase["sparse.fingerprint_ms"]
        moved = move > bound
        print(f"{workload}: op_p50_ms {base['op_p50_ms']:.3f} -> {slow['op_p50_ms']:.3f} ms "
              f"({move:+.1%}, bound {bound:.0%}); sparse.fingerprint_ms "
              f"{tbase['sparse.fingerprint_ms']:.3f} -> {tslow['sparse.fingerprint_ms']:.3f} ms "
              f"(x{fp:.2f})")
        if moved != should_move:
            print(f"  FAIL: op_p50_ms {'did not move' if should_move else 'moved'} beyond the bound")
            ok = False
        if not 2.5 <= fp <= 5.0:
            print("  FAIL: the traced run did not attribute the delay to sparse.fingerprint_ms")
            ok = False
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
