"""Quick self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Run from the root of a checkout.  Checks that every workload runs clean on
a few cheap pool queries, that a corrupted reference is counted as a
failure, that a traced round emits every per-layer metric named in
``BENCHMARK.json`` with the untraced bytes, and that ``run.py`` fails
without a result where the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402
from harness import WORKLOADS, load_pool  # noqa: E402


def _tiny(workload: str) -> dict:
    """The cheapest stratum's queries, one round of them."""
    pool = load_pool(workload)
    first = min(q["stratum"] for q in pool["queries"])
    queries = [q for q in pool["queries"] if q["stratum"] == first][:4]
    for k, q in enumerate(queries):
        q["stratum"] = k
    return {"per_round": 1, "queries": queries}


def _args(workload: str, trace: int) -> argparse.Namespace:
    return argparse.Namespace(root=".", workload=workload, seed=1, seconds=0.0, trace=trace)


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]} - {"setup_s"}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []

    for workload in WORKLOADS:
        pool = _tiny(workload)
        got = child.run(_args(workload, 0), pool)
        if got["failed"] or got["attempted"] != len(pool["queries"]):
            problems.append(f"{workload}: {got['failed']} of {got['attempted']} failed")
        if set(got["metrics"]) != end_to_end:
            problems.append(f"{workload}: metrics {sorted(got['metrics'])}")

    corrupt = _tiny("twisted")
    corrupt["queries"][0]["sha256"] = "0" * 32
    got = child.run(_args("twisted", 0), corrupt)
    if got["failed"] != 1:
        problems.append(f"corrupted reference counted {got['failed']} times, not once")

    # tracing patches the program for the rest of this process, so it runs last
    got = child.run(_args("classpoly", 1), _tiny("classpoly"))
    emitted = set(got["layer_metrics"])
    if emitted != per_layer:
        problems.append(f"traced run lacks {sorted(per_layer - emitted)}, "
                        f"adds {sorted(emitted - per_layer)}")
    if got["traced_failed"]:
        problems.append(f"traced round differs in {got['traced_failed']} outputs")

    bare = Path(".bench_out") / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "table",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
