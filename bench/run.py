"""The althecke benchmark.

    python3 bench/run.py --workload table --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts one fresh interpreter
that imports the program from ``src/`` and drives ``althecke.cli.main``
(see ``child.py``); workloads never run at the same time.  Set-up time is
the median over that interpreter and a few more started only to time the
import and the first ``resolve_sigma()``.  All times are taken at the
reference speed of the speed probe (see ``speed.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer ones.  The line before it records the
Python version, core count and program revision; both are also written to
``.bench_out/``.  Exits non-zero without a result when the checkout holds
no program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from harness import WORKLOADS  # noqa: E402

SETUP_PROBES = 10
RUN_LIMIT_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    # a cache directory would make `table` time a file read of a stale table
    env.pop("ALTHECKE_CACHE_DIR", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(root: Path, args, timeout: float) -> dict:
    cmd = [sys.executable, "-s", str(BENCH_DIR / "child.py"), "--root", str(root), *args]
    proc = subprocess.run(cmd, cwd=root, env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _revision(root: Path) -> dict:
    rev = None
    if (root / ".git").exists():
        got = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=30)
        rev = got.stdout.strip() or None
    sha = hashlib.sha256()
    for path in sorted((root / "src" / "althecke").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_rev": rev, "src_sha256": sha.hexdigest()[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="althecke benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "althecke" / "__init__.py").is_file():
        sys.stderr.write(f"error: no althecke sources under {root / 'src'}\n")
        return 1
    try:
        probes = [_child(root, ["--setup-probe"], 60) for _ in range(SETUP_PROBES)]
        run = _child(root, ["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                     RUN_LIMIT_S - (time.monotonic() - began))
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1

    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        attempted += run["traced_attempted"]
        failed += run["traced_failed"]
        metrics = run["layer_metrics"]
    else:
        metrics = dict(run["metrics"])
        metrics["setup_s"] = (statistics.median([p["setup_s"] for p in probes + [run]]), "s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "failed_frac": failed / attempted,
            "round_walls_s": run["round_walls"], "round_raw_walls_s": run["round_raw_walls"],
            "setup_s": [p["setup_s"] for p in probes + [run]],
            "setup_raw_s": [p["setup_raw_s"] for p in probes + [run]],
            "probes": run["probes"], "probe_median_s": run["probe_median_s"],
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(), **_revision(root)}
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
