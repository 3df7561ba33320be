"""One benchmark run inside a fresh, single-threaded interpreter.

    python3 bench/child.py --root . --workload table --seed 1 --seconds 20 --trace 0
    python3 bench/child.py --root . --setup-probe

The run is a closed loop with one client: each CLI query starts only after
the previous one returned.  Queries come in rounds (see ``workloads.py``);
every round starts from cold ``lru_cache``s and its queries share the
caches they fill.  Rounds run while the run ends nearer to ``--seconds``
with one more round than without it.  Every
time is taken at the reference speed of ``speed.py``: the speed probe
runs throughout the rounds.  Time and rate metrics are medians over the
rounds of the run, so a round slowed by the machine moves them little;
latency percentiles are taken over all queries of the run, which steadies
them more than a median of per-round percentiles does.  Every output is
compared byte for byte, by digest, with the reference.

With ``--trace 1`` the first round is then run again with spans installed
(see ``tracing.py``) and must give the same bytes.  The probe is off in
that round, so span times are raw seconds.

The last line of stdout is one JSON document for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import clear_caches, digest, load_pool, load_program, lru_caches, run_cli  # noqa: E402
from workloads import rounds  # noqa: E402


def _setup(root: Path):
    """Import the program and resolve the sign convention, timed: (seconds
    at the reference speed, raw seconds, modules)."""
    start = time.perf_counter()
    modules = load_program(root)
    modules["chars"].resolve_sigma()
    raw = time.perf_counter() - start
    # imported after the timing: the program imports ``fractions`` too, and
    # loading it earlier would hide that from set-up
    from speed import speed_factor

    return raw * speed_factor(), raw, modules


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _run_round(main, queries, picked, caches, probe=None):
    """Run one round from cold caches: (timings, digests, stdout bytes).

    A timing is (start, end, seconds busy in the program), the last
    without the probe's kernel runs.
    """
    clear_caches(caches)
    # every round starts from the same heap, so peak memory depends little on
    # what the rounds before it left for the collector
    gc.collect()
    timings, digests, out_bytes = [], [], 0
    clock = time.perf_counter
    for idx in picked:
        mark = probe.mark() if probe else 0
        start = clock()
        ok, out = run_cli(main, queries[idx]["argv"])
        end = clock()
        timings.append((start, end, end - start - (probe.inside(mark, end) if probe else 0.0)))
        digests.append(digest(out) if ok else None)
        out_bytes += len(out)
    return timings, digests, out_bytes


def run(args, pool=None) -> dict:
    """One run; ``pool`` replaces the workload's reference pool."""
    from speed import Probe

    root = Path(args.root)
    setup_s, setup_raw_s, modules = _setup(root)
    cli = modules["cli"]
    pool = pool or load_pool(args.workload)
    queries = pool["queries"]
    caches = lru_caches(modules)
    schedule = rounds(pool, args.seed)

    done, first = [], None
    attempted = failed = 0
    with Probe() as probe:
        began = time.perf_counter()
        while True:
            picked = next(schedule)
            timings, digests, _ = _run_round(cli.main, queries, picked, caches, probe)
            if first is None:
                first = (picked, digests)
            done.append((picked, timings))
            attempted += len(picked)
            failed += sum(d != queries[i]["sha256"] for i, d in zip(picked, digests))
            elapsed = time.perf_counter() - began
            # one more round only if the run then ends nearer to --seconds
            if elapsed + elapsed / len(done) / 2 >= args.seconds:
                break

    walls, raw_walls, latencies, qrates, vrates = [], [], [], [], []
    for picked, timings in done:
        lat = [busy * probe.factor(start, end) for start, end, busy in timings]
        wall = sum(lat)
        walls.append(wall)
        raw_walls.append(sum(busy for _, _, busy in timings))
        latencies.extend(lat)
        qrates.append(len(picked) / wall)
        vrates.append(sum(queries[i]["values"] for i in picked) / wall)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    med = statistics.median
    latencies.sort()
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "attempted": attempted,
        "failed": failed,
        "round_walls": walls,
        "round_raw_walls": raw_walls,
        "probes": len(probe.times),
        "probe_median_s": statistics.median(probe.times),
        "metrics": {
            "wall_s": (med(walls), "s"),
            "values_per_s": (med(vrates), "1/s"),
            "queries_per_s": (med(qrates), "1/s"),
            "query_p50_ms": (1e3 * _percentile(latencies, 0.5), "ms"),
            "query_p90_ms": (1e3 * _percentile(latencies, 0.9), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
    }
    if args.trace:
        result.update(_traced_round(args, modules, caches, queries, first, med(walls)))
    return result


def _traced_round(args, modules, caches, queries, first, untraced_wall) -> dict:
    """Run the first round again with spans; compare its bytes with the
    untraced round and the references.  The overhead is measured against
    the untraced ``wall_s``, both at the reference speed."""
    from speed import speed_factor
    from tracing import Tracer

    picked, untraced = first
    tracer = Tracer(modules)
    before = speed_factor()
    timings, digests, out_bytes = _run_round(modules["cli"].main, queries, picked, caches)
    traced_wall = sum(busy for _, _, busy in timings) * (before + speed_factor()) / 2
    layer = tracer.metrics()
    layer["trace.round_s"] = (traced_wall, "s")
    layer["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    layer["cli.stdout_bytes"] = (out_bytes, "count")
    out_dir = Path(args.root) / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.json")
    bad = sum(d != u or d != queries[i]["sha256"]
              for i, d, u in zip(picked, digests, untraced))
    return {"layer_metrics": layer, "traced_attempted": len(picked), "traced_failed": bad}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".")
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_s, setup_raw_s, _ = _setup(Path(args.root))
        doc = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    else:
        doc = run(args)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
