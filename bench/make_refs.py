"""Build the reference pools in ``refs/`` from the program in ``src/``.

Run from the root of a checkout whose outputs are trusted::

    python3 bench/make_refs.py [table twisted classpoly]

For every pool query it records the argv, the digest of the exact stdout
bytes, its cost (the seconds it took here, alone, from cold caches), its
stratum and the number of values it emits.  The query pools of ``twisted``
and ``classpoly`` are sorted by cost and cut into strata of neighbouring
cost, so that every round takes the same mix of cheap and expensive
queries.  Before writing, the outputs are cross-checked by routes
independent of the ones that made them:

* ``table``: ``table -n 5`` against ``tests/golden/table_n5.json``, and the
  plus-minus difference of every split row against the closed twisted
  formula (or the twisted recursion where the column representative is not
  a composition permutation);
* ``twisted``: degree-9 values against the ``twisted_trace`` matrix
  oracle, shortest permutations first, within a time budget;
* ``classpoly``: at degree 6, the emitted class polynomials reassembled
  into ``char_T`` values of every shape and compared with ``char_T`` at the
  word itself.

A failed cross-check aborts without writing.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    REFS_DIR,
    WORKLOADS,
    clear_caches,
    digest,
    load_program,
    lru_caches,
    run_cli,
)

POOL_SEED = 20160509
TWISTED_DEGREES = range(9, 13)
TWISTED_POOL = 1000
TWISTED_STRATUM = 10
TWISTED_PER_ROUND = 2
TWISTED_CAP_S = 1.0
ORACLE_BUDGET_S = 150.0
CLASSPOLY_DEGREES = range(6, 9)
CLASSPOLY_PER_CELL = 16
CLASSPOLY_STRATUM = 4
CLASSPOLY_PER_ROUND = 2


class QueryTooSlow(BaseException):
    """Raised by the timer inside a query that exceeds the cost cap."""


def _on_alarm(signum, frame):
    raise QueryTooSlow


def _timed(main, caches, argv, cap_s=None):
    """(seconds, completed, stdout bytes) from cold caches, or None past
    the cap."""
    clear_caches(caches)
    if cap_s is not None:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        start = time.perf_counter()
        ok, out = run_cli(main, argv)
        elapsed = time.perf_counter() - start
    except QueryTooSlow:
        return None
    finally:
        if cap_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, ok, out


def _values(doc) -> int:
    """Exact values one output carries: table cells, one twisted value, or
    the plain plus alternating class polynomials."""
    if "rows" in doc:
        return sum(len(row["cells"]) for row in doc["rows"])
    if "f" in doc:
        return len(doc["f"]) + len(doc.get("g", ()))
    return 1


def _stratified(made, size):
    """Records of (cost, argv, completed, stdout) sorted by cost, ``size``
    to a stratum."""
    made.sort(key=lambda item: item[0])
    return [_record(argv, ok, out, cost, k // size)
            for k, (cost, argv, ok, out) in enumerate(made)]


def _record(argv, ok, out, cost, stratum):
    if not ok:
        raise SystemExit(f"reference query failed: {argv}")
    return {"argv": list(argv), "sha256": digest(out), "cost_s": round(cost, 6),
            "stratum": stratum, "values": _values(json.loads(out))}


def _csv(values):
    return ",".join(str(v) for v in values)


def table_pool(root, mods, caches):
    main = mods["cli"].main
    golden = (root / "tests" / "golden" / "table_n5.json").read_bytes()
    queries = []
    checked = 0
    for stratum, n in enumerate((5, 6, 7)):
        cost, ok, out = _timed(main, caches, ["table", "-n", str(n)])
        if n == 5 and out != golden:
            raise SystemExit("table -n 5 differs from tests/golden/table_n5.json")
        checked += _check_table(mods, json.loads(out))
        queries.append(_record(["table", "-n", str(n)], ok, out, cost, stratum))
    return {"per_round": 1, "queries": queries,
            "crosscheck": f"table -n 5 equals the golden file; {checked} split-row "
                          "differences equal the closed twisted formula or recursion"}


def _check_table(mods, doc) -> int:
    sc, sym, ch = mods["scalars"], mods["symgroup"], mods["chars"]
    checked = 0
    reps = [sym.Permutation(r) for r in doc["column_reps"]]
    rows = doc["rows"]
    for plus, minus in zip(rows, rows[1:]):
        if plus["kind"] != "plus" or minus["kind"] != "minus":
            continue
        lam = tuple(plus["shape"])
        for rep, a, b in zip(reps, plus["cells"], minus["cells"]):
            diff = sc.tower_from_obj(a) - sc.tower_from_obj(b)
            kappa = sym.composition_of(rep)
            if kappa is not None:
                expected = ch.twisted_char_closed(lam, kappa)
            else:
                expected = ch.twisted_char(lam, rep)[0]
            if diff != expected:
                raise SystemExit(f"table n={doc['n']} shape {lam} column {rep!r}: "
                                 "split rows disagree with the twisted formula")
            checked += 1
    return checked


def twisted_pool(root, mods, caches):
    main = mods["cli"].main
    comb, sym, specht, sc = mods["combinat"], mods["symgroup"], mods["specht"], mods["scalars"]
    rng = random.Random(POOL_SEED)
    shapes = [lam for n in TWISTED_DEGREES for lam in comb.self_conjugate_partitions(n)]
    accepted, degree9, rejected = [], [], 0
    signal.signal(signal.SIGALRM, _on_alarm)
    while len(accepted) < TWISTED_POOL:
        lam = rng.choice(shapes)
        n = sum(lam)
        length = rng.choice([k for k in range(n, 3 * n + 1) if k % 2 == 0])
        word = [rng.randint(1, n - 1) for _ in range(length)]
        argv = ["tau-char", "--shape", _csv(lam), "--word", _csv(word)]
        got = _timed(main, caches, argv, TWISTED_CAP_S)
        if got is None:
            rejected += 1
            continue
        cost, ok, out = got
        accepted.append((cost, argv, ok, out))
        if n == 9:
            degree9.append((sym.from_word(word, n), lam, out))
        if len(accepted) % 100 == 0:
            print(f"twisted: {len(accepted)} accepted, {rejected} over the cap", flush=True)
    # the oracle's cost grows steeply with the length of the permutation,
    # so the shortest degree-9 queries are checked first, within a budget
    degree9.sort(key=lambda item: item[0].length())
    checked, longest, start = 0, 0, time.perf_counter()
    for w, lam, out in degree9:
        if time.perf_counter() - start > ORACLE_BUDGET_S:
            break
        value = sc.tower_from_obj(json.loads(out)["value"])
        if value != specht.twisted_trace(lam, w):
            raise SystemExit(f"tau-char {lam} {w!r} disagrees with twisted_trace")
        checked, longest = checked + 1, w.length()
    return {"per_round": TWISTED_PER_ROUND, "queries": _stratified(accepted, TWISTED_STRATUM),
            "cap_s": TWISTED_CAP_S, "rejected_over_cap": rejected,
            "crosscheck": f"{checked} of {len(degree9)} degree-9 values, permutation "
                          f"length up to {longest}, equal the twisted_trace oracle"}


def classpoly_pool(root, mods, caches):
    main = mods["cli"].main
    comb, sym, specht, sc = mods["combinat"], mods["symgroup"], mods["specht"], mods["scalars"]
    rng = random.Random(POOL_SEED + 1)
    cells = [(n, length) for n in CLASSPOLY_DEGREES for length in range(n, 2 * n + 3)]
    made = []
    checked = 0
    for n, length in cells:
        for _ in range(CLASSPOLY_PER_CELL):
            word = [rng.randint(1, n - 1) for _ in range(length)]
            argv = ["classpoly", "-n", str(n), "--word", _csv(word)]
            cost, ok, out = _timed(main, caches, argv)
            if n == 6:
                w = sym.from_word(word, n)
                doc = json.loads(out)
                for lam in comb.partitions_of(n):
                    total = sc.TowerElem.zero()
                    for entry in doc["f"]:
                        kappa = sym.w_of_composition(entry["class"])
                        total = total + specht.char_T(lam, kappa).scale(
                            sc.ratfunc_from_obj(entry["poly"]))
                    if total != specht.char_T(lam, w):
                        raise SystemExit(f"classpoly {word} fails to rebuild char_T of {lam}")
                    checked += 1
            made.append((cost, argv, ok, out))
    return {"per_round": CLASSPOLY_PER_ROUND, "queries": _stratified(made, CLASSPOLY_STRATUM),
            "crosscheck": f"{checked} degree-6 (word, shape) pairs: class polynomials "
                          "rebuild char_T"}


BUILDERS = {"table": table_pool, "twisted": twisted_pool, "classpoly": classpoly_pool}


def main(argv) -> int:
    root = Path.cwd()
    mods = load_program(root)
    caches = lru_caches(mods)
    mods["chars"].resolve_sigma()
    REFS_DIR.mkdir(exist_ok=True)
    for workload in argv or WORKLOADS:
        start = time.perf_counter()
        pool = BUILDERS[workload](root, mods, caches)
        pool = {"workload": workload, "python": sys.version.split()[0], **pool}
        with open(REFS_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(pool, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(pool['queries'])} queries in "
              f"{time.perf_counter() - start:.1f} s; {pool['crosscheck']}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
