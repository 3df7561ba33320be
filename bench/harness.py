"""Shared pieces of the benchmark: loading the program, driving its CLI,
digesting outputs and resetting its caches.

The program is always imported from ``src/`` of the checkout the benchmark
runs in, never from an installed copy, so a checkout without the sources
fails instead of measuring something else.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import pkgutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"
WORKLOADS = ("table", "twisted", "classpoly")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable program."""


def load_program(root: Path):
    """Import every module of ``althecke`` from ``root/src``; return them by
    short name, the package itself as ``althecke``."""
    src = (root / "src").resolve()
    if not (src / "althecke" / "__init__.py").is_file():
        raise ProgramMissing(f"no althecke package under {src}")
    sys.path.insert(0, str(src))
    import althecke

    if Path(althecke.__file__).resolve().parent != src / "althecke":
        raise ProgramMissing(f"althecke imported from {althecke.__file__}, not {src}")
    modules = {"althecke": althecke}
    for info in pkgutil.iter_modules(althecke.__path__):
        modules[info.name] = importlib.import_module(f"althecke.{info.name}")
    return modules


def run_cli(main, argv) -> tuple[bool, bytes]:
    """One CLI call with stdout captured: (completed normally, stdout bytes).

    A query that raises or exits non-zero is not completed; its output is
    whatever it wrote before stopping.
    """
    buf = io.StringIO()
    ok = True
    with contextlib.redirect_stdout(buf):
        try:
            ok = main(list(argv)) == 0
        except SystemExit as err:
            ok = err.code in (0, None)
        except Exception:  # a failed query is counted, the run goes on
            ok = False
    return ok, buf.getvalue().encode("utf-8")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def lru_caches(modules) -> list:
    """Every ``lru_cache``-wrapped function defined in the program, except
    ``resolve_sigma``: resolving the sign is set-up work a user pays once per
    process, and the set-up metric measures it."""
    found = {}
    for name, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__
                    and attr != "resolve_sigma"):
                found[id(obj)] = obj
    return list(found.values())


def clear_caches(caches) -> None:
    for fn in caches:
        fn.cache_clear()


def load_pool(workload: str) -> dict:
    with open(REFS_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)
