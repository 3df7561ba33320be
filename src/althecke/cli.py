"""Command-line front end.

Subcommands, one entry each of the table ``COMMANDS``::

    table      full alternating character table for a degree
    char       character values of one shape at one word
    tau-char   twisted character value with recursion provenance
    classpoly  class polynomials (plain and alternating) of a word; the
               alternating ones give the restricted characters, so only
               psi+ + psi- of a split pair (``char`` gives psi+ and psi-)
    basis      dump an averaged or parity-triangular basis
    verify     run the identity/verification suites

Output is canonical JSON (byte-identical across runs), or CSV for
``table``; both come from the same packed table cells, JSON row by row,
and ``table`` keeps no on-disk state.  Every value document carries the
sign convention; only ``char`` and ``tau-char`` read ``--convention``.
Words and shapes are comma-separated and 1-based on the command line.
A call builds and runs only the parser of the command it names; the full
parser, built from the same table, serves help and usage errors.  A reader
that closes stdout early ends a command with status 1 and no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from .scalars import (
    R_HALF,
    canonical_json,
    pretty_tower,
    ratfunc_to_obj,
    tower_to_obj,
)
from .combinat import (
    conjugate,
    diagonal_hooks,
    is_self_conjugate,
    parse_partition,
    parse_word,
)
from .symgroup import (
    Drop2Step,
    all_permutations,
    from_word,
    reduce_to_composition,
)
from .hecke import a_elem, b_elem, hecke_to_obj
from .chars import (
    alt_class_polys,
    char_table,
    char_via_class_polys,
    class_polys,
    resolve_sigma,
    split_char_values,
    table_csv,
    table_json,
    twisted_char,
)
from .verify import SUITES


#: Resource guard for the matrix oracle of ``verify``, and for every command but ``basis``.
DEFAULT_N_MAX = 12
# basis writes all n! elements: on 2 cores with CPython 3.11, -n 6 takes 28-43 s and -n 7
# runs past 150 s
_BASIS_N_MAX = 6


def _guard_n(n: int, force: bool, n_max: int = DEFAULT_N_MAX):
    if n > n_max and not force:
        raise ValueError(f"degree {n} exceeds the resource guard {n_max}; "
                         f"pass --force to override")


def _emit(doc) -> None:
    sys.stdout.write(canonical_json(doc) + "\n")


def _value_obj(value, convention: str) -> dict:
    return {
        "convention": convention,
        "sigma": resolve_sigma(),
        "value": tower_to_obj(value),
        "pretty": pretty_tower(value),
    }


def cmd_table(args) -> int:
    _guard_n(args.n, args.force)
    if args.format == "csv":
        sys.stdout.write(table_csv(char_table(args.n)))
    else:
        sys.stdout.writelines(table_json(args.n))
    return 0


def cmd_char(args) -> int:
    lam = parse_partition(args.shape)
    n = sum(lam)
    _guard_n(n, args.force)
    word = parse_word(args.word)
    w = from_word(word, n)
    # in degree <= 1 the involution is trivial and nothing splits
    split = (split_char_values(lam, w, convention=args.convention)
             if n >= 2 and w.is_even() and is_self_conjugate(lam) else None)
    # the split values sum to the plain one: each distinct shape once
    value = split[0] + split[1] if split else char_via_class_polys(lam, w)
    doc = {
        "command": "char",
        "n": n,
        "shape": list(lam),
        "word": list(word),
        "convention": args.convention,
        "sigma": resolve_sigma(),
        "hecke_char": tower_to_obj(value),
        "hecke_char_pretty": pretty_tower(value),
    }
    if w.is_even():
        half_sum = value if split else (
            value + char_via_class_polys(conjugate(lam), w)).scale(R_HALF)
        doc["alt_char"] = tower_to_obj(half_sum)
        doc["alt_char_pretty"] = pretty_tower(half_sum)
        if split:
            doc["split"] = {
                name: _value_obj(v, args.convention)
                for sign, name, v in zip("+-", ("plus", "minus"), split)
                if args.sign in ("both", sign)}
    _emit(doc)
    return 0


def cmd_tau_char(args) -> int:
    lam = parse_partition(args.shape)
    n = sum(lam)
    _guard_n(n, args.force)
    if not is_self_conjugate(lam):
        raise ValueError(f"shape {lam} is not self-conjugate")
    word = parse_word(args.word)
    w = from_word(word, n)
    reduction = reduce_to_composition(w)
    value, a_poly = twisted_char(lam, w, reduction, args.convention)
    steps = [
        {
            "kind": "DROP2" if isinstance(st, Drop2Step) else "FLAT",
            "s": st.s,
            "from": list(st.source.one_line),
            "to": list(st.target.one_line),
        }
        for st in reduction[1]
    ]
    doc = {
        "command": "tau-char",
        "n": n,
        "shape": list(lam),
        "word": list(word),
        "cycle_type": list(w.cycle_type()),
        "hooks": list(diagonal_hooks(lam)[0]),
        "convention": args.convention,
        "sigma": resolve_sigma(),
        "value": tower_to_obj(value),
        "pretty": pretty_tower(value),
        "recursion_steps": steps,
        "a_poly": ratfunc_to_obj(a_poly),
        "a_poly_pretty": str(a_poly),
    }
    _emit(doc)
    return 0


def cmd_classpoly(args) -> int:
    n = args.n
    _guard_n(n, args.force)
    word = parse_word(args.word)
    w = from_word(word, n)
    f_table = class_polys(w)
    doc = {
        "command": "classpoly",
        "n": n,
        "convention": "oracle",
        "word": list(word),
        "length": w.length(),
        "cycle_type": list(w.cycle_type()),
        "f": [
            {"class": list(ct), "poly": ratfunc_to_obj(c), "pretty": str(c)}
            for ct, c in f_table.entries
        ],
    }
    if w.is_even():
        g_table = alt_class_polys(w)
        doc["g"] = [
            {"class": list(key[0]), "sign": key[1],
             "poly": ratfunc_to_obj(c), "pretty": str(c)}
            for key, c in g_table.entries
        ]
    _emit(doc)
    return 0


def cmd_basis(args) -> int:
    n = args.n
    _guard_n(n, args.force, _BASIS_N_MAX)
    build = {"A": a_elem, "B": b_elem}[args.which]
    rows = []
    for w in all_permutations(n):
        elem = build(w)
        rows.append({"perm": list(w.one_line), "length": w.length(),
                     "element": hecke_to_obj(elem)})
    _emit({"command": "basis", "n": n, "which": args.which,
           "convention": "oracle", "rows": rows})
    return 0


def cmd_verify(args) -> int:
    if args.n < 2:
        raise ValueError(f"verify needs a degree n >= 2, got {args.n}")
    if args.cases < 1:
        raise ValueError(f"verify needs at least one case, got --cases {args.cases}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    _guard_n(args.n, args.force)
    results = []
    for name in names:
        total = bad = 0
        for _, ok in SUITES[name](args.n, args.cases, args.seed):
            total += 1
            bad += not ok
        if name == "dominance":  # report only
            sys.stderr.write(f"dominance: {total} observations, "
                             f"{bad} nonzero outside the cone\n")
            bad = 0
        results.append({"suite": name, "checks": total, "failures": bad})
    failed = any(r["failures"] for r in results)
    doc = {"command": "verify", "n": args.n, "seed": args.seed,
           "convention": "oracle", "results": results,
           "passed": not failed}
    _emit(doc)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _common(p, need_n=False, convention=False, n_max=DEFAULT_N_MAX):
    if convention:
        p.add_argument("--convention", choices=("oracle", "paper"), default="oracle")
    p.add_argument("--force", action="store_true",
                   help=f"override the n <= {n_max} resource guard")
    if need_n:
        p.add_argument("-n", type=_nonnegative, required=True)


def _table_args(p):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _common(p, need_n=True)


def _char_args(p):
    _common(p, convention=True)
    p.add_argument("--shape", required=True, help="partition, e.g. 3,3,3")
    p.add_argument("--word", default="", help="generator word, e.g. 1,2,3")
    p.add_argument("--sign", choices=("+", "-", "both"), default="both")


def _tau_char_args(p):
    _common(p, convention=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--word", default="")


def _classpoly_args(p):
    _common(p, need_n=True)
    p.add_argument("--word", default="")


def _basis_args(p):
    _common(p, need_n=True, n_max=_BASIS_N_MAX)
    p.add_argument("--which", type=str.upper, choices=("A", "B"), default="B")


def _verify_args(p):
    _common(p)
    p.add_argument("--suite", choices=("all", *SUITES), default="all")
    p.add_argument("-n", type=int, default=4)
    p.add_argument("--cases", type=_nonnegative, default=200)
    p.add_argument("--seed", type=int, default=7)


#: name -> (help, the function adding its arguments, handler), in help order
COMMANDS = {
    "table": ("full character table", _table_args, cmd_table),
    "char": ("character values of one shape", _char_args, cmd_char),
    "tau-char": ("twisted character value", _tau_char_args, cmd_tau_char),
    "classpoly": ("class polynomials of a word", _classpoly_args, cmd_classpoly),
    "basis": ("dump the A or B basis", _basis_args, cmd_basis),
    "verify": ("run verification suites", _verify_args, cmd_verify),
}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The full argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="althecke",
        description="Exact irreducible characters of alternating Hecke algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


@lru_cache(maxsize=None)
def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, equal to its subparser in ``build_parser``."""
    parser = argparse.ArgumentParser(prog=f"althecke {name}")
    COMMANDS[name][1](parser)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        args, rest = command_parser(argv[0]).parse_known_args(argv[1:])
        if rest:  # the full parser refuses them with its own usage
            build_parser().parse_args(argv)
        args.command = argv[0]
    else:  # help, and argv that does not start with a command
        args = build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command][2](args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except (ValueError, KeyError) as err:
        parser = build_parser()
        parser.exit(2, f"error: {err}\n{parser.format_usage()}")
    except BrokenPipeError:
        # the reader stopped early: what is still buffered goes to devnull,
        # so the flush at exit raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
