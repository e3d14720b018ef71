"""Command-line interface: generation, mapping, stepping, counting, verify sweeps.

Exit status: 0 on success, 1 when a verify sweep finds a failure, 2 for
usage errors (bad arguments, fractions outside the requested sequence).
A reader that closes the output pipe early, as `| head` does, ends the
command quietly with status 0.

`gen` has one writer, _write, for both formats.  It writes the JSON head
and the first term, then one string per piece of sequences._pieces: about
GEN_BATCH consecutive terms each, walked from the piece's left term and
rendered by one unit of _run_units, unchecked, since the walk ascends by
construction.  Each h and k lies in 0..n, so up to order _TABLE_MAX_ORDER
sequences._walk_text steps the walk and appends each term's strings from
two tables for 0..n built once per call (plain "h/" and "k\\n", JSON ",[h,"
and "k]"), with no int-to-str conversion, pair or generator per term; above
it each term of sequences._walk is an f-string, and no table is built.
Neither format holds the sequence, only a piece's text at a time in each
process, so neither is bound by the materialization guard.  `index` and
`count` never build a sequence either: they are Moebius counts
(identities.farey_rank, farey_boolean_rank and the sizes), bounded by
MAX_COUNT_ORDER.  Nor does verify's oracle suite, which compares the
lattice scan's list of (h, k) pairs with iter_pairs' pairs.  At every
(n, m) up to lattice.ENUM_BOUND that suite runs all three oracle checks
(enumerate, rank-counts and filter-cardinality), each read from the one
lattice scan of that (n, m).

Each verb is one row of _VERBS, which _add_verb adds to a parser.  When
argv starts with a verb, main parses the rest with that verb's parser alone,
named as its subparser is: argparse hands a subparser exactly those words,
so usage, help and errors are the same.  The full parser, with every verb,
is built only for other argv or for words a verb leaves over.  `neighbor`
takes its one step from neighbors._neighbor, --dir next as sign -1 and prev
as +1; `index` and `count` read the family's rank and size from
_POINT_FAMILIES.  Each point verb refuses a bad --m in one wording, through
sequences._point_sequence; verify reads _SUITES.  The keys of these two
tables are the --family and --suite choices.

Each verify sweep, and each gen call, is a stream of units: zero-argument
callables that share no state and return what the call emits, a sweep's
checks, in order, or a piece of gen's text.  One function, _run_units,
pulls each unit when its turn comes, so no call lists its units.  It opens
the pipe, forks, reads the pipe, closes it, and kills and reaps the child.
When a call has at least _FORK_UNITS units, os.fork exists, the process
may run on a second CPU and no other thread runs, a forked child computes
the odd-numbered units and pickles their results into a pipe, while this
process computes the even-numbered ones and emits every result in order.
The child stops at the first unit that raises, and this process computes
every unit it did not deliver, so stdout, stderr, the exit status and any
traceback are those of one process.  A fork that fails leaves the pipe
empty, read as a child that died at once: every unit runs here.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import chain, islice
from math import comb
from typing import TypeVar

from . import identities as ident
from . import lattice
from .catalog import (
    MAP_NAMES,
    catalog,
    matrix_coherence_checks,
    quarter_indices,
    verify_catalog,
    verify_map,
)
from .fracs import Frac
from .neighbors import _neighbor
from .sequences import (
    BOOLEAN,
    FAREY,
    LEFT_HALF,
    RIGHT_HALF,
    SeqDescriptor,
    _pieces,
    _point_sequence,
    _walk,
    _walk_text,
    iter_pairs,
)

# about how many terms gen puts in one piece, rendered by one unit and written at once
GEN_BATCH = 4096
# _run_units forks only for a call of at least this many units, gen's pieces and
# verify's units alike.  With 2 vCPUs (Python 3.11) running both processes at
# once, the fork, pipe and reap cost a call about 1.5-2 ms: farey(n) of 2, 3, 4
# and 6 pieces took 2.7, 1.6, 1.2 and 1.1 times as long forked as in one process,
# and of 8, 10 and 14 pieces 0.91, 0.81 and 0.74 times; verify's partition and
# oracle calls at --max-n 4 (6 units), identities at --max-n 2 --max-m 2 (6) and
# bijections at --max-n 2 --max-m 6 (7) took 5.7, 4.0, 4.7 and 2.3 times as long.
# verify's units differ in cost, so some calls above the count still lose by forking.
_FORK_UNITS = 8
# gen renders each term from two tables of decimal strings for 0..n, built once
# per call, when n is at most this order.  At 2**14 the two tables add about
# 2 MiB of RSS and take about 4 ms to build (2 vCPUs, Python 3.11); above it
# each term is an f-string, so a huge order builds no table.
_TABLE_MAX_ORDER = 2 ** 14


def _piece_text(d: SeqDescriptor, pre: str, sep: str, end: str) -> Callable[[tuple], str]:
    """The function that renders a piece of sequences._pieces after its left term as
    one string of f"{pre}{h}{sep}{k}{end}" terms: by sequences._walk_text from tables
    for 0..n built here up to _TABLE_MAX_ORDER, else by f-strings over sequences._walk."""
    if d.n > _TABLE_MAX_ORDER:
        return lambda piece: "".join([f"{pre}{h}{sep}{k}{end}"
                                      for h, k in islice(_walk(d, *piece), 1, None)])
    nums = [f"{pre}{i}{sep}" for i in range(d.n + 1)]
    dens = [f"{i}{end}" for i in range(d.n + 1)]
    return lambda piece: _walk_text(d, *piece, nums, dens)


def _write(d: SeqDescriptor, fmt: str, out) -> None:
    """Stream the sequence d names as fmt, "plain" or "json": the JSON head, the
    first term, then one write per piece of sequences._pieces, each piece
    rendered by one unit of _run_units, and last the tail, "]}" and a newline."""
    pre, sep, end = ("", "/", "\n") if fmt == "plain" else (",[", ",", "]")
    if fmt == "json":
        m = "null" if d.m is None else d.m
        out.write(f'{{"family":"{d.family}","n":{d.n},"m":{m},"terms":[')
    text = _piece_text(d, pre, sep, end)
    # JSON's first term takes no comma; each piece renders the terms after its left one
    h, k = next(iter_pairs(d))
    out.write(f"{pre}{h}{sep}{k}{end}".removeprefix(","))
    _run_units((partial(text, piece) for piece in _pieces(d, GEN_BATCH)), out.write)
    out.write("]}\n" if fmt == "json" else "")


def _cmd_gen(args, out) -> int:
    if args.family in ("upper", "boolean") and args.m is None:
        raise ValueError(f"--m is required for family {args.family}")
    if args.family == "farey" and args.m is not None:
        raise ValueError("--m does not apply to the farey family")
    if args.half is not None and args.family != "boolean":
        raise ValueError("--half applies only to the boolean family")
    family = {None: args.family, "left": LEFT_HALF, "right": RIGHT_HALF}[args.half]
    d = SeqDescriptor(family, args.n, args.m)
    _write(d, args.format, out)
    return 0


def _cmd_map(args, out) -> int:
    entries = {d.name: d for d in catalog(args.n, args.m)}
    if args.name not in entries:
        known = ", ".join(sorted(entries))
        raise ValueError(
            f"map {args.name!r} is not applicable for n={args.n}, m={args.m} "
            f"(available: {known})"
        )
    d = entries[args.name]
    f = Frac.parse(args.frac)
    if f not in d.domain:
        raise ValueError(f"{f} is not a term of the domain {d.domain}")
    print(d.matrix.apply(f), file=out)
    return 0


# point-verb family -> (its rank, its size)
_POINT_FAMILIES = {
    FAREY: (ident.farey_rank, ident.farey_size),
    BOOLEAN: (ident.farey_boolean_rank, ident.farey_boolean_size),
}


def _cmd_neighbor(args, out) -> int:
    f = Frac.parse(args.frac)
    print(_neighbor(f, args.m, args.family, -1 if args.dir == "next" else 1), file=out)
    return 0


def _cmd_index(args, out) -> int:
    f = Frac.parse(args.frac)
    d = _point_sequence(args.family, args.m)
    rank, _ = _POINT_FAMILIES[args.family]
    # ranked before the membership test, so the counting bound holds for every fraction
    i = rank(f.h, f.k, args.m)
    print(i if f in d else "absent", file=out)
    return 0


def _cmd_count(args, out) -> int:
    _point_sequence(args.family, args.m)  # refuses a bad --m before the size does
    _, size = _POINT_FAMILIES[args.family]
    print(size(args.m), file=out)
    return 0


# ----- verify sweeps -------------------------------------------------------

Check = tuple[str, bool, str]  # label, ok, failure detail
_T = TypeVar("_T")
# _run_units' unit of work: it returns what the call's emit takes (a sweep's checks,
# in order, or a piece of gen's text) and shares no state
Unit = Callable[[], _T]


def _bijection_check(report) -> Check:
    return (f"bijection {report.name} n={report.n} m={report.m}",
            report.passed, str(report.counterexample or ""))


def _catalog_unit(m: int) -> list[Check]:
    # verify_catalog's eleven maps and the quarter indices read the same four walks
    checks = [_bijection_check(report) for report in verify_catalog(2 * m, m)]
    try:
        quarter_indices(m)
        ok, detail = True, ""
    except ArithmeticError as exc:
        ok, detail = False, str(exc)
    checks.append((f"quarter-indices m={m}", ok, detail))
    return checks


def _sweep_bijections(max_n: int, max_m: int) -> Iterator[Unit]:
    yield from (partial(_catalog_unit, m) for m in range(2, max_m + 1))
    yield from (lambda n=n, m=m: [_bijection_check(verify_map(catalog(n, m)[0]))]
                for n in range(2, max_n + 1) for m in range(1, n))
    yield lambda: [(f"matrix {label}", ok, "") for label, ok in matrix_coherence_checks()]


def _check_report(report: ident.IdentityReport) -> Check:
    params = " ".join(f"{k}={v}" for k, v in report.params.items())
    return (f"identity {report.name} {params}", report.passed,
            "" if report.passed else f"lhs={report.lhs} rhs={report.rhs}")


def _sizes_unit(max_m: int) -> list[Check]:
    # both closed forms read one Moebius sum, so the relation is checked on generated counts
    checks, generated = [], {}
    for m in range(1, max_m + 1):
        for family, (_, size) in _POINT_FAMILIES.items():
            got, want = sum(1 for _ in iter_pairs(_point_sequence(family, m))), size(m)
            generated[family, m] = got
            checks.append((f"size {family} m={m}", got == want,
                           f"generated {got}, closed form {want}"))
    for m in range(2, max_m + 1):
        lhs, rhs = generated["boolean", m], 2 * generated["farey", m] - 1
        checks.append((f"size relation m={m}", lhs == rhs, f"{lhs} != 2*|F_m|-1 = {rhs}"))
    return checks


def _totient_chain_unit(m: int) -> list[Check]:
    ok = all(
        ident.phi_interval(h, 2 * h + 1, h + m) == ident.phi_interval(h, h + 1, m)
        for h in range(1, m + 1)
    )
    return [(f"totient chain m={m}", ok, "")]


def _sweep_identities(max_n: int, max_m: int) -> Iterator[Unit]:
    span = 2 * max_m
    yield partial(_sizes_unit, max_m)
    yield from (lambda n=n, m=m: [_check_report(ident.interior_duality(n, m))]
                for n in range(2, max_n + 1) for m in range(1, n))
    yield from (lambda m=m: [_check_report(report) for report in
                             ident.symmetric_identities(m) + ident.farey_identities(m)]
                for m in range(2, max_m + 1))
    yield from (partial(_totient_chain_unit, m) for m in range(2, max_m + 1))
    yield from (lambda h=h: [(f"totient divisor-sum h={h}", ident._divisor_sum_check(h, span), "")]
                for h in range(1, max_m + 1))


def _sweep_partition(max_n: int, max_m: int) -> Iterator[Unit]:
    return (lambda n=n, m=m: [_check_report(ident.filter_partition(n, m))]
            for n in range(2, max_n + 1) for m in range(1, n))


def _oracle_unit(n: int, m: int) -> list[Check]:
    # all three checks read the one lattice scan of this (n, m)
    scanned = lattice.enumerate_fractions(n, m)
    same = scanned == list(iter_pairs(SeqDescriptor(BOOLEAN, n, m)))
    ok = all(
        lattice.count_exact_intersection(n, m, j, l) == comb(m, j) * comb(n - m, l - j)
        for l in range(n + 1) for j in range(l + 1)
    )
    return [(f"oracle enumerate n={n} m={m}", same, ""),
            (f"oracle rank-counts n={n} m={m}", ok, ""),
            _check_report(lattice.filter_cardinality_check(n, m))]


def _sweep_oracle(max_n: int, max_m: int) -> Iterator[Unit]:
    return (partial(_oracle_unit, n, m)
            for n in range(2, min(max_n, lattice.ENUM_BOUND) + 1) for m in range(1, n))


# suite -> its sweep of (max_n, max_m), a stream of units; `all` runs them in this order
_SUITES = {
    "bijections": _sweep_bijections,
    "identities": _sweep_identities,
    "partition": _sweep_partition,
    "oracle": _sweep_oracle,
}


def _run_units(units: Iterable[Unit[_T]], emit: Callable[[_T], None]) -> None:
    """Call emit with each unit's result, in order, pulling each unit when its turn comes.

    A forked child (see the module docstring) walks its own copy of the
    stream, pickles the odd-numbered units' results into a pipe and stops at
    the first unit that raises.  It leaves only through os._exit, so it
    flushes none of this process's streams and prints no traceback.  This
    process computes every unit the pipe did not deliver, so a unit that
    raised in the child raises here, at its place, with its own traceback.
    The pipe is closed, and the child killed and reaped, on every path out.
    """
    import threading

    units = iter(units)
    head = list(islice(units, _FORK_UNITS))  # enough to tell whether the call forks
    units = chain(head, units)
    pid = pipe = None
    if (len(head) == _FORK_UNITS and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1):
        import pickle
        import signal

        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no child: this process reads the empty pipe and computes every unit
            pass
        if pid == 0:
            try:
                os.close(r)
                with open(w, "wb") as pipe:
                    for unit in islice(units, 1, None, 2):
                        pickle.dump(unit(), pipe)
                        pipe.flush()
            finally:
                os._exit(0)
        os.close(w)
        pipe = open(r, "rb")
    try:
        for i, unit in enumerate(units):
            result = None
            if i % 2 and pipe and not pipe.closed:
                try:
                    result = pickle.load(pipe)
                except Exception:  # EOF or a broken stream: the child stopped or died
                    pipe.close()
            emit(unit() if result is None else result)
    finally:
        if pipe:
            pipe.close()
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _cmd_verify(args, out) -> int:
    # the sweeps start at n = m = 2; a smaller bound empties one, and an empty sweep must not pass
    if min(args.max_n, args.max_m) < 2:
        raise ValueError(f"--max-n and --max-m must be at least 2, got {args.max_n} and {args.max_m}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    total = failed = 0

    def emit(checks: list[Check]) -> None:
        nonlocal total, failed
        for label, ok, detail in checks:
            total += 1
            print(("PASS " if ok else "FAIL ") + label, file=out)
            if not ok:
                failed += 1
                print(f"counterexample: {label}: {detail}", file=sys.stderr)

    _run_units(chain.from_iterable(_SUITES[name](args.max_n, args.max_m) for name in names), emit)
    # the oracle suite runs last, so its note follows its checks
    if "oracle" in names and args.max_n > lattice.ENUM_BOUND:
        print(f"note: the oracle suite checked n = 2..{lattice.ENUM_BOUND} only; --max-n "
              f"{args.max_n} exceeds lattice.ENUM_BOUND = {lattice.ENUM_BOUND}", file=sys.stderr)
    print(f"FAIL {failed}/{total}" if failed else f"PASS {total}/{total}", file=out)
    return 1 if failed else 0


# verb -> (its help, its handler, its arguments as (flag, add_argument keywords))
_VERBS = {
    "gen": ("print a sequence", _cmd_gen, (
        ("--family", {"choices": ["farey", "upper", "boolean"], "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--m", {"type": int}),
        ("--half", {"choices": ["left", "right"]}),
        ("--format", {"choices": ["plain", "json"], "default": "plain"}),
    )),
    "map": ("apply a catalog map to one fraction", _cmd_map, (
        ("--name", {"required": True, "metavar": "MAP",
                    "help": "one of: " + ", ".join(MAP_NAMES)}),
        ("--n", {"type": int, "required": True}),
        ("--m", {"type": int, "required": True}),
        ("--frac", {"required": True, "metavar": "H/K"}),
    )),
    "neighbor": ("step to an adjacent term", _cmd_neighbor, (
        ("--family", {"choices": list(_POINT_FAMILIES), "required": True}),
        ("--m", {"type": int, "required": True}),
        ("--frac", {"required": True, "metavar": "H/K"}),
        ("--dir", {"choices": ["next", "prev"], "required": True}),
    )),
    "index": ("zero-based position of a fraction", _cmd_index, (
        ("--family", {"choices": list(_POINT_FAMILIES), "default": "boolean"}),
        ("--m", {"type": int, "required": True}),
        ("--frac", {"required": True, "metavar": "H/K"}),
    )),
    "count": ("closed-form sequence cardinality", _cmd_count, (
        ("--family", {"choices": list(_POINT_FAMILIES), "required": True}),
        ("--m", {"type": int, "required": True}),
    )),
    "verify": ("run verification sweeps", _cmd_verify, (
        ("--suite", {"choices": [*_SUITES, "all"], "required": True}),
        ("--max-n", {"type": int, "default": 14, "dest": "max_n"}),
        ("--max-m", {"type": int, "default": 12, "dest": "max_m"}),
    )),
}


def _add_verb(parser: argparse.ArgumentParser, verb: str) -> argparse.ArgumentParser:
    """parser, given the arguments and the handler (as func) of _VERBS[verb]."""
    _, func, arguments = _VERBS[verb]
    for flag, keywords in arguments:
        parser.add_argument(flag, **keywords)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser with every verb, one subparser each."""
    parser = argparse.ArgumentParser(
        prog="fareylattice",
        description="Exact Farey sequences, their subset-lattice subsequences, "
                    "and the verified bijections between them.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (help_text, _, _) in _VERBS.items():
        _add_verb(sub.add_parser(name, help=help_text), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments argv names.  A verb's own words are parsed by that verb's
    parser alone, as the full parser's subparser would parse them; anything
    else, and a verb's leftover words, go to the full parser."""
    if argv and argv[0] in _VERBS:
        parser = _add_verb(argparse.ArgumentParser(prog=f"fareylattice {argv[0]}"), argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        rc = args.func(args, sys.stdout)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # The reader stopped early, as `| head` does.  Point stdout at devnull
        # so that the flush at interpreter exit cannot meet the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
