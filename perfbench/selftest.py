"""Self-test: the oracle accepts the program's real output and flags corrupted output.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs a small batch (a plain gen, a JSON gen, a neighbor query and an
invalid query) through the worker exactly as run.py does, checks that
every call passes, then corrupts pass 0's captured output three ways (two
terms swapped, one term dropped, a wrong query answer) and checks that
each corrupted call, and every later call compared against it, is counted
as failed.  It also feeds the oracle hand-made bad outputs directly.
Exit status 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import oracle
import run
import workloads

FAILURES: list[str] = []


def expect(label: str, ok: bool) -> None:
    print(("PASS " if ok else "FAIL ") + label)
    if not ok:
        FAILURES.append(label)


def batch() -> list[workloads.Op]:
    return [
        workloads.gen_op("plain", "boolean", 24, 7),
        workloads.gen_op("json", "farey", 20),
        workloads.query(["neighbor", "--family", "farey", "--m", "50", "--frac", "7/19",
                         "--dir", "next"], oracle.farey_neighbor(7, 19, 50, "next")),
        workloads.query(["neighbor", "--family", "farey", "--m", "50", "--frac", "1/1",
                         "--dir", "next"], None),
    ]


def swap_two_lines(text: str) -> str:
    lines = text.split("\n")
    lines[3], lines[4] = lines[4], lines[3]
    return "\n".join(lines)


def drop_a_term(text: str) -> str:
    obj = json.loads(text)
    del obj["terms"][5]
    return json.dumps(obj, separators=(",", ":")) + "\n"


def wrong_answer(text: str) -> str:
    h, k = map(int, text.split("/"))
    return f"{h}/{k + 1}\n"


def program_run() -> None:
    ops = batch()
    run.OUT_DIR.mkdir(exist_ok=True)
    capture = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
    try:
        result = run.run_worker(ops, 0, 0, capture, run.OUT_DIR / "spans-selftest.jsonl")
        passes = 1 + len(result["passes"])
        attempted, failed, reasons = run.check_run(ops, result, capture)
        expect(f"real output passes ({attempted} calls, {failed} failed)",
               attempted == passes * len(ops) and failed == 0)
        for i, corrupt in enumerate((swap_two_lines, drop_a_term, wrong_answer)):
            path = capture / f"{i}.out"
            original = path.read_text()
            path.write_text(corrupt(original))
            attempted, failed, reasons = run.check_run(ops, result, capture)
            path.write_text(original)
            expect(f"{corrupt.__name__} is flagged on '{' '.join(ops[i].argv)}' "
                   f"({failed} of {attempted} calls failed: {reasons[0] if reasons else '-'})",
                   failed == passes)
    finally:
        shutil.rmtree(capture, ignore_errors=True)


def oracle_alone() -> None:
    terms = [(f.numerator, f.denominator) for f in oracle.family_terms("farey", 12, None)]
    count = oracle.expected_count("farey", 12, None, None)
    expect("oracle accepts F_12", oracle.check_terms(terms, "farey", 12, None, None, count) is None)
    swapped = terms[:]
    swapped[7], swapped[8] = swapped[8], swapped[7]
    expect("oracle flags a swapped pair",
           oracle.check_terms(swapped, "farey", 12, None, None, count) is not None)
    expect("oracle flags a dropped term",
           oracle.check_terms(terms[:9] + terms[10:], "farey", 12, None, None, count) is not None)
    doubled = [(2 * h, 2 * k) if (h, k) == (1, 6) else (h, k) for h, k in terms]
    expect("oracle flags an unreduced term",
           oracle.check_terms(doubled, "farey", 12, None, None, count) is not None)
    expect("oracle flags a term outside the family",
           oracle.check_terms(terms, "upper", 12, 3, None, count) is not None)
    text = json.dumps({"family": "farey", "n": 12, "m": None, "terms": terms})
    expect("oracle flags non-compact JSON",
           oracle.check_gen(text + "\n", "json", "farey", 12, None, None, count) is not None)
    expect("oracle flags a wrong query answer", oracle.check_answer("1/3", 0, "1/4\n", "") is not None)
    expect("oracle flags a traceback on an invalid query",
           oracle.check_answer(None, 2, "", "Traceback (most recent call last):\n") is not None)
    expect("oracle flags a failed verify check",
           oracle.check_verify("PASS a\nFAIL b\nPASS 2/2\n", 2) is not None)


def main() -> int:
    if not Path("src/fareylattice/cli.py").is_file():
        print("selftest: run from the root of a fareylattice checkout", file=sys.stderr)
        return 2
    oracle_alone()
    program_run()
    print(f"{len(FAILURES)} self-test expectation(s) failed" if FAILURES
          else "all self-test expectations hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
