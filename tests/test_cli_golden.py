"""The CLI replayed against recorded and documented output.

cli_transcript.json holds argv lists with the stdout, stderr and exit
status that cli.main gave for them: neighbor steps in both families and
directions (interior terms, 1/2, endpoints, non-members, m = 1, 2 and 6,
m <= 0), index, count and map on members, absent fractions and bounds,
small gen runs of every family and format, and a small verify sweep.
Usage errors are left out: argparse owns their wording, and
test_cli.TestUsage covers them.  These run in process, and any change to
a byte of that output fails here, and so does a case that builds a
sequence.

cli_pins.json holds the output pins at depth and scale: gen at order
10^9 through a pipe closed after 64 bytes, neighbors, indices and counts
at m = 10^6 to 10^9, and the sha256 of whole gen and verify outputs.
Each pin has its argv, exit status and exact stderr, and exactly one
stdout expectation: the exact text (stdout), a digest (stdout_sha256),
or the first bytes (head), after which the pipe is closed, as `| head
-c` does.  cap_mib caps the child's address space, as `ulimit -v`
would; why says what the pin guards.  Each pin runs as a child `python
-m fareylattice.cli`, on every CPU this process may use, so a real
fork, pipe and reap happen; a child still running after PIN_TIMEOUT_S
seconds fails its pin.  Run under `taskset -c 0`, the same pins take the
one-CPU path, where nothing forks.

The README examples run in process too: each `$ fareylattice ...` line,
with an optional `| head -N`, must print the lines shown under it.
"""

import contextlib
import functools
import hashlib
import json
import os
import re
import resource
import select
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import child_env
from fareylattice.cli import main

HERE = Path(__file__).parent
TRANSCRIPT = json.loads((HERE / "cli_transcript.json").read_text())
PINS = json.loads((HERE / "cli_pins.json").read_text())
PIN_IDS = [" ".join(pin["argv"]) for pin in PINS]
PIN_BY_ID = dict(zip(PIN_IDS, PINS))
# every key a pin may hold, with its type; a pin has exactly one of STDOUT_KINDS
PIN_TYPES = {"argv": list, "status": int, "stdout": str, "stdout_sha256": str, "head": str,
             "stderr": str, "cap_mib": int, "why": str}
STDOUT_KINDS = ("stdout", "stdout_sha256", "head")
# wall-time bound on every pin: the slowest takes about 5 s on 2 vCPUs
PIN_TIMEOUT_S = 60


@pytest.mark.parametrize("case", TRANSCRIPT, ids=[" ".join(c["argv"]) for c in TRANSCRIPT])
def test_transcript(capsys, no_sequence_built, case):
    status = main(case["argv"])
    captured = capsys.readouterr()
    assert (captured.out, captured.err, status) == (case["stdout"], case["stderr"], case["status"])


def _readme_examples() -> list[tuple[str, list[str]]]:
    """(command, the lines shown under it) for each `$ fareylattice` line."""
    examples: list[tuple[str, list[str]]] = []
    fenced, shown = False, None
    for line in (HERE.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            fenced, shown = not fenced, None
        elif fenced and line.startswith("$ "):
            shown = []
            examples.append((line[2:], shown))
        elif shown is not None:
            shown.append(line)
    return [(c, s) for c, s in examples if c.startswith("fareylattice ")]


README_EXAMPLES = _readme_examples()


def test_readme_has_examples():
    assert len(README_EXAMPLES) >= 5


@pytest.mark.parametrize("command, shown", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_example(capsys, command, shown):
    words = shlex.split(command)
    head = None
    if "|" in words:
        i = words.index("|")
        assert words[i + 1] == "head" and words[i + 2].startswith("-"), command
        head = int(words[i + 2][1:])
        words = words[:i]
    assert main(words[1:]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[:head] == shown


def schema_faults(pin: dict) -> list[str]:
    """What makes pin malformed; empty when it is well formed."""
    faults = [f"no {key}" for key in ("argv", "status", "stderr") if key not in pin]
    faults += [f"unknown key {key!r}" for key in pin.keys() - PIN_TYPES.keys()]
    faults += [f"{key} is not {PIN_TYPES[key].__name__}" for key in pin.keys() & PIN_TYPES.keys()
               if type(pin[key]) is not PIN_TYPES[key]]
    kinds = [kind for kind in STDOUT_KINDS if kind in pin]
    if len(kinds) != 1:
        faults.append(f"stdout expectations {kinds}, not exactly one")
    if not re.fullmatch("[0-9a-f]{64}", pin.get("stdout_sha256", "0" * 64)):
        faults.append("stdout_sha256 is not 64 lowercase hex digits")
    if pin.get("head", "-") == "":
        faults.append("empty head")
    return faults


def mismatches(pin: dict, status: int, stdout: str, stderr: str) -> list[str]:
    """Each expectation of pin that a run giving (status, stdout, stderr) misses.

    For a head pin, stdout is what was read before the pipe was closed.
    """
    observed = {"status": status, "stderr": stderr, "stdout": stdout, "head": stdout,
                "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    return [f"{key}: expected {pin[key]!r}, got {value!r}"
            for key, value in observed.items() if key in pin and value != pin[key]]


def _read_head(stream, size: int, deadline: float) -> bytes:
    """Up to size bytes of stream, fewer at end of file or once deadline has passed."""
    data = b""
    while len(data) < size:
        if not select.select([stream], [], [], max(0.0, deadline - time.monotonic()))[0]:
            break
        chunk = os.read(stream.fileno(), size - len(data))
        if not chunk:
            break
        data += chunk
    return data


def replay(pin: dict, timeout: float = PIN_TIMEOUT_S) -> tuple[int, str, str]:
    """Run pin as a child `python -m fareylattice.cli`; its (status, stdout, stderr).

    A child still running after timeout seconds raises TimeoutExpired.
    The child and every process it forks are killed, and the child reaped,
    on every path out, a timeout included.
    """
    cap = pin.get("cap_mib")

    def limit_address_space():
        if cap is not None:
            resource.setrlimit(resource.RLIMIT_AS, (cap * 2**20, cap * 2**20))

    deadline = time.monotonic() + timeout
    with subprocess.Popen([sys.executable, "-m", "fareylattice.cli", *pin["argv"]],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
                          preexec_fn=limit_address_space, start_new_session=True) as proc:
        try:
            head = b""
            if "head" in pin:
                head = _read_head(proc.stdout, len(pin["head"].encode()), deadline)
                proc.stdout.close()
            out, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
    return proc.returncode, (head + out).decode(), err.decode()


def test_pins_are_distinct():
    assert len(PIN_BY_ID) == len(PINS)


@pytest.mark.parametrize("pin", PINS, ids=PIN_IDS)
def test_pin(pin):
    assert schema_faults(pin) == []
    faults = mismatches(pin, *replay(pin))
    assert not faults, "\n".join(faults)


def test_timed_out_pin_is_killed_and_reaped(monkeypatch):
    children = []
    popen = subprocess.Popen
    monkeypatch.setattr(subprocess, "Popen",
                        lambda *a, **kw: children.append(popen(*a, **kw)) or children[-1])
    pin = {"argv": ["gen", "--family", "farey", "--n", "1000000000"], "status": 0, "stderr": "",
           "stdout_sha256": "0" * 64}
    with pytest.raises(subprocess.TimeoutExpired):
        replay(pin, timeout=1)
    assert [child.returncode for child in children] == [-signal.SIGKILL]


@functools.cache
def _observed(pin_id: str) -> tuple[int, str, str]:
    return replay(PIN_BY_ID[pin_id])


@pytest.mark.parametrize("pin_id, key", [
    ("gen --family farey --n 3000 --format plain", "head"),
    ("neighbor --family farey --m 1000000000 --frac 1/2 --dir next", "stdout"),
    ("neighbor --family farey --m 1000000000 --frac 1/1000000001 --dir next", "status"),
    ("neighbor --family farey --m 1000000000 --frac 1/1000000001 --dir next", "stderr"),
    ("gen --family boolean --n 300 --m 1", "stdout_sha256"),
    ("verify --suite partition --max-n 4", "stdout_sha256"),
])
def test_one_changed_character_fails(pin_id, key):
    pin = PIN_BY_ID[pin_id]
    run = _observed(pin_id)
    assert mismatches(pin, *run) == []
    text = str(pin[key])
    for i, char in enumerate(text):
        changed = type(pin[key])(text[:i] + ("2" if char == "1" else "1") + text[i + 1:])
        assert mismatches(dict(pin, **{key: changed}), *run) != [], (key, changed)


_PIN = PIN_BY_ID["verify --suite partition --max-n 4"]
_NO_STDOUT = {key: value for key, value in _PIN.items() if key not in STDOUT_KINDS}


@pytest.mark.parametrize("pin", [
    dict(_PIN, stdot="PASS 6/6\n"),
    _NO_STDOUT,
    dict(_PIN, stdout="PASS 6/6\n"),
    dict(_PIN, head="PASS"),
    dict(_NO_STDOUT, stdout="PASS 6/6\n", head="PASS"),
    dict(_PIN, stdout_sha256=_PIN["stdout_sha256"].upper()),
    dict(_NO_STDOUT, head=""),
    dict(_PIN, status="0"),
    dict(_PIN, argv=" ".join(_PIN["argv"])),
    {key: value for key, value in _PIN.items() if key != "stderr"},
], ids=["unknown key", "no stdout expectation", "stdout and digest", "head and digest",
        "stdout and head", "uppercase digest", "empty head", "status as text", "argv as text",
        "no stderr"])
def test_malformed_pin_fails_schema(pin):
    assert schema_faults(pin) != []
