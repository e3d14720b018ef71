"""Benchmark worker: runs one workload's CLI calls in a fresh interpreter.

run.py starts it from the checkout root and sends a job as JSON on stdin:
{"argv": [[...], ...], "seconds": s, "trace": 0|1, "capture": dir,
 "spans": path}.  The worker imports fareylattice from ./src and calls
fareylattice.cli.main(argv) in process, with stdout and stderr sent to
sinks it owns.  It prints one JSON result on its real stdout.

Pass 0 writes each call's stdout to capture/<i>.out for the oracle and is
not timed; the timed passes that follow keep only a digest of each output,
so the worker holds no output and its peak RSS is the program's.  Before
every call each functools cache in the package is cleared, so every call
starts as cold as a fresh CLI process.  Every pass also runs six to eight
of reference.py's chunks, spread over its call boundaries (before every k-th
call and after the last), so the host's speed during that pass can be
factored out.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import reference


class Sink(io.RawIOBase):
    """Bottom of the CLI's stdout: digests and counts bytes, optionally
    copying them to a file.  Wrapped in BufferedWriter and TextIOWrapper,
    as a real stdout is, so the program's own write path is unchanged."""

    def __init__(self, path: str | None) -> None:
        self.hash = hashlib.blake2b(digest_size=16)
        self.nbytes = 0
        self.file = open(path, "wb") if path else None

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.hash.update(b)
        self.nbytes += len(b)
        if self.file is not None:
            self.file.write(b)
        return len(b)

    def close(self) -> None:
        if self.file is not None:
            self.file.close()
        super().close()


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


class Worker:
    def __init__(self, argvs: list[list[str]]) -> None:
        sys.path.insert(0, os.path.join(os.getcwd(), "src"))
        from fareylattice import cli

        self.cli = cli
        self.argvs = argvs
        self.caches = {id(v): v for name, mod in list(sys.modules.items())
                       if name.split(".")[0] == "fareylattice"
                       for v in vars(mod).values() if hasattr(v, "cache_clear")}.values()

    def run_pass(self, capture: str | None = None, tracer=None) -> dict:
        """One pass over the batch.

        Returns call seconds, reference chunk seconds, stdout bytes and one
        record per call: [exit code, stdout digest, stderr digest], plus
        the stderr text when capturing.
        """
        times, chunks, records, nbytes = [], [], [], 0
        every = max(1, len(self.argvs) // 5)
        per_stop = max(1, 8 // (len(self.argvs) // every + 1))
        real = sys.stdout, sys.stderr
        for i, argv in enumerate(self.argvs):
            if i % every == 0:
                chunks += [reference.chunk() for _ in range(per_stop)]
            for cache in self.caches:
                cache.cache_clear()
            if tracer is not None:
                tracer.begin_request(i)
            sink = Sink(capture and os.path.join(capture, f"{i}.out"))
            out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8", newline="\n")
            err = io.StringIO()
            sys.stdout, sys.stderr = out, err
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a CLI user would see this traceback; report it
                rc = None
                err.write(traceback.format_exc())
            finally:
                out.flush()
                elapsed = time.perf_counter() - start
                sys.stdout, sys.stderr = real
            if tracer is not None:
                tracer.end_request()
            out.close()
            times.append(elapsed)
            nbytes += sink.nbytes
            text = err.getvalue()
            record = [rc, sink.hash.hexdigest(), _digest(text)]
            if capture:
                record.append(text)
            records.append(record)
        chunks += [reference.chunk() for _ in range(per_stop)]
        return {"times": times, "chunks": chunks, "records": records, "nbytes": nbytes}


def main() -> int:
    job = json.load(sys.stdin)
    worker = Worker(job["argv"])
    seconds = job["seconds"]
    result = {"pass0": worker.run_pass(capture=job["capture"])["records"], "passes": []}
    start = time.perf_counter()
    if not job["trace"]:
        while not result["passes"] or time.perf_counter() - start < seconds:
            result["passes"].append(worker.run_pass())
        result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from tracing import Tracer

        tracer = Tracer()
        traced = 0
        while (traced < 2 or len(result["passes"]) - traced < 1
               or time.perf_counter() - start < seconds):
            if len(result["passes"]) - traced <= traced:
                result["passes"].append(worker.run_pass())
                continue
            tracer.install()
            tracer.reset()
            tracer.recording = not traced
            try:
                run = worker.run_pass(tracer=tracer)
            finally:
                tracer.recording = False
                tracer.remove()
            run["layer_times"], run["counts"] = tracer.pass_metrics(run["nbytes"])
            result["passes"].append(run)
            traced += 1
        result["spans"] = tracer.write_spans(job["spans"])
        result["spans_dropped"] = tracer.dropped
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
