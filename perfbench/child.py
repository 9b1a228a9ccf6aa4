"""One measured workload run: CLI calls in-process, in a fresh interpreter.

Usage: python3 child.py <spec.json>

The parent pins the BLAS thread count in this process's environment before
numpy is imported. The spec lists call kinds (one CLI command each). Calls
run one at a time, a closed loop with one client. With a count per kind,
each kind runs that many times in list order. Otherwise the kinds are
interleaved in a fixed order: each kind has a number of calls per cycle,
and the next call is of the kind that is least far through its cycle, the
kind listed first on a tie. So every kind samples the whole run, and every
run makes its calls in the same order. The run makes at least its fewest
whole cycles, then goes on until --seconds is spent, skipping a kind whose
next call would, at that kind's mean time so far, end later. Results, and
spans when traced, are written into the work directory when the run ends.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def schedule(kinds, spent, done, seconds, cycles, start):
    """Yield the index of the kind to call next; see the module docstring."""
    if seconds is None:
        for n, kind in enumerate(kinds):
            for _ in range(kind["count"]):
                yield n
        return
    while True:
        # the first kind goes first: later kinds may use its output
        order = sorted(range(len(kinds)), key=lambda n: (done[n] / kinds[n]["per_cycle"], n))
        if done[order[0]] < cycles * kinds[order[0]]["per_cycle"]:
            yield order[0]
            continue
        left = seconds - (time.perf_counter() - start)
        fits = [n for n in order if spent[n] / done[n] <= left]
        if not fits:
            return
        yield fits[0]


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    from embadapt.cli import main as cli_main

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    kinds = spec["kinds"]
    spent = [0.0] * len(kinds)
    done = [0] * len(kinds)
    calls = []
    start = time.perf_counter()
    for n in schedule(kinds, spent, done, spec["seconds"], spec["cycles"], start):
        kind = kinds[n]
        i = done[n]
        argv = [a.replace("{i}", str(i)) for a in kind["argv"]]
        if kind["kind"] == "search":
            argv.append("--vector=" + spec["vectors"][i % len(spec["vectors"])])
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.run += 1
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
        elapsed = time.perf_counter() - t0
        spent[n] += elapsed
        done[n] += 1
        files = [a.replace("{i}", str(i)) for a in kind["outputs"]]
        calls.append({"kind": kind["kind"], "i": i, "rc": rc, "seconds": elapsed,
                      "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
                      "files": [sha256(f) if os.path.exists(f) else None for f in files]})

    if tracer is not None:
        tracer.write(os.path.join(spec["dir"], spec["name"] + ".spans.jsonl"))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(spec["dir"], spec["name"] + ".json"), "w", encoding="utf-8") as f:
        json.dump({"calls": calls, "peak_rss_mb": peak_kb / 1024.0}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
