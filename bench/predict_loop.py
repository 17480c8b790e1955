"""Closed-loop `secnn predict` calls, one caller, in a fresh interpreter.

    echo '{"checkpoint": DIR, "texts": [...], "warmup": 3, "trace": false}' | python3 bench/predict_loop.py

The cost of one predict call differs by about 12% from one process to the
next (at corpus scale, 34 to 42 ms in fresh processes) while staying within
a few percent inside a process, so the benchmark samples it in a new process
each round instead of in its own long-lived one.  Prints one JSON object:
milliseconds and printed label per call and, when tracing, the milliseconds
of `load_checkpoint` and of the forward pass inside each call.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from run import import_program


def main() -> int:
    request = json.load(sys.stdin)
    import_program()
    from secnn import cli

    from tracing import Tracer

    def call(sentence: str) -> tuple[float, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = cli.main(["predict", request["checkpoint"], sentence])
            elapsed = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"secnn predict exited {code}")
        return elapsed * 1000.0, out.getvalue().splitlines()[0].removeprefix("label=")

    for sentence in request["texts"][: request["warmup"]]:
        call(sentence)
    tracer = Tracer() if request["trace"] else None
    if tracer is not None:
        tracer.install()
    result = {"ms": [], "labels": []}
    for i, sentence in enumerate(request["texts"]):
        if tracer is not None:
            tracer.phase, tracer.sample = "predict", i
        ms, label = call(sentence)
        result["ms"].append(ms)
        result["labels"].append(label)
    if tracer is not None:
        tracer.uninstall()
        result["load_ms"] = [1000.0 * s for s in tracer.durations("predict", "checkpoint.load")]
        result["forward_ms"] = [1000.0 * s for s in tracer.durations("predict", "model.forward.eval")]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
