"""One benchmark round in a fresh interpreter.

Reads a JSON plan on stdin, imports mertenskit, runs the plan's calls
once through the package's CLI or public functions, and prints one JSON
line: when the import returned (time.monotonic, comparable with the
parent's clock), the wall time of the calls, the peak resident set, the
raw outputs, and for a traced round the per-layer metrics.  The wall
time starts before `mertenskit.cli` is imported, since every CLI run
pays that import, and a traced round's also covers installing the
wrappers.  The parent (run.py) checks the outputs; nothing here judges
them.
"""

import time

import mertenskit

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def execute(calls, cli_main, mertens):
    outputs = []
    for call in calls:
        if call["kind"] == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(call["argv"])
            outputs.append({"code": code, "stdout": buf.getvalue()})
        else:
            outputs.append({"values": [mertens(x) for x in call["xs"]]})
    return outputs


def main() -> int:
    plan = json.load(sys.stdin)
    expected = os.path.join(plan["root"], "src", "mertenskit")
    if os.path.dirname(os.path.realpath(mertenskit.__file__)) != os.path.realpath(expected):
        print(f"error: imported {mertenskit.__file__}, not the package under "
              f"{expected}", file=sys.stderr)
        return 2
    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    t0 = time.perf_counter()
    cli_main = None
    if any(call["kind"] == "cli" for call in plan["calls"]):
        from mertenskit import cli

        cli_main = cli.main
    if tracer is not None:
        # After the cli import, so that cli's own names are patched too.
        tracer.install()
        if cli_main is not None:
            cli_main = tracer.wrap("cli.self", cli_main)
    outputs = execute(plan["calls"], cli_main, mertenskit.mertens_sublinear)
    run_s = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"imported_at": IMPORTED_AT, "run_s": run_s,
              "peak_rss_mb": peak_kib / 1024.0, "outputs": outputs}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        if plan.get("spans_path"):
            with open(plan["spans_path"], "w") as fh:
                json.dump({"t0": t0, "spans": tracer.spans}, fh)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
