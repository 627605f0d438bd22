"""One fresh process of the benchmark: set up, run one workload pass, check it.

Reads a JSON task from stdin and prints one JSON result line. Set-up is
timed from the parent's clock reading just before this process was started
to the end of the first ``mmik_library()`` build, so it covers interpreter
start, ``import maxnik`` and the library. The timed pass drives the program
the way a user does: certify batches and the sweep go through the ``maxnik``
command's entry point with graph6 on stdin. Correctness checks run after the
timed pass and never inside it.

Every time the worker reports is in reference seconds (``speed.py``): a
probe samples the host's speed from before the program is imported to the
end of the pass, and each timed interval is scaled by the speed measured in
it. The raw wall time of the pass is reported beside it.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
import traceback

from speed import Probe
from tracer import Tracer

PROBE = Probe()
PROBE.start()  # before the program is imported, so that set-up is sampled too

import maxnik  # noqa: E402
import maxnik.cli as cli  # noqa: E402

SWEEP_ARGV = ["enumerate", "--order", "8", "--kind", "maxnik"]
SWEEP_STDOUT = '{"count": 2, "graphs": ["GL~~~{", "G]~v~{"]}\n'
PLANNER_SIZES = [n for n in range(20, 178) if n != 22]


def run_cli(argv: list[str], stdin_text: str) -> tuple[int, str]:
    """The ``maxnik`` entry point with its stdin and stdout in memory."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin_text), io.StringIO()
    try:
        code = cli.main(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved


def time_calls(latencies: list[tuple[float, float]]) -> None:
    """Record the interval of each call the CLI makes into ``certify_maxnik``."""
    inner = cli.certify_maxnik
    clock = time.perf_counter

    def timed(*args, **kwargs):
        start = clock()
        try:
            return inner(*args, **kwargs)
        finally:
            latencies.append((start, clock()))

    cli.certify_maxnik = timed


def certify_batch(lines: list[str], want: str | None, tracer: Tracer | None) -> dict:
    latencies: list[tuple[float, float]] = []
    time_calls(latencies)
    start = time.perf_counter()
    code, out = run_cli(["certify", "-"], "".join(line + "\n" for line in lines))
    end, rss, metrics = finish(tracer)

    failed, unknown = set(), 0
    results = out.splitlines()
    if code not in (0, 2) or len(results) != len(lines):
        failed = set(range(len(lines)))
        results = []
    for i, (line, text) in enumerate(zip(lines, results)):
        record = json.loads(text)
        cert = maxnik.Certificate.from_json(record["certificate"])
        unknown += record["verdict"] == "UNKNOWN"
        if (record["graph6"] != line or cert.verdict != record["verdict"]
                or (want and record["verdict"] != want)
                or maxnik.validate_certificate(cert) != []):
            failed.add(i)
    return {**timings(start, end, latencies), "inputs": len(lines),
            "failed": len(failed), "unknown": unknown, "peak_rss_mb": rss,
            "digest": hashlib.sha256(out.encode()).hexdigest(), "metrics": metrics}


def sweep(tracer: Tracer | None) -> dict:
    start = time.perf_counter()
    code, out = run_cli(SWEEP_ARGV, "")
    end, rss, metrics = finish(tracer)
    return {**timings(start, end, [(start, end)]), "inputs": 1,
            "failed": int(code != 0 or out != SWEEP_STDOUT), "unknown": 0,
            "peak_rss_mb": rss, "digest": hashlib.sha256(out.encode()).hexdigest(),
            "metrics": metrics}


def size_planner(tracer: Tracer | None) -> dict:
    latencies, built, failed = [], [], 0
    clock = time.perf_counter
    start = clock()
    for n in PLANNER_SIZES:
        step = clock()
        try:
            plan, g, cert = maxnik.size_construct(n)
            problems = maxnik.validate_certificate(cert)
            maxnik.decompose(g)
        except Exception:  # a failed size is counted, and the loop goes on
            traceback.print_exc()
            failed += 1
            continue
        finally:
            latencies.append((step, clock()))
        built.append((n, plan, g, cert, problems))
    end, rss, metrics = finish(tracer)

    out = []
    for n, plan, g, cert, problems in built:
        failed += g.m != n or problems != []
        # the line ``maxnik construct --size n`` prints for this graph
        out.append(json.dumps({"graph6": maxnik.graph6_encode(g), "plan": plan.to_json(),
                               "verdict": cert.verdict, "certificate": cert.to_json()},
                              sort_keys=True) + "\n")
    return {**timings(start, end, latencies), "inputs": len(PLANNER_SIZES),
            "failed": failed, "unknown": 0, "peak_rss_mb": rss,
            "digest": hashlib.sha256("".join(out).encode()).hexdigest(), "metrics": metrics}


def finish(tracer: Tracer | None) -> tuple[float, float, dict | None]:
    """The clock, peak RSS in MB and the spans, read as a pass ends."""
    end = time.perf_counter()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return end, rss, tracer.metrics() if tracer else None


def timings(start: float, end: float, intervals: list[tuple[float, float]]) -> dict:
    """The pass's wall time and each input's latency, in reference seconds."""
    return {"wall_s": PROBE.scaled(start, end), "raw_wall_s": end - start,
            "latencies": [PROBE.scaled(a, b) for a, b in intervals]}


def run(task: dict, tracer: Tracer | None) -> dict:
    kind = task["task"]
    if kind == "setup":
        return {}
    if kind == "planner-lines":
        return {"lines": [maxnik.graph6_encode(maxnik.size_construct(n)[1])
                          for n in task["sizes"]]}
    workload = task["workload"]
    if workload == "certify-random":
        return certify_batch(task["lines"], None, tracer)
    if workload == "certify-composite":
        return certify_batch(task["lines"], "MAXNIK", tracer)
    if workload == "sweep-order8":
        return sweep(tracer)
    return size_planner(tracer)


def main() -> None:
    task = json.loads(sys.stdin.read())
    tracer, unpatched = None, []
    if task.get("trace"):
        tracer = Tracer()
        tracer.install()
        unpatched = tracer.unpatched()
    maxnik.mmik_library()
    # t0 is the parent's reading of the same clock, taken before this process started
    setup_s = PROBE.scaled(task["t0"], time.perf_counter())
    result = run(task, tracer)
    PROBE.stop()
    print(json.dumps(dict(result, setup_s=setup_s, unpatched=unpatched)))


if __name__ == "__main__":
    main()
