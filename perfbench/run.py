"""Outside-in benchmark for maxnik.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and need not be installed. Every pass of a workload runs in a fresh
process (``worker.py``), so caches start cold as they do for a user of the
``maxnik`` command. Load is one closed-loop client: the next pass starts
only after the previous one has finished. Passes repeat while another one
brings the run's length closer to ``--seconds``; timings are medians over
the passes, and set-up is sampled in fresh processes spread between them.
Every time is in reference seconds: scaled by the host's speed, which a probe
samples beside the program (``speed.py``), so that a stretch in which the
shared host runs all code slower does not read as a slower program.

Workloads, each led by a different layer (``BENCHMARK.json`` says why each
was chosen, ``record.json`` what it leaves out):

* ``certify-random``    ``maxnik certify -`` on G(n, p) hosts, n in {9, 10};
                        mostly negative minor queries.
* ``certify-composite`` ``maxnik certify -`` on size-planner graphs of sizes
                        23 and up; mostly planarity inside ``is_k_apex``.
* ``sweep-order8``      ``maxnik enumerate --order 8 --kind maxnik``, cold;
                        mostly canonical labeling. Takes no inputs.
* ``size-planner``      ``size_construct``, ``validate_certificate`` and
                        ``decompose`` for sizes 20..177 except 22; mostly
                        clique cutsets. Takes no inputs.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
untraced pass and two traced passes of the same inputs, prints the per-layer
metrics of ``tracer.py``, checks that both traced passes made exactly the
same calls, and reports the tracing overhead. The last line of stdout is
one JSON object; the lines before it list every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
with open(os.path.join(HERE, "record.json")) as record_file:
    RECORD = json.load(record_file)

WORKLOADS = ("certify-random", "certify-composite", "sweep-order8", "size-planner")
DEFAULT_SEED = RECORD["default_seed"]
# The random hosts are one fixed draw, and the run's seed only reorders them.
# A few slow hosts take most of a batch's time, so a fresh draw or a fresh
# labeling per seed would make every timing follow the draw (record.json).
HOST_SEED = RECORD["workloads"]["certify-random"]["host_seed"]
HOST_COUNT = RECORD["workloads"]["certify-random"]["inputs"]
COMPOSITE_SIZES = range(23, 23 + RECORD["workloads"]["certify-composite"]["inputs"])
SWEEP_CLASSES = 12346  # isomorphism classes of order 8, one pass of the sweep
MIN_SETUPS = 7  # fresh processes per run whose set-up time is sampled
MAX_PASSES = 50
# A run must end within 180 s, so no worker outlives this point.
DEADLINE = time.monotonic() + 170

UNITS = {"setup_s": "s", "wall_s": "s", "graphs_per_s": "1/s",
         "latency_p50_ms": "ms", "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def spawn(task: dict) -> dict | None:
    """Run one worker process to completion; None when it did not report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MAXNIK_WORKERS", None)
    # the worker reads the same clock to time its own set-up from here
    task = dict(task, t0=time.perf_counter())
    try:
        proc = subprocess.run([sys.executable, WORKER], input=json.dumps(task),
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.stderr.write("worker stopped at the run's time limit\n")
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(f"worker exited with {proc.returncode}\n")
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def probe(setups: list[float]) -> bool:
    """Time the set-up of one more fresh process; False when it did not report."""
    result = spawn({"task": "setup"})
    if result is not None:
        setups.append(result["setup_s"])
    return result is not None


def base_lines(workload: str, setups: list[float]) -> list[str] | None:
    """The graph6 lines every pass draws from; None for workloads without inputs."""
    if workload == "certify-random":
        return inputs.random_hosts(random.Random(HOST_SEED), HOST_COUNT)
    if workload == "certify-composite":
        made = spawn({"task": "planner-lines", "sizes": list(COMPOSITE_SIZES)})
        if made is None:
            raise SystemExit("could not build the size-planner graphs")
        setups.append(made["setup_s"])
        return made["lines"]
    return None


def batches(workload: str, base: list[str] | None, seed: int):
    """Each pass's inputs, reordered by the seed; composite graphs also relabelled.

    Yields the batch with, for each of its lines, the index of the base line
    it came from; both are None for workloads without inputs.
    """
    rng = random.Random(seed)
    while True:
        if base is None:
            yield None, None
            continue
        if workload == "certify-composite":
            lines = [inputs.relabel(rng, line) for line in base]
        else:
            lines = base
        order = list(range(len(base)))
        rng.shuffle(order)
        yield order, [lines[i] for i in order]


def per_input(done: list[dict]) -> list[float]:
    """Each input's mean latency over the run's passes.

    Latencies are already scaled for the host's speed, so what still varies
    from pass to pass is the program: a composite graph's time moves by up
    to 3x with the labelling a pass gives it. The mean estimates the
    expected time over labellings with fewer passes than the median does,
    and percentiles taken over one value per input do not depend on how many
    passes the run held.
    """
    samples: dict[int, list[float]] = {}
    for p in done:
        order = p["order"] or range(len(p["latencies"]))
        for i, t in zip(order, p["latencies"]):
            samples.setdefault(i, []).append(t)
    return [statistics.fmean(ts) for ts in samples.values()]


def tail(latencies: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten inputs beyond it, and
    the mean latency of the inputs beyond it.

    Taken over one latency per input, the percentile follows from the
    workload's input count alone (``record.json`` pins it). The mean holds the
    slowest hosts, which a single order statistic would step over, and it
    does not jump when two inputs near the percentile trade places.
    """
    ranked = sorted(latencies)
    n = len(ranked)
    pct = next((q for q in range(99, 49, -1) if n * (100 - q) >= 1000), None)
    if pct is None:  # too few inputs for any such percentile: report the maximum
        return 100, ranked[-1]
    return pct, statistics.fmean(ranked[-(-n * pct // 100):])


def check(workload: str, seed: int, passes: list[dict | None], same_batch: bool = False) -> list[str]:
    """Problems with the passes' outputs, beyond the per-input failures.

    The sweep and the size planner print the same bytes on every pass. The
    certify batches are pinned batch by batch at the default seed; pass ``i``
    ran batch ``i``, or batch 0 when all passes ran the ``same_batch``.
    """
    problems = []
    if any(p is None for p in passes):
        problems.append("a pass ended without a result")
    pins = RECORD["stdout_sha256"][workload]
    for i, p in enumerate(passes):
        if p is None:
            continue
        print(f"pass {i}: wall {p['wall_s']!r} s (raw {p['raw_wall_s']!r} s), stdout sha256 {p['digest']}")
        batch = 0 if same_batch or workload in ("sweep-order8", "size-planner") else i
        if batch >= len(pins) or (seed != DEFAULT_SEED and workload.startswith("certify")):
            continue
        pin = pins[batch]
        if p["digest"] != pin:
            problems.append(f"pass {i} stdout sha256 is not the pinned {pin}")
    return problems


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict | None], list[str]]:
    setups: list[float] = []
    feed = batches(workload, base_lines(workload, setups), seed)
    passes: list[dict | None] = []
    start = time.monotonic()
    while len(passes) < MAX_PASSES:
        began = time.monotonic()
        order, lines = next(feed)
        passes.append(spawn({"task": "workload", "workload": workload, "lines": lines}))
        if passes[-1] is not None:
            passes[-1]["order"] = order
            setups.append(passes[-1]["setup_s"])
        # set-up probes go between passes, so they sample the whole run
        if len(setups) < MIN_SETUPS:
            probe(setups)
        # one more pass of the same length would take the run further from --seconds
        if time.monotonic() - start + (time.monotonic() - began) / 2 >= seconds:
            break
    done = [p for p in passes if p is not None]
    while len(setups) < MIN_SETUPS and probe(setups):
        pass
    problems = check(workload, seed, passes)
    if not done:
        return {}, passes, problems + ["no pass completed"]

    walls = [p["wall_s"] for p in done]
    latencies = per_input(done)
    per_pass = SWEEP_CLASSES if workload == "sweep-order8" else done[0]["inputs"]
    pct, tail_s = tail(latencies)
    if pct != RECORD["workloads"][workload]["tail_percentile"]:
        problems.append(f"latency_tail_ms took p{pct}, not the recorded percentile")
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "graphs_per_s": statistics.median(per_pass / w for w in walls),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in done),
    }
    print(f"latency_tail_ms is the mean beyond p{pct} of {len(latencies)} inputs' means over {len(done)} passes; "
          f"set-up sampled in {len(setups)} fresh processes; {len(passes)} passes")
    return values, passes, problems


def trace(workload: str, seed: int) -> tuple[dict, list[dict | None], list[str]]:
    _, lines = next(batches(workload, base_lines(workload, []), seed))
    task = {"task": "workload", "workload": workload, "lines": lines}
    plain = spawn(task)
    traced = [spawn(dict(task, trace=True)) for _ in range(2)]
    passes = [plain] + traced
    problems = check(workload, seed, passes, same_batch=True)
    if None in passes:
        return {}, passes, problems
    for p in traced:
        problems += p["unpatched"]
    counts = [{k: v for k, v in p["metrics"].items() if k.endswith(".calls")} for p in traced]
    if counts[0] != counts[1]:
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        problems.append(f"traced passes disagree on call counts: {differ}")
    else:
        print("every *.calls count is exact: both traced passes made the same calls")
    values = {k: counts[0][k] if k in counts[0] else statistics.median(p["metrics"][k] for p in traced)
              for k in traced[0]["metrics"]}
    values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - plain["wall_s"]
    return values, passes, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "maxnik", "__init__.py")):
        sys.stderr.write(f"no maxnik sources under {os.path.join(ROOT, 'src')}\n")
        return 2

    about = RECORD["workloads"][args.workload]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{about['loop']} loop, {about['clients']} client; python "
          f"{platform.python_version()}, nproc {os.cpu_count()}")
    if args.trace:
        values, passes, problems = trace(args.workload, args.seed)
        units = {name: "count" if name.endswith(".calls") else
                 "ratio" if name.endswith("_frac") else "s" for name in values}
    else:
        values, passes, problems = measure(args.workload, args.seed, args.seconds)
        units = UNITS

    done = [p for p in passes if p is not None]
    attempted = sum(p["inputs"] for p in done) + (len(passes) - len(done))
    failed = sum(p["failed"] for p in done) + (len(passes) - len(done))
    unknown = sum(p["unknown"] for p in done)
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"unknown_frac {unknown / max(attempted, 1)!r} ratio")
    print(f"failed_frac {failed / max(attempted, 1)!r} ratio")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
