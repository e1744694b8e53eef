"""Layered, seeded benchmark of the exact verifier.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each is there):

- ``gallery-q`` / ``gallery-gf5``: ``entwine laws --level pseudofunctor``
  on the built-in gallery over Q / GF(5);
- ``stretch-gf5``: the same call on flip(M2, mc2) and bialg(C4) over GF(5);
- ``twisted-q``: a closed loop, one client, over batches of 50 seeded
  requests, each a gallery entwining in a fresh random basis over Q.

Every execution runs in a fresh interpreter (``worker.py``), one after
another, so module-level caches start cold as in a user's call.  An
untraced run makes set-up probes, then executions until the next one
would end past ``--seconds`` (at least one, and for twisted-q at least
100 requests, so that ten lie beyond the 90th percentile), and prints
the end-to-end metrics.  A traced run makes one untraced and one
traced execution of the same input, requires byte-identical reports,
and prints the per-layer metrics.  Every verdict is checked against a
known answer; ``failed`` / ``attempted`` is the failed share, where an
operation is one expected report line (gallery, stretch) or one request
(twisted-q).  The last line of output is one JSON object: correct,
attempted, failed, metrics.

Times are rescaled to the core's uncontended speed with the samples of
the in-process speed probe (see ``worker.py`` and ``SpeedScale``); the
median raw wall verdict time is printed beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".bench_work"
PROBES = 11
MIN_REQUESTS = 100
WORKER_TIMEOUT_S = 170
WORKLOADS = {
    "gallery-q": ("laws", ["-m", "entwine.cli", "gallery",
                           "--field", "rational", "--out"]),
    "gallery-gf5": ("laws", ["-m", "entwine.cli", "gallery",
                             "--field", "prime:5", "--out"]),
    "stretch-gf5": ("laws", [os.path.join(HERE, "stretch.py")]),
    "twisted-q": ("stream", None),
}
END_TO_END = {"setup_s": "s", "verdict_s": "s", "peak_rss_mib": "MiB",
              "checks_per_s": "1/s", "request_p50_s": "s",
              "request_p90_s": "s"}

sys.path.insert(0, HERE)
import twisted  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


class BenchError(Exception):
    pass


def _env():
    return dict(os.environ, PYTHONPATH=os.path.abspath("src"))


def spawn(cfg):
    """Run one worker to completion and return its result object."""
    cfg = dict(cfg, t0=time.monotonic())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
        capture_output=True, text=True, env=_env(),
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare_workspace(workload, make_input):
    """Write the workload's input file once per checkout; untimed."""
    path = os.path.join(WORK, f"{workload}.json")
    if not os.path.exists(path):
        tmp = path + ".tmp"
        proc = subprocess.run([sys.executable] + make_input + [tmp],
                              capture_output=True, text=True, env=_env(),
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"building {workload} input failed: "
                             f"{proc.stderr.strip()[-2000:]}")
        os.replace(tmp, path)
    return path


class TwistedInputs:
    """Batch files of the seeded request stream, with known answers."""

    def __init__(self, seed):
        self.stream = twisted.Stream(seed)
        self.count = 0

    def next(self):
        batch = self.stream.batch()
        path = os.path.join(WORK, f"twisted-q-{self.count}.jsonl")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r["text"]) + "\n" for r in batch)
        return path, batch


# -- known answers ---------------------------------------------------------


def judge_laws(result, expected):
    """Expected lines the execution got wrong (exit code counts as one)."""
    lines = result["lines"]
    failed = sum(1 for i, line in enumerate(expected)
                 if i >= len(lines) or lines[i] != line)
    if result["exit_code"] != 0 or len(lines) != len(expected):
        failed = max(failed, 1)
    return len(expected), failed


def request_ok(req, out):
    if "error" in out or not out["roundtrip"]:
        return False
    lines = out["lines"]
    if req["expect"] == "PASS":
        kinds = {line.split(" ")[0] for line in lines}
        return (not out["invalid"] and out.get("dims") == req["dims"]
                and {"ENTWINING", "CORING", "CORONECELL"} <= kinds
                and all(line.endswith(" PASS") for line in lines))
    e4 = [line.split(" ") for line in lines
          if line.startswith("ENTWINING e E4")]
    return (out["invalid"] and len(e4) == 1 and e4[0][3] == "FAIL"
            and all(line.endswith(" PASS") for line in lines
                    if not line.startswith("ENTWINING")))


def judge_stream(result, batch):
    failed = sum(1 for req, out in zip(batch, result["requests"])
                 if not request_ok(req, out))
    return len(batch), failed + abs(len(batch) - len(result["requests"]))


def report_lines(result):
    """The execution's whole report, as one list of lines."""
    if "lines" in result:
        return result["lines"]
    return [line for out in result["requests"]
            for line in out.get("lines", ())]


# -- metrics ---------------------------------------------------------------


class SpeedScale:
    """Rescales worker intervals to the core's uncontended speed.

    The reference is the 1st percentile of every speed-probe cost in the
    run: even a run spent mostly in slow periods has that many fast
    probes.  A stretch of time between two probes counts at reference /
    cost of the probe that ends it; the probes' own time is left out.
    """

    def __init__(self, results):
        costs = [c for r in results for _, _, c in r["speed"]]
        self.ref = statistics.quantiles(costs, n=100)[0]

    def seconds(self, samples, a, b):
        if not samples:
            return b - a
        total, lo = 0.0, -math.inf
        for start, end, cost in samples:
            s, e = max(lo, a), min(start, b)
            if e > s:
                total += (e - s) * self.ref / cost
            lo = end
            if lo >= b:
                return total
        if b > max(lo, a):
            total += (b - max(lo, a)) * self.ref / samples[-1][2]
        return total


def measure(result, scale):
    """Add rescaled set-up, verdict and latency times to a worker result."""
    speed = result["speed"]
    # interpreter start-up precedes the first probe: use the first probes
    first = (statistics.median(c for _, _, c in speed[:3]) if speed
             else scale.ref)
    result["setup_s"] = (result["spawn_s"] * scale.ref / first
                         + scale.seconds(speed, *result["setup"]))
    if "verdict" in result:
        result["raw_verdict_s"] = result["verdict"][1] - result["verdict"][0]
        result["verdict_s"] = scale.seconds(speed, *result["verdict"])
        if "requests" in result:
            # twisted-q: each request
            result["latencies"] = [scale.seconds(speed, *out["span"])
                                   for out in result["requests"]]
        else:
            # gallery: each laws call, from process start to verdict
            result["latencies"] = [result["setup_s"] + result["verdict_s"]]


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(probes, executions):
    lats = [x for r in executions for x in r["latencies"]]
    return {
        "setup_s": statistics.median(
            [r["setup_s"] for r in probes + executions]),
        "verdict_s": statistics.median(r["verdict_s"] for r in executions),
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in executions),
        "checks_per_s": statistics.median(
            len(report_lines(r)) / r["verdict_s"] for r in executions),
        "request_p50_s": statistics.median(lats),
        "request_p90_s": nearest_rank(lats, 0.9),
    }


# -- runs ------------------------------------------------------------------


def inputs(workload, seed):
    """(mode, next_input, judge): next_input() gives (path, known answer)."""
    mode, make_input = WORKLOADS[workload]
    if mode == "stream":
        return mode, TwistedInputs(seed).next, judge_stream
    path = prepare_workspace(workload, make_input)
    with open(os.path.join(HERE, "expected", f"{workload}.txt"),
              encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    return mode, lambda: (path, expected), judge_laws


def timed_run(workload, mode, next_input, judge, seconds):
    path, known = next_input()
    spawn({"mode": mode, "input": path, "probe": True})   # warm bytecode
    probes = [spawn({"mode": mode, "input": path, "probe": True})
              for _ in range(PROBES)]
    executions, attempted, failed = [], 0, 0
    begin = time.monotonic()
    while True:
        t = time.monotonic()
        result = spawn({"mode": mode, "input": path})
        a, f = judge(result, known)
        attempted, failed = attempted + a, failed + f
        executions.append(result)
        now = time.monotonic()
        requests = sum(len(r.get("requests", ())) for r in executions)
        if (now - begin + (now - t) > seconds
                and (mode == "laws" or requests >= MIN_REQUESTS)):
            break
        path, known = next_input()
    scale = SpeedScale(probes + executions)
    for r in probes + executions:
        measure(r, scale)
    samples = sum(len(r["latencies"]) for r in executions)
    raw = statistics.median(r["raw_verdict_s"] for r in executions)
    print(f"{workload}: {len(executions)} execution(s), "
          f"{len(probes) + len(executions)} set-ups, {samples} latency "
          f"samples ({samples - math.ceil(0.9 * samples)} beyond p90); "
          f"median raw wall verdict {raw:.4f} s")
    return end_to_end(probes, executions), END_TO_END, attempted, failed


def traced_run(workload, mode, next_input, judge):
    path, known = next_input()
    spawn({"mode": mode, "input": path, "probe": True})   # warm bytecode
    plain = spawn({"mode": mode, "input": path})
    spans = os.path.join(WORK, f"spans-{workload}.json")
    traced = spawn({"mode": mode, "input": path, "spans": spans})
    scale = SpeedScale([plain, traced])
    attempted = failed = 0
    for r in (plain, traced):
        measure(r, scale)
        a, f = judge(r, known)
        attempted, failed = attempted + a, failed + f
    if report_lines(plain) != report_lines(traced):
        print(f"{workload}: traced report differs from untraced")
        failed = max(failed, 1)
    # span times get the traced execution's overall rescaling
    factor = traced["verdict_s"] / traced["raw_verdict_s"]
    metrics = {name: value * factor if PER_LAYER[name] == "s" else value
               for name, value in traced["layers"].items()}
    metrics["cli.report_lines"] = len(report_lines(traced))
    metrics["trace.overhead_s"] = traced["verdict_s"] - plain["verdict_s"]
    print(f"{workload}: spans written to {spans}")
    return metrics, PER_LAYER, attempted, failed


def run(workload, seed, seconds, traced):
    os.makedirs(WORK, exist_ok=True)
    mode, next_input, judge = inputs(workload, seed)
    if traced:
        metrics, units, attempted, failed = traced_run(
            workload, mode, next_input, judge)
    else:
        metrics, units, attempted, failed = timed_run(
            workload, mode, next_input, judge, seconds)
    print(f"{workload}: failed_share = {failed}/{attempted}")
    for name, value in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "entwine", "__init__.py")):
        print("run from the root of an entwine checkout (no src/entwine)",
              file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
