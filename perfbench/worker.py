"""One measured execution of a workload, in a fresh interpreter.

``run.py`` starts this script once per execution, so the library's
module-level caches start cold, as they do for a user's ``entwine``
call.  Usage::

    python3 perfbench/worker.py '<json config>'

The config names the ``mode`` (``laws``: one ``entwine laws --level
pseudofunctor`` on a workspace file; ``stream``: a closed loop over a
JSON-lines file of workspace requests), the ``input`` path, ``probe``
(stop after set-up), ``t0`` (the ``time.monotonic()`` reading taken just
before this process was started) and, for a traced execution, ``spans``
(where the span file goes).  The result is one JSON object on the last
line of standard output.  Every time in it is a ``time.monotonic()``
reading, so ``run.py`` can place it against the speed samples.

On a shared 2-vCPU Xeon host, a core's speed swings between full and
up to half speed for seconds at a time (other tenants), which moves raw
wall times by 20-30% from run to run.  So a SIGALRM handler times a
fixed 20 us loop every 10 ms on the same core, as the program runs;
``run.py`` uses those samples to rescale wall time to the core's
uncontended speed.
"""

from __future__ import annotations

import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

PROBE_PERIOD_S = 0.01


def _spin():
    # Fraction sums allocate like the program's own Q arithmetic, so
    # contention slows them about as much as it slows the program
    s = Fraction(0)
    for i in range(1, 12):
        s += Fraction(i % 5 - 2, i)
    return s


class SpeedProbe:
    """Times ``_spin`` every PROBE_PERIOD_S: (start, end, cost) samples.

    The loop runs twice and only the second run is timed, so the cost
    reflects the core's speed, not how much of the probe's own code and
    data the program evicted from the caches since the last sample.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        start = time.monotonic()
        _spin()
        t = time.monotonic()
        _spin()
        end = time.monotonic()
        self.samples.append((start, end, end - t))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def serve(text, lib):
    """One twisted-q request: the full check-and-round-trip pipeline."""
    cli, comc, corcat, entwcat, errors = lib
    ws = cli.deserialize(text)
    sink = io.StringIO()
    report = cli.Report(sink)
    cli.run_checks(ws, "all", report)
    out = {"invalid": False}
    e = ws.entwinings["e"]
    try:
        cor = comc.comc_obj(e)
    except errors.InvalidObject:
        out["invalid"] = True
    else:
        report.add("CORING", "comc(e)", corcat.check_coring(cor))
        cell = comc.comc_one_cell(entwcat.identity_one_cell(e))
        report.add("CORONECELL", "comc(id_e)",
                   corcat.check_cor_one_cell(cell))
        out["dims"] = [cor.carrier.dim, cor.square_word().module.dim]
    out["lines"] = sink.getvalue().splitlines()
    out["roundtrip"] = cli.serialize(ws) == text
    return out


def main():
    cfg = json.loads(sys.argv[1])
    probe = SpeedProbe()
    began = time.monotonic()
    probe.start()
    import entwine
    from entwine import cli, comc, corcat, entwcat, errors
    src = os.path.abspath("src")
    if not os.path.abspath(entwine.__file__).startswith(src + os.sep):
        sys.exit(f"imported entwine from {entwine.__file__}, not {src}")
    if cfg["mode"] == "stream":
        with open(cfg["input"], encoding="utf-8") as fh:
            requests = [json.loads(line) for line in fh]
    else:
        cli.load_workspace(cfg["input"])
    # interpreter start-up runs before the probe can, so it stays raw
    result = {"spawn_s": began - cfg["t0"], "setup": [began, time.monotonic()]}
    if not cfg.get("probe"):
        tracer = None
        if cfg.get("spans"):
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        start = time.monotonic()
        if cfg["mode"] == "laws":
            sink = io.StringIO()
            result["exit_code"] = cli.cmd_laws(cfg["input"], "pseudofunctor",
                                               sink)
            result["lines"] = sink.getvalue().splitlines()
        else:
            lib = (cli, comc, corcat, entwcat, errors)
            outcomes = []
            for text in requests:
                t = time.monotonic()
                try:
                    out = serve(text, lib)
                except Exception as exc:  # an unexpected failure is a result
                    out = {"error": f"{type(exc).__name__}: {exc}"}
                out["span"] = [t, time.monotonic()]
                outcomes.append(out)
            result["requests"] = outcomes
        result["verdict"] = [start, time.monotonic()]
        result["rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024)
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            tracer.dump(cfg["spans"])
    probe.stop()
    result["speed"] = probe.samples
    print(json.dumps(result))


if __name__ == "__main__":
    main()
