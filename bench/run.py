"""relaysel benchmark: one workload per run, one thread, one JSON line at the end.

    python3 bench/run.py --workload agreement --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run repeats the workload's fixed job in whole rounds until
``--seconds`` have passed, times each step in nominal seconds (see
``clock.py``), checks the first round's output against independent oracles
and requires every later round to repeat it byte for byte.  With
``--trace 1`` the second round is traced and the per-layer metrics are
reported instead of the end-to-end ones; the spans are written to
``bench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "relaysel" / "__init__.py").is_file():
        sys.stderr.write(f"error: no relaysel sources under {src}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(src))
    import workloads  # imports relaysel.cli, which is part of set-up
    from clock import DriftClock

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_wall = process_age()

    clock = DriftClock()
    setup_s = setup_wall / clock.speed_now(11)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    rounds = []  # (nominal seconds per step, wall seconds, traced)
    digests = []
    first_texts = None
    deadline = time.perf_counter() + args.seconds
    with clock:
        while True:
            traced = tracer is not None and len(rounds) == 1
            if traced:
                tracer.install()
                clock.on_probe = tracer.on_probe
            try:
                step_seconds, wall, texts = {}, 0.0, {}
                for name, fn in workload.steps(tracer if traced else None):
                    raw, nominal, step_wall = clock.timed(fn)
                    step_seconds[name] = nominal
                    wall += step_wall
                    texts[name] = workload.render(name, raw)
            finally:
                if traced:
                    tracer.uninstall()
                    clock.on_probe = None
            rounds.append((step_seconds, wall, traced))
            digests.append(hashlib.sha256("\0".join(texts.values()).encode()).hexdigest())
            if first_texts is None:
                first_texts = texts
            enough = len(rounds) >= (3 if tracer is not None else 1)
            if enough and time.perf_counter() >= deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = workload.check(first_texts)
    if len(set(digests)) != 1:
        verdicts.errors.append(f"round outputs differ: {digests}")
    unexpected = sorted(r for r, ok in verdicts.rows.items() if not ok and r not in workload.KNOWN_FAILURES)
    for message in verdicts.errors + [f"row failed: {r}" for r in unexpected]:
        sys.stderr.write(f"incorrect: {message}\n")
    failed_rows = sum(1 for ok in verdicts.rows.values() if not ok)

    plain = [r for r in rounds if not r[2]]
    job = [sum(r[0].values()) for r in plain]
    raw = {"setup_wall_s": setup_wall, "job_wall_s": statistics.median(r[1] for r in plain), "rounds": len(rounds)}
    sys.stderr.write(f"raw: {json.dumps(raw)}\n")
    if tracer is None:
        step_medians = {name: statistics.median(r[0][name] for r in plain) for name in plain[0][0]}
        metrics = {
            "setup_s": (setup_s, "s"),
            "job_s": (statistics.median(job), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "work_per_s": (workload.work_per_s(step_medians), "1/s"),
        }
    else:
        metrics = per_layer_metrics(tracer, rounds, job)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace_{args.workload}.npz")

    result = {
        "correct": not verdicts.errors and not unexpected,
        "attempted": len(rounds) * len(verdicts.rows),
        "failed": len(rounds) * failed_rows,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def per_layer_metrics(tracer, rounds, untraced_job):
    """The per-layer metrics BENCHMARK.json names, from the traced round.

    ``<span>.calls`` and ``<span>.self_s`` come from the spans, in the
    nominal seconds of that round; any other count from the tracer's
    counters; ``trace.overhead_s`` is the traced job time minus the median
    untraced one.
    """
    step_seconds, wall, _ = next(r for r in rounds if r[2])
    traced_job = sum(step_seconds.values())
    scale = traced_job / wall  # nominal seconds per wall second over the traced round
    selfs = tracer.self_times()
    metrics = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name = spec["name"]
        span, _, measure = name.rpartition(".")
        if name == "trace.overhead_s":
            value = traced_job - statistics.median(untraced_job)
        elif measure == "calls":
            value = selfs.get(span, (0, 0.0))[0]
        elif measure == "self_s":
            value = selfs.get(span, (0, 0.0))[1] * scale
        else:
            value = tracer.counters.get(name, 0)
        metrics[name] = (value, spec["unit"])
    return metrics


if __name__ == "__main__":
    sys.exit(main())
