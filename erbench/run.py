#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 erbench/run.py --workload er_fused_dupes --seed 1 --seconds 10 --trace 0

It measures the checkout it lives in: the repository root is this file's
parent directory, put on ``sys.path`` and on ``PYTHONPATH`` before Ray
starts so that Ray's worker processes import the same package. Inputs and
run output go under ``erbench/.work``; the Ray session is sized to the
CPUs this process may run on and is shut down, with every process it
started, before the result is printed.

``--trace 0`` times whole jobs and prints the end-to-end metrics;
``--trace 1`` calls each layer in turn and prints the per-layer metrics,
writing the spans to ``erbench/.work/trace-<workload>-s<seed>.json``.
The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
PACKAGE = "triple_accel_ray"


def _process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms
    ticks), so set-up time includes interpreter start and imports."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def _ray_temp_dir() -> str | None:
    """A Ray temp directory for this process inside the checkout, when its
    socket paths (temp dir + 64 bytes of session and socket names) fit the
    107-byte AF_UNIX limit; otherwise None, for Ray's default."""
    d = os.path.join(WORK, f"r{os.getpid()}")
    return d if len(d) <= 43 else None


# Ray settings the benchmark's figures were taken with, applied unless the
# caller's environment sets them: no usage reporting, and no memory monitor
# killing workers because other tenants filled the machine's memory.
RAY_ENV = {
    "RAY_USAGE_STATS_ENABLED": "0",
    "RAY_memory_monitor_refresh_ms": "0",
    "RAY_DATA_DISABLE_PROGRESS_BARS": "1",
    "RAY_DEDUP_LOGS": "0",
}
# The largest job holds a few MB in the object store. A 1 GiB store once
# left the raylet stuck mapping it in /dev/shm, so ray.init gave up.
OBJECT_STORE_BYTES = 256 << 20


def _shutdown(ray) -> None:
    """``ray.shutdown()``, then wait for every process this one had
    started (listed before the shutdown, while they are still its
    descendants), SIGKILL after 20 s."""
    import psutil  # vendored by ray

    children = psutil.Process().children(recursive=True)
    ray.shutdown()
    _, alive = psutil.wait_procs(children, timeout=20)
    for p in alive:
        try:
            p.kill()
        except psutil.NoSuchProcess:
            pass
    psutil.wait_procs(alive, timeout=10)


class Session:
    """A local Ray session that owns every process it starts.

    ``ray.init`` is tried twice. If the raylet never registers, ``ray.init``
    raises after about 30 s; the second try maps the object store from a
    file under ``plasma_dir`` instead of /dev/shm."""

    def __init__(self, num_cpus: int, plasma_dir: str):
        import ray

        self.ray = ray
        self.temp_dir = _ray_temp_dir()
        for plasma in (None, plasma_dir):
            kw = {"_temp_dir": self.temp_dir} if self.temp_dir else {}
            if plasma:
                os.makedirs(plasma, exist_ok=True)
                kw["_plasma_directory"] = plasma
            try:
                ray.init(
                    address="local",
                    num_cpus=num_cpus,
                    include_dashboard=False,
                    logging_level="ERROR",
                    log_to_driver=False,
                    object_store_memory=OBJECT_STORE_BYTES,
                    **kw,
                )
                break
            except Exception:
                _shutdown(ray)
                if plasma:
                    raise
                traceback.print_exc(file=sys.stderr)
                print("erbench: ray.init failed; retrying with the object store "
                      "in the run directory", file=sys.stderr)
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def close(self) -> None:
        _shutdown(self.ray)
        if self.temp_dir:
            shutil.rmtree(self.temp_dir, ignore_errors=True)


def main(argv=None) -> int:
    from workloads import NCPUS, WORKLOADS  # benchmark-local, no program import

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, PACKAGE, "__init__.py")):
        print(f"erbench: package '{PACKAGE}' not found under {ROOT}; "
              f"run the benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    for k, v in RAY_ENV.items():
        os.environ.setdefault(k, v)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x])

    # a SIGTERM unwinds through the ``finally`` below, which stops Ray
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    wl = WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    t0 = time.perf_counter()
    age0 = _process_age()
    session = None
    try:
        from spans import Tracer

        tracer = Tracer()
        with tracer.span("session.ray_init"):
            session = Session(NCPUS, os.path.join(work, "plasma"))
        with tracer.span("setup.inputs"):
            inputs = wl.make_inputs(args.seed, os.path.join(work, "input"))
        setup_s = age0 + time.perf_counter() - t0
        if args.trace:
            result = wl.traced(inputs, os.path.join(work, "runs"), tracer)
            tracer.write(os.path.join(WORK, f"trace-{args.workload}-s{args.seed}.json"))
        else:
            result = wl.timed(inputs, os.path.join(work, "runs"), args.seconds)
            result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    finally:
        if session is not None:
            session.close()
        shutil.rmtree(work, ignore_errors=True)
    for line in result.pop("problems", []):
        print(f"erbench: INCORRECT: {line}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    raise SystemExit(main())
