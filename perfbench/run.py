"""The repository's benchmark: compiler, WM simulator and serve tier.

One workload per run, in a fresh interpreter with a pinned and recorded
``PYTHONHASHSEED`` (``worker.py``).  Prints every end-to-end metric by
name with its unit (``--trace 0``) or every per-layer metric from a
traced run (``--trace 1``), then, as the last line, one JSON object::

    {"correct": true, "attempted": 60, "failed": 0,
     "metrics": {"wall_s": {"value": 2.91, "unit": "s"}, ...}}

A wrong output (a simulated or scalar-executed value != IR oracle, a
SimError or exception, a served response that is not ok or not
byte-identical to the others with its key, a traced listing that
differs from ``compile_source``'s)
counts as failed and makes the command exit 1.  Workloads, metrics and
what each per-layer metric is expected to move are in ``metrics.py``
and ``README.md``.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # all four
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import reference_s, slowdown  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: the hash seed every workload subprocess runs under, and the second
#: seed the divergence probe compiles the same inputs under
HASH_SEED = "0"
OTHER_HASH_SEED = "1"
#: set-up is timed this many times per run (the last is the real run's),
#: each host-normalised like every other time (see hostspeed)
SETUP_SAMPLES = 7
#: a run must end within 180 s; leave room to clean up
RUN_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def manifest(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        rev = out.stdout.strip() or "none"
    return {"workload": workload, "seed": seed, "pythonhashseed": HASH_SEED,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0], "git_rev": rev,
            "src_sha256": digest.hexdigest()[:16]}


def _env(tmp: str, hash_seed: str) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = tmp
    return env


def _worker(args: list[str], tmp: str, hash_seed: str = HASH_SEED):
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args,
         "--tmp", tmp],
        env=_env(tmp, hash_seed), cwd=tmp, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True, start_new_session=True)


def _kill(proc) -> None:
    """Kill the worker and everything it started (a serve daemon, pool
    workers), and wait for the worker."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    if proc.returncode is None:
        proc.communicate()


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline -
                                              time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def _until_ready(proc) -> float:
    """Seconds from spawn (the caller's clock start) to ``READY``."""
    line = proc.stdout.readline()
    if line.strip() != "READY":
        _kill(proc)
        raise BenchError(f"worker did not get ready: {line!r}")
    return time.perf_counter()


def divergent_listings(base: list[str], tmp: str, deadline: float,
                       live: list) -> int:
    """Inputs whose listing differs between two hash seeds, each
    compiled in its own subprocess."""
    procs = [_worker([*base, "--listings"], tmp, seed)
             for seed in (HASH_SEED, OTHER_HASH_SEED)]
    live.extend(procs)
    first, second = (json.loads(_finish(p, deadline)) for p in procs)
    return sum(1 for a, b in zip(first, second) if a != b)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{name}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    base = ["--workload", name, "--seed", str(seed)]
    live: list = []
    setup = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            ref, start = reference_s(), time.perf_counter()
            live.append(_worker([*base, "--setup-only"], tmp))
            ready = _until_ready(live[-1]) - start
            setup.append(ready / slowdown(ref, reference_s()))
            _finish(live[-1], deadline)
        ref, start = reference_s(), time.perf_counter()
        live.append(_worker([*base, "--seconds", str(seconds),
                             "--trace", str(int(trace))], tmp))
        ready = _until_ready(live[-1]) - start
        setup.append(ready / slowdown(ref, reference_s()))
        result = json.loads(_finish(live[-1], deadline).splitlines()[-1])
        if trace:
            result["layers"]["opt.hashseed_divergent"] = \
                divergent_listings(base, tmp, deadline, live)
    finally:
        # also reaps anything a worker left behind in its process group
        for proc in live:
            _kill(proc)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    result["setup_s"] = statistics.median(setup)
    # largest resident set of any process the run started (Linux: KB)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return result


def report(name: str, seed: int, result: dict, trace: bool) -> dict:
    attempted = result["ok"] + result["failed"]
    result["ok_ratio"] = result["ok"] / attempted if attempted else 0.0
    if trace:
        metrics = {key: {"value": result["layers"].get(key, 0.0),
                         "unit": unit}
                   for key, (unit, _better, _target) in PER_LAYER.items()}
    else:
        metrics = {key: {"value": result[key], "unit": unit}
                   for key, (unit, _better, _bound) in END_TO_END.items()}
    info = manifest(name, seed)
    print(f"perfbench {name} ({'traced' if trace else 'untraced'}): "
          + " ".join(f"{k}={v}" for k, v in info.items() if k != "workload"))
    print(f"  {result['passes']} pass(es), {result['ops']} ops; times "
          f"are host-normalised: host {result['host_slowdown']:.3f}x "
          f"slower than nominal, raw pass {result['raw_wall_s']:.4g} s")
    for key, metric in metrics.items():
        print(f"  {key:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_ratio':34s} {result['failed'] / max(1, attempted):.6g}"
          f" failed/attempted ({result['failed']} of {attempted})")
    if not trace and result.get("sim_minstr_per_s"):
        print(f"  {'sim_minstr_per_s':34s} "
              f"{result['sim_minstr_per_s']:.6g} Minstr/s")
    if not trace and "paper_err_pp" in result:
        print(f"  {'paper_err_pp':34s} {result['paper_err_pp']:.6g} pp")
    for error in result["errors"]:
        print(f"  FAILED: {error}")
    return {"correct": result["failed"] == 0 and attempted > 0,
            "attempted": attempted, "failed": result["failed"],
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload, each through its own invocation of this script
    (so each has its own peak-RSS reading); metrics are prefixed with
    the workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S + 30)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} failed to run", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a TERM unwinds through run_workload's cleanup like an error does
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2
    out = report(args.workload, args.seed, result, bool(args.trace))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
