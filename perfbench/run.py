"""ganfuzz benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload fuzz|trial|models --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. Set-up
(imports, the workload's inputs, the reference parser's self-check) is timed
from the start of the process. The timed part then runs
whole rounds of the workload, at least one, while the next round is expected
to end within S seconds, and checks every round's outputs. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over rounds);
with --trace 1 the same rounds run under the tracer and the metrics are the
per-layer ones, and the spans are written to perfbench/out/.
"""

import time

_START = time.perf_counter()

import ctypes  # noqa: E402

# Pin glibc's mmap threshold at its default, 128 KiB. Left alone, glibc raises
# it the first time a large block is freed, and from then on the fuzz loop's
# half-megabyte temporaries stay on the heap instead of being faulted in again
# on every exec: the same round then takes half the time. Whether and when
# that happens depends on the allocation history of the process, so an
# unpinned run is fast or slow by chance. Pinned, every run pays the faults.
if ctypes.CDLL(None).mallopt(-3, 128 * 1024) != 1:  # -3 is M_MMAP_THRESHOLD
    raise SystemExit("benchmark: mallopt(M_MMAP_THRESHOLD) failed")

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def setup_seconds() -> float:
    """Seconds from the start of this process to now. The start comes from
    /proc, in clock ticks; where that is unreadable, from this module's
    first line."""
    try:
        stat = Path("/proc/self/stat").read_text()
        start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _START


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("fuzz", "trial", "models"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import ganfuzz from this checkout's src/, never from elsewhere."""
    if not (SRC / "ganfuzz" / "__init__.py").is_file():
        sys.exit(f"benchmark: no ganfuzz package under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import ganfuzz

    if Path(ganfuzz.__file__).resolve().parent != (SRC / "ganfuzz").resolve():
        sys.exit(f"benchmark: imported ganfuzz from {ganfuzz.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("benchmark: --seconds must be positive")
    import_package()
    import minikey_ref
    from tracing import Tracer, write_spans
    from workloads import WORKLOADS, CheckError

    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    minikey_ref.self_check()
    workload = WORKLOADS[args.workload](args.seed, workdir)
    setup_s = setup_seconds()

    correct = True
    attempted = failed = 0
    walls, cpus, paths, tracers = [], [], [], []
    fingerprint = None
    # Whole rounds only: another round starts while it is expected to end
    # within --seconds, judged by the last round's length.
    while not walls or sum(walls) + walls[-1] <= args.seconds:
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        attempted += workload.ops
        cpu0 = os.times()
        wall0 = time.perf_counter()
        try:
            outputs = workload.run()
        except Exception:  # a failed operation ends the run; report it, do not crash
            traceback.print_exc()
            failed += workload.ops
            correct = False
            break
        finally:
            wall = time.perf_counter() - wall0
            cpu1 = os.times()
            if tracer:
                tracer.uninstall()
        walls.append(wall)
        cpus.append(cpu1.user + cpu1.system - cpu0.user - cpu0.system)
        try:
            round_paths, round_fingerprint = workload.check(outputs)
            if fingerprint is not None and round_fingerprint != fingerprint:
                raise CheckError("a round's outputs differ from the first round's")
        except CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
            break
        fingerprint = round_fingerprint
        paths.append(round_paths)
        if tracer:
            tracers.append(tracer)

    metrics = {}
    if args.trace:
        layer_rounds = [t.metrics() for t in tracers]
        for name in (layer_rounds[0] if layer_rounds else {}):
            value = statistics.median(r[name][0] for r in layer_rounds)
            metrics[name] = {"value": value, "unit": layer_rounds[0][name][1]}
        write_spans(workdir / f"spans-{args.workload}.npz", tracers)
    elif walls and paths:
        wall = statistics.median(walls)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "paths": {"value": paths[0], "unit": "count"},
            "paths_per_s": {"value": paths[0] / wall, "unit": "1/s"},
        }
    print(f"{args.workload}: {len(walls)} round(s), walls "
          + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    print(json.dumps({"correct": correct and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
