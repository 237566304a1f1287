"""The names the benchmark harness in perfbench/ patches and reads.

The tracer wraps package attributes by name, so deleting or renaming one
breaks only traced benchmark runs. These tests install and remove the
tracer, and run one round of the `fuzz` workload through its own check.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_install_and_uninstall_restore_every_attribute():
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} not restored"


def test_fuzz_workload_round_passes_its_check(tmp_path):
    workload = workloads.Fuzz(0, tmp_path)
    paths, _ = workload.check(workload.run())
    assert paths == 15
