"""The names the benchmark harness in perfbench/ patches and reads.

The tracer wraps package attributes by name, so deleting or renaming one
breaks only traced benchmark runs. These tests install and remove the
tracer, run one round of the `fuzz` workload through its own check, read
the phase split of a traced run_experiment, and read a traced GAN training
whose restarts run in forked processes.
"""

import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

import ganfuzz.experiment as experiment  # noqa: E402
import ganfuzz.gan as gan  # noqa: E402


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


def test_traced_trial_reports_its_phase_split(tmp_path):
    # The phase split needs run_workers and a first _make_batch in this
    # process, under the run_experiment span.
    plan = experiment.ExperimentPlan(
        phase1_execs=2_000, workers=2, phase2_execs=500,
        strategies=("rand_urandom", "rand_corpus", "gan"), samples_per_strategy=20,
        gan_epochs=5, gan_batch_size=32, gan_anneal_after=0, gan_restarts=1)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        experiment.run_experiment(plan, tmp_path / "run")
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["experiment.phase1.s"][0] > 0
    assert metrics["experiment.save_merge.s"][0] > 0


def test_traced_gan_restarts_are_one_span_with_the_kept_score():
    # Restarts 1 and 2 train in forked processes, out of the tracer's sight;
    # the call it wraps is still one span, and it sees the model returned.
    corpus = [b"MKEY\x01" + bytes([k % 7, k % 5]) * (4 + k % 9) for k in range(80)]
    config = gan.GanConfig(latent_dim=8, epochs=8, batch_size=32, anneal_after_epoch=4,
                           anneal_factor=0.9, restarts=3, rng_seed=0)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        model = gan.train_gan(corpus, config)
    finally:
        tracer.uninstall()
    name_of, _, _, _ = tracer.spans()
    assert int((name_of == tracer._name_ids["gan.train"]).sum()) == 1
    (run_config, run_model, _), = tracer.gan_runs
    assert run_config is config and run_model is model
    assert np.isfinite(model.moment_score)
    assert tracer.metrics()["gan.moment_score"] == (model.moment_score, "score")
