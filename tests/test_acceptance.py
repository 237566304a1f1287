"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Verdict lines are emitted with capture temporarily disabled so they appear
even under pytest's default fd-level capture. Every check here runs the real
pipeline at desk scale; nothing is mocked and no tolerance is looser than
the criterion it verifies.
"""

import time

import numpy as np
import pytest

from ganfuzz.corpus import SeedFile, dedup_by_length, dedup_content, ensure_trace_lengths
from ganfuzz.coverage import bucket_index
from ganfuzz.experiment import (
    ExperimentPlan,
    StrategyReport,
    compute_report,
    relative_rate,
    run_experiment,
)
from ganfuzz.fuzzer import FuzzConfig, FuzzerState, fuzz_loop, replay_audit
from ganfuzz.gan import GanConfig, gan_generate, load_gan, save_gan, train_gan
from ganfuzz.lstm import LstmConfig, lstm_generate, load_lstm, save_lstm, train_lstm
from ganfuzz.nn import forward as nn_forward
from ganfuzz.codec import decode_floats
from ganfuzz.targets import MINIKEY, build_minikey_input, build_record

from oracles import (
    FD_REL_TOL,
    brute_bucket_index,
    brute_dedup_by_length,
    brute_dedup_content,
    run_grad_suite,
)
from test_corpus import _random_seeds


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_handle(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _emit(line: str) -> None:
    with _CAPTURE.disabled():
        print(line, flush=True)


def _verdict(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    _emit(f"criterion {criterion} [{label}]: {status}{suffix}")
    assert ok, f"criterion {criterion} ({label}) failed{suffix}"


def test_criterion_1_metric_formula_fixtures():
    start = time.perf_counter()
    failures = []

    def check(value, printed):
        digits = len(str(printed).split(".")[1])
        if not abs(value - printed) < 10.0 ** -digits:
            failures.append((value, printed))

    for total, distinct, printed in ((38384, 31212, 0.813), (19824, 485, 0.024),
                                     (20000, 1921, 0.096), (20000, 119, 0.006)):
        seeds = [SeedFile(data=b"x", id=i, origin="m", discovered_at=i,
                          trace_length=(i % distinct) + 1) for i in range(total)]
        check(compute_report(seeds, set()).unique_fraction, printed)

    def report(count=1000, unique=1000, novel=0, mean=1.0, secs_per_path=0.0,
               name="r"):
        return StrategyReport.from_counts(name, count, unique, novel_count=novel,
                                          mean_length=mean,
                                          wall=secs_per_path * count)

    urandom = report(secs_per_path=214.478)
    check(relative_rate(report(secs_per_path=191.893), urandom, equal_wall=False), 1.11)
    check(relative_rate(report(secs_per_path=197.130), urandom, equal_wall=False), 1.08)

    rand = report(count=780, unique=778, novel=682, mean=25.373e6)
    gan = report(count=891, unique=837, novel=724, mean=28.885e6)
    lstm = report(count=600, unique=555, novel=481)
    check(relative_rate(gan, rand, "unique_length_count"), 1.0758)
    check(relative_rate(gan, rand, "novel_count"), 1.0616)
    check(relative_rate(lstm, rand, "unique_length_count"), 0.713)
    check(relative_rate(lstm, rand, "novel_count"), 0.7053)
    check(relative_rate(gan, rand, "seed_count"), 1.1423)
    check(gan.mean_length / rand.mean_length, 1.1384)

    elapsed = time.perf_counter() - start
    _verdict(1, "metric formula fixtures",
             not failures and elapsed < 1.0,
             f"12 fixtures, {elapsed:.2f}s" + (f"; mismatches {failures}" if failures else ""))


def test_criterion_2_gradient_oracle():
    start = time.perf_counter()
    worst = run_grad_suite(n_nets=100, rng_seed=42)
    elapsed = time.perf_counter() - start
    _verdict(2, "gradient oracle", worst < FD_REL_TOL and elapsed < 30.0,
             f"worst rel err {worst:.2e} over 100 nets, {elapsed:.1f}s")


def test_criterion_3_gan_memorization():
    start = time.perf_counter()
    constant = b"\x00" * 8
    config = GanConfig(latent_dim=8, output_len=8, epochs=200, batch_size=128,
                       g_lr=0.2, d_lr=0.002, rng_seed=0)
    model = train_gan([constant] * 10240, config)
    batch = gan_generate(model, 100, rng_seed=100)
    within_one = sum(
        1 for s in batch.seeds
        if sum(a != b for a, b in zip(s, constant)) <= 1
    )
    elapsed = time.perf_counter() - start
    _verdict(3, "GAN memorization", within_one >= 90 and elapsed < 120.0,
             f"{within_one}/100 within Hamming distance 1, {elapsed:.1f}s")


def test_criterion_4_lstm_periodic_text():
    start = time.perf_counter()
    corpus = [b"abc" * 100]
    config = LstmConfig(hidden_width=64, dense_width=64, epochs=20, lr=0.005,
                        stride=1, rng_seed=0)
    model = train_lstm(corpus, config)
    batch = lstm_generate(model, 5, 1e-5, corpus, rng_seed=7)
    ok = all(
        len(s) >= 30
        and len(set(s[:3])) == 3
        and all(s[i] == s[i - 3] for i in range(3, len(s)))
        for s in batch.seeds
    )
    elapsed = time.perf_counter() - start
    _verdict(4, "LSTM periodic text", ok and elapsed < 120.0,
             f"5 greedy continuations of {len(batch.seeds[0])} bytes, {elapsed:.1f}s")


def test_criterion_5_fuzzer_determinism_and_audit():
    start = time.perf_counter()

    def run():
        state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=0))
        fuzz_loop(state, MINIKEY, 100_000)
        return state

    a, b = run(), run()
    fp = lambda s: [(e.id, e.data, e.origin, e.discovered_at, e.trace_length,
                     e.outcome) for e in s.queue]
    identical = fp(a) == fp(b)
    audited = replay_audit(a.queue, MINIKEY)
    elapsed = time.perf_counter() - start
    _verdict(5, "fuzzer determinism and audit",
             identical and audited and elapsed < 120.0,
             f"{len(a.queue)} queue entries at 1e5 execs, {elapsed:.1f}s")


def _length_spanning_seeds(n, rng_seed):
    """n seeds: half collision-heavy random bytes, which all stop at the magic
    check and so share one trace length, and half well-formed minikey files
    with varied record counts and payloads, which span many lengths and
    repeat some contents."""
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    seeds = _random_seeds(n // 2, rng_seed=rng_seed)
    for j in range(n - n // 2):
        records = [build_record(int(rng.integers(1, 3)),
                                bytes(rng.integers(0, 2, size=int(rng.integers(0, 6)),
                                                   dtype=np.uint8)))
                   for _ in range(int(rng.integers(0, 6)))]
        data = build_minikey_input(int(rng.integers(1, 3)), records)
        seeds.append(SeedFile(data=data, id=100_000 + j, origin="mutation",
                              discovered_at=j, worker=j % 4))
    return [seeds[i] for i in rng.permutation(len(seeds))]


def test_criterion_6_dedup_oracles():
    start = time.perf_counter()
    seeds = ensure_trace_lengths(_length_spanning_seeds(1000, rng_seed=20), MINIKEY)

    kept_c, dup_c = dedup_content(seeds)
    oracle_c, oracle_dup = brute_dedup_content(seeds)
    content_ok = ([(s.worker, s.id) for s in kept_c]
                  == [(s.worker, s.id) for s in oracle_c]) and dup_c == oracle_dup

    kept_l, coll = dedup_by_length(seeds, MINIKEY)
    oracle_l, oracle_coll = brute_dedup_by_length(seeds)
    length_ok = ([(s.worker, s.id) for s in kept_l]
                 == [(s.worker, s.id) for s in oracle_l]) and coll == oracle_coll

    chain_ok = len(dedup_by_length(kept_c, MINIKEY)[0]) <= len(kept_c) <= len(seeds)
    elapsed = time.perf_counter() - start
    _verdict(6, "dedup oracles", content_ok and length_ok and chain_ok
             and len(kept_l) >= 20 and elapsed < 30.0,
             f"1000 seeds, content {len(kept_c)}, length {len(kept_l)}, {elapsed:.1f}s")


def test_criterion_7_bucketing_oracle():
    start = time.perf_counter()
    mismatches = [c for c in range(0, 301) if bucket_index(c) != brute_bucket_index(c)]
    elapsed = time.perf_counter() - start
    _verdict(7, "bucketing oracle", not mismatches and elapsed < 1.0,
             f"counts 0..300, {elapsed:.2f}s")


def test_criterion_8_directional_experiment(tmp_path):
    start = time.perf_counter()
    threshold = 10.0 * 256.0 ** -4  # ten times the urandom 4-byte prefix rate
    trials = []
    for seed in range(5):
        plan = ExperimentPlan(
            phase1_execs=200_000, workers=2, phase2_execs=200_000,
            strategies=("rand_urandom", "rand_corpus", "gan"),
            samples_per_strategy=500, rng_seed=seed,
        )
        out = tmp_path / f"trial-{seed}"
        reports = run_experiment(plan, out)
        baseline = reports["rand_urandom"].unique_length_count
        clause1 = (reports["gan"].unique_length_count >= baseline
                   and reports["rand_corpus"].unique_length_count >= baseline)

        # The threshold (~2.3e-9) sits far below 1/samples_per_strategy, so
        # the generator's prefix rate is estimated over a 10^6-sample audit
        # batch drawn from the persisted model of this trial.
        model = load_gan(out / "models" / "gan.bin")
        rng = np.random.Generator(np.random.PCG64(10_000 + seed))
        hits = 0
        for _ in range(50):
            z = rng.uniform(-1.0, 1.0, size=(20_000, model.latent_dim))
            samples = nn_forward(model.generator, z, cache=False)
            for row in samples:
                if decode_floats(row[:4]) == b"MKEY":
                    hits += 1
        clause2 = hits / 1_000_000 >= threshold
        trials.append((clause1, clause2, hits))
        _emit(f"  trial {seed}: L(C) gan={reports['gan'].unique_length_count} "
              f"rand_corpus={reports['rand_corpus'].unique_length_count} "
              f"urandom={baseline}; MKEY prefix {hits}/1e6 -> "
              f"{'ok' if clause1 and clause2 else 'miss'}")
    passed = sum(1 for c1, c2, _ in trials if c1 and c2)
    elapsed = time.perf_counter() - start
    _verdict(8, "directional experiment", passed >= 4 and elapsed < 900.0,
             f"{passed}/5 trials, {elapsed:.0f}s")


def test_criterion_9_persistence_round_trips(tmp_path):
    from ganfuzz.corpus import load_corpus, save_corpus

    start = time.perf_counter()

    seeds = _random_seeds(200, rng_seed=30, alphabet=256, max_len=40)
    save_corpus(tmp_path / "c", seeds)
    loaded = load_corpus(tmp_path / "c")
    corpus_ok = sorted(((s.worker, s.id, s.data) for s in seeds)) == \
        sorted(((s.worker, s.id, s.data) for s in loaded))

    victim = next((tmp_path / "c" / "queue").rglob("id-*"))
    victim.write_bytes(victim.read_bytes() + b"\x00")
    try:
        load_corpus(tmp_path / "c")
        tamper_ok = False
    except Exception:
        tamper_ok = True

    gan = train_gan([b"x" * 16] * 32, GanConfig(latent_dim=4, output_len=16,
                                                epochs=2, rng_seed=0))
    save_gan(gan, tmp_path / "gan.bin")
    gan_back = load_gan(tmp_path / "gan.bin")
    gan_ok = all(np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)
                 for a, b in zip(gan.generator + gan.discriminator,
                                 gan_back.generator + gan_back.discriminator))

    lstm = train_lstm([b"abcd" * 30], LstmConfig(hidden_width=8, dense_width=8,
                                                 window=4, epochs=1, rng_seed=0))
    save_lstm(lstm, tmp_path / "lstm.bin")
    lstm_ok = all(np.array_equal(a, b)
                  for a, b in zip(lstm.params(), load_lstm(tmp_path / "lstm.bin").params()))

    elapsed = time.perf_counter() - start
    _verdict(9, "persistence round trips",
             corpus_ok and tamper_ok and gan_ok and lstm_ok and elapsed < 10.0,
             f"corpus+tamper+gan+lstm, {elapsed:.1f}s")
