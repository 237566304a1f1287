"""Unit tests for the command-line entry point and its exit-code contract."""

import pytest

from ganfuzz.cli import main
from ganfuzz.corpus import load_corpus
from ganfuzz.lstm import LstmConfig, lstm_generate, train_lstm


@pytest.fixture
def mini_corpus(tmp_path):
    """A small fuzzed corpus to feed downstream subcommands."""
    out = tmp_path / "corpus"
    seed = tmp_path / "seed.bin"
    seed.write_bytes(b"MKEY")
    code = main(["fuzz", "--target", "minikey", "--corpus", str(out),
                 "--execs", "3000", "--rng-seed", "0",
                 "--seed-file", str(seed)])
    assert code == 0
    return out


class TestExitCodes:
    def test_fuzz_success(self, tmp_path, capsys):
        seed = tmp_path / "seed.bin"
        seed.write_bytes(b"MKEY")
        out = tmp_path / "corpus"
        code = main(["fuzz", "--target", "minikey", "--corpus", str(out),
                     "--execs", "2000", "--seed-file", str(seed)])
        assert code == 0
        assert "queue entries" in capsys.readouterr().out
        assert load_corpus(out)

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["defrag"]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert main(["fuzz", "--corpus", "x", "--warp", "9"]) == 2

    def test_missing_required_flag_is_usage_error(self):
        assert main(["fuzz"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["fuzz", "--help"]) == 0
        assert "--rng-seed" in capsys.readouterr().out

    def test_unknown_target_is_usage_error(self, tmp_path, capsys):
        code = main(["fuzz", "--target", "ethkey", "--corpus", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_seed_file_is_usage_error(self, tmp_path, capsys):
        seed = tmp_path / "empty.bin"
        seed.write_bytes(b"")
        code = main(["fuzz", "--target", "minikey", "--corpus", str(tmp_path / "o"),
                     "--execs", "100", "--seed-file", str(seed)])
        assert code == 2
        assert "seed 0 is empty" in capsys.readouterr().err

    def test_negative_execs_is_usage_error(self, tmp_path, capsys):
        seed = tmp_path / "seed.bin"
        seed.write_bytes(b"MKEY")
        code = main(["fuzz", "--target", "minikey", "--corpus", str(tmp_path / "o"),
                     "--execs", "-5", "--seed-file", str(seed)])
        assert code == 2
        assert "exec_budget" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy, given, missing", [
        ("rand_corpus", [], "--corpus"),
        ("lstm", ["--model", "lstm.bin"], "--corpus"),
        ("gan", [], "--model"),
        ("lstm", ["--corpus", "corpus"], "--model"),
    ])
    def test_generate_without_its_input_is_usage_error(self, strategy, given, missing,
                                                       tmp_path, capsys):
        # Checked before anything is loaded, so the named files need not exist.
        out = tmp_path / "seeds"
        code = main(["generate", "--strategy", strategy, *given, "--n", "3",
                     "--out", str(out)])
        assert code == 2
        assert f"--strategy {strategy} needs {missing}" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupted_corpus_is_runtime_failure(self, mini_corpus, tmp_path, capsys):
        next((mini_corpus / "queue").rglob("id-*")).unlink()
        code = main(["dedup", "--corpus", str(mini_corpus),
                     "--out", str(tmp_path / "d")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_existing_out_dir_needs_force(self, mini_corpus, tmp_path):
        out = tmp_path / "d"
        assert main(["dedup", "--corpus", str(mini_corpus), "--out", str(out)]) == 0
        assert main(["dedup", "--corpus", str(mini_corpus), "--out", str(out)]) == 2
        assert main(["dedup", "--corpus", str(mini_corpus), "--out", str(out),
                     "--force"]) == 0


class TestSubcommands:
    def test_generate_rand_urandom(self, tmp_path, capsys):
        out = tmp_path / "seeds"
        code = main(["generate", "--strategy", "rand_urandom", "--n", "25",
                     "--len", "8", "--out", str(out), "--rng-seed", "1"])
        assert code == 0
        seeds = load_corpus(out)
        assert len(seeds) == 25
        assert all(len(s.data) == 8 and s.origin == "rand_urandom" for s in seeds)

    def test_generate_rand_corpus(self, mini_corpus, tmp_path):
        out = tmp_path / "seeds"
        code = main(["generate", "--strategy", "rand_corpus",
                     "--corpus", str(mini_corpus), "--n", "10", "--len", "12",
                     "--out", str(out), "--rng-seed", "1"])
        assert code == 0
        assert len(load_corpus(out)) == 10

    def test_train_and_generate_lstm(self, mini_corpus, tmp_path):
        model = tmp_path / "lstm.bin"
        assert main(["train", "--strategy", "lstm", "--corpus", str(mini_corpus),
                     "--model", str(model), "--epochs", "1",
                     "--rng-seed", "0"]) == 0
        out = tmp_path / "seeds"
        assert main(["generate", "--strategy", "lstm", "--model", str(model),
                     "--corpus", str(mini_corpus), "--n", "5",
                     "--out", str(out), "--rng-seed", "2"]) == 0
        # The saved float32 model samples what the trained one would have.
        corpus = [s.data for s in load_corpus(mini_corpus)]
        expected = lstm_generate(train_lstm(corpus, LstmConfig(epochs=1, rng_seed=0)),
                                 5, 1.0, corpus, rng_seed=2).seeds
        assert [s.data for s in load_corpus(out)] == expected

    def test_train_and_generate_gan(self, mini_corpus, tmp_path):
        model = tmp_path / "gan.bin"
        assert main(["train", "--strategy", "gan", "--corpus", str(mini_corpus),
                     "--model", str(model), "--epochs", "2",
                     "--rng-seed", "0"]) == 0
        out = tmp_path / "seeds"
        assert main(["generate", "--strategy", "gan", "--model", str(model),
                     "--n", "5", "--out", str(out), "--rng-seed", "2"]) == 0
        seeds = load_corpus(out)
        assert len(seeds) == 5
        assert all(s.origin == "gan" for s in seeds)
        assert len({len(s.data) for s in seeds}) == 1

    def test_dedup_by_length(self, mini_corpus, tmp_path, capsys):
        out = tmp_path / "d"
        code = main(["dedup", "--corpus", str(mini_corpus), "--out", str(out),
                     "--by-length"])
        assert code == 0
        assert "length dedup" in capsys.readouterr().out

    def test_merge(self, mini_corpus, tmp_path):
        out = tmp_path / "m"
        assert main(["merge", str(mini_corpus), str(mini_corpus),
                     "--out", str(out)]) == 0
        assert len(load_corpus(out)) == len(load_corpus(mini_corpus))

    def test_merge_fuzz_corpora(self, tmp_path):
        # Every `ganfuzz fuzz` corpus is worker 0 with ids from 0, so the two
        # inputs share (worker, id) pairs but not their bytes.
        dirs = []
        for name, seed_bytes in (("w0", b"MKEY"), ("w1", b"MKEY\x01")):
            seed = tmp_path / f"{name}.bin"
            seed.write_bytes(seed_bytes)
            dirs.append(tmp_path / name)
            assert main(["fuzz", "--target", "minikey", "--corpus", str(dirs[-1]),
                         "--execs", "300", "--seed-file", str(seed)]) == 0
        out = tmp_path / "merged"
        assert main(["merge", *map(str, dirs), "--out", str(out)]) == 0
        inputs = {s.data for d in dirs for s in load_corpus(d)}
        merged = [s.data for s in load_corpus(out)]
        assert len(merged) == len(set(merged))
        assert set(merged) == inputs

    def test_report(self, mini_corpus, capsys):
        assert main(["report", "--corpus", str(mini_corpus), "--tsv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("strategy\t")

    def test_experiment_bad_plan_key(self, tmp_path, capsys):
        plan = tmp_path / "plan.cfg"
        plan.write_text("warp_speed = 9\n")
        code = main(["experiment", "--plan", str(plan),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "warp_speed" in capsys.readouterr().err

    def test_experiment_micro_plan(self, tmp_path, capsys):
        plan = tmp_path / "plan.cfg"
        plan.write_text(
            "phase1_execs = 1500\n"
            "workers = 1\n"
            "phase2_execs = 1000\n"
            "strategies = rand_urandom\n"
            "samples_per_strategy = 10\n"
        )
        code = main(["experiment", "--plan", str(plan),
                     "--out", str(tmp_path / "run")])
        assert code == 0
        assert "artifacts" in capsys.readouterr().out
