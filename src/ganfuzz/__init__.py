"""Coverage-guided fuzzing with generative seed-file augmentation.

A hermetic, deterministic pipeline: an AFL-style fuzzer over in-process
instrumented targets, reinitialized mid-run with synthetic seed batches
from a GAN, an LSTM, or random baselines, plus a path-length metrics
suite for comparing the strategies.
"""

from .coverage import CoverageMap
from .corpus import SeedFile, dedup_by_length, dedup_content, load_corpus, merge, save_corpus
from .errors import CorpusCorruptionError, ShapeError, TrainingError, UsageError
from .experiment import (
    ExperimentPlan,
    StrategyReport,
    compute_report,
    mean_length_ratio,
    relative_rate,
    run_experiment,
)
from .fuzzer import FuzzConfig, FuzzerState, QueueEntry, fuzz_loop, reinitialize, run_workers
from .gan import GanConfig, GanModel, gan_generate, train_gan
from .lstm import LstmConfig, LstmModel, lstm_generate, train_lstm
from .synth import SyntheticBatch, random_from_corpus, random_urandom
from .targets import ExecResult, TargetProgram, Trace, execute, get_target

__version__ = "0.1.0"
