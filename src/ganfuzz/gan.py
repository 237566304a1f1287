"""Adversarial seed-file generator: small dense G/D pair over encoded bytes.

The generator maps uniform latent noise to tanh-space byte vectors; the
discriminator (dropout input stage + two dense layers, sigmoid output)
scores real-vs-fake. Training alternates one discriminator update on a
real(1)/fake(0) batch with one generator update on fake(1) through the
frozen discriminator.
"""

from __future__ import annotations

import logging
import struct
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

import numpy as np

from . import nn
from .codec import decode_floats, encode_bytes
from .errors import UsageError
from .forking import forked
from .synth import SyntheticBatch, median_seed_length

log = logging.getLogger(__name__)

GAN_TAG = 0x01
# Elementwise clip on the gradient reaching the generator, a stabilizer for
# the adversarial loop.
G_GRAD_CLIP = 0.05


@dataclass
class GanConfig:
    latent_dim: int = 32
    output_len: int | None = None  # default: median seed length, clamped to [16, 256]
    dropout_rate: float = 0.25
    epochs: int = 300
    batch_size: int = 64
    g_lr: float = 0.01  # generator: plain SGD
    d_lr: float = 0.0002  # discriminator: Adam
    # Late-training anneal, a stabilizer for the adversarial loop: both
    # learning rates are multiplied by anneal_factor each epoch after
    # anneal_after_epoch (0 disables). Without it the pair settles into a
    # limit cycle where G orbits the data instead of landing on it.
    anneal_after_epoch: int = 0
    anneal_factor: float = 0.93
    # Independent training restarts; the run with the best (lowest) probe
    # moment score is kept. Adversarial training has heavy-tailed run-to-run
    # variance, so restart selection is the cheapest reliability lever.
    # Restarts after the first train in forked processes, at most one child
    # per usable CPU, and the kept model is the one sequential training keeps.
    restarts: int = 1
    rng_seed: int = 0


@dataclass
class GanModel:
    generator: list[nn.DenseLayer]
    discriminator: list[nn.DenseLayer]
    latent_dim: int
    output_len: int
    dropout_rate: float
    rng_seed: int
    d_losses: list[float] = field(default_factory=list, repr=False)
    g_losses: list[float] = field(default_factory=list, repr=False)
    train_time: float = 0.0
    moment_score: float = float("inf")  # weighted probe/corpus moment mismatch


def _discriminate(model_layers, x, rate, rng, training):
    """Forward through the dropout stage (training only) and the dense stack."""
    if training:
        x, _ = nn.dropout_forward(x, rate, rng)
    return nn.forward(model_layers, x)


@nn.one_blas_thread()
def train_gan(corpus: list[bytes], config: GanConfig) -> GanModel:
    """Train `config.restarts` independent G/D pairs on a corpus (a list of
    bytes) and keep the first with the lowest moment score. Restart 0 trains
    in this process while the others train in forked processes, at most one
    child per usable CPU (`forked`), on top of any that the caller's own
    block runs; the kept model, bit for bit, is the one training them in
    order keeps.
    `train_time` is the wall time of the whole call."""
    if not corpus:
        raise UsageError("train_gan needs a non-empty corpus")
    if config.latent_dim < 1:
        raise UsageError("latent_dim must be >= 1")
    if config.restarts < 1:
        raise UsageError("restarts must be >= 1")
    start = time.perf_counter()
    jobs = [partial(_train_gan_once, corpus, config, config.rng_seed + restart * 1000003)
            for restart in range(config.restarts)]
    best: GanModel | None = None
    with forked(jobs[1:]) as later:
        for model in chain([jobs[0]()], later):
            if best is None or model.moment_score < best.moment_score:
                best = model
    best.train_time = time.perf_counter() - start
    return best


def _train_gan_once(corpus: list[bytes], config: GanConfig, rng_seed: int) -> GanModel:
    output_len = config.output_len or median_seed_length(corpus)
    if output_len < 1:
        raise UsageError("output_len must be >= 1")

    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    real = np.stack([encode_bytes(data, output_len) for data in corpus])

    g_hidden = 4 * config.latent_dim
    generator = [
        nn.DenseLayer.create(config.latent_dim, g_hidden, "relu", rng),
        nn.DenseLayer.create(g_hidden, output_len, "tanh", rng),
    ]
    discriminator = [
        nn.DenseLayer.create(output_len, output_len, "relu", rng),
        nn.DenseLayer.create(output_len, 1, "sigmoid", rng),
    ]
    g_opt = nn.Sgd(config.g_lr)
    d_opt = nn.Adam(config.d_lr)

    model = GanModel(
        generator=generator,
        discriminator=discriminator,
        latent_dim=config.latent_dim,
        output_len=output_len,
        dropout_rate=config.dropout_rate,
        rng_seed=config.rng_seed,
    )

    pegged_epochs = 0
    n = real.shape[0]
    batch = min(config.batch_size, n)
    # Checkpoint selection during the anneal: the adversarial pair keeps
    # orbiting the data, so the per-coordinate moment mismatch between a
    # probe batch and the corpus is tracked and the best snapshot kept.
    # Mismatch is measured in units of the corpus's own per-coordinate
    # spread, so near-constant coordinates (format fields) are matched
    # tightly while naturally diverse ones are matched loosely.
    real_mean = real.mean(axis=0)
    real_std = real.std(axis=0)
    moment_weight = 1.0 / (real_std + 0.01)
    probe_z = rng.uniform(-1.0, 1.0, size=(512, config.latent_dim))
    best_score = np.inf
    best_params: list[np.ndarray] | None = None
    pair = np.empty((2 * batch, output_len))  # a discriminator batch: real rows, then fake
    for epoch in range(config.epochs):
        if config.anneal_after_epoch and epoch >= config.anneal_after_epoch:
            g_opt.lr *= config.anneal_factor
            d_opt.lr *= config.anneal_factor
        order = rng.permutation(n)
        for lo in range(0, n, batch):
            real_batch = real[order[lo : lo + batch]]
            m = real_batch.shape[0]

            # Discriminator update: real labeled 1, fake labeled 0.
            z = rng.uniform(-1.0, 1.0, size=(m, config.latent_dim))
            fake = nn.forward(generator, z, cache=False)
            x = np.concatenate([real_batch, fake], out=pair[: 2 * m])
            labels = np.concatenate([np.ones((m, 1)), np.zeros((m, 1))])
            probs = _discriminate(discriminator, x, config.dropout_rate, rng, True)
            d_loss, grad = nn.loss_and_grad("binary_cross_entropy", probs, labels)
            nn.backward(discriminator, grad, input_grad=False)
            d_opt.step(nn.parameters(discriminator), nn.gradients(discriminator))
            nn.assert_finite(nn.parameters(discriminator), "discriminator update")

            # Generator update: fake labeled 1 through the frozen discriminator.
            z = rng.uniform(-1.0, 1.0, size=(m, config.latent_dim))
            fake = nn.forward(generator, z)
            probs = _discriminate(discriminator, fake, config.dropout_rate, rng, False)
            g_loss, grad = nn.loss_and_grad(
                "binary_cross_entropy", probs, np.ones((m, 1))
            )
            grad_fake = nn.backward(discriminator, grad)
            np.clip(grad_fake, -G_GRAD_CLIP, G_GRAD_CLIP, out=grad_fake)
            nn.backward(generator, grad_fake, input_grad=False)
            g_opt.step(nn.parameters(generator), nn.gradients(generator))
            nn.assert_finite(nn.parameters(generator), "generator update")

            model.d_losses.append(d_loss)
            model.g_losses.append(g_loss)

        # Mode-collapse tripwire: held-out accuracy pegged at 0 or 1.
        z = rng.uniform(-1.0, 1.0, size=(batch, config.latent_dim))
        fake = nn.forward(generator, z, cache=False)
        holdout = np.concatenate([real[order[:batch]], fake])
        labels = np.concatenate([np.ones((batch, 1)), np.zeros((batch, 1))])
        probs = _discriminate(discriminator, holdout, config.dropout_rate, rng, False)
        acc = float(np.mean((probs > 0.5) == (labels > 0.5)))
        pegged_epochs = pegged_epochs + 1 if acc in (0.0, 1.0) else 0
        if pegged_epochs >= 5:
            log.warning("discriminator accuracy pegged at %s for %d epochs (epoch %d)",
                        acc, pegged_epochs, epoch)

        if config.anneal_after_epoch and epoch >= config.anneal_after_epoch:
            probe = nn.forward(generator, probe_z, cache=False)
            score = float((moment_weight * (np.abs(probe.mean(axis=0) - real_mean)
                                            + np.abs(probe.std(axis=0) - real_std))).sum())
            if score < best_score:
                best_score = score
                best_params = [p.copy() for p in nn.parameters(generator)]

    if best_params is not None:
        for param, best in zip(nn.parameters(generator), best_params, strict=True):
            param[...] = best
        model.moment_score = best_score
    nn.release(generator + discriminator)
    model.train_time = time.perf_counter() - start
    return model


@nn.one_blas_thread()
def gan_generate(model: GanModel, n: int, rng_seed: int) -> SyntheticBatch:
    """Decode n generator samples to byte strings of exactly output_len bytes."""
    if n < 1:
        raise UsageError("n must be >= 1")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    z = rng.uniform(-1.0, 1.0, size=(n, model.latent_dim))
    out = nn.forward(model.generator, z, cache=False)
    return SyntheticBatch("gan", [decode_floats(row) for row in out])


# ---------------------------------------------------------------------------
# Persistence: strategy tag byte + header + two SFNN containers.


def save_gan(model: GanModel, path) -> None:
    blob = struct.pack("<BIIdQ", GAN_TAG, model.latent_dim, model.output_len,
                       model.dropout_rate, model.rng_seed)
    blob += nn.dump_network(model.generator)
    blob += nn.dump_network(model.discriminator)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_gan(path) -> GanModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    tag, latent_dim, output_len, rate, seed = struct.unpack_from("<BIIdQ", blob, 0)
    if tag != GAN_TAG:
        raise UsageError(f"not a GAN model file (tag {tag})")
    pos = struct.calcsize("<BIIdQ")
    generator, used = nn.load_network(blob[pos:])
    discriminator, _ = nn.load_network(blob[pos + used :])
    return GanModel(generator=generator, discriminator=discriminator,
                    latent_dim=latent_dim, output_len=output_len,
                    dropout_rate=rate, rng_seed=seed)
