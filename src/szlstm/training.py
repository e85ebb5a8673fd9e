"""Corpus handling, truncated-BPTT training, evaluation and checkpointing.

A corpus is any byte file. The first 90% is the training split, the next 5%
validation, the rest test. Training repeatedly samples a batch of random
long chunks from the training split, walks each one in seq_len windows with
state carried across window boundaries (gradients truncated at them), and
applies one clipped Adadelta update per window.

Checkpoint format (version 1), all integers and floats little-endian:

    bytes 0..3   magic "SZO1"
    bytes 4..7   uint32 format version
    bytes 8..15  uint64 JSON header length
    header       UTF-8 JSON: step, precision, variant, tau, zoneout_rate,
                 hidden/vocab sizes, vocab byte values, optimizer
                 hyperparameters, rng stream states, config echo
    arrays       raw little-endian floats: the flat parameter buffer (the 18
                 blocks in PARAM_KEYS order, each C-order), then the flat
                 E[g^2] accumulator buffer, then the flat E[dx^2] buffer,
                 both in the same layout

A checkpoint is written at every chunk boundary and once at the end. A resume
from a chunk boundary reproduces the uninterrupted run bit for bit: lane
states restart at the next chunk anyway and every random draw is replayed
from the stored stream counters. A checkpoint stores no lane state, so a
resume from one written mid-chunk (steps ended there) starts a fresh chunk.

Checkpoint saves: a save rewrites PATH.spare in place, hard-links PATH to
PATH.old, renames PATH.spare over PATH (taking PATH's mode) and PATH.old to
PATH.spare; without hard links it only renames PATH.spare over PATH. PATH
always names a complete checkpoint and the previous one stays as PATH.spare:
two checkpoints of disk. No save truncates or unlinks a full file, which is
what makes it cheap. A process that dies mid-save leaves PATH as it was;
with no fsync, a power loss or OS crash can still lose recent writes.
"""

import errno
import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .cell import (
    VARIANTS,
    GradientSet,
    ModelParams,
    backward_window,
    block_layout,
    cross_entropy_bpc,
    run_lanes,
)
from .numerics import DTYPES, NumericalError, RngState
from .optim import AdadeltaState, adadelta_step, clip_gradients, xavier_init

CHECKPOINT_MAGIC = b"SZO1"
CHECKPOINT_VERSION = 1

# rng stream tags; forked off the config seed
STREAM_INIT = 1
STREAM_DATA = 2
STREAM_MASK = 3
STREAM_EVAL = 4
STREAM_SAMPLE = 5

LOG_HEADER = "step\ttrain_bpc\tvalid_bpc\tmean_z\tmean_update_rate\twall_ms"

# config fields a bit-exact resume depends on; steps and the validation-only
# fields may change between the run that wrote a checkpoint and its resume
RESUME_FIELDS = ("hidden", "variant", "batch_size", "seq_len", "chunk_len", "seed",
                 "precision", "lr", "rho", "eps", "clip_norm", "tau", "zoneout_rate")

# checkpoint header fields load_checkpoint reads; config and rng may be absent
HEADER_FIELDS = ("step", "precision", "hidden", "vocab_size", "vocab", "variant", "tau",
                 "zoneout_rate", "rho", "eps", "lr")


@dataclass
class Corpus:
    """A byte corpus with its vocabulary and fixed 90/5/5 split boundaries."""

    data: np.ndarray      # raw bytes, uint8
    vocab: np.ndarray     # sorted distinct byte values, uint8
    encoded: np.ndarray   # symbol indices into vocab, uint8
    train_end: int
    valid_end: int

    @property
    def vocab_size(self):
        return len(self.vocab)

    def split(self, name):
        if name == "train":
            return self.encoded[: self.train_end]
        if name == "valid":
            return self.encoded[self.train_end: self.valid_end]
        if name == "test":
            return self.encoded[self.valid_end:]
        raise ValueError(f"unknown split {name!r}, expected train/valid/test")

    def check_vocab(self, vocab):
        """Raise ValueError unless a model's vocabulary is this corpus's, byte
        for byte (symbol indices mean bytes, so equal sizes are not enough)."""
        if np.array_equal(self.vocab, vocab):
            return
        n = min(len(self.vocab), len(vocab))
        i = int(np.argmax(np.append(self.vocab[:n] != vocab[:n], True)))
        ours, theirs = (f"0x{v[i]:02x}" if i < len(v) else "none" for v in (self.vocab, vocab))
        raise ValueError(f"corpus vocabulary differs from the checkpoint's at symbol {i}: "
                         f"corpus byte {ours}, checkpoint byte {theirs}")


def encode_bytes(vocab, raw):
    """Symbol indices (uint8) of raw bytes under a byte vocabulary; raises
    ValueError naming the first byte absent from it."""
    data = np.frombuffer(raw, dtype=np.uint8)
    table = np.full(256, -1, dtype=np.int16)
    table[vocab] = np.arange(len(vocab), dtype=np.int16)
    idx = table[data]
    if idx.size and idx.min() < 0:
        bad = int(data[np.argmax(idx < 0)])
        raise ValueError(f"byte 0x{bad:02x} is not in the model vocabulary")
    return idx.astype(np.uint8)


def load_corpus(path):
    """Read a byte corpus, build its vocabulary and record split offsets."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw:
        raise ValueError(f"corpus file {path} is empty")
    data = np.frombuffer(raw, dtype=np.uint8)
    vocab = np.unique(data)
    encoded = encode_bytes(vocab, raw)
    length = len(data)
    train_end = length * 9 // 10
    valid_end = train_end + length // 20
    return Corpus(data=data, vocab=vocab, encoded=encoded,
                  train_end=train_end, valid_end=valid_end)


@dataclass
class TrainConfig:
    seq_len: int = 100
    batch_size: int = 128
    chunk_len: int = 10000
    hidden: int = 256
    variant: str = "adaptive"
    tau: float = 0.05
    zoneout_rate: float = 0.5
    seed: int = 0
    steps: int = 1000
    precision: str = "f32"
    rho: float = 0.95
    eps: float = 1e-6
    lr: float = 0.001
    clip_norm: float = 5.0
    eval_mask_mode: str = "expected"
    val_interval: int = 100
    val_prefix: int = 100000
    val_lanes: int = 0          # 0 means batch_size

    def validate(self):
        for name in ("seq_len", "batch_size", "chunk_len", "hidden",
                     "val_interval", "val_prefix", "lr", "eps", "clip_norm"):
            # negated, so that a NaN from a config file fails too
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("steps", "val_lanes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.chunk_len % self.seq_len != 0:
            raise ValueError(
                f"chunk_len ({self.chunk_len}) must be divisible by seq_len ({self.seq_len})"
            )
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.precision not in DTYPES:
            raise ValueError(f"unknown precision {self.precision!r}, expected f32 or f64")
        if self.eval_mask_mode not in ("expected", "sampled"):
            raise ValueError(f"unknown eval_mask_mode {self.eval_mask_mode!r}")
        for name in ("tau", "zoneout_rate", "rho"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        return self

    @property
    def dtype(self):
        return DTYPES[self.precision]

    @property
    def windows_per_chunk(self):
        return self.chunk_len // self.seq_len


@dataclass
class LogRecord:
    step: int
    train_bpc: float
    valid_bpc: float
    mean_z: float
    mean_update_rate: float
    wall_ms: float

    def line(self):
        return (f"{self.step}\t{self.train_bpc:.6f}\t{self.valid_bpc:.6f}"
                f"\t{self.mean_z:.6f}\t{self.mean_update_rate:.6f}\t{self.wall_ms:.1f}")


@dataclass
class TrainResult:
    params: ModelParams
    opt: AdadeltaState
    records: list
    losses: list           # per-window mean loss in nats, one entry per step
    step: int


def sample_training_chunks(corpus, cfg, rng):
    """Uniform random chunk start offsets inside the training split, one per lane.

    Each chunk provides chunk_len inputs plus one trailing symbol for the
    final target.
    """
    limit = corpus.train_end - cfg.chunk_len
    if limit < 1:
        raise ValueError(
            f"training split ({corpus.train_end} symbols) shorter than "
            f"chunk_len + 1 ({cfg.chunk_len + 1})"
        )
    return rng.integers(0, limit, size=cfg.batch_size)


def run_tbptt_window(states, symbols, params, rng, grads):
    """One truncated-BPTT window: run_lanes with sampled masks keeping every
    step's cache, then a reverse sweep.

    symbols is the window's (seq_len + 1, batch) index array; step t reads
    row t and is scored against row t + 1. states None starts fresh lanes.
    Gradients accumulate into grads; the returned states carry no gradient
    across the boundary. Returns (states, loss_nats, mean_z,
    mean_update_rate): the loss averaged per symbol, and the update
    probability and realized mask averaged over every step, lane and cell.
    """
    caches = []
    state, total = run_lanes(params, symbols, states, rng, on_step=caches.append)
    z_sum = mask_sum = 0.0
    for cache in caches:
        z_sum += float(cache.z.sum())
        mask_sum += float(cache.mask.sum())
    count = len(caches) * caches[0].z.size
    backward_window(caches, params, symbols, grads)
    return state, total / len(caches), z_sum / count, mask_sum / count


def evaluate_bpc(params, split, cfg, lanes=1):
    """Frozen-weight pass over a split; returns mean bits per character.

    With lanes=1 this is a strict single sequential pass with state carried
    the whole way. lanes>1 cuts the split into that many contiguous segments
    scored in parallel (each segment still sequential), which changes nothing
    but the handful of fresh-state boundaries. Surprisal feedback only ever
    sees symbols already scored. Parameters are never written.
    """
    split = np.asarray(split)
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes}")
    seg = len(split) // lanes
    if seg < 2:
        raise ValueError(f"split of {len(split)} symbols is too short for {lanes} lanes")
    # (seg, lanes): row t holds every lane's t-th symbol
    symbols = np.ascontiguousarray(split[: seg * lanes].reshape(lanes, seg).T)
    rng = RngState(cfg.seed).fork(STREAM_EVAL)
    _, total = run_lanes(params, symbols, None, rng, cfg.eval_mask_mode)
    return cross_entropy_bpc(total / (seg - 1))


def init_model(corpus, cfg):
    """Fresh Xavier-initialized parameters and optimizer state for a corpus."""
    params = ModelParams.zeros(corpus.vocab_size, cfg.hidden, variant=cfg.variant,
                               tau=cfg.tau, zoneout_rate=cfg.zoneout_rate,
                               dtype=cfg.dtype)
    xavier_init(params, RngState(cfg.seed).fork(STREAM_INIT))
    opt = AdadeltaState(params, rho=cfg.rho, eps=cfg.eps, lr=cfg.lr)
    return params, opt


def train(cfg, corpus, log_path=None, ckpt_path=None, resume=None, quiet=True):
    """Training driver; returns a TrainResult.

    Emits one LogRecord per val_interval optimizer steps (plus one at step 0)
    and appends the tab-separated line to log_path when given. ckpt_path,
    when given, is rewritten at every chunk boundary and once at the end.
    resume takes a Checkpoint and continues it, bit-exactly when it was
    written at a chunk boundary and from a fresh chunk otherwise. It raises
    ValueError naming every RESUME_FIELDS entry in which cfg differs from the
    checkpoint, if the corpus vocabulary is not the checkpoint's, and if the
    checkpoint lacks the data and mask rng streams, all before any write.
    """
    cfg.validate()
    if resume is not None:
        corpus.check_vocab(resume.vocab)
        params = resume.params
        opt = resume.opt
        # the parameters themselves say hidden and variant; the config echo
        # says the rest, as far as the checkpoint recorded it
        saved = dict(resume.config, hidden=params.hidden_size, variant=params.variant)
        changed = [f"{k} (checkpoint {saved[k]!r}, config {getattr(cfg, k)!r})"
                   for k in RESUME_FIELDS if k in saved and saved[k] != getattr(cfg, k)]
        if changed:
            raise ValueError("checkpoint does not match config: " + ", ".join(changed))
        if not {"data", "mask"} <= resume.rng.keys():
            raise ValueError("checkpoint lacks the data and mask rng streams a resume replays")
        rng_data = RngState(*resume.rng["data"])
        rng_mask = RngState(*resume.rng["mask"])
        step = resume.step
    else:
        params, opt = init_model(corpus, cfg)
        rng_data = RngState(cfg.seed).fork(STREAM_DATA)
        rng_mask = RngState(cfg.seed).fork(STREAM_MASK)
        step = 0

    grads = GradientSet.zeros_like(params)
    records = []
    losses = []
    t_start = time.monotonic()

    valid = corpus.split("valid")
    val_prefix = valid[: cfg.val_prefix]
    val_lanes = cfg.val_lanes or cfg.batch_size
    val_lanes = max(1, min(val_lanes, len(val_prefix) // 2))

    def emit(step, train_bpc, z_sum, mask_sum, n_sym):
        valid_bpc = evaluate_bpc(params, val_prefix, cfg, lanes=val_lanes)
        rec = LogRecord(
            step=step,
            train_bpc=train_bpc,
            valid_bpc=float(valid_bpc),
            mean_z=z_sum / n_sym if n_sym else float("nan"),
            mean_update_rate=mask_sum / n_sym if n_sym else float("nan"),
            wall_ms=(time.monotonic() - t_start) * 1e3,
        )
        records.append(rec)
        if log_path:
            fresh = not os.path.exists(log_path)
            with open(log_path, "a") as fh:
                if fresh:
                    fh.write(LOG_HEADER + "\n")
                fh.write(rec.line() + "\n")
        if not quiet:
            print(rec.line(), flush=True)
        return rec

    def save(path):
        if path:
            save_checkpoint(path, params, opt, cfg, corpus.vocab, step,
                            rng={"data": rng_data.state(), "mask": rng_mask.state()})

    emit(step, float("nan"), 0.0, 0.0, 0)

    window_index = cfg.windows_per_chunk   # the first step starts a chunk
    interval_nats = []
    z_sum = mask_sum = 0.0
    n_sym = 0

    while step < cfg.steps:
        if window_index == cfg.windows_per_chunk:
            # chunk boundary; the checkpoint written here resumes bit-exactly
            save(ckpt_path)
            offsets = sample_training_chunks(corpus, cfg, rng_data)
            states = None   # fresh lanes
            window_index = 0
        base = offsets + window_index * cfg.seq_len
        # (seq_len + 1, batch): each lane's window inputs plus its final target
        symbols = corpus.encoded[base[None, :] + np.arange(cfg.seq_len + 1)[:, None]]

        grads.flat.fill(0.0)
        states, loss_nats, mean_z, mean_rate = run_tbptt_window(states, symbols, params,
                                                                rng_mask, grads)
        if not np.isfinite(loss_nats):
            raise NumericalError(
                f"non-finite loss at step {step + 1} "
                f"(chunk offsets {offsets.tolist()}, window {window_index}); "
                f"grad norm {grads.global_norm():.3e}"
            )
        losses.append(loss_nats)
        interval_nats.append(loss_nats)
        z_sum += mean_z
        mask_sum += mean_rate
        n_sym += 1

        clip_gradients(grads, cfg.clip_norm)
        adadelta_step(params, grads, opt)
        step += 1
        window_index += 1

        if step % cfg.val_interval == 0 or step == cfg.steps:
            train_bpc = cross_entropy_bpc(float(np.mean(interval_nats)))
            emit(step, train_bpc, z_sum, mask_sum, n_sym)
            interval_nats = []
            z_sum = mask_sum = 0.0
            n_sym = 0

    save(ckpt_path)
    return TrainResult(params=params, opt=opt, records=records, losses=losses, step=step)


@dataclass
class Checkpoint:
    params: ModelParams
    opt: AdadeltaState
    config: dict
    vocab: np.ndarray
    step: int
    rng: dict


def save_checkpoint(path, params, opt, cfg, vocab, step, rng=None):
    """Write the checkpoint format above as "Checkpoint saves" describes."""
    header = {
        "step": int(step),
        "precision": "f64" if params.dtype == np.float64 else "f32",
        "hidden": int(params.hidden_size),
        "vocab_size": int(params.vocab_size),
        "vocab": [int(v) for v in vocab],
        "variant": params.variant,
        "tau": params.tau,
        "zoneout_rate": params.zoneout_rate,
        "rho": opt.rho,
        "eps": opt.eps,
        "lr": opt.lr,
        "rng": {k: list(v) for k, v in (rng or {}).items()},
        "config": asdict(cfg) if isinstance(cfg, TrainConfig) else dict(cfg or {}),
    }
    blob = json.dumps(header).encode("utf-8")
    dtype_le = "<f8" if params.dtype == np.float64 else "<f4"
    path = os.path.realpath(path)   # a symlinked path keeps its link
    spare, old = path + ".spare", path + ".old"
    previous = os.path.exists(path)
    with open(spare, "r+b" if os.path.exists(spare) else "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(np.array([CHECKPOINT_VERSION], dtype="<u4").tobytes())
        fh.write(np.array([len(blob)], dtype="<u8").tobytes())
        fh.write(blob)
        for buffer in (params, opt.eg2, opt.edx2):
            fh.write(np.ascontiguousarray(buffer.flat, dtype=dtype_le))
        fh.truncate()
    if os.path.lexists(old):
        os.unlink(old)   # left by a save interrupted between its renames
    if previous:
        os.chmod(spare, os.stat(path).st_mode & 0o7777)   # the spare takes PATH's place
        try:
            os.link(path, old)
        except OSError as err:   # no hard links here: replace PATH, keep no spare
            if err.errno not in (errno.EPERM, errno.ENOTSUP, errno.EOPNOTSUPP, errno.EXDEV):
                raise
            previous = False
    os.replace(spare, path)
    if previous:
        os.replace(old, spare)


def load_checkpoint(path):
    """Read a checkpoint's three array sections with one readinto into one
    buffer, which parameters and accumulators view; bad magic, version, missing
    header fields, truncation and trailing bytes all hard-fail."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n, what):
            chunk = fh.read(n)
            if len(chunk) != n:
                raise ValueError(f"truncated checkpoint {path}: short read in {what}")
            return chunk

        if take(4, "magic") != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint (bad magic)")
        version = int(np.frombuffer(take(4, "version"), dtype="<u4")[0])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        hlen = int(np.frombuffer(take(8, "header length"), dtype="<u8")[0])
        header = json.loads(take(hlen, "header").decode("utf-8"))
        missing = [k for k in HEADER_FIELDS if k not in header]
        if missing:
            raise ValueError(f"checkpoint {path} header lacks {', '.join(missing)}")

        dtype = DTYPES[header["precision"]]
        vocab_size, hidden = header["vocab_size"], header["hidden"]
        count = block_layout(vocab_size, hidden)["b_y"][1]
        arrays = np.empty(3 * count, dtype="<f8" if dtype == np.float64 else "<f4")
        left = size - fh.tell()
        if left < arrays.nbytes or fh.readinto(arrays) != arrays.nbytes:
            raise ValueError(f"truncated checkpoint {path}: short read in arrays")
        if left > arrays.nbytes:
            raise ValueError(f"checkpoint {path} has {left - arrays.nbytes} trailing bytes")

    arrays = arrays.astype(dtype, copy=False)
    params = ModelParams(arrays[:count], vocab_size, hidden, variant=header["variant"],
                         tau=header["tau"], zoneout_rate=header["zoneout_rate"])
    accumulators = (GradientSet(arrays[count: 2 * count], vocab_size, hidden),
                    GradientSet(arrays[2 * count:], vocab_size, hidden))
    opt = AdadeltaState(params, rho=header["rho"], eps=header["eps"], lr=header["lr"],
                        accumulators=accumulators)

    return Checkpoint(
        params=params,
        opt=opt,
        config=header.get("config", {}),
        vocab=np.array(header["vocab"], dtype=np.uint8),
        step=int(header["step"]),
        rng={k: tuple(v) for k, v in header.get("rng", {}).items()},
    )
