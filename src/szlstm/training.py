"""Corpus handling, truncated-BPTT training, evaluation and checkpointing.

A corpus is any byte file. The first 90% is the training split, the next 5%
validation, the rest test. Training is one loop over chunks: each pass
samples a batch of random long chunks from the training split, walks them in
seq_len windows with state carried across window boundaries (gradients
truncated at them), and applies one clipped Adadelta update per window.

Checkpoint format (version 2), all integers and floats little-endian:

    bytes 0..3   magic "SZO1"
    bytes 4..7   uint32 format version
    bytes 8..15  uint64 JSON header length
    header       UTF-8 JSON object: step, vocab (byte values), rng (stream
                 states) and config (every TrainConfig field, with the model's
                 and optimizer's own model_settings in place of the caller's)
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
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .cell import (
    MASK_MODES,
    VARIANTS,
    GradientSet,
    ModelParams,
    RecurrentState,
    WindowArena,
    backward_window,
    block_layout,
    check_choice,
    check_integer,
    cross_entropy_bpc,
    is_number,
    require,
    run_lanes,
)
from .numerics import DTYPES, NumericalError, RngState
from .optim import AdadeltaState, adadelta_step, clip_gradients, xavier_init

CHECKPOINT_MAGIC = b"SZO1"
CHECKPOINT_VERSION = 2

# rng stream tags; forked off the config seed
STREAM_INIT = 1
STREAM_DATA = 2
STREAM_MASK = 3
STREAM_EVAL = 4
STREAM_SAMPLE = 5

SPLITS = ("train", "valid", "test")

LOG_HEADER = "step\ttrain_bpc\tvalid_bpc\tmean_z\tmean_update_rate\twall_ms"

# config fields a bit-exact resume depends on; steps and the validation-only
# fields may change between the run that wrote a checkpoint and its resume
RESUME_FIELDS = ("hidden", "variant", "batch_size", "seq_len", "chunk_len", "seed",
                 "precision", "lr", "rho", "eps", "clip_norm", "tau", "zoneout_rate")

# the checkpoint header's keys, in the order saves write them
HEADER_FIELDS = ("step", "vocab", "rng", "config")


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
        a, b = {"train": (0, self.train_end), "valid": (self.train_end, self.valid_end),
                "test": (self.valid_end, None)}[check_choice("split", name, SPLITS)]
        return self.encoded[a:b]

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
        """Return self if every field keeps its rule below, else raise
        ValueError "<name> must <rule>, got <value!r>" for the first that does
        not. The rules are type-strict (a bool or a string is no number), and
        they are the only check of CLI flags, config files and checkpoint
        headers alike."""
        for name in ("seq_len", "batch_size", "chunk_len", "hidden", "val_interval",
                     "val_prefix"):
            check_integer(name, getattr(self, name), 1)
        for name in ("steps", "val_lanes", "seed"):
            check_integer(name, getattr(self, name), 0)
        require("chunk_len", self.chunk_len, self.chunk_len % self.seq_len == 0,
                f"be divisible by seq_len ({self.seq_len})")
        for name in ("tau", "zoneout_rate", "rho"):
            value = getattr(self, name)
            require(name, value, is_number(value) and 0 <= value <= 1, "lie in [0, 1]")
        for name in ("lr", "eps"):
            value = getattr(self, name)
            require(name, value, is_number(value) and 0 < value <= sys.float_info.max,
                    "be a finite number > 0")
        require("clip_norm", self.clip_norm, is_number(self.clip_norm) and self.clip_norm > 0,
                "be a number > 0")
        check_choice("variant", self.variant, VARIANTS)
        check_choice("precision", self.precision, tuple(DTYPES))
        check_choice("eval_mask_mode", self.eval_mask_mode, MASK_MODES)
        return self

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


def chunk_starts(corpus, cfg):
    """How many chunk start offsets the training split has room for; raises
    ValueError if it has none. Each chunk provides chunk_len inputs plus one
    trailing symbol for the final target."""
    limit = corpus.train_end - cfg.chunk_len
    if limit < 1:
        raise ValueError(f"training split ({corpus.train_end} symbols) shorter than "
                         f"chunk_len + 1 ({cfg.chunk_len + 1})")
    return limit


def sample_training_chunks(corpus, cfg, rng):
    """Uniform random chunk start offsets inside the training split, one per
    lane (see chunk_starts)."""
    return rng.integers(0, chunk_starts(corpus, cfg), size=cfg.batch_size)


def run_tbptt_window(states, symbols, params, rng, grads, arena):
    """One truncated-BPTT window: run_lanes with sampled masks writing every
    step into arena, then a reverse sweep that consumes it.

    symbols is the window's (seq_len + 1, batch) index array; step t reads
    row t and is scored against row t + 1; arena has the window's shape.
    states None starts fresh lanes; states is never written. Gradients
    accumulate into grads. The returned states are copies sharing no memory
    with arena, which the sweep overwrites. Returns (states, loss_nats,
    mean_z, mean_update_rate): the loss averaged per symbol, and the update
    probability and realized mask averaged over every step, lane and cell.
    """
    state, total = run_lanes(params, symbols, states, rng, arena=arena)
    state = RecurrentState(state.c.copy(), state.h.copy(), state.p_prev.copy())
    z_sum = mask_sum = 0.0
    for z, mask in zip(arena.z, arena.mask):
        z_sum += float(z.sum())
        mask_sum += float(mask.sum())
    backward_window(arena, params, symbols, grads)
    return state, total / len(arena.p), z_sum / arena.z.size, mask_sum / arena.z.size


def evaluate_bpc(params, split, cfg, lanes=1):
    """Frozen-weight pass over a split; returns mean bits per character.

    With lanes=1 this is a strict single sequential pass with state carried
    the whole way. lanes>1 cuts the split into that many contiguous segments
    scored in parallel (each segment still sequential), which changes nothing
    but the handful of fresh-state boundaries. Surprisal feedback only ever
    sees symbols already scored. Parameters are never written.
    """
    split = np.asarray(split)
    check_integer("lanes", lanes, 1)
    seg = len(split) // lanes
    if seg < 2:
        raise ValueError(f"split of {len(split)} symbols is too short for {lanes} lanes")
    # (seg, lanes): row t holds every lane's t-th symbol
    symbols = np.ascontiguousarray(split[: seg * lanes].reshape(lanes, seg).T)
    rng = RngState(cfg.seed).fork(STREAM_EVAL)
    _, total = run_lanes(params, symbols, None, rng, cfg.eval_mask_mode)
    return cross_entropy_bpc(total / (seg - 1))


def model_settings(params, opt):
    """The TrainConfig fields a model and its optimizer hold themselves."""
    return {"precision": {d: k for k, d in DTYPES.items()}[params.dtype],
            "hidden": int(params.hidden_size), "variant": params.variant, "tau": params.tau,
            "zoneout_rate": params.zoneout_rate, "rho": opt.rho, "eps": opt.eps, "lr": opt.lr}


def init_model(corpus, cfg):
    """Fresh Xavier-initialized parameters and optimizer state for a corpus."""
    params = ModelParams.zeros(corpus.vocab_size, cfg)
    xavier_init(params, RngState(cfg.seed).fork(STREAM_INIT))
    return params, AdadeltaState(params, cfg)


def train(cfg, corpus, log_path=None, ckpt_path=None, resume=None, quiet=True):
    """Training driver; returns a TrainResult.

    One loop over chunks until cfg.steps: each pass rewrites ckpt_path (when
    given), samples offsets, starts fresh lanes and runs up to
    windows_per_chunk windows, one optimizer step each; ckpt_path is rewritten
    once more at the end. A LogRecord averaging the steps since the previous
    one (nan for the first) is emitted at the first step, every val_interval-th
    and the last, and its line appended to log_path when given. resume takes a
    Checkpoint and continues it, bit-exactly when it was written at a chunk
    boundary and from a fresh chunk otherwise. Before any write, train raises
    ValueError: if cfg fails TrainConfig.validate; if the training split is
    too short for chunk_len, or val_prefix of the validation split for a
    score; naming each RESUME_FIELDS entry in which cfg differs from the
    checkpoint's config; if the corpus vocabulary is not the checkpoint's; if
    the checkpoint lacks the data and mask rng streams; and if the model and
    its window arrays cannot be allocated. Only then does it create the
    directories of log_path and ckpt_path.
    """
    cfg.validate()
    chunk_starts(corpus, cfg)
    valid = corpus.split("valid")
    val_prefix = valid[: cfg.val_prefix]
    if len(val_prefix) < 2:
        raise ValueError(f"validation split ({len(valid)} symbols, val_prefix {cfg.val_prefix}) "
                         f"shorter than the 2 symbols a validation score needs")
    val_lanes = max(1, min(cfg.val_lanes or cfg.batch_size, len(val_prefix) // 2))
    if resume is not None:
        corpus.check_vocab(resume.vocab)
        changed = [f"{k} (checkpoint {getattr(resume.config, k)!r}, config {getattr(cfg, k)!r})"
                   for k in RESUME_FIELDS if getattr(resume.config, k) != getattr(cfg, k)]
        if changed:
            raise ValueError("checkpoint does not match config: " + ", ".join(changed))
        if not {"data", "mask"} <= resume.rng.keys():
            raise ValueError("checkpoint lacks the data and mask rng streams a resume replays")
        rng_data, rng_mask = (RngState(*resume.rng[k]) for k in ("data", "mask"))
        step = resume.step
    else:
        rng_data = RngState(cfg.seed).fork(STREAM_DATA)
        rng_mask = RngState(cfg.seed).fork(STREAM_MASK)
        step = 0
    try:
        params, opt = ((resume.params, resume.opt) if resume is not None
                       else init_model(corpus, cfg))
        grads = GradientSet.zeros_like(params)
        arena = WindowArena(params, cfg.seq_len, cfg.batch_size)
    except (MemoryError, ValueError):   # ValueError: a size past numpy's largest array
        raise ValueError(f"hidden {cfg.hidden}, batch_size {cfg.batch_size} and seq_len "
                         f"{cfg.seq_len} need more memory than there is")
    for path in filter(None, (log_path, ckpt_path)):
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    records = []
    losses, zs, rates = [], [], []   # per step: loss, mean z, mean update rate
    t_start = time.monotonic()

    def emit():
        n = step - records[-1].step if records else 0   # steps since the last record
        rec = LogRecord(
            step=step,
            train_bpc=cross_entropy_bpc(float(np.mean(losses[-n:]))) if n else float("nan"),
            valid_bpc=float(evaluate_bpc(params, val_prefix, cfg, lanes=val_lanes)),
            mean_z=sum(zs[-n:]) / n if n else float("nan"),
            mean_update_rate=sum(rates[-n:]) / n if n else float("nan"),
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

    def save(path):
        if path:
            save_checkpoint(path, params, opt, cfg, corpus.vocab, step,
                            rng={"data": rng_data.state(), "mask": rng_mask.state()})

    emit()
    while step < cfg.steps:
        # chunk boundary; the checkpoint written here resumes bit-exactly
        save(ckpt_path)
        offsets = sample_training_chunks(corpus, cfg, rng_data)
        states = None   # fresh lanes
        for window in range(min(cfg.windows_per_chunk, cfg.steps - step)):
            base = offsets + window * cfg.seq_len
            # (seq_len + 1, batch): each lane's window inputs plus its final target
            symbols = corpus.encoded[base[None, :] + np.arange(cfg.seq_len + 1)[:, None]]

            grads.flat.fill(0.0)
            states, loss_nats, mean_z, mean_rate = run_tbptt_window(states, symbols, params,
                                                                    rng_mask, grads, arena)
            if not np.isfinite(loss_nats):
                raise NumericalError(
                    f"non-finite loss at step {step + 1} "
                    f"(chunk offsets {offsets.tolist()}, window {window}); "
                    f"grad norm {grads.global_norm():.3e}"
                )
            losses.append(loss_nats)
            zs.append(mean_z)
            rates.append(mean_rate)

            clip_gradients(grads, cfg.clip_norm)
            adadelta_step(params, grads, opt)
            step += 1
            if step % cfg.val_interval == 0 or step == cfg.steps:
                emit()

    save(ckpt_path)
    return TrainResult(params=params, opt=opt, records=records, losses=losses, step=step)


@dataclass
class Checkpoint:
    params: ModelParams
    opt: AdadeltaState
    config: TrainConfig
    vocab: np.ndarray
    step: int
    rng: dict


def save_checkpoint(path, params, opt, cfg, vocab, step, rng=None):
    """Write the checkpoint format above, cfg a TrainConfig, as "Checkpoint saves" describes."""
    config = replace(cfg, **model_settings(params, opt)).validate()
    header = {"step": int(step), "vocab": [int(v) for v in vocab],
              "rng": {k: list(v) for k, v in (rng or {}).items()}, "config": asdict(config)}
    blob = json.dumps(header).encode("utf-8")
    path = os.path.realpath(path)   # a symlinked path keeps its link
    spare, old = path + ".spare", path + ".old"
    previous = os.path.exists(path)
    with open(spare, "r+b" if os.path.exists(spare) else "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(np.array([CHECKPOINT_VERSION], dtype="<u4").tobytes())
        fh.write(np.array([len(blob)], dtype="<u8").tobytes())
        fh.write(blob)
        for buffer in (params, opt.eg2, opt.edx2):
            fh.write(np.ascontiguousarray(buffer.flat, dtype=params.dtype))
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
    buffer, which parameters and accumulators view. Bad magic or version, a
    header that is not UTF-8 JSON (or nests too deep), is no JSON object or
    lacks a key, a malformed step, vocab (one or more bytes) or rng, a config
    not of exactly TrainConfig's fields or breaking a validate rule (each
    header message prefixed "checkpoint PATH header"), truncation (checked
    before each read or allocation) and trailing bytes all hard-fail with
    ValueError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n, what):
            if n > size - fh.tell():   # before reading (and allocating) what n claims
                raise ValueError(f"truncated checkpoint {path}: short read in {what}")
            return fh.read(n)

        if take(4, "magic") != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint (bad magic)")
        version = int(np.frombuffer(take(4, "version"), dtype="<u4")[0])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version} in {path}")
        hlen = int(np.frombuffer(take(8, "header length"), dtype="<u8")[0])
        try:
            header = json.loads(take(hlen, "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
            raise ValueError(f"checkpoint {path} header cannot be parsed: {err}") from None
        if not isinstance(header, dict):
            raise ValueError(f"checkpoint {path} header must be a JSON object")
        missing = [k for k in HEADER_FIELDS if k not in header]
        if missing:
            raise ValueError(f"checkpoint {path} header lacks {', '.join(missing)}")
        config = header["config"]
        if not isinstance(config, dict):
            raise ValueError(f"checkpoint {path} header config must be an object")
        fields = TrainConfig.__annotations__
        wrong = ([f"missing {k}" for k in fields if k not in config]
                 + [f"unknown {k!r}" for k in config if k not in fields])
        if wrong:
            raise ValueError(f"checkpoint {path} header config must hold exactly "
                             f"TrainConfig's fields: {', '.join(wrong)}")
        try:
            cfg = TrainConfig(**config).validate()
            check_integer("step", header["step"], 0)
        except ValueError as err:
            raise ValueError(f"checkpoint {path} header {err}") from None
        vocab = header["vocab"]
        if not (isinstance(vocab, list) and vocab
                and all(type(v) is int and 0 <= v <= 255 for v in vocab)):
            raise ValueError(f"checkpoint {path} header vocab must list 1 or more bytes 0..255")
        vocab_size = len(vocab)
        rng = header["rng"]
        if not (isinstance(rng, dict) and all(
                isinstance(v, list) and len(v) == 2
                and all(type(k) is int and 0 <= k < 2 ** 64 for k in v) for v in rng.values())):
            raise ValueError(f"checkpoint {path} header rng must map names to "
                             f"[seed, counter] pairs of integers in [0, 2**64)")

        dtype = DTYPES[cfg.precision]
        count = block_layout(vocab_size, cfg.hidden)["b_y"][1]
        left = size - fh.tell()
        if left < 3 * count * dtype.itemsize:   # before allocating what the header claims
            raise ValueError(f"truncated checkpoint {path}: short read in arrays")
        arrays = np.empty(3 * count, dtype=dtype)
        if fh.readinto(arrays) != arrays.nbytes:
            raise ValueError(f"truncated checkpoint {path}: short read in arrays")
        if left > arrays.nbytes:
            raise ValueError(f"checkpoint {path} has {left - arrays.nbytes} trailing bytes")

    params = ModelParams(arrays[:count], vocab_size, cfg)
    accumulators = (GradientSet(arrays[count: 2 * count], vocab_size, cfg.hidden),
                    GradientSet(arrays[2 * count:], vocab_size, cfg.hidden))
    opt = AdadeltaState(params, cfg, accumulators)

    return Checkpoint(
        params=params,
        opt=opt,
        config=cfg,
        vocab=np.array(vocab, dtype=np.uint8),
        step=int(header["step"]),
        rng={k: tuple(v) for k, v in rng.items()},
    )
