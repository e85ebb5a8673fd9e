"""Command-line entry point.

Subcommands: train, eval, gradcheck, trace, sample. Exit codes: 0 success,
1 usage error, 2 numerical failure (non-finite loss, failed gradient check),
3 I/O error. Bad input of any kind, flags and config files alike, raises
ValueError where its value is checked; dispatch turns it into exit 1. A
setting's text, from a flag or a config line, goes through parse_setting
and then TrainConfig.validate, so one bad text gets one message.
"""

import argparse
import codecs
import os
import sys

import numpy as np

from . import gradcheck as gradcheck_mod
from .cell import MASK_MODES, VARIANTS, check_integer, require, run_lanes
from .numerics import DTYPES, NumericalError, RngState, softmax_rows
from .trace import export_cell_change, export_gate_map, trace_stream
from .training import (
    SPLITS,
    STREAM_SAMPLE,
    TrainConfig,
    encode_bytes,
    evaluate_bpc,
    load_checkpoint,
    load_corpus,
    train,
)


def parse_setting(key, text):
    """text as the type of TrainConfig field key, such as int("8"): the one
    conversion of flags and config lines alike. Text that does not parse
    stays text, for TrainConfig.validate to refuse with its rule."""
    try:
        return TrainConfig.__annotations__[key](text)
    except ValueError:
        return text


def read_config_file(path):
    """Flat UTF-8 key=value config, each key at most once; '#' starts a
    comment, blanks are ignored and a leading byte-order mark is dropped.
    Each value goes through parse_setting."""
    values, lines = {}, {}
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    for lineno, line in enumerate(data.splitlines(), 1):
        try:
            line = line.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}:{lineno}: byte 0x{line[err.start]:02x} is not UTF-8")
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in TrainConfig.__annotations__:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in lines:
            raise ValueError(f"{path}:{lineno}: {key} is already set on line {lines[key]}")
        lines[key] = lineno
        values[key] = parse_setting(key, value)
    return values


# (flag, TrainConfig field, help): the settings eval takes, then the ones
# only train takes; each help ends with the field's default
EVAL_FLAGS = (
    ("--seed", "seed", "rng seed"),
    ("--mask-mode", "eval_mask_mode", f"evaluation mask convention: {' | '.join(MASK_MODES)}"),
)
MODEL_FLAGS = (
    ("--variant", "variant", " | ".join(VARIANTS)),
    ("--tau", "tau", "minimum update probability of the adaptive variant"),
    ("--zoneout-rate", "zoneout_rate", "constant update probability of fixed_zoneout"),
    ("--hidden", "hidden", "memory cells"),
    ("--batch", "batch_size", "batch lanes"),
    ("--seq-len", "seq_len", "BPTT window length"),
    ("--chunk-len", "chunk_len", "symbols per sampled chunk"),
    ("--steps", "steps", "total optimizer steps"),
    ("--precision", "precision", f"float width: {' | '.join(DTYPES)}"),
    ("--lr", "lr", "Adadelta step scale; desk-scale runs want 1.0"),
)


def _add_setting_flags(p, flags):
    for flag, dest, text in flags:
        p.add_argument(flag, dest=dest, default=None,
                       help=f"{text} (default {getattr(TrainConfig, dest)})")
    p.add_argument("--config", default=None, help="key=value config file; flags override it")


def build_config(args):
    """TrainConfig from the --config file's values, each overridden by the
    flag of its field when args sets it; flag text goes through
    parse_setting as config lines do. The file may set only the
    subcommand's config_keys."""
    values = read_config_file(args.config) if args.config else {}
    for key in values:
        if key not in args.config_keys:
            raise ValueError(f"{args.config}: {args.command} takes only "
                             f"{' and '.join(args.config_keys)} from a config file, "
                             f"not {key!r}")
    values.update((key, parse_setting(key, text)) for key, text in vars(args).items()
                  if key in TrainConfig.__annotations__ and text is not None)
    return TrainConfig(**values).validate()


def cmd_train(args):
    cfg = build_config(args)
    corpus = load_corpus(args.corpus)
    log_path = os.path.join(args.run_dir, f"{args.run_id}.log")
    ckpt_path = os.path.join(args.run_dir, f"{args.run_id}.ckpt")
    resume = load_checkpoint(args.resume) if args.resume else None
    result = train(cfg, corpus, log_path=log_path, ckpt_path=ckpt_path,
                   resume=resume, quiet=False)
    print(f"done: step {result.step}, checkpoint {ckpt_path}")
    return 0


def _load_model_and_corpus(args):
    """The checkpoint and corpus named by args; their vocabularies must match."""
    ckpt = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.corpus)
    corpus.check_vocab(ckpt.vocab)
    return ckpt, corpus


def cmd_eval(args):
    cfg = build_config(args)
    ckpt, corpus = _load_model_and_corpus(args)
    bpc = evaluate_bpc(ckpt.params, corpus.split(args.split), cfg, lanes=args.lanes)
    if not np.isfinite(bpc):
        raise NumericalError(f"non-finite {args.split} loss ({bpc})")
    print(f"{args.split}_bpc\t{bpc:.6f}")
    return 0


def cmd_gradcheck(args):
    require("--threshold", args.threshold, args.threshold > 0, "be positive")
    seed, failed = parse_setting("seed", args.seed), False
    for variant in VARIANTS:
        report = gradcheck_mod.tiny_window_check(variant, seed=seed, eps=args.eps)
        ok = report.passed(args.threshold)
        failed = failed or not ok
        print(f"# variant={variant} max_rel_err={report.max_rel_err:.3e} "
              f"{'PASS' if ok else 'FAIL'}")
        print(report.format_table())
    if failed:
        raise NumericalError("gradient check failed")
    return 0


def cmd_trace(args):
    ckpt, corpus = _load_model_and_corpus(args)
    split = corpus.split(args.split)
    if args.offset < 0 or args.offset + args.window + 1 > len(split):
        raise ValueError(f"offset {args.offset} + window {args.window} does not fit in "
                         f"split of {len(split)} symbols")
    stream = split[args.offset: args.offset + args.window + 1]
    buffer = trace_stream(ckpt.params, stream, window=args.window,
                          mask_mode=args.mask_mode, seed=parse_setting("seed", args.seed))
    if not np.isfinite(buffer.arena.p).all():
        raise NumericalError("non-finite outputs in the traced window")
    os.makedirs(args.out_dir, exist_ok=True)
    gates = os.path.join(args.out_dir, f"{args.run_id}_gates.csv")
    cells = os.path.join(args.out_dir, f"{args.run_id}_cellchange.csv")
    export_gate_map(buffer, gates)
    export_cell_change(buffer, cells)
    print(f"wrote {gates}")
    print(f"wrote {cells}")
    return 0


def cmd_sample(args):
    seed = check_integer("seed", parse_setting("seed", args.seed), 0)
    ckpt = load_checkpoint(args.checkpoint)
    params, vocab = ckpt.params, ckpt.vocab
    prompt = args.prompt.encode("utf-8")
    require("--prompt", args.prompt, prompt, "not be empty")
    prompt_idx = encode_bytes(vocab, prompt)
    require("--temperature", args.temperature, args.temperature > 0, "be positive")
    require("--length", args.length, args.length >= 0, "be nonnegative")

    rng = RngState(seed).fork(STREAM_SAMPLE)
    # one walk over the prompt's rows, then the rows generation fills in
    n = len(prompt_idx)
    try:
        symbols = np.empty((n + args.length, 1), dtype=np.intp)
    except (MemoryError, ValueError):   # ValueError: a size past numpy's largest array
        raise ValueError(f"--length {args.length} is more than memory can hold")
    symbols[:n, 0] = prompt_idx

    def choose(t, y, p):
        if t + 1 < n:
            return symbols[t + 1]
        # y / 1.0 == y bit for bit, so temperature 1 draws from the step's own p
        if args.temperature != 1.0:
            p = softmax_rows(y / args.temperature)
        u = float(rng.uniform((1,))[0])
        return min(int(np.searchsorted(np.cumsum(p[0]), u, side="right")),
                   params.vocab_size - 1)

    _, loss = run_lanes(params, symbols, None, rng, "expected", choose=choose)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss ({loss}) over the prompt and sample")
    text = vocab[symbols[n:, 0]].tobytes().decode("utf-8", "replace")
    sys.stdout.write(args.prompt + text + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="szlstm",
        description="Character-level LSTM language modeling with surprisal-driven "
                    "adaptive zoneout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a byte corpus")
    p.add_argument("corpus", help="path to the corpus file")
    p.add_argument("--run-dir", default="runs", help="directory for logs and checkpoints")
    p.add_argument("--run-id", default="run", help="basename for log and checkpoint files")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    _add_setting_flags(p, EVAL_FLAGS + MODEL_FLAGS)
    p.set_defaults(func=cmd_train, config_keys=tuple(TrainConfig.__annotations__))

    p = sub.add_parser("eval", help="score a checkpoint on a corpus split")
    p.add_argument("checkpoint")
    p.add_argument("corpus")
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--lanes", type=int, default=1,
                   help="parallel contiguous segments (1 = strict sequential pass)")
    # the model itself comes from the checkpoint
    _add_setting_flags(p, EVAL_FLAGS)
    p.set_defaults(func=cmd_eval, config_keys=tuple(field for _, field, _ in EVAL_FLAGS))

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    p.add_argument("--eps", type=float, default=gradcheck_mod.DEFAULT_EPS)
    p.add_argument("--threshold", type=float, default=gradcheck_mod.PASS_THRESHOLD)
    p.add_argument("--seed", default=gradcheck_mod.DEFAULT_SEED)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("trace", help="export gate/cell activity CSVs for a stream")
    p.add_argument("checkpoint")
    p.add_argument("corpus")
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--offset", type=int, default=0, help="start position inside the split")
    p.add_argument("--window", type=int, default=100, help="steps to record")
    p.add_argument("--out-dir", default=".", help="directory for the CSV files")
    p.add_argument("--run-id", default="trace")
    p.add_argument("--mask-mode", choices=MASK_MODES, default="sampled")
    p.add_argument("--seed", default=0)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("sample", help="generate text from a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--prompt", required=True, help="seed text, must use corpus bytes")
    p.add_argument("--length", type=int, default=200)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", default=0)
    p.set_defaults(func=cmd_sample)

    return parser


def dispatch(argv):
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints usage itself; fold its exit codes into ours
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
