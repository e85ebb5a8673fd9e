"""Command-line entry point.

Subcommands: train, eval, gradcheck, trace, sample. Exit codes: 0 success,
1 usage error, 2 numerical failure (non-finite loss, failed gradient check),
3 I/O error. Bad input of any kind, flags and config files alike, raises
ValueError where its value is checked; dispatch turns it into exit 1.
"""

import argparse
import os
import sys

import numpy as np

from . import gradcheck as gradcheck_mod
from .cell import VARIANTS, run_lanes
from .numerics import NumericalError, RngState, softmax_rows
from .trace import export_cell_change, export_gate_map, trace_stream
from .training import (
    STREAM_SAMPLE,
    TrainConfig,
    encode_bytes,
    evaluate_bpc,
    load_checkpoint,
    load_corpus,
    train,
)


def parse_variant(text):
    """Accept standard | sf | fixed:RATE | adaptive (RATE becomes zoneout_rate)."""
    if text in ("standard", "sf", "adaptive"):
        return text, None
    if text.startswith("fixed:"):
        try:
            return "fixed_zoneout", float(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"--variant fixed:RATE needs a number, got {text!r}")
    raise ValueError(
        f"unknown --variant {text!r}; expected standard, sf, fixed:RATE or adaptive"
    )


def read_config_file(path):
    """Flat key=value config; '#' starts a comment, blanks ignored."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            typ = TrainConfig.__annotations__.get(key)
            if typ is None:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = typ(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r}")
    return values


def _add_eval_flags(p):
    p.add_argument("--seed", type=int, default=None, help="rng seed (default 0)")
    p.add_argument("--mask-mode", dest="eval_mask_mode", choices=("expected", "sampled"),
                   default=None, help="evaluation mask convention (default expected)")
    p.add_argument("--config", default=None, help="key=value config file; flags override it")


def _add_model_flags(p):
    _add_eval_flags(p)
    p.add_argument("--variant", default=None,
                   help="standard | sf | fixed:RATE | adaptive (default adaptive)")
    p.add_argument("--tau", type=float, default=None,
                   help="minimum update probability of the adaptive variant")
    p.add_argument("--hidden", type=int, default=None, help="memory cells (default 256)")
    p.add_argument("--batch", dest="batch_size", type=int, default=None,
                   help="batch lanes (default 128)")
    p.add_argument("--seq-len", type=int, default=None, help="BPTT window length (default 100)")
    p.add_argument("--chunk-len", type=int, default=None,
                   help="symbols per sampled chunk (default 10000)")
    p.add_argument("--steps", type=int, default=None, help="total optimizer steps")
    p.add_argument("--precision", choices=("f32", "f64"), default=None)
    p.add_argument("--lr", type=float, default=None,
                   help="Adadelta step scale (default 0.001; desk-scale runs want 1.0)")


def build_config(args):
    """TrainConfig from the --config file's values, overridden by every flag
    args sets: each config flag's dest is its TrainConfig field. The file
    may set only the subcommand's config_keys."""
    values = read_config_file(args.config) if args.config else {}
    for key in values:
        if key not in args.config_keys:
            raise ValueError(f"{args.config}: {args.command} takes only "
                             f"{' and '.join(args.config_keys)} from a config file, "
                             f"not {key!r}")
    values.update((key, val) for key, val in vars(args).items()
                  if key in TrainConfig.__annotations__ and val is not None)
    if "variant" in values:
        values["variant"], rate = parse_variant(values["variant"])
        if rate is not None:
            values["zoneout_rate"] = rate
    return TrainConfig(**values).validate()


def cmd_train(args):
    cfg = build_config(args)
    corpus = load_corpus(args.corpus)
    os.makedirs(args.run_dir, exist_ok=True)
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
    print(f"{args.split}_bpc\t{bpc:.6f}")
    return 0


def cmd_gradcheck(args):
    failed = False
    for variant in VARIANTS:
        report = gradcheck_mod.tiny_window_check(variant, seed=args.seed, eps=args.eps)
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
        raise ValueError(
            f"offset {args.offset} + window {args.window} does not fit in "
            f"split of {len(split)} symbols"
        )
    stream = split[args.offset: args.offset + args.window + 1]
    buffer = trace_stream(ckpt.params, stream, window=args.window,
                          mask_mode=args.mask_mode, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    gates = os.path.join(args.out_dir, f"{args.run_id}_gates.csv")
    cells = os.path.join(args.out_dir, f"{args.run_id}_cellchange.csv")
    export_gate_map(buffer, gates)
    export_cell_change(buffer, cells)
    print(f"wrote {gates}")
    print(f"wrote {cells}")
    return 0


def cmd_sample(args):
    ckpt = load_checkpoint(args.checkpoint)
    params = ckpt.params
    vocab = ckpt.vocab
    prompt = args.prompt.encode("utf-8")
    if not prompt:
        raise ValueError("--prompt must not be empty")
    prompt_idx = encode_bytes(vocab, prompt)
    if not args.temperature > 0:
        raise ValueError(f"--temperature must be positive, got {args.temperature}")
    if args.length < 0:
        raise ValueError(f"--length must be nonnegative, got {args.length}")

    rng = RngState(args.seed).fork(STREAM_SAMPLE)
    # one walk over the prompt's rows, then the rows generation fills in
    n = len(prompt_idx)
    symbols = np.empty((n + args.length, 1), dtype=np.intp)
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

    run_lanes(params, symbols, None, rng, "expected", choose=choose)
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
    _add_model_flags(p)
    p.set_defaults(func=cmd_train, config_keys=tuple(TrainConfig.__annotations__))

    p = sub.add_parser("eval", help="score a checkpoint on a corpus split")
    p.add_argument("checkpoint")
    p.add_argument("corpus")
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p.add_argument("--lanes", type=int, default=1,
                   help="parallel contiguous segments (1 = strict sequential pass)")
    # the model itself comes from the checkpoint
    _add_eval_flags(p)
    p.set_defaults(func=cmd_eval, config_keys=("seed", "eval_mask_mode"))

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    p.add_argument("--eps", type=float, default=gradcheck_mod.DEFAULT_EPS)
    p.add_argument("--threshold", type=float, default=gradcheck_mod.PASS_THRESHOLD)
    p.add_argument("--seed", type=int, default=gradcheck_mod.DEFAULT_SEED)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("trace", help="export gate/cell activity CSVs for a stream")
    p.add_argument("checkpoint")
    p.add_argument("corpus")
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p.add_argument("--offset", type=int, default=0, help="start position inside the split")
    p.add_argument("--window", type=int, default=100, help="steps to record")
    p.add_argument("--out-dir", default=".", help="directory for the CSV files")
    p.add_argument("--run-id", default="trace")
    p.add_argument("--mask-mode", choices=("expected", "sampled"), default="sampled")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("sample", help="generate text from a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--prompt", required=True, help="seed text, must use corpus bytes")
    p.add_argument("--length", type=int, default=200)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
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
