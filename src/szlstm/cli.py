"""Command-line entry point.

Subcommands: train, eval, gradcheck, trace, sample. Exit codes: 0 success,
1 usage error, 2 numerical failure (non-finite loss, failed gradient check),
3 I/O error.
"""

import argparse
import os
import sys

import numpy as np

from . import gradcheck as gradcheck_mod
from .cell import VARIANTS, RecurrentState, forward_step, fuse_gate_weights
from .numerics import NumericalError, RngState, softmax_rows
from .trace import export_cell_change, export_gate_map, trace_stream
from .training import (
    STREAM_SAMPLE,
    TrainConfig,
    evaluate_bpc,
    load_checkpoint,
    load_corpus,
    train,
)


class UsageError(Exception):
    pass


def parse_variant(text):
    """Accept standard | sf | fixed:RATE | adaptive."""
    if text in ("standard", "sf", "adaptive"):
        return text, None
    if text.startswith("fixed:"):
        try:
            rate = float(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"--variant fixed:RATE needs a number, got {text!r}")
        if not 0.0 <= rate <= 1.0:
            raise UsageError(f"--variant fixed rate must lie in [0, 1], got {rate}")
        return "fixed_zoneout", rate
    raise UsageError(
        f"unknown --variant {text!r}; expected standard, sf, fixed:RATE or adaptive"
    )


def read_config_file(path):
    """Flat key=value config; '#' starts a comment, blanks ignored."""
    values = {}
    field_types = {f: t for f, t in TrainConfig.__annotations__.items()}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "variant":
                values[key] = value
                continue
            if key not in field_types:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            typ = field_types[key]
            try:
                values[key] = typ(value)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}")
    return values


def _add_model_flags(p):
    p.add_argument("--seed", type=int, default=None, help="rng seed (default 0)")
    p.add_argument("--variant", default=None,
                   help="standard | sf | fixed:RATE | adaptive (default adaptive)")
    p.add_argument("--tau", type=float, default=None,
                   help="minimum update probability of the adaptive variant")
    p.add_argument("--hidden", type=int, default=None, help="memory cells (default 256)")
    p.add_argument("--batch", type=int, default=None, help="batch lanes (default 128)")
    p.add_argument("--seq-len", type=int, default=None, help="BPTT window length (default 100)")
    p.add_argument("--chunk-len", type=int, default=None,
                   help="symbols per sampled chunk (default 10000)")
    p.add_argument("--steps", type=int, default=None, help="total optimizer steps")
    p.add_argument("--precision", choices=("f32", "f64"), default=None)
    p.add_argument("--mask-mode", choices=("expected", "sampled"), default=None,
                   help="evaluation mask convention (default expected)")
    p.add_argument("--lr", type=float, default=None,
                   help="Adadelta step scale (default 0.001; desk-scale runs want 1.0)")
    p.add_argument("--config", default=None, help="key=value config file; flags override it")


def build_config(args):
    values = {}
    if args.config:
        values.update(read_config_file(args.config))
    flag_map = {
        "seed": "seed", "tau": "tau", "hidden": "hidden", "batch": "batch_size",
        "seq_len": "seq_len", "chunk_len": "chunk_len", "steps": "steps",
        "precision": "precision", "mask_mode": "eval_mask_mode", "lr": "lr",
    }
    for attr, key in flag_map.items():
        val = getattr(args, attr, None)
        if val is not None:
            values[key] = val
    variant_text = values.pop("variant", None)
    if getattr(args, "variant", None) is not None:
        variant_text = args.variant
    if variant_text is not None:
        variant, rate = parse_variant(variant_text)
        values["variant"] = variant
        if rate is not None:
            values["zoneout_rate"] = rate
    cfg = TrainConfig(**values)
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc))
    return cfg


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


def cmd_eval(args):
    cfg = build_config(args)
    ckpt = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.corpus)
    if corpus.vocab_size != ckpt.params.vocab_size:
        raise UsageError(
            f"corpus vocabulary ({corpus.vocab_size}) does not match "
            f"checkpoint ({ckpt.params.vocab_size})"
        )
    bpc = evaluate_bpc(ckpt.params, corpus.split(args.split), cfg,
                       lanes=args.lanes, seed=cfg.seed)
    print(f"{args.split}_bpc\t{bpc:.6f}")
    return 0


def cmd_gradcheck(args):
    failed = False
    for variant in VARIANTS:
        report = gradcheck_mod.tiny_window_check(
            variant, seed=args.seed if args.seed is not None else gradcheck_mod.DEFAULT_SEED,
            eps=args.eps,
        )
        ok = report.passed(args.threshold)
        failed = failed or not ok
        print(f"# variant={variant} max_rel_err={report.max_rel_err:.3e} "
              f"{'PASS' if ok else 'FAIL'}")
        print(report.format_table())
    if failed:
        raise NumericalError("gradient check failed")
    return 0


def cmd_trace(args):
    ckpt = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.corpus)
    if corpus.vocab_size != ckpt.params.vocab_size:
        raise UsageError(
            f"corpus vocabulary ({corpus.vocab_size}) does not match "
            f"checkpoint ({ckpt.params.vocab_size})"
        )
    split = corpus.split(args.split)
    if args.offset < 0 or args.offset + args.window + 1 > len(split):
        raise UsageError(
            f"offset {args.offset} + window {args.window} does not fit in "
            f"split of {len(split)} symbols"
        )
    stream = split[args.offset: args.offset + args.window + 1]
    buffer = trace_stream(ckpt.params, stream, window=args.window,
                          mask_mode=args.mask_mode or "sampled",
                          seed=args.seed if args.seed is not None else 0)
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
    table = np.full(256, -1, dtype=np.int16)
    table[vocab] = np.arange(len(vocab), dtype=np.int16)
    prompt = args.prompt.encode("utf-8")
    if not prompt:
        raise UsageError("--prompt must not be empty")
    prompt_idx = table[np.frombuffer(prompt, dtype=np.uint8)]
    if np.any(prompt_idx < 0):
        bad = prompt[int(np.argmax(prompt_idx < 0))]
        raise UsageError(f"prompt byte 0x{bad:02x} is not in the model vocabulary")
    if args.temperature <= 0:
        raise UsageError(f"--temperature must be positive, got {args.temperature}")

    rng = RngState(args.seed if args.seed is not None else 0).fork(STREAM_SAMPLE)
    state = RecurrentState.initial(1, params.hidden_size, params.vocab_size,
                                   dtype=params.dtype)
    fused = fuse_gate_weights(params)
    out = []
    current = None
    for sym in prompt_idx:
        if current is not None:
            state, _, _ = forward_step(state, np.array([current]), params, rng=rng,
                                       mask_mode="expected", fused=fused)
        current = int(sym)
    for _ in range(args.length):
        state, cache, _ = forward_step(state, np.array([current]), params, rng=rng,
                                       mask_mode="expected", fused=fused)
        p = softmax_rows(cache.y / args.temperature)[0]
        u = float(rng.uniform((1,))[0])
        current = int(np.searchsorted(np.cumsum(p), u, side="right"))
        current = min(current, params.vocab_size - 1)
        out.append(current)
    sys.stdout.write(args.prompt + vocab[np.array(out)].tobytes().decode("utf-8", "replace"))
    sys.stdout.write("\n")
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
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a corpus split")
    p.add_argument("checkpoint")
    p.add_argument("corpus")
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p.add_argument("--lanes", type=int, default=1,
                   help="parallel contiguous segments (1 = strict sequential pass)")
    _add_model_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    p.add_argument("--eps", type=float, default=gradcheck_mod.DEFAULT_EPS)
    p.add_argument("--threshold", type=float, default=gradcheck_mod.PASS_THRESHOLD)
    p.add_argument("--seed", type=int, default=None)
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
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("sample", help="generate text from a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--prompt", required=True, help="seed text, must use corpus bytes")
    p.add_argument("--length", type=int, default=200)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
