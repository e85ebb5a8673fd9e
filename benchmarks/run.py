#!/usr/bin/env python3
"""szlstm benchmark: end-to-end throughput, correctness checks, per-module timings.

Run from the repository root:

    python3 benchmarks/run.py --workload train_adaptive --seed 1 --seconds 60 --trace 0

Workloads (benchmarks/README.md gives the reason for each):

    train_adaptive  train() at the desk shape, adaptive variant, sampled masks,
                    then inference rounds on the checkpoint it wrote
    infer           inference rounds only, on a standard-variant checkpoint
                    trained in set-up: checkpoint load and save, evaluate_bpc
                    at lanes 1 and 32, `szlstm sample` through the CLI,
                    trace_stream plus both CSV exporters; no mask draws

The package is imported from `src/` next to this directory, never from an
installed copy. The corpus is generated from --seed in-process and handed to
the program as a byte file. A run is cut into SETUPS phases; each starts
with a set-up (corpus, load_corpus, one train() call writing the fixture
checkpoint) and then repeats the workload's unit. With --trace 0 the run
measures end-to-end metrics untraced; with --trace 1 it alternates untraced
and traced units of the same work, reports per-module calls, wall and self
times and the tracing overhead, and checks that tracing changed no output.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics. Every operation and every check counts as attempted; a
failed one is never retried. The exit code is 0 only if every check passed.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("train_adaptive", "infer")

# desk shape; the corpus gives a vocabulary of ~200 symbols
HIDDEN, BATCH, SEQ_LEN = 256, 32, 100
TRAIN_STEPS = 10        # optimizer steps per train() call; valid_bpc is read after them
CHUNK_LEN = 300         # 3 windows: checkpoints at steps 0, 3, 6, 9 and at the end
VAL_INTERVAL = 5
VAL_PREFIX = 3200
EVAL1_SYMBOLS = 1001    # lanes=1: 1000 scored symbols
EVAL32_SYMBOLS = 32 * 101   # lanes=32: 32 x 100 scored symbols
SAMPLE_LEN = 300
TRACE_WINDOW = 100
SETUPS = 4              # set-ups per run; setup_s is their median
# inference rounds after each train() call in a training unit; with four, the
# inference samples of a run came in a few short bursts, and their medians
# followed the shared host's speed at those moments
ROUNDS_PER_TRAIN = 8
TRACED_SETUPS = 2       # a traced unit takes longer, so a traced run sets up less often

GATE_HEADER = "t,cell,i,o,f,Z"          # README "Trace export"
CELL_HEADER = "t,dc_l1"


class Abort(Exception):
    """An operation raised; its outputs are missing, so the run stops here."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def limit_blas_threads():
    """Run BLAS on one thread; returns the number of CPUs this process may use.

    On a shared virtual machine a multi-threaded BLAS waits at every barrier
    for whichever of its CPUs the host has descheduled, which made
    run-to-run spreads two to three times wider than one thread does.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info(np):
    """BLAS vendor from numpy's build record; live thread count when OpenBLAS says it."""
    import ctypes
    import glob

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib_path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
        if threads is not None:
            break
    if threads is None:
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    return vendor, threads


class Recorder:
    """Operation and check accounting plus timing samples."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.samples = {}

    def op(self, name, fn, *args, **kwargs):
        """Run one timed operation; returns (result, seconds). Raising aborts the run."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Abort:
            raise
        except Exception as exc:  # any failure of the program under test is a failed op
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            raise Abort(name) from exc
        return result, time.perf_counter() - t0

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"check {name} failed {detail}".rstrip())
        return ok

    def add(self, metric, value):
        self.samples.setdefault(metric, []).append(float(value))


def bits_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class Session:
    """One workload's inputs, fixture paths and the operations it times."""

    def __init__(self, sz, np, corpus_mod, args, rec, work):
        self.sz, self.np, self.args, self.rec, self.work = sz, np, args, rec, work
        self.corpus_mod = corpus_mod
        self.variant = "standard" if args.workload == "infer" else "adaptive"
        self.corpus_path = os.path.join(work, "corpus.bin")
        self.fixture = os.path.join(work, "fixture.ckpt")    # written by train()
        self.copy_ckpt = os.path.join(work, "copy.ckpt")
        self.corpus = None
        self.ref = {}            # first value of every output that must reproduce

    def config(self):
        return self.sz.TrainConfig(
            seq_len=SEQ_LEN, batch_size=BATCH, chunk_len=CHUNK_LEN, hidden=HIDDEN,
            variant=self.variant, seed=self.args.seed, steps=TRAIN_STEPS, precision="f32",
            lr=1.0, val_interval=VAL_INTERVAL, val_prefix=VAL_PREFIX, val_lanes=BATCH,
            eval_mask_mode="expected",
        )

    def same_as_first(self, name, value):
        """Check that an output reproduces the first one seen under this name."""
        if name not in self.ref:
            self.ref[name] = value
        else:
            self.rec.check(f"{name}_reproduces", self.ref[name] == value)

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Generate the corpus, hand it to the program, train the fixture checkpoint."""
        text = self.corpus_mod.generate(self.args.seed)
        with open(self.corpus_path, "wb") as fh:
            fh.write(text)
        self.corpus, _ = self.rec.op("load_corpus", self.sz.load_corpus, self.corpus_path)
        self.train_call()

    # -- operations ----------------------------------------------------------

    def train_call(self):
        """One train() call of TRAIN_STEPS steps; returns its loss stream."""
        np = self.np
        cfg = self.config()
        result, dt = self.rec.op("train", self.sz.train, cfg, self.corpus,
                                 ckpt_path=self.fixture)
        self.rec.add("train_sym_per_s", TRAIN_STEPS * BATCH * SEQ_LEN / dt)
        losses = np.array(result.losses, dtype=np.float64)
        bpc = result.records[-1].valid_bpc
        self.rec.check("train_losses_finite", bool(np.all(np.isfinite(losses))))
        self.rec.check("valid_bpc_below_uniform",
                       math.isfinite(bpc) and bpc < math.log2(self.corpus.vocab_size),
                       f"valid_bpc={bpc}")
        self.same_as_first("train_losses", losses.tobytes())
        self.rec.add("valid_bpc", bpc)
        return losses.tobytes()

    def round(self):
        """Inference on the current fixture; returns the outputs tracing must not change."""
        sz, rec = self.sz, self.rec
        ckpt, dt = rec.op("load_checkpoint", sz.load_checkpoint, self.fixture)
        rec.add("ckpt_load_ms", dt * 1e3)
        test = self.corpus.split("test")
        cfg = self.config()
        outputs = {}
        for lanes, n in ((1, EVAL1_SYMBOLS), (32, EVAL32_SYMBOLS)):
            bpc, dt = rec.op(f"evaluate_bpc.lanes{lanes}", sz.evaluate_bpc, ckpt.params,
                             test[:n], cfg, lanes=lanes)
            scored = lanes * (n // lanes - 1)
            rec.add(f"eval_us_per_sym.lanes{lanes}", dt * 1e6 / scored)
            rec.check(f"eval_bpc_finite.lanes{lanes}", math.isfinite(bpc), f"bpc={bpc}")
            self.same_as_first(f"eval_bpc.lanes{lanes}", bpc)
            outputs[f"bpc{lanes}"] = bpc

        argv = ["sample", self.fixture, "--prompt", self.corpus_mod.PROMPT,
                "--length", str(SAMPLE_LEN), "--seed", str(self.args.seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, dt = rec.op("cli.sample", sz.cli.dispatch, argv)
        rec.add("sample_tok_per_s", SAMPLE_LEN / dt)
        text = buf.getvalue()
        rec.check("sample_exit_code", code == 0, f"exit {code}")
        rec.check("sample_keeps_prompt", text.startswith(self.corpus_mod.PROMPT))
        self.same_as_first("sample_text", text)
        outputs["sample"] = text

        gates = os.path.join(self.work, "trace_gates.csv")
        cells = os.path.join(self.work, "trace_cellchange.csv")
        t0 = time.perf_counter()
        buffer, _ = rec.op("trace_stream", sz.trace_stream, ckpt.params,
                           test[: TRACE_WINDOW + 1], window=TRACE_WINDOW,
                           mask_mode="sampled", seed=self.args.seed)
        rec.op("export_gate_map", sz.export_gate_map, buffer, gates)
        rec.op("export_cell_change", sz.export_cell_change, buffer, cells)
        rec.add("trace_ms", (time.perf_counter() - t0) * 1e3)
        with open(gates) as fh:
            gate_text = fh.read()
        with open(cells) as fh:
            cell_text = fh.read()
        gate_lines = gate_text.splitlines()
        cell_lines = cell_text.splitlines()
        rec.check("trace_gate_header", gate_lines[:1] == [GATE_HEADER], repr(gate_lines[:1]))
        rec.check("trace_cell_header", cell_lines[:1] == [CELL_HEADER], repr(cell_lines[:1]))
        rec.check("trace_rows", len(gate_lines) == 1 + TRACE_WINDOW * HIDDEN
                  and len(cell_lines) == 1 + TRACE_WINDOW)
        self.same_as_first("trace_csv", gate_text + cell_text)
        outputs["trace"] = gate_text + cell_text

        _, dt = rec.op("save_checkpoint", sz.save_checkpoint, self.copy_ckpt, ckpt.params,
                       ckpt.opt, ckpt.config, ckpt.vocab, ckpt.step, rng=ckpt.rng)
        rec.add("ckpt_save_ms", dt * 1e3)
        back, dt = rec.op("load_checkpoint", sz.load_checkpoint, self.copy_ckpt)
        rec.add("ckpt_load_ms", dt * 1e3)
        self.check_round_trip(ckpt, back)
        return outputs

    def check_round_trip(self, a, b):
        ok = all(bits_equal(x, y) for (_, x), (_, y) in zip(a.params.blocks(), b.params.blocks()))
        for acc in ("eg2", "edx2"):
            ga, gb = getattr(a.opt, acc), getattr(b.opt, acc)
            ok = ok and [k for k, _ in ga.items()] == [k for k, _ in gb.items()]
            ok = ok and all(bits_equal(x, y) for (_, x), (_, y) in zip(ga.items(), gb.items()))
        ok = ok and bits_equal(a.vocab, b.vocab) and a.step == b.step and a.rng == b.rng
        ok = ok and a.config == b.config
        ok = ok and (a.params.variant, a.params.tau, a.params.zoneout_rate) == \
            (b.params.variant, b.params.tau, b.params.zoneout_rate)
        ok = ok and (a.opt.rho, a.opt.eps, a.opt.lr) == (b.opt.rho, b.opt.eps, b.opt.lr)
        self.rec.check("checkpoint_round_trip", ok)

    def unit(self):
        """The repeated unit: what one user session does. Returns its outputs."""
        out = {}
        rounds = 1
        if self.args.workload != "infer":
            out["losses"] = self.train_call()
            rounds = ROUNDS_PER_TRAIN
        for _ in range(rounds):
            out.update(self.round())
        return out

    def mask_draws(self):
        """Mask-stream draws of the last train() call, read from its checkpoint header."""
        if self.args.workload == "infer":
            return 0
        ckpt = self.sz.load_checkpoint(self.fixture)
        return ckpt.rng["mask"][1]


def summarize(values):
    ordered = sorted(values)
    p90 = ordered[min(len(ordered) - 1, math.ceil(0.9 * len(ordered)) - 1)]
    return statistics.median(ordered), p90, len(ordered)


def run_phases(args, setup, unit, phases=SETUPS):
    """Split --seconds into phases, each a set-up followed by repeated units.

    Set-ups are spread over the run so that every metric, the ones taken in
    set-up included, samples the whole run rather than one stretch of it. A
    unit starts only if about half of it still fits in the phase.
    """
    start = time.perf_counter()
    for k in range(1, phases + 1):
        setup()
        end = start + args.seconds * k / phases
        last = 0.0
        n = 0
        while n < 1 or time.perf_counter() + last / 2 < end:
            t0 = time.perf_counter()
            unit()
            last = time.perf_counter() - t0
            n += 1


def run_untraced(sess, args, rec):
    def setup():
        t0 = time.perf_counter()
        sess.setup()
        rec.add("setup_s", time.perf_counter() - t0)

    run_phases(args, setup, sess.unit)
    rec.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


PER_LAYER_TIMED = {
    # span name -> which of calls / ms / self_ms are reported
    "numerics.sample_bernoulli": ("calls", "ms"),
    "numerics.matmul": ("calls", "ms"),
    "numerics.softmax_rows": ("calls", "ms"),
    "numerics.one_hot": ("calls", "ms"),
    "cell.forward_step.b1": ("calls", "ms", "self_ms"),
    "cell.forward_step.b32": ("calls", "ms", "self_ms"),
    "cell.backward_window": ("calls", "ms", "self_ms"),
    "cell.fuse_gate_weights": ("calls", "ms"),
    "cell.zoneout_rate": ("calls", "ms"),
    "optim.adadelta_step": ("calls", "ms"),
    "optim.clip_gradients": ("calls", "ms"),
    "training.run_tbptt_window": ("calls", "self_ms"),
    "training.train": ("calls", "self_ms"),
    "training.evaluate_bpc": ("calls", "ms", "self_ms"),
    "training.save_checkpoint": ("calls", "ms"),
    "training.load_checkpoint": ("calls", "ms"),
    "trace.trace_stream": ("calls", "self_ms"),
    "trace.record_step": ("calls", "ms"),
    "trace.export_gate_map": ("calls", "ms"),
    "trace.export_cell_change": ("calls", "ms"),
    "cli.cmd_sample": ("calls", "self_ms"),
}
PER_LAYER_COUNTS = ("optim.clip_fired", "training.save_checkpoint.bytes",
                    "trace.export_gate_map.bytes")


def layer_metrics(totals, counts):
    out = {}
    for name, kinds in PER_LAYER_TIMED.items():
        calls, wall, own = totals.get(name, (0, 0.0, 0.0))
        values = {"calls": calls, "ms": wall * 1e3, "self_ms": own * 1e3}
        for kind in kinds:
            out[f"{name}.{kind}"] = values[kind]
    for name in PER_LAYER_COUNTS:
        out[name] = counts.get(name, 0)
    return out


def run_traced(sess, args, rec, tracer):
    def setup():
        tracer.install()
        try:
            sess.setup()
        finally:
            tracer.uninstall()
        totals, _ = tracer.take()
        rec.add("training.load_corpus.ms", totals["training.load_corpus"][1] * 1e3)

    def pair():
        plain, t_plain = rec.op("unit", sess.unit)
        tracer.install()
        try:
            traced, t_traced = rec.op("traced_unit", sess.unit)
        finally:
            tracer.uninstall()
        for key in plain:
            rec.check(f"tracing_changes_nothing.{key}", plain[key] == traced[key])
        rec.add("bench.trace_overhead_pct", (t_traced - t_plain) / t_plain * 100.0)
        rec.add("numerics.rng_draws", sess.mask_draws())
        for name, value in layer_metrics(*tracer.take()).items():
            rec.add(name, value)

    run_phases(args, setup, pair, phases=TRACED_SETUPS)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "szlstm", "__init__.py")):
        print(f"error: szlstm sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    nproc = limit_blas_threads()

    import numpy as np
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import szlstm
    import szlstm.cli
    import corpus as corpus_mod
    from tracer import Tracer

    if os.path.dirname(os.path.abspath(szlstm.__file__)) != os.path.join(SRC, "szlstm"):
        print(f"error: imported szlstm from {szlstm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    vendor, threads = blas_info(np)
    env = {
        "git_sha": git_sha(), "python": platform.python_version(), "numpy": np.__version__,
        "blas": vendor, "blas_threads": threads, "nproc": nproc,
        "machine": platform.machine(),
    }
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{run_id}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)

    rec = Recorder()
    sess = Session(szlstm, np, corpus_mod, args, rec, work)
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            run_traced(sess, args, rec, tracer)
        else:
            run_untraced(sess, args, rec)
        aborted = False
    except Abort:
        aborted = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer:
        tracer.dump(os.path.join(OUT, f"spans-{run_id}.npz"))

    kind = "per_layer" if args.trace else "end_to_end"
    metrics, detail = {}, {}
    for m in spec[kind]:
        values = rec.samples.get(m["name"])
        if not values:
            if not aborted:
                rec.check(f"metric_present.{m['name']}", False)
            continue
        med, p90, n = summarize(values)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        detail[m["name"]] = {"median": med, "p90": p90, "n": n, "unit": m["unit"]}

    corpus_info = {"seed": args.seed, "bytes": len(sess.corpus.data) if sess.corpus else 0,
                   "vocab_size": sess.corpus.vocab_size if sess.corpus else 0}
    print(f"# env {json.dumps(env)}")
    print(f"# corpus {json.dumps(corpus_info)}")
    for name, d in detail.items():
        print(f"{name:40s} {d['median']:14.6g} {d['unit']:6s} p90 {d['p90']:.6g}  n={d['n']}")
    for failure in rec.failures:
        print(f"# FAILED {failure}")
    failed = len(rec.failures)
    print(f"ops_failed {failed}/{rec.attempted}")
    result = {"correct": failed == 0, "attempted": rec.attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"result-{run_id}.json"), "w") as fh:
        json.dump({"workload": args.workload, "trace": args.trace, "env": env,
                   "corpus": corpus_info, "detail": detail, "failures": rec.failures,
                   "samples": rec.samples,
                   **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
