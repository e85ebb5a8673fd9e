"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 6 and 7 train two
desk-scale models on the first 1 MB of enwik8 and need the corpus file:
point SZLSTM_ENWIK8 at it (and expect roughly two hours of CPU time);
without it those two tests are skipped.
"""

import os
import time

import numpy as np
import pytest

from szlstm.cell import ModelParams, WindowArena, run_lanes, zoneout_rate
from szlstm.gradcheck import tiny_window_check
from szlstm.numerics import RngState, sample_bernoulli
from szlstm.optim import xavier_init
from szlstm.trace import cell_change_stats, trace_stream
from szlstm.training import (
    TrainConfig,
    evaluate_bpc,
    load_checkpoint,
    load_corpus,
    train,
)

ENWIK8_ENV = "SZLSTM_ENWIK8"


def report(number, passed, text):
    print(f"\nCRITERION {number}: {'PASS' if passed else 'FAIL'} - {text}")
    assert passed, f"criterion {number}: {text}"


def drive_variant(variant, steps=1000, seed=11, tau=0.05, rate=0.5,
                  zero_feedback=False, frozen_mask=None):
    """Shared driver: same symbol stream and init seed for every variant.
    Returns the run's WindowArena and its final state."""
    batch, hidden, vocab = 2, 8, 5
    params = ModelParams.zeros(vocab, TrainConfig(hidden=hidden, variant=variant, tau=tau,
                                                  zoneout_rate=rate))
    xavier_init(params, RngState(seed).fork(1))
    if zero_feedback:
        for g in "fiou":
            getattr(params, "V_" + g).fill(0.0)
    sym = RngState(seed).fork(2).integers(0, vocab, size=(steps + 1, batch))
    frozen = None
    if frozen_mask is not None:
        # replay the run's own steps with every mask forced to frozen_mask
        frozen = WindowArena(params, steps, batch)
        run_lanes(params, sym, None, RngState(seed).fork(3), arena=frozen)
        frozen.mask[...] = frozen_mask
    arena = WindowArena(params, steps, batch)
    state, _ = run_lanes(params, sym, None, RngState(seed).fork(3), frozen=frozen, arena=arena)
    return arena, state


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    worst = {}
    for variant in ("standard", "sf", "fixed_zoneout", "adaptive"):
        rep = tiny_window_check(variant)
        worst[variant] = rep.max_rel_err
        assert rep.passed(1e-5), f"{variant}: {rep.format_table()}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(1, True, "analytic BPTT matches central differences < 1e-5 per block "
                    f"for all variants in {elapsed:.1f}s "
                    f"(worst {max(worst.values()):.2e})")


def test_criterion_2_reduction_chain():
    sf_out, _ = drive_variant("sf")
    std_out, _ = drive_variant("standard")
    pairs = [
        ("adaptive(tau=1) == sf", drive_variant("adaptive", tau=1.0)[0], sf_out),
        ("fixed_zoneout(r=1) == sf", drive_variant("fixed_zoneout", rate=1.0)[0], sf_out),
        ("sf(V=0) == standard", drive_variant("sf", zero_feedback=True)[0], std_out),
    ]
    for label, a, b in pairs:
        for name in ("c", "h", "p"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), label
    report(2, True, "adaptive(tau=1) == sf, fixed(r=1) == sf, sf(V=0) == standard, "
                    "bit-identical over 1000 steps")


def test_criterion_3_nop_semantics():
    _, state = drive_variant("adaptive", frozen_mask=0.0)
    initial = np.zeros_like(state.c)
    assert np.array_equal(state.c, initial)
    report(3, True, "mask forced to 0 for 1000 steps leaves the cell bit-identical")


def test_criterion_4_rate_bounds():
    for tau in (0.0, 0.05, 0.5, 1.0):
        arena, _ = drive_variant("adaptive", steps=300, tau=tau)
        lo = min(tau, 1.0)
        assert np.all(arena.z >= lo) and np.all(arena.z <= 1.0)
    # zero prediction error pins the rate to the floor exactly
    err = np.zeros((4, 6), dtype=np.float32)
    W_y = np.random.default_rng(0).standard_normal((6, 9)).astype(np.float32)
    z = zoneout_rate(err, W_y, 0.05)
    assert np.all(z == np.float32(0.05))
    report(4, True, "update probability always in [min(tau,1), 1]; "
                    "zero error gives exactly tau")


def test_criterion_5_init_contract(corpus):
    cfg = TrainConfig(seq_len=10, batch_size=4, chunk_len=50, hidden=64,
                      variant="adaptive", steps=0, seed=9, val_prefix=2000)
    params = ModelParams.zeros(corpus.vocab_size, cfg)
    xavier_init(params, RngState(9).fork(1))
    assert np.all(params.b_f == 1.0)
    for name in ("b_i", "b_o", "b_u", "b_y"):
        assert np.all(getattr(params, name) == 0.0)
    bpc = evaluate_bpc(params, corpus.split("valid")[:2000], cfg, lanes=4)
    uniform = np.log2(corpus.vocab_size)
    assert abs(bpc - uniform) / uniform < 0.05
    report(5, True, f"b_f == 1, other biases == 0; untrained BPC {bpc:.3f} within "
                    f"5% of log2(M) = {uniform:.3f}")


def _desk_corpus(tmp_path_factory):
    source = os.environ.get(ENWIK8_ENV)
    if not source or not os.path.exists(source):
        pytest.skip(
            f"criteria 6/7 need the enwik8 corpus: set {ENWIK8_ENV} to its path "
            "(the sandbox this package was built in has no dataset access)"
        )
    with open(source, "rb") as fh:
        head = fh.read(1_000_000)
    if len(head) < 1_000_000:
        pytest.skip(f"{source} is shorter than 1 MB")
    path = tmp_path_factory.mktemp("enwik8") / "enwik8_1mb"
    path.write_bytes(head)
    return str(path)


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """Criterion 6 training runs, shared with criterion 7.

    lr=1 is the canonical accumulator-ratio step; the paper-scale 0.001
    needs orders of magnitude more optimizer steps than a desk budget.
    """
    path = _desk_corpus(tmp_path_factory)
    corpus = load_corpus(path)
    results = {}
    t0 = time.monotonic()
    for variant in ("adaptive", "standard"):
        cfg = TrainConfig(seq_len=100, batch_size=32, chunk_len=10000, hidden=256,
                          variant=variant, steps=10000, seed=0, precision="f32",
                          lr=1.0, val_interval=1000, val_prefix=100_000)
        results[variant] = train(cfg, corpus)
    elapsed = time.monotonic() - t0
    return {"corpus": corpus, "results": results, "elapsed": elapsed}


@pytest.mark.desk
def test_criterion_6_desk_scale_training(desk_runs):
    corpus = desk_runs["corpus"]
    res = desk_runs["results"]
    cfg_eval = TrainConfig(hidden=256, variant="adaptive", seed=0)
    val_adaptive = res["adaptive"].records[-1].valid_bpc
    val_standard = res["standard"].records[-1].valid_bpc
    test_bpc = {
        variant: float(evaluate_bpc(res[variant].params, corpus.split("test"),
                                    cfg_eval, lanes=1))
        for variant in ("adaptive", "standard")
    }
    elapsed = desk_runs["elapsed"]
    assert val_adaptive <= 3.5, f"adaptive validation BPC {val_adaptive:.3f} > 3.5"
    assert test_bpc["adaptive"] <= test_bpc["standard"], (
        f"adaptive {test_bpc['adaptive']:.3f} vs standard {test_bpc['standard']:.3f}"
    )
    assert elapsed <= 7200.0, f"desk budget exceeded: {elapsed:.0f}s"
    report(6, True, f"1MB enwik8, 10k steps: adaptive val {val_adaptive:.3f} "
                    f"(standard {val_standard:.3f}); test {test_bpc['adaptive']:.3f} "
                    f"<= {test_bpc['standard']:.3f}; {elapsed:.0f}s")


@pytest.mark.desk
def test_criterion_7_sparsity_direction(desk_runs):
    corpus = desk_runs["corpus"]
    res = desk_runs["results"]
    stream = corpus.split("test")[:401]
    means = {}
    for variant in ("adaptive", "standard"):
        buffer = trace_stream(res[variant].params, stream, window=400,
                              mask_mode="sampled", seed=1)
        means[variant] = cell_change_stats(buffer)[1]
    assert means["adaptive"] < means["standard"], means
    report(7, True, f"mean per-step cell change: adaptive {means['adaptive']:.4f} "
                    f"< standard {means['standard']:.4f}")


def test_criterion_8_determinism_and_persistence(corpus, tmp_path):
    cfg = TrainConfig(seq_len=10, batch_size=4, chunk_len=100, hidden=16,
                      variant="adaptive", steps=100, val_interval=50, seed=3,
                      lr=1.0, val_prefix=1000)
    a = train(cfg, corpus)
    b = train(cfg, corpus)
    assert a.losses == b.losses and len(a.losses) == 100
    ck = str(tmp_path / "persist.ckpt")
    half_cfg = TrainConfig(**{**cfg.__dict__, "steps": 50})
    train(half_cfg, corpus, ckpt_path=ck)
    resumed = train(cfg, corpus, resume=load_checkpoint(ck))
    assert resumed.losses == a.losses[50:]
    report(8, True, "identical 100-step loss stream across runs; "
                    "save/load/continue reproduces it exactly")


def test_criterion_9_mask_statistics():
    z = np.full((100, 1000), 0.3, dtype=np.float32)
    mask = sample_bernoulli(z, RngState(123))
    mean = float(mask.mean())
    assert abs(mean - 0.3) <= 0.01
    report(9, True, f"empirical update rate {mean:.4f} within 0.3 +- 0.01 "
                    "over 1e5 draws")
