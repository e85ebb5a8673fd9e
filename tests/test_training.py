import numpy as np
import pytest

from szlstm.cell import GradientSet, ModelParams, RecurrentState
from szlstm.numerics import NumericalError, RngState
from szlstm.optim import xavier_init
from szlstm.training import (
    Checkpoint,
    TrainConfig,
    evaluate_bpc,
    init_model,
    load_checkpoint,
    load_corpus,
    run_tbptt_window,
    sample_training_chunks,
    save_checkpoint,
    train,
)
from szlstm.cell import backward_step, forward_step


def small_cfg(**kw):
    base = dict(seq_len=10, batch_size=4, chunk_len=50, hidden=16,
                variant="adaptive", steps=20, val_interval=10, seed=3, lr=1.0,
                val_prefix=2000)
    base.update(kw)
    return TrainConfig(**base)


class TestLoadCorpus:
    def test_tiny_file(self, tmp_path):
        path = tmp_path / "tiny"
        path.write_bytes(b"aab")
        corpus = load_corpus(str(path))
        assert corpus.vocab_size == 2
        np.testing.assert_array_equal(corpus.encoded, [0, 0, 1])

    def test_round_trip(self, corpus):
        assert corpus.decode(corpus.encoded) == corpus.data.tobytes()
        again = corpus.encode_bytes(corpus.data.tobytes())
        np.testing.assert_array_equal(again, corpus.encoded)

    def test_vocab_counts_distinct_bytes(self, corpus):
        assert corpus.vocab_size == len(set(corpus.data.tobytes()))

    def test_unknown_byte_rejected(self, corpus):
        with pytest.raises(ValueError, match="0x00"):
            corpus.encode_bytes(b"\x00")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            load_corpus(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(str(tmp_path / "nope"))

    @pytest.mark.parametrize("length", [20, 97, 1000, 12345])
    def test_split_boundaries(self, tmp_path, length):
        path = tmp_path / f"len{length}"
        path.write_bytes((np.arange(length) % 7 + 60).astype(np.uint8).tobytes())
        corpus = load_corpus(str(path))
        assert corpus.train_end == length * 9 // 10
        assert corpus.valid_end - corpus.train_end == length // 20
        total = (len(corpus.split("train")) + len(corpus.split("valid"))
                 + len(corpus.split("test")))
        assert total == length


class TestSampleTrainingChunks:
    def test_deterministic(self, corpus):
        cfg = small_cfg()
        a = sample_training_chunks(corpus, cfg, RngState(5))
        b = sample_training_chunks(corpus, cfg, RngState(5))
        np.testing.assert_array_equal(a, b)
        assert len(a) == cfg.batch_size

    def test_within_bounds(self, corpus):
        cfg = small_cfg(batch_size=64)
        offsets = sample_training_chunks(corpus, cfg, RngState(6))
        assert np.all(offsets >= 0)
        assert np.all(offsets + cfg.chunk_len + 1 <= corpus.train_end)

    def test_offsets_roughly_uniform(self, corpus):
        cfg = small_cfg(batch_size=10000)
        offsets = sample_training_chunks(corpus, cfg, RngState(7))
        limit = corpus.train_end - cfg.chunk_len
        counts, _ = np.histogram(offsets, bins=10, range=(0, limit))
        expected = len(offsets) / 10
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 27.88  # chi-square(9) at p = 0.001

    def test_chunk_longer_than_split(self, corpus):
        cfg = small_cfg(chunk_len=10 ** 9, seq_len=10 ** 6)
        with pytest.raises(ValueError, match="chunk_len"):
            sample_training_chunks(corpus, cfg, RngState(0))


class TestRunTbpttWindow:
    def test_single_step_window_equals_step_composition(self, corpus):
        params = ModelParams.zeros(corpus.vocab_size, 12, variant="adaptive",
                                   dtype=np.float64)
        xavier_init(params, RngState(2).fork(1))
        # one window of seq_len=1 over a single lane
        seq = corpus.encoded[100:102]
        inputs = np.array([[seq[0]]])
        targets = np.array([[seq[1]]])
        state0 = RecurrentState.initial(1, 12, corpus.vocab_size, dtype=np.float64)

        g_window = GradientSet.zeros_like(params)
        s1, loss1 = run_tbptt_window(state0.copy(), inputs, targets, params,
                                     RngState(9), g_window)

        g_manual = GradientSet.zeros_like(params)
        s2, cache, loss2 = forward_step(state0.copy(), inputs[0], params, rng=RngState(9),
                                        target=targets[0])
        backward_step(cache, params, np.zeros_like(cache.h), np.zeros_like(cache.c),
                      targets[0], g_manual)

        assert loss1 == pytest.approx(loss2, rel=1e-12)
        np.testing.assert_array_equal(s1.c, s2.c)
        for name, block in g_manual.items():
            np.testing.assert_allclose(g_window[name], block, atol=1e-12, err_msg=name)

    def test_states_are_detached_values(self, corpus):
        params, opt = init_model(corpus, small_cfg())
        cfg = small_cfg()
        offsets = sample_training_chunks(corpus, cfg, RngState(1))
        base = offsets[:, None] + np.arange(cfg.seq_len + 1)[None, :]
        seq = corpus.encoded[base]
        inputs, targets = seq[:, :-1].T.copy(), seq[:, 1:].T.copy()
        states = RecurrentState.initial(cfg.batch_size, cfg.hidden,
                                        corpus.vocab_size, dtype=np.float32)
        grads = GradientSet.zeros_like(params)
        out, _ = run_tbptt_window(states, inputs, targets, params, RngState(2), grads)
        snapshot = out.c.copy()
        params.W_y += 1.0  # later parameter edits must not reach returned states
        np.testing.assert_array_equal(out.c, snapshot)


class TestTrainLoop:
    def test_step_zero_validation_near_uniform(self, corpus):
        cfg = small_cfg(steps=0)
        result = train(cfg, corpus)
        assert len(result.records) == 1
        uniform = np.log2(corpus.vocab_size)
        assert abs(result.records[0].valid_bpc - uniform) / uniform < 0.05

    def test_deterministic_loss_stream(self, corpus):
        cfg = small_cfg(steps=30)
        a = train(cfg, corpus)
        b = train(cfg, corpus)
        assert a.losses == b.losses

    def test_loss_improves_on_structured_text(self, corpus):
        cfg = small_cfg(steps=150, val_interval=150, hidden=32, batch_size=8,
                        seq_len=20, chunk_len=200)
        result = train(cfg, corpus)
        assert result.records[-1].valid_bpc < result.records[0].valid_bpc - 0.5

    def test_log_file_format(self, corpus, tmp_path):
        log = tmp_path / "train.log"
        train(small_cfg(steps=10), corpus, log_path=str(log))
        lines = log.read_text().splitlines()
        assert lines[0] == "step\ttrain_bpc\tvalid_bpc\tmean_z\tmean_update_rate\twall_ms"
        assert len(lines) == 3  # header + step 0 + step 10
        fields = lines[2].split("\t")
        assert int(fields[0]) == 10
        assert 0.0 <= float(fields[3]) <= 1.0
        assert 0.0 <= float(fields[4]) <= 1.0

    def test_non_finite_loss_aborts_with_diagnostics(self, corpus):
        cfg = small_cfg(steps=5)
        params, opt = init_model(corpus, cfg)
        params.W_y[...] = np.nan
        ckpt = Checkpoint(params=params, opt=opt, config={}, vocab=corpus.vocab,
                          step=0, rng={"data": (1, 0), "mask": (2, 0)})
        with pytest.raises(NumericalError, match="step 1"):
            train(cfg, corpus, resume=ckpt)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            small_cfg(chunk_len=55).validate()
        with pytest.raises(ValueError, match="variant"):
            small_cfg(variant="bogus").validate()
        with pytest.raises(ValueError, match="precision"):
            small_cfg(precision="f16").validate()


class TestEvaluateBpc:
    def test_uniform_model_scores_log2_vocab(self, corpus):
        params = ModelParams.zeros(corpus.vocab_size, 8, variant="standard",
                                   dtype=np.float64)
        bpc = evaluate_bpc(params, corpus.split("valid"), small_cfg(precision="f64"))
        assert abs(bpc - np.log2(corpus.vocab_size)) < 1e-9

    def test_pure_function_of_inputs(self, corpus):
        cfg = small_cfg()
        params, _ = init_model(corpus, cfg)
        digest = params.W_f.tobytes() + params.b_y.tobytes()
        a = evaluate_bpc(params, corpus.split("valid"), cfg, lanes=4)
        b = evaluate_bpc(params, corpus.split("valid"), cfg, lanes=4)
        assert a == b
        assert params.W_f.tobytes() + params.b_y.tobytes() == digest

    def test_sampled_eval_mode_is_seed_deterministic(self, corpus):
        cfg = small_cfg(eval_mask_mode="sampled")
        params, _ = init_model(corpus, cfg)
        a = evaluate_bpc(params, corpus.split("valid")[:500], cfg, seed=11)
        b = evaluate_bpc(params, corpus.split("valid")[:500], cfg, seed=11)
        assert a == b

    def test_lane_bounds(self, corpus):
        cfg = small_cfg()
        params, _ = init_model(corpus, cfg)
        with pytest.raises(ValueError):
            evaluate_bpc(params, corpus.split("valid"), cfg, lanes=0)


class TestCheckpoint:
    def _roundtrip(self, tmp_path, corpus, cfg=None):
        cfg = cfg or small_cfg()
        params, opt = init_model(corpus, cfg)
        opt.eg2["W_f"] += 0.25
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params, opt, cfg, corpus.vocab, step=17,
                        rng={"data": (1, 4), "mask": (2, 9)})
        return params, opt, load_checkpoint(path), path

    def test_round_trip_bit_identical(self, tmp_path, corpus):
        params, opt, loaded, _ = self._roundtrip(tmp_path, corpus)
        for (name, block), (_, other) in zip(params.blocks(), loaded.params.blocks()):
            np.testing.assert_array_equal(block, other, err_msg=name)
        for name, block in opt.eg2.items():
            np.testing.assert_array_equal(block, loaded.opt.eg2[name])
        for name, block in opt.edx2.items():
            np.testing.assert_array_equal(block, loaded.opt.edx2[name])
        assert loaded.step == 17
        assert loaded.rng == {"data": (1, 4), "mask": (2, 9)}
        np.testing.assert_array_equal(loaded.vocab, corpus.vocab)
        assert loaded.params.variant == params.variant
        assert loaded.params.tau == params.tau

    def test_truncated_file_is_rejected(self, tmp_path, corpus):
        *_, path = self._roundtrip(tmp_path, corpus)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic_is_rejected(self, tmp_path, corpus):
        *_, path = self._roundtrip(tmp_path, corpus)
        blob = open(path, "rb").read()
        open(path, "wb").write(b"XXXX" + blob[4:])
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_trailing_garbage_is_rejected(self, tmp_path, corpus):
        *_, path = self._roundtrip(tmp_path, corpus)
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    def test_resume_matches_uninterrupted_run(self, tmp_path, corpus):
        cfg = small_cfg(steps=20)
        full = train(cfg, corpus)
        ck = str(tmp_path / "resume.ckpt")
        train(small_cfg(steps=10), corpus, ckpt_path=ck)
        resumed = train(cfg, corpus, resume=load_checkpoint(ck))
        assert resumed.losses == full.losses[10:]
        for (name, block), (_, other) in zip(full.params.blocks(),
                                             resumed.params.blocks()):
            np.testing.assert_array_equal(block, other, err_msg=name)

    @pytest.mark.parametrize("change", [{"batch_size": 8}, {"seq_len": 5},
                                        {"batch_size": 8, "seq_len": 5, "lr": 0.5}])
    def test_resume_refuses_changed_replay_config(self, tmp_path, corpus, change):
        ck = str(tmp_path / "changed.ckpt")
        train(small_cfg(steps=5), corpus, ckpt_path=ck)
        with pytest.raises(ValueError, match="does not match") as info:
            train(small_cfg(steps=10, **change), corpus, resume=load_checkpoint(ck))
        for field in change:
            assert field in str(info.value)

    def test_resume_config_mismatch_rejected(self, tmp_path, corpus):
        ck = str(tmp_path / "mismatch.ckpt")
        train(small_cfg(steps=5, chunk_len=50), corpus, ckpt_path=ck)
        with pytest.raises(ValueError, match="does not match"):
            train(small_cfg(hidden=24), corpus, resume=load_checkpoint(ck))
