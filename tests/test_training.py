import errno
import hashlib
import os

import numpy as np
import pytest

from szlstm import training
from szlstm.cell import GradientSet, ModelParams, RecurrentState, backward_window, run_lanes
from szlstm.numerics import NumericalError, RngState
from szlstm.optim import AdadeltaState, xavier_init
from szlstm.training import (
    Checkpoint,
    TrainConfig,
    encode_bytes,
    evaluate_bpc,
    init_model,
    load_checkpoint,
    load_corpus,
    run_tbptt_window,
    sample_training_chunks,
    save_checkpoint,
    train,
)

from conftest import tiny_params


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
        assert corpus.vocab[corpus.encoded].tobytes() == corpus.data.tobytes()
        again = encode_bytes(corpus.vocab, corpus.data.tobytes())
        np.testing.assert_array_equal(again, corpus.encoded)

    def test_vocab_counts_distinct_bytes(self, corpus):
        assert corpus.vocab_size == len(set(corpus.data.tobytes()))

    def test_unknown_byte_rejected(self, corpus):
        with pytest.raises(ValueError, match="0x00"):
            encode_bytes(corpus.vocab, b"a\x00")

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
        seq = corpus.encoded[100:102, None]
        state0 = RecurrentState.initial(1, 12, corpus.vocab_size, dtype=np.float64)

        g_window = GradientSet.zeros_like(params)
        s1, loss1, _, _ = run_tbptt_window(state0, seq, params, RngState(9), g_window)

        g_manual = GradientSet.zeros_like(params)
        caches = []
        s2, loss2 = run_lanes(params, seq, state0, RngState(9), on_step=caches.append)
        backward_window(caches, params, seq, g_manual)

        assert loss1 == pytest.approx(loss2, rel=1e-12)
        np.testing.assert_array_equal(s1.c, s2.c)
        for name, block in g_manual.items():
            np.testing.assert_allclose(getattr(g_window, name), block, atol=1e-12, err_msg=name)

    def test_states_are_detached_values(self, corpus):
        params, opt = init_model(corpus, small_cfg())
        cfg = small_cfg()
        offsets = sample_training_chunks(corpus, cfg, RngState(1))
        base = offsets[:, None] + np.arange(cfg.seq_len + 1)[None, :]
        seq = corpus.encoded[base]
        states = RecurrentState.initial(cfg.batch_size, cfg.hidden,
                                        corpus.vocab_size, dtype=np.float32)
        grads = GradientSet.zeros_like(params)
        out, _, _, _ = run_tbptt_window(states, seq.T.copy(), params, RngState(2), grads)
        snapshot = out.c.copy()
        params.W_y += 1.0  # later parameter edits must not reach returned states
        np.testing.assert_array_equal(out.c, snapshot)

    @pytest.mark.parametrize("variant", ["standard", "sf", "fixed_zoneout", "adaptive"])
    def test_window_means(self, variant):
        # mean update probability and realized mask rate over every step,
        # lane and cell of the window
        params = tiny_params(variant=variant)
        sym = RngState(3).integers(0, params.vocab_size, size=(9, 4))
        _, _, mean_z, mean_rate = run_tbptt_window(None, sym, params, RngState(4),
                                                   GradientSet.zeros_like(params))
        if variant in ("standard", "sf"):
            assert mean_z == mean_rate == 1.0
            return
        if variant == "fixed_zoneout":
            assert mean_z == params.zoneout_rate
        else:
            assert params.tau <= mean_z <= 1.0
        # a sampled mask: a fraction of the 8 x 4 x 8 binary entries
        count = 8 * 4 * params.hidden_size
        assert 0.0 < mean_rate < 1.0
        assert abs(mean_rate * count - round(mean_rate * count)) < 1e-9


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
        cfg = small_cfg(eval_mask_mode="sampled", seed=11)
        params, _ = init_model(corpus, cfg)
        a = evaluate_bpc(params, corpus.split("valid")[:500], cfg)
        b = evaluate_bpc(params, corpus.split("valid")[:500], cfg)
        assert a == b

    def test_lane_bounds(self, corpus):
        cfg = small_cfg()
        params, _ = init_model(corpus, cfg)
        with pytest.raises(ValueError):
            evaluate_bpc(params, corpus.split("valid"), cfg, lanes=0)


# sha256 of the final checkpoint of TestCheckpoint's pinned tiny run
GOLDEN_CHECKPOINTS = {
    ("standard", "f32"):
        "5cf9e92ba7176bb6419642d27df326051c5b75b1ffc56d431e939b2009fb562d",
    ("standard", "f64"):
        "383e2874abd0412ff7356139ae5b056f0a849f8b41e4c21ccd9a6e4d1320967f",
    ("sf", "f32"):
        "429801926e4ee27aec9c9e46ef86e657f953f30ef34a2cd6379d99a7cfd18543",
    ("sf", "f64"):
        "f87c419884f4e0aff3abe77ebaa464c1c842da49ee34c51e9f03f6daf4e263c2",
    ("fixed_zoneout", "f32"):
        "4c1c7094d75ee2ea6a3ce18c6726dd09de6f284531b48b54ef579dd442715b8b",
    ("fixed_zoneout", "f64"):
        "bca68b007e7fb414952198370bd49ff077e536b84fbd982829fcbc43a3bde8d8",
    ("adaptive", "f32"):
        "acec67aab32dcad821c2e07479a10d4287d15c352df35483eb7fbb63aee4916c",
    ("adaptive", "f64"):
        "267f56ed9a6a48fa6cf87ee54c087abcdfc6a1fc7efb2bab49014333cede6876",
}

# .hex() of (train_bpc, valid_bpc, mean_z, mean_update_rate) in the LogRecords
# of the same runs, at steps 0, 3 and 6
GOLDEN_RECORDS = {
    ("standard", "f32"): [
        ("nan", "0x1.217675d528af1p+2",
         "nan", "nan"),
        ("0x1.2197981ff64cap+2", "0x1.209740ad5f76fp+2",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.211baa6531737p+2", "0x1.1fd680f4a18f0p+2",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ],
    ("standard", "f64"): [
        ("nan", "0x1.217675af30611p+2",
         "nan", "nan"),
        ("0x1.219798600956ep+2", "0x1.2097409f32842p+2",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.211baa876f358p+2", "0x1.1fd680d456a13p+2",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ],
    ("sf", "f32"): [
        ("nan", "0x1.20f5cd041e4c4p+2",
         "nan", "nan"),
        ("0x1.2260bb10a4fa0p+2", "0x1.1f6163333f002p+2",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.21b18fadcb314p+2", "0x1.1e0bcf9c8df6ap+2",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ],
    ("sf", "f64"): [
        ("nan", "0x1.20f5ccf1d9067p+2",
         "nan", "nan"),
        ("0x1.2260bafd04a57p+2", "0x1.1f616320a3691p+2",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.21b18fc58716ap+2", "0x1.1e0bcfc0ffa43p+2",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ],
    ("fixed_zoneout", "f32"): [
        ("nan", "0x1.214873d91004fp+2",
         "nan", "nan"),
        ("0x1.2134fa6782445p+2", "0x1.204e625d301f3p+2",
         "0x1.0000000000000p-1", "0x1.ddddddddddddfp-2"),
        ("0x1.2135ace9eea81p+2", "0x1.1f667644f623fp+2",
         "0x1.0000000000000p-1", "0x1.f777777777778p-2"),
    ],
    ("fixed_zoneout", "f64"): [
        ("nan", "0x1.214873cce66a0p+2",
         "nan", "nan"),
        ("0x1.2134fab1c0238p+2", "0x1.204e623ce2a33p+2",
         "0x1.0000000000000p-1", "0x1.ddddddddddddfp-2"),
        ("0x1.2135ad03ae047p+2", "0x1.1f66764b47075p+2",
         "0x1.0000000000000p-1", "0x1.f777777777778p-2"),
    ],
    ("adaptive", "f32"): [
        ("nan", "0x1.21f5bb1a42357p+2",
         "nan", "nan"),
        ("0x1.226dd4d99f6fdp+2", "0x1.21175e0a6a091p+2",
         "0x1.0d6b6416c16c1p-2", "0x1.0e38e38e38e39p-2"),
        ("0x1.21d884eefb25fp+2", "0x1.206b44935b8bep+2",
         "0x1.016d7b3333333p-2", "0x1.c16c16c16c16cp-3"),
    ],
    ("adaptive", "f64"): [
        ("nan", "0x1.21f5bb06bf966p+2",
         "nan", "nan"),
        ("0x1.226dd4e3eff9ap+2", "0x1.21175e17bed57p+2",
         "0x1.0d6b63af6fb57p-2", "0x1.0e38e38e38e39p-2"),
        ("0x1.21d884e29f1bcp+2", "0x1.206b4468dee86p+2",
         "0x1.016d7ac14e747p-2", "0x1.c16c16c16c16cp-3"),
    ],
}


class TestCheckpoint:
    def _roundtrip(self, tmp_path, corpus, cfg=None):
        cfg = cfg or small_cfg()
        params, opt = init_model(corpus, cfg)
        opt.eg2.W_f += 0.25
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params, opt, cfg, corpus.vocab, step=17,
                        rng={"data": (1, 4), "mask": (2, 9)})
        return params, opt, load_checkpoint(path), path

    def test_round_trip_bit_identical(self, tmp_path, corpus):
        params, opt, loaded, _ = self._roundtrip(tmp_path, corpus)
        for (name, block), (_, other) in zip(params.blocks(), loaded.params.blocks()):
            np.testing.assert_array_equal(block, other, err_msg=name)
        for name, block in opt.eg2.items():
            np.testing.assert_array_equal(block, getattr(loaded.opt.eg2, name))
        for name, block in opt.edx2.items():
            np.testing.assert_array_equal(block, getattr(loaded.opt.edx2, name))
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

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("variant", ["standard", "sf", "fixed_zoneout", "adaptive"])
    def test_checkpoint_bytes_are_pinned(self, tmp_path, corpus, variant, precision):
        """A fixed tiny run writes exactly these bytes, and load then save
        writes them again. The digests pin this build's arithmetic as well as
        the file layout; a BLAS that rounds differently changes them."""
        cfg = small_cfg(seq_len=5, batch_size=3, chunk_len=20, hidden=8, steps=6,
                        val_interval=3, val_prefix=200, seed=7, variant=variant,
                        precision=precision)
        path = tmp_path / "golden.ckpt"
        result = train(cfg, corpus, ckpt_path=str(path))
        blob = path.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_CHECKPOINTS[variant, precision]
        assert [(r.train_bpc.hex(), r.valid_bpc.hex(), r.mean_z.hex(), r.mean_update_rate.hex())
                for r in result.records] == GOLDEN_RECORDS[variant, precision]
        ckpt = load_checkpoint(str(path))
        again = tmp_path / "again.ckpt"
        save_checkpoint(str(again), ckpt.params, ckpt.opt, ckpt.config, ckpt.vocab,
                        ckpt.step, rng=ckpt.rng)
        assert again.read_bytes() == blob

    def _save(self, path, params, opt, step):
        save_checkpoint(str(path), params, opt, small_cfg(), np.arange(params.vocab_size,
                        dtype=np.uint8), step=step, rng={"data": (1, step)})
        return path.read_bytes()

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        params = tiny_params()
        opt = AdadeltaState(params)
        path = tmp_path / "model.ckpt"
        before = self._save(path, params, opt, 1)

        class FailingFile:
            """Writes half of the first array section, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def write(self, data):
                if isinstance(data, np.ndarray):
                    raw = data.view(np.uint8)
                    self.fh.write(raw[: raw.size // 2])
                    raise OSError("no space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(training, "open",
                            lambda *a, **kw: FailingFile(open(*a, **kw)), raising=False)
        params.flat += 1.0
        with pytest.raises(OSError, match="no space"):
            self._save(path, params, opt, 2)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_checkpoint(str(path)).step == 1
        # the half-written spare is rewritten by the next save
        after = self._save(path, params, opt, 3)
        assert load_checkpoint(str(path)).step == 3
        assert after != before

    def test_previous_checkpoint_stays_as_spare(self, tmp_path):
        params = tiny_params()
        opt = AdadeltaState(params)
        path = tmp_path / "model.ckpt"
        spare = tmp_path / "model.ckpt.spare"
        first = self._save(path, params, opt, 1)
        assert not spare.exists()
        second = self._save(path, params, opt, 2)
        assert second != first
        assert spare.read_bytes() == first
        assert load_checkpoint(str(path)).step == 2
        assert load_checkpoint(str(spare)).step == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "model.ckpt.spare"]

    def test_save_rewrites_the_spare_file(self, tmp_path):
        params = tiny_params()
        opt = AdadeltaState(params)
        path = tmp_path / "model.ckpt"
        spare = tmp_path / "model.ckpt.spare"
        self._save(path, params, opt, 1)
        second = self._save(path, params, opt, 2)
        inodes = (path.stat().st_ino, spare.stat().st_ino)
        self._save(path, params, opt, 3)
        # the third save wrote into the spare's inode and kept the second as spare
        assert (path.stat().st_ino, spare.stat().st_ino) == inodes[::-1]
        assert spare.read_bytes() == second
        assert load_checkpoint(str(path)).step == 3

    def test_stale_old_link_is_removed(self, tmp_path):
        params = tiny_params()
        opt = AdadeltaState(params)
        path = tmp_path / "model.ckpt"
        first = self._save(path, params, opt, 1)
        stale = tmp_path / "model.ckpt.old"
        stale.write_bytes(b"left by an interrupted save")
        self._save(path, params, opt, 2)
        assert not stale.exists()
        assert (tmp_path / "model.ckpt.spare").read_bytes() == first
        assert load_checkpoint(str(path)).step == 2

    def test_saves_keep_the_checkpoint_mode(self, tmp_path):
        params = tiny_params()
        opt = AdadeltaState(params)
        path = tmp_path / "model.ckpt"
        self._save(path, params, opt, 1)
        path.chmod(0o600)
        for step in (2, 3, 4):
            self._save(path, params, opt, step)
            assert path.stat().st_mode & 0o777 == 0o600

    @pytest.mark.parametrize("code", [errno.EPERM, errno.ENOTSUP, errno.EXDEV],
                             ids=["EPERM", "ENOTSUP", "EXDEV"])
    def test_save_without_hard_links_replaces_the_checkpoint(self, tmp_path, monkeypatch,
                                                             code):
        def no_links(src, dst):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(training.os, "link", no_links)
        params = tiny_params()
        opt = AdadeltaState(params)
        path = tmp_path / "model.ckpt"
        for step in (1, 2, 3):
            saved = self._save(path, params, opt, step)
            assert load_checkpoint(str(path)).step == step
        assert saved == path.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_save_raises_other_link_errors(self, tmp_path, monkeypatch):
        def no_space(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        params = tiny_params()
        opt = AdadeltaState(params)
        path = tmp_path / "model.ckpt"
        first = self._save(path, params, opt, 1)
        monkeypatch.setattr(training.os, "link", no_space)
        with pytest.raises(OSError):
            self._save(path, params, opt, 2)
        assert path.read_bytes() == first

    def test_save_through_a_symlink_keeps_the_link(self, tmp_path):
        params = tiny_params()
        opt = AdadeltaState(params)
        target = tmp_path / "run7.ckpt"
        self._save(target, params, opt, 1)
        link = tmp_path / "latest.ckpt"
        link.symlink_to(target.name)
        saved = self._save(link, params, opt, 2)
        assert link.is_symlink()
        assert target.read_bytes() == saved
        assert load_checkpoint(str(tmp_path / "run7.ckpt.spare")).step == 1

    def test_resume_into_same_path_matches_uninterrupted_run(self, tmp_path, corpus):
        cfg = small_cfg(steps=20)
        full_ck = tmp_path / "full.ckpt"
        full = train(cfg, corpus, ckpt_path=str(full_ck))
        ck = tmp_path / "resume.ckpt"
        train(small_cfg(steps=10), corpus, ckpt_path=str(ck))
        resumed = train(cfg, corpus, resume=load_checkpoint(str(ck)), ckpt_path=str(ck))
        assert resumed.losses == full.losses[10:]
        assert ck.read_bytes() == full_ck.read_bytes()

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

    def test_mid_chunk_checkpoint_resumes_into_a_fresh_chunk(self, tmp_path, corpus):
        # 7 steps end inside the second 5-window chunk; the end-of-run
        # checkpoint keeps no lane state, so the resumed run samples a fresh
        # chunk from the stored data stream and starts it from fresh lanes
        cfg = small_cfg(steps=12, hidden=8)
        ck = str(tmp_path / "mid.ckpt")
        train(small_cfg(steps=7, hidden=8), corpus, ckpt_path=ck)
        ckpt = load_checkpoint(ck)
        offsets = sample_training_chunks(corpus, cfg, RngState(*ckpt.rng["data"]))
        symbols = corpus.encoded[offsets[None, :] + np.arange(cfg.seq_len + 1)[:, None]]
        _, first, _, _ = run_tbptt_window(None, symbols, ckpt.params,
                                          RngState(*ckpt.rng["mask"]),
                                          GradientSet.zeros_like(ckpt.params))
        resumed = train(cfg, corpus, resume=load_checkpoint(ck))
        assert resumed.losses[0] == first
        assert resumed.losses != train(cfg, corpus).losses[7:]

    @pytest.mark.parametrize("change", [{"batch_size": 8}, {"seq_len": 5},
                                        {"batch_size": 8, "seq_len": 5, "lr": 0.5}])
    def test_resume_refuses_changed_replay_config(self, tmp_path, corpus, change):
        ck = str(tmp_path / "changed.ckpt")
        train(small_cfg(steps=5), corpus, ckpt_path=ck)
        with pytest.raises(ValueError, match="does not match") as info:
            train(small_cfg(steps=10, **change), corpus, resume=load_checkpoint(ck))
        for field in change:
            assert field in str(info.value)

    def test_resume_refuses_other_vocabulary(self, tmp_path, corpus):
        ck = str(tmp_path / "vocab.ckpt")
        train(small_cfg(steps=5), corpus, ckpt_path=ck)
        shifted = tmp_path / "shifted.bin"
        shifted.write_bytes((corpus.data + 1).tobytes())
        other = load_corpus(str(shifted))
        assert other.vocab_size == corpus.vocab_size
        with pytest.raises(ValueError, match="vocabulary differs"):
            train(small_cfg(steps=10), other, resume=load_checkpoint(ck))

    def test_resume_config_mismatch_rejected(self, tmp_path, corpus):
        ck = str(tmp_path / "mismatch.ckpt")
        train(small_cfg(steps=5, chunk_len=50), corpus, ckpt_path=ck)
        with pytest.raises(ValueError, match="does not match"):
            train(small_cfg(hidden=24), corpus, resume=load_checkpoint(ck))
