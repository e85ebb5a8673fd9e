import numpy as np
import pytest

from szlstm import cell, cli
from szlstm.cell import ModelParams
from szlstm.cli import build_config, build_parser, dispatch, parse_variant, read_config_file
from szlstm.numerics import NumericalError
from szlstm.optim import AdadeltaState
from szlstm.training import (
    TrainConfig,
    evaluate_bpc,
    load_checkpoint,
    load_corpus,
    save_checkpoint,
)


def run(argv):
    return dispatch(argv)


class TestParsing:
    def test_variants(self):
        assert parse_variant("standard") == ("standard", None)
        assert parse_variant("adaptive") == ("adaptive", None)
        assert parse_variant("fixed:0.3") == ("fixed_zoneout", 0.3)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            parse_variant("fixed:two")
        with pytest.raises(ValueError):
            parse_variant("zoned")

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seq_len = 20\nhidden=32  # cells\n\nvariant = fixed:0.25\n")
        values = read_config_file(str(cfg))
        assert values == {"seq_len": 20, "hidden": 32, "variant": "fixed:0.25"}

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("hidden_units = 3\n")
        with pytest.raises(ValueError, match="hidden_units"):
            read_config_file(str(cfg))


class TestConfigPrecedence:
    """build_config over a --config file: every value flag beats the file's key."""

    FILE = {"seed": 1, "tau": 0.1, "hidden": 8, "batch_size": 4, "seq_len": 10,
            "chunk_len": 50, "steps": 5, "precision": "f32", "eval_mask_mode": "expected",
            "lr": 0.5}

    def config(self, tmp_path, *flags, extra=""):
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in self.FILE.items()) + extra)
        args = build_parser().parse_args(["train", "corpus", "--config", str(path), *flags])
        return build_config(args)

    @pytest.mark.parametrize("flag,value,key,expected", [
        ("--seed", "2", "seed", 2),
        ("--tau", "0.2", "tau", 0.2),
        ("--hidden", "9", "hidden", 9),
        ("--batch", "6", "batch_size", 6),
        ("--seq-len", "5", "seq_len", 5),
        ("--chunk-len", "100", "chunk_len", 100),
        ("--steps", "7", "steps", 7),
        ("--precision", "f64", "precision", "f64"),
        ("--mask-mode", "sampled", "eval_mask_mode", "sampled"),
        ("--lr", "0.25", "lr", 0.25),
    ])
    def test_flag_beats_file(self, tmp_path, flag, value, key, expected):
        cfg = self.config(tmp_path, flag, value)
        assert getattr(cfg, key) == expected
        for other, file_value in self.FILE.items():
            if other != key:
                assert getattr(cfg, other) == file_value, other

    def test_file_alone(self, tmp_path):
        cfg = self.config(tmp_path)
        assert {k: getattr(cfg, k) for k in self.FILE} == self.FILE
        assert (cfg.variant, cfg.zoneout_rate) == ("adaptive", 0.5)

    def test_file_variant_sets_the_rate(self, tmp_path):
        cfg = self.config(tmp_path, extra="variant = fixed:0.25\n")
        assert (cfg.variant, cfg.zoneout_rate) == ("fixed_zoneout", 0.25)

    def test_variant_flag_beats_file_variant(self, tmp_path):
        cfg = self.config(tmp_path, "--variant", "adaptive", extra="variant = fixed:0.25\n")
        assert (cfg.variant, cfg.zoneout_rate) == ("adaptive", 0.5)

    def test_variant_flag_rate_beats_file_rate(self, tmp_path):
        cfg = self.config(tmp_path, "--variant", "fixed:0.3", extra="zoneout_rate = 0.2\n")
        assert (cfg.variant, cfg.zoneout_rate) == ("fixed_zoneout", 0.3)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["gradcheck", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_corpus_is_io_error(self, tmp_path, capsys):
        code = run(["train", str(tmp_path / "absent"), "--steps", "1",
                    "--run-dir", str(tmp_path)])
        assert code == 3

    def test_failed_gradcheck_is_numerical_failure(self, capsys):
        assert run(["gradcheck", "--threshold", "1e-12"]) == 2


class TestConfidentlyWrongF32:
    """An f32 softmax underflows to an exact 0 for a confidently wrong
    prediction; the loss of the symbol that then arrives, and its surprisal
    one step later, would be log(0)."""

    @pytest.fixture()
    def model(self, tmp_path):
        corpus = tmp_path / "abcde.txt"
        corpus.write_bytes(b"abcde" * 200)
        # zero weights leave h = 0, so the logits are exactly b_y
        params = ModelParams.zeros(5, 8, dtype=np.float32)
        params.b_y[:] = [0, 0, 0, 0, 120]
        ckpt = str(tmp_path / "confident.ckpt")
        save_checkpoint(ckpt, params, AdadeltaState(params), None,
                        np.frombuffer(b"abcde", dtype=np.uint8), step=0)
        return ckpt, str(corpus)

    def test_evaluation_raises_numerical_error(self, model):
        ckpt, corpus = model
        with pytest.raises(NumericalError, match="zero probability"):
            evaluate_bpc(load_checkpoint(ckpt).params, load_corpus(corpus).split("test"),
                         TrainConfig())

    def test_eval_command_exits_2(self, model, capsys):
        assert run(["eval", *model]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_single_scored_step_raises_numerical_error(self, model):
        # one step: the target's zero probability shows in the loss, and no
        # later step takes its surprisal
        ckpt, _ = model
        with pytest.raises(NumericalError, match="zero probability"):
            evaluate_bpc(load_checkpoint(ckpt).params, np.array([4, 0]), TrainConfig())


class TestVocabularyMismatch:
    """A model scores symbol indices, which mean the bytes of its training
    corpus: a corpus of as many different bytes is still refused."""

    @pytest.fixture()
    def model(self, tmp_path):
        params = ModelParams.zeros(3, 4, dtype=np.float32)
        ckpt = str(tmp_path / "abc.ckpt")
        save_checkpoint(ckpt, params, AdadeltaState(params), None,
                        np.frombuffer(b"abc", dtype=np.uint8), step=0)
        corpus = tmp_path / "xyz.txt"
        corpus.write_bytes(b"xyzzy" * 400)
        return ckpt, str(corpus)

    def test_eval_names_first_differing_byte(self, model, capsys):
        assert run(["eval", *model]) == 1
        err = capsys.readouterr().err
        assert "symbol 0: corpus byte 0x78, checkpoint byte 0x61" in err

    def test_trace_names_first_differing_byte(self, model, tmp_path, capsys):
        assert run(["trace", *model, "--window", "5", "--out-dir", str(tmp_path)]) == 1
        assert "corpus byte 0x78, checkpoint byte 0x61" in capsys.readouterr().err
        assert not (tmp_path / "trace_gates.csv").exists()


class TestEvalFlags:
    """eval reads the model from its checkpoint, so the flags and config
    keys that would describe one are usage errors rather than silently
    ignored."""

    @pytest.fixture()
    def model(self, corpus, corpus_path, tmp_path):
        params = ModelParams.zeros(corpus.vocab_size, 4, dtype=np.float32)
        ckpt = str(tmp_path / "zero.ckpt")
        save_checkpoint(ckpt, params, AdadeltaState(params), None, corpus.vocab, step=0)
        return ckpt, corpus_path

    @pytest.mark.parametrize("flag", [["--hidden", "7"], ["--variant", "standard"],
                                      ["--lr", "1.0"]])
    def test_model_flags_rejected(self, model, flag, capsys):
        assert run(["eval", *model, *flag]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_seed_mask_mode_and_config_accepted(self, model, tmp_path, capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("eval_mask_mode = sampled\n")
        assert run(["eval", *model, "--seed", "3", "--mask-mode", "sampled",
                    "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("test_bpc\t")

    @pytest.mark.parametrize("key,value", [("hidden", "7"), ("variant", "standard"),
                                           ("lr", "5")])
    def test_model_keys_in_config_rejected(self, model, tmp_path, key, value, capsys):
        # a config file may set the eval keys, but no key of the model itself
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"seed = 3\n{key} = {value}\neval_mask_mode = sampled\n")
        assert run(["eval", *model, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert repr(key) in captured.err
        assert captured.out == ""

    def test_reads_the_config_file_once(self, model, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("seed = 3\neval_mask_mode = sampled\n")
        read, paths = cli.read_config_file, []
        monkeypatch.setattr(cli, "read_config_file",
                            lambda path: paths.append(path) or read(path))
        assert run(["eval", *model, "--config", str(cfg)]) == 0
        assert paths == [str(cfg)]


class TestCheckpointZoneoutRate:
    """A checkpoint's zoneout_rate is range-checked where its model is built."""

    def test_rate_outside_unit_interval_rejected(self, corpus, corpus_path, tmp_path, capsys):
        params = ModelParams.zeros(corpus.vocab_size, 4, variant="fixed_zoneout",
                                   dtype=np.float32)
        ckpt = tmp_path / "fixed.ckpt"
        save_checkpoint(str(ckpt), params, AdadeltaState(params), None, corpus.vocab, step=0)
        # same length, so the header length field stays right
        blob = ckpt.read_bytes()
        assert blob.count(b'"zoneout_rate": 0.5') == 1
        ckpt.write_bytes(blob.replace(b'"zoneout_rate": 0.5', b'"zoneout_rate": 1.5'))
        with pytest.raises(ValueError, match="zoneout_rate must lie in"):
            load_checkpoint(str(ckpt))
        assert run(["eval", str(ckpt), corpus_path]) == 1
        captured = capsys.readouterr()
        assert "zoneout_rate" in captured.err
        assert captured.out == ""


class TestMalformedCheckpoint:
    """A checkpoint missing what a command reads fails with exit 1, not a traceback."""

    def test_missing_header_fields_named(self, corpus, corpus_path, tmp_path, capsys):
        params = ModelParams.zeros(corpus.vocab_size, 4, dtype=np.float32)
        ckpt = tmp_path / "renamed.ckpt"
        save_checkpoint(str(ckpt), params, AdadeltaState(params), None, corpus.vocab, step=0)
        # same-length renames, so the header length field stays right
        blob = ckpt.read_bytes()
        for key in (b'"zoneout_rate"', b'"tau"'):
            assert blob.count(key) == 1
            blob = blob.replace(key, key[:-2] + b'_"')
        ckpt.write_bytes(blob)
        with pytest.raises(ValueError, match="header lacks tau, zoneout_rate"):
            load_checkpoint(str(ckpt))
        assert run(["eval", str(ckpt), corpus_path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "zoneout_rate" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_resume_without_rng_streams_rejected_before_any_write(self, corpus_path, tmp_path,
                                                                  capsys):
        flags = ["--hidden", "12", "--batch", "4", "--seq-len", "10", "--chunk-len", "50"]
        assert run(["train", corpus_path, "--steps", "2", *flags,
                    "--run-dir", str(tmp_path), "--run-id", "a"]) == 0
        ckpt = load_checkpoint(str(tmp_path / "a.ckpt"))
        bare = str(tmp_path / "bare.ckpt")
        save_checkpoint(bare, ckpt.params, ckpt.opt, ckpt.config, ckpt.vocab, ckpt.step)
        capsys.readouterr()
        run_dir = tmp_path / "resumed"
        assert run(["train", corpus_path, "--steps", "4", *flags, "--resume", bare,
                    "--run-dir", str(run_dir), "--run-id", "b"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "data and mask" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert list(run_dir.iterdir()) == []


class TestGradcheckCommand:
    def test_passes_and_prints_table(self, capsys):
        assert run(["gradcheck"]) == 0
        out = capsys.readouterr().out
        for variant in ("standard", "sf", "fixed_zoneout", "adaptive"):
            assert f"variant={variant}" in out
        assert "block\tmax_rel_err" in out

    @pytest.mark.parametrize("eps", ["0", "nan"])
    def test_non_positive_eps_rejected(self, eps, capsys):
        assert run(["gradcheck", "--eps", eps]) == 1
        captured = capsys.readouterr()
        assert f"eps must be positive, got {eps}" in captured.err
        assert captured.out == ""


class TestTrainEvalCommands:
    def test_zero_step_train_writes_init_checkpoint(self, corpus_path, corpus, tmp_path, capsys):
        code = run(["train", corpus_path, "--steps", "0", "--hidden", "12",
                    "--batch", "4", "--seq-len", "10", "--chunk-len", "50",
                    "--run-dir", str(tmp_path), "--run-id", "init"])
        assert code == 0
        ckpt = load_checkpoint(str(tmp_path / "init.ckpt"))
        assert ckpt.step == 0
        log = (tmp_path / "init.log").read_text().splitlines()
        step0 = log[1].split("\t")
        uniform = np.log2(corpus.vocab_size)
        assert abs(float(step0[2]) - uniform) / uniform < 0.05

    def test_eval_is_deterministic(self, corpus_path, tmp_path, capsys):
        assert run(["train", corpus_path, "--steps", "5", "--hidden", "12",
                    "--batch", "4", "--seq-len", "10", "--chunk-len", "50",
                    "--run-dir", str(tmp_path), "--run-id", "m"]) == 0
        capsys.readouterr()
        ckpt = str(tmp_path / "m.ckpt")
        assert run(["eval", ckpt, corpus_path, "--split", "valid", "--lanes", "4"]) == 0
        first = capsys.readouterr().out
        assert run(["eval", ckpt, corpus_path, "--split", "valid", "--lanes", "4"]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("valid_bpc\t")

    def test_reduction_chain_end_to_end(self, corpus_path, tmp_path, capsys):
        common = ["--steps", "10", "--hidden", "12", "--batch", "4",
                  "--seq-len", "10", "--chunk-len", "50", "--seed", "5",
                  "--run-dir", str(tmp_path)]
        assert run(["train", corpus_path, "--variant", "adaptive", "--tau", "1.0",
                    "--run-id", "a1", *common]) == 0
        assert run(["train", corpus_path, "--variant", "sf",
                    "--run-id", "sf", *common]) == 0
        capsys.readouterr()
        assert run(["eval", str(tmp_path / "a1.ckpt"), corpus_path]) == 0
        bpc_adaptive = capsys.readouterr().out
        assert run(["eval", str(tmp_path / "sf.ckpt"), corpus_path]) == 0
        bpc_sf = capsys.readouterr().out
        assert bpc_adaptive == bpc_sf

    def test_config_file_with_flag_override(self, corpus_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hidden = 12\nbatch_size = 4\nseq_len = 10\n"
                       "chunk_len = 50\nsteps = 999\n")
        assert run(["train", corpus_path, "--config", str(cfg), "--steps", "2",
                    "--run-dir", str(tmp_path), "--run-id", "cfg"]) == 0
        assert load_checkpoint(str(tmp_path / "cfg.ckpt")).step == 2

    @pytest.mark.parametrize("key,value", [("clip_norm", "0"), ("rho", "1.5"), ("rho", "nan"),
                                           ("eps", "0"), ("lr", "-1"), ("val_lanes", "-3")])
    def test_bad_optimizer_or_validation_value_rejected_before_any_write(
            self, corpus_path, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"hidden = 12\nbatch_size = 4\nseq_len = 10\nchunk_len = 50\n"
                       f"steps = 2\n{key} = {value}\n")
        run_dir = tmp_path / "run"
        assert run(["train", corpus_path, "--config", str(cfg), "--run-dir", str(run_dir)]) == 1
        assert key in capsys.readouterr().err
        assert not run_dir.exists()

    @pytest.mark.parametrize("rate", ["1.5", "-0.1", "nan"])
    def test_out_of_range_fixed_rate_rejected_before_any_write(
            self, corpus_path, tmp_path, capsys, rate):
        run_dir = tmp_path / "run"
        assert run(["train", corpus_path, "--variant", f"fixed:{rate}", "--steps", "1",
                    "--run-dir", str(run_dir)]) == 1
        assert rate in capsys.readouterr().err
        assert not run_dir.exists()

    def test_invalid_flag_combination_names_field(self, corpus_path, tmp_path, capsys):
        code = run(["train", corpus_path, "--seq-len", "7", "--chunk-len", "50",
                    "--run-dir", str(tmp_path)])
        assert code == 1
        assert "chunk_len" in capsys.readouterr().err


class TestTraceCommand:
    def test_writes_both_csvs(self, corpus_path, tmp_path, capsys):
        assert run(["train", corpus_path, "--steps", "2", "--hidden", "12",
                    "--batch", "4", "--seq-len", "10", "--chunk-len", "50",
                    "--run-dir", str(tmp_path), "--run-id", "t"]) == 0
        code = run(["trace", str(tmp_path / "t.ckpt"), corpus_path,
                    "--window", "20", "--out-dir", str(tmp_path),
                    "--run-id", "demo"])
        assert code == 0
        gates = (tmp_path / "demo_gates.csv").read_text().splitlines()
        assert gates[0] == "t,cell,i,o,f,Z"
        assert len(gates) == 1 + 20 * 12
        assert (tmp_path / "demo_cellchange.csv").exists()

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_non_positive_window_rejected(self, corpus_path, tmp_path, capsys,
                                          window):
        assert run(["train", corpus_path, "--steps", "2", "--hidden", "12",
                    "--batch", "4", "--seq-len", "10", "--chunk-len", "50",
                    "--run-dir", str(tmp_path), "--run-id", "t"]) == 0
        capsys.readouterr()
        code = run(["trace", str(tmp_path / "t.ckpt"), corpus_path,
                    "--window", window, "--out-dir", str(tmp_path)])
        assert code == 1
        assert f"trace window must be at least 1 step, got {window}" in capsys.readouterr().err


class TestSampleCommand:
    @pytest.fixture()
    def checkpoint(self, corpus_path, tmp_path):
        assert run(["train", corpus_path, "--steps", "2", "--hidden", "12",
                    "--batch", "4", "--seq-len", "10", "--chunk-len", "50",
                    "--run-dir", str(tmp_path), "--run-id", "s"]) == 0
        return str(tmp_path / "s.ckpt")

    def test_generates_text(self, checkpoint, capsys):
        capsys.readouterr()
        assert run(["sample", checkpoint, "--prompt", "the ", "--length", "40",
                    "--seed", "1"]) == 0
        out = capsys.readouterr().out.rstrip("\n")
        assert out.startswith("the ")
        assert len(out) >= 40

    def test_sampling_is_seed_deterministic(self, checkpoint, capsys):
        run(["sample", checkpoint, "--prompt", "data", "--length", "30", "--seed", "2"])
        a = capsys.readouterr().out
        run(["sample", checkpoint, "--prompt", "data", "--length", "30", "--seed", "2"])
        assert capsys.readouterr().out == a

    def test_unknown_prompt_byte_rejected(self, checkpoint, capsys):
        assert run(["sample", checkpoint, "--prompt", "q!!"]) == 1
        assert "vocabulary" in capsys.readouterr().err

    def test_temperature_must_be_positive(self, checkpoint, capsys):
        for bad in ("0", "nan"):
            assert run(["sample", checkpoint, "--prompt", "the ",
                        "--temperature", bad]) == 1

    def test_fuses_the_gate_weights_once(self, checkpoint, monkeypatch, capsys):
        # the prompt and the generated rows run as one run_lanes call
        fuse, calls = cell.fuse_gate_weights, []
        monkeypatch.setattr(cell, "fuse_gate_weights",
                            lambda params: calls.append(params) or fuse(params))
        assert run(["sample", checkpoint, "--prompt", "the ", "--length", "20"]) == 0
        assert len(calls) == 1

    def test_zero_length_prints_the_prompt(self, checkpoint, capsys):
        capsys.readouterr()
        assert run(["sample", checkpoint, "--prompt", "the ", "--length", "0"]) == 0
        assert capsys.readouterr().out == "the \n"

    def test_negative_length_rejected(self, checkpoint, capsys):
        capsys.readouterr()
        assert run(["sample", checkpoint, "--prompt", "the ", "--length", "-1"]) == 1
        captured = capsys.readouterr()
        assert "--length must be nonnegative, got -1" in captured.err
        assert captured.out == ""
