import codecs
import json
import os
import tempfile
from dataclasses import asdict

import numpy as np
import pytest

from conftest import synthetic_text
from szlstm import cli
from szlstm.cell import VARIANTS, ModelParams
from szlstm.cli import build_config, build_parser, dispatch, read_config_file
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
    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seq_len = 20\nhidden=32  # cells\n\nvariant = fixed_zoneout\n")
        values = read_config_file(str(cfg))
        assert values == {"seq_len": 20, "hidden": 32, "variant": "fixed_zoneout"}

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("hidden_units = 3\n")
        with pytest.raises(ValueError, match="hidden_units"):
            read_config_file(str(cfg))


class TestConfigPrecedence:
    """build_config over a --config file: every value flag beats the file's key."""

    FILE = {"seed": 1, "tau": 0.1, "hidden": 8, "batch_size": 4, "seq_len": 10,
            "chunk_len": 50, "steps": 5, "precision": "f32", "eval_mask_mode": "expected",
            "lr": 0.5, "variant": "fixed_zoneout", "zoneout_rate": 0.25}

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
        ("--variant", "sf", "variant", "sf"),
        ("--zoneout-rate", "0.3", "zoneout_rate", 0.3),
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

    def test_byte_order_mark_dropped(self, tmp_path):
        plain = self.config(tmp_path)
        path = tmp_path / "run.cfg"
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        args = build_parser().parse_args(["train", "corpus", "--config", str(path)])
        assert build_config(args) == plain


class TestEchoSpelling:
    """fixed_zoneout, the variant name a checkpoint's config echo holds, is
    a config file's spelling too."""

    FLAGS = ["--hidden", "12", "--batch", "4", "--seq-len", "10", "--chunk-len", "50",
             "--steps", "2"]

    def test_config_file_names_fixed_zoneout(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "fixed.cfg"
        cfg.write_text("variant = fixed_zoneout\nzoneout_rate = 0.3\n")
        assert run(["train", corpus_path, "--config", str(cfg), *self.FLAGS,
                    "--run-dir", str(tmp_path), "--run-id", "fixed"]) == 0
        params = load_checkpoint(str(tmp_path / "fixed.ckpt")).params
        assert (params.variant, params.zoneout_rate) == ("fixed_zoneout", 0.3)

    def test_checkpoint_echo_is_a_config_file(self, corpus_path, tmp_path, capsys):
        assert run(["train", corpus_path, "--variant", "fixed_zoneout", "--zoneout-rate", "0.3",
                    *self.FLAGS, "--run-dir", str(tmp_path), "--run-id", "first"]) == 0
        echo = asdict(load_checkpoint(str(tmp_path / "first.ckpt")).config)
        assert echo["variant"] == "fixed_zoneout"
        cfg = tmp_path / "echo.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in echo.items()))
        assert run(["train", corpus_path, "--config", str(cfg),
                    "--run-dir", str(tmp_path), "--run-id", "again"]) == 0
        # the same settings train the same run, down to the checkpoint's bytes
        assert (tmp_path / "again.ckpt").read_bytes() == (tmp_path / "first.ckpt").read_bytes()


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

    def test_unknown_variant_names_the_variants(self, corpus_path, tmp_path, capsys):
        run_dir = tmp_path / "runs"
        assert run(["train", corpus_path, "--variant", "zoned", "--run-dir", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: variant must be one of {VARIANTS}, got 'zoned'\n"
        assert not run_dir.exists()


class TestConfidentlyWrongF32:
    """An f32 softmax underflows to an exact 0 for a confidently wrong
    prediction; the loss of the symbol that then arrives, and its surprisal
    one step later, would be log(0)."""

    @staticmethod
    def checkpoint(tmp_path, text, variant="adaptive"):
        corpus = tmp_path / "abcde.txt"
        corpus.write_bytes(text)
        # zero weights leave h = 0, so the logits are exactly b_y
        cfg = TrainConfig(hidden=8, variant=variant)
        params = ModelParams.zeros(5, cfg)
        params.b_y[:] = [0, 0, 0, 0, 120]
        ckpt = str(tmp_path / "confident.ckpt")
        save_checkpoint(ckpt, params, AdadeltaState(params, cfg), cfg,
                        np.frombuffer(b"abcde", dtype=np.uint8), step=0)
        return ckpt, str(corpus)

    @pytest.fixture()
    def model(self, tmp_path):
        return self.checkpoint(tmp_path, b"abcde" * 200)

    @pytest.fixture()
    def standard_model(self, tmp_path):
        # the 50 test symbols are all e but the 21st, an a: standard scores the
        # 49 steps in one output-head block, and the zero-probability target
        # falls at step 19 of it, not at its end
        return self.checkpoint(tmp_path, b"abcde" * 180 + b"e" * 70 + b"a" + b"e" * 29,
                               variant="standard")

    def test_evaluation_raises_numerical_error(self, model):
        ckpt, corpus = model
        with pytest.raises(NumericalError, match="zero probability"):
            evaluate_bpc(load_checkpoint(ckpt).params, load_corpus(corpus).split("test"),
                         TrainConfig())

    def test_eval_command_exits_2(self, model, capsys):
        assert run(["eval", *model]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_standard_evaluation_raises_mid_block(self, standard_model):
        ckpt, corpus = standard_model
        split = load_corpus(corpus).split("test")
        assert split.tolist() == [4] * 20 + [0] + [4] * 29
        with pytest.raises(NumericalError, match="zero probability"):
            evaluate_bpc(load_checkpoint(ckpt).params, split, TrainConfig())

    def test_standard_eval_command_exits_2(self, standard_model, capsys):
        assert run(["eval", *standard_model]) == 2
        captured = capsys.readouterr()
        assert "numerical failure" in captured.err and "Traceback" not in captured.err

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
        cfg = TrainConfig(hidden=4)
        params = ModelParams.zeros(3, cfg)
        ckpt = str(tmp_path / "abc.ckpt")
        save_checkpoint(ckpt, params, AdadeltaState(params, cfg), cfg,
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
        cfg = TrainConfig(hidden=4)
        params = ModelParams.zeros(corpus.vocab_size, cfg)
        ckpt = str(tmp_path / "zero.ckpt")
        save_checkpoint(ckpt, params, AdadeltaState(params, cfg), cfg, corpus.vocab, step=0)
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
        cfg = TrainConfig(hidden=4, variant="fixed_zoneout")
        params = ModelParams.zeros(corpus.vocab_size, cfg)
        ckpt = tmp_path / "fixed.ckpt"
        save_checkpoint(str(ckpt), params, AdadeltaState(params, cfg), cfg, corpus.vocab, step=0)
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


def header_of(blob):
    """The parsed JSON header of a checkpoint's bytes."""
    return json.loads(blob[16: 16 + int.from_bytes(blob[8:16], "little")])


def with_header(blob, header):
    """A checkpoint's bytes with header (a JSON value, or raw bytes) in place
    of its own header, and the length field to match."""
    hlen = int.from_bytes(blob[8:16], "little")
    text = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    return blob[:8] + len(text).to_bytes(8, "little") + text + blob[16 + hlen:]


# one value of each JSON type; none is valid anywhere in a header
JSON_VALUES = (None, True, 2.5, "0.5", [None], {"x": None})


def value_pool(rng):
    """Values of each kind a setting's rule may refuse: a sign, zero, a
    fraction, the non-finite floats, and seeded draws of a small negative
    number, a large integer and a word."""
    letters = list("abcdefghijklmnopqrstuvwxyz")
    return (-1, 0, 1.5, float("inf"), float("nan"), -float(rng.exponential()),
            int(rng.integers(2, 2 ** 31)), "".join(rng.choice(letters, 8)))


def malformed_checkpoints(blob, seed):
    """(label, bytes, named, config) for each malformed file made from the
    valid checkpoint blob. named is text the refusal must contain; config is
    the header's config when one value of it is the only fault, else None."""
    rng = np.random.default_rng(seed)
    header = header_of(blob)
    hlen = int.from_bytes(blob[8:16], "little")
    for value in (*JSON_VALUES, b"[" * 100000 + b"]" * 100000):
        yield f"header {value!r:.20}", with_header(blob, value), "header", None
    # each key dropped or of each JSON type; out-of-range values, also one level in
    for key in header:
        dropped = {k: v for k, v in header.items() if k != key}
        yield f"{key} dropped", with_header(blob, dropped), f"lacks {key}", None
    out_of_range = {("step",): [-1], ("vocab",): [[]], ("vocab", 0): [-1, 256],
                    ("rng", "data"): [[1]], ("rng", "data", 1): [-1, 2 ** 64]}
    for path in dict.fromkeys((*((key,) for key in header), *out_of_range)):
        for value in (*JSON_VALUES, *out_of_range.get(path, ())):
            node = edited = json.loads(json.dumps(header))
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            label = ".".join(map(str, path))
            yield f"{label} = {value!r}", with_header(blob, edited), path[0], None
    # each config field dropped, of a wrong type, or out of range (each value
    # of value_pool that TrainConfig.validate refuses there); one unknown field
    config = header["config"]
    for name in config:
        out_of_range = []
        for value in value_pool(rng):
            try:
                TrainConfig(**dict(config, **{name: value})).validate()
            except ValueError:
                out_of_range.append(value)
        assert out_of_range, name
        for value in (True, "0.5", None, [], {}, *out_of_range):
            bad = dict(config, **{name: value})
            yield f"config {name} = {value!r}", with_header(blob, dict(header, config=bad)), "", bad
        dropped = {k: v for k, v in config.items() if k != name}
        yield (f"config {name} dropped", with_header(blob, dict(header, config=dropped)),
               f"missing {name}", None)
    yield ("config unknown field", with_header(blob, dict(header, config=dict(config, bogus=1))),
           "unknown 'bogus'", None)
    for version in (1, 3):
        yield (f"version {version}", blob[:4] + version.to_bytes(4, "little") + blob[8:],
               "unsupported checkpoint version", None)
    unparsed = "header cannot be parsed"
    for length, named in ((0, unparsed), (hlen - 1, unparsed), (hlen + 1, unparsed),
                          (len(blob) - 15, "truncated"), (2 ** 63, "truncated")):
        yield f"length {length}", blob[:8] + length.to_bytes(8, "little") + blob[16:], named, None
    yield "header byte 0xff", blob[:16] + b"\xff" + blob[17:], f"{unparsed}: 'utf-8' codec", None
    section = (len(blob) - 16 - hlen) // 3
    for end in (0, 4, 8, 16, 16 + hlen, 16 + hlen + section, 16 + hlen + 2 * section):
        yield f"truncated at {end}", blob[:end], "truncated", None


def sweep_source():
    """The bytes of a valid checkpoint of the test corpus's vocabulary, from
    which malformed_checkpoints makes its bad files."""
    cfg = TrainConfig(hidden=4)
    vocab = np.unique(np.frombuffer(synthetic_text(), dtype=np.uint8))
    params = ModelParams.zeros(len(vocab), cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "good.ckpt")
        save_checkpoint(path, params, AdadeltaState(params, cfg), cfg, vocab, step=3,
                        rng={"data": (1, 2), "mask": (3, 4)})
        with open(path, "rb") as fh:
            return fh.read()


SWEEP_SOURCE = sweep_source()
MALFORMED = list(malformed_checkpoints(SWEEP_SOURCE, seed=0))

# the settings eval reads from a config file
EVAL_KEYS = tuple(field for _, field, _ in cli.EVAL_FLAGS)


def bad_config_files(seed):
    """(label, bytes, message, commands) for each bad config file: each
    TrainConfig key set to each value of the JSON types and of value_pool that
    TrainConfig.validate refuses there, then each kind of bad line. message is
    the refusal, PATH standing for the file's path; commands are the
    subcommands that take the file's keys."""
    rng = np.random.default_rng(seed)
    for name, typ in TrainConfig.__annotations__.items():
        commands = ("train", "eval") if name in EVAL_KEYS else ("train",)
        for text in dict.fromkeys(map(str, (True, "0.5", None, [], {}, *value_pool(rng)))):
            try:
                value = typ(text)
            except ValueError:   # text that is no typ reaches validate as text
                value = text
            try:
                TrainConfig(**{name: value}).validate()
            except ValueError as err:
                yield f"{name} = {text}", f"{name} = {text}\n".encode(), str(err), commands
    for label, data, message in (
            ("no =", b"seed 4\n", "PATH:1: expected key=value, got 'seed 4'"),
            ("bare key", b"\nseed\n", "PATH:2: expected key=value, got 'seed'"),
            ("repeated key", b"seed = 4\n# again\nseed = 4\n",
             "PATH:3: seed is already set on line 1"),
            ("unknown key", b"bogus = 1\n", "PATH:1: unknown config key 'bogus'"),
            ("latin-1 byte", b"seed = 4  # caf\xe9\n", "PATH:1: byte 0xe9 is not UTF-8")):
        yield label, data, message, ("train", "eval")


BAD_CONFIGS = list(bad_config_files(seed=0))


class TestNonFiniteWalk:
    """eval, sample and trace exit 2, writing nothing to stdout, when the walk is not finite."""

    @staticmethod
    def checkpoint(corpus, path):
        # zero weights leave h = 0, and 0 * NaN spreads the NaN to every logit
        cfg = TrainConfig(hidden=4)
        params = ModelParams.zeros(corpus.vocab_size, cfg)
        params.W_y[0, 0] = np.nan
        save_checkpoint(str(path), params, AdadeltaState(params, cfg), cfg, corpus.vocab, step=0)
        return str(path)

    def test_eval_exits_2(self, corpus, corpus_path, tmp_path, capsys):
        assert run(["eval", self.checkpoint(corpus, tmp_path / "nan.ckpt"), corpus_path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure:") and "non-finite" in captured.err
        assert captured.out == ""

    def test_sample_exits_2(self, corpus, tmp_path, capsys):
        prompt = bytes(corpus.vocab[:2]).decode("ascii")
        ckpt = self.checkpoint(corpus, tmp_path / "nan.ckpt")
        assert run(["sample", ckpt, "--prompt", prompt, "--length", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure:") and "non-finite" in captured.err
        assert captured.out == ""

    def test_trace_exits_2(self, corpus, corpus_path, tmp_path, capsys):
        ckpt = self.checkpoint(corpus, tmp_path / "nan.ckpt")
        out_dir = tmp_path / "out"
        assert run(["trace", ckpt, corpus_path, "--window", "5",
                    "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure:") and "non-finite" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.glob("**/*.csv"))


class TestMalformedCheckpoint:
    """A checkpoint missing what a command reads fails with exit 1, not a traceback."""

    @staticmethod
    def checkpoint(corpus, path):
        cfg = TrainConfig(hidden=4)
        params = ModelParams.zeros(corpus.vocab_size, cfg)
        save_checkpoint(str(path), params, AdadeltaState(params, cfg), cfg, corpus.vocab, step=0)
        return path

    @pytest.mark.parametrize("length,header", [
        (None, b"null"), (None, b"7"), (2 ** 63, None), (2 ** 40, None), (None, b"[" * 100000)],
        ids=["null", "number", "length-2**63", "length-2**40", "nested-100000"])
    def test_unreadable_header_refused(self, corpus, corpus_path, tmp_path, capsys, length,
                                       header):
        # a header length past the end of the file is refused before the read;
        # a header that is not a JSON object, or nests too deep to parse, after it
        ckpt = self.checkpoint(corpus, tmp_path / "bad.ckpt")
        blob = ckpt.read_bytes()
        hlen = int.from_bytes(blob[8:16], "little")
        header = blob[16: 16 + hlen] if header is None else header
        length = len(header) if length is None else length
        ckpt.write_bytes(blob[:8] + length.to_bytes(8, "little") + header + blob[16 + hlen:])
        with pytest.raises(ValueError, match="header"):
            load_checkpoint(str(ckpt))
        assert run(["eval", str(ckpt), corpus_path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "header" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_arrays_beyond_the_file_refused_before_allocation(self, corpus, corpus_path,
                                                             tmp_path, capsys):
        # the header's shape asks for about 4 PiB of arrays: more than a 64-bit
        # address space holds, so only a size check ahead of the allocation
        # turns it into an error message
        ckpt = self.checkpoint(corpus, tmp_path / "huge.ckpt")
        blob = ckpt.read_bytes()
        header = header_of(blob)
        header["config"]["hidden"] = 10 ** 7
        ckpt.write_bytes(with_header(blob, header))
        with pytest.raises(ValueError, match="truncated checkpoint .* short read in arrays"):
            load_checkpoint(str(ckpt))
        assert run(["eval", str(ckpt), corpus_path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "short read in arrays" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_sweep_source_loads(self, tmp_path):
        path = tmp_path / "good.ckpt"
        path.write_bytes(SWEEP_SOURCE)
        assert load_checkpoint(str(path)).step == 3

    @pytest.mark.parametrize("data,named,bad", [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_every_generated_malformation_refused(self, corpus_path, tmp_path, capsys, data,
                                                  named, bad):
        # load_checkpoint raises ValueError naming the file, a bad config value
        # with the message of TrainConfig.validate, and eval exits 1 without a
        # traceback
        path = tmp_path / "bad.ckpt"
        path.write_bytes(data)
        try:
            error = load_checkpoint(str(path))
        except Exception as err:
            error = err
        assert isinstance(error, ValueError) and str(path) in str(error), error
        if bad is None:
            assert named in str(error), error
        else:
            with pytest.raises(ValueError) as direct:
                TrainConfig(**bad).validate()
            assert str(error) == f"checkpoint {path} header {direct.value}"
        assert run(["eval", str(path), corpus_path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert captured.out == ""

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
        assert not run_dir.exists()


class TestOneRuleEverySource:
    """A setting's rule is TrainConfig.validate's wherever the value comes
    from: a config built in code, a flag or a config file all get its
    "<name> must ..." message, and a checkpoint header gets it prefixed
    (TestMalformedCheckpoint::test_every_generated_malformation_refused)."""

    @pytest.mark.parametrize("flag,text,name,value", [
        ("--lr", "inf", "lr", float("inf")), ("--tau", "nan", "tau", float("nan")),
        ("--hidden", "0", "hidden", 0), ("--steps", "-1", "steps", -1),
        ("--hidden", "1.5", "hidden", "1.5"), ("--seed", "x", "seed", "x"),
        ("--precision", "f16", "precision", "f16"),
        ("--mask-mode", "bogus", "eval_mask_mode", "bogus"),
        ("--variant", "fixed:0.3", "variant", "fixed:0.3"),
        ("--zoneout-rate", "2", "zoneout_rate", 2.0)])
    def test_flag_and_config_file_get_the_config_message(self, tmp_path, capsys,
                                                         flag, text, name, value):
        with pytest.raises(ValueError) as direct:
            TrainConfig(**{name: value}).validate()
        # a corpus too short for a chunk makes a value that wrongly passes fail fast
        corpus, cfg = tmp_path / "tiny", tmp_path / "bad.cfg"
        corpus.write_bytes(b"tiny corpus")
        cfg.write_text(f"{name} = {text}\n")
        run_dir = tmp_path / "runs"
        for source in ([flag, text], ["--config", str(cfg)]):
            assert run(["train", str(corpus), *source, "--run-dir", str(run_dir)]) == 1
            assert capsys.readouterr().err == f"error: {direct.value}\n"
        assert not run_dir.exists()

    @pytest.mark.parametrize("data,message,commands", [case[1:] for case in BAD_CONFIGS],
                             ids=[case[0] for case in BAD_CONFIGS])
    def test_every_generated_bad_config_refused(self, tmp_path, capsys, data, message,
                                                commands):
        # exit 1 with the one message, and nothing written; a corpus too short
        # for a chunk makes a file that wrongly passes fail fast, not train
        path, ckpt, corpus = (tmp_path / name for name in ("bad.cfg", "model.ckpt", "tiny"))
        path.write_bytes(data)
        ckpt.write_bytes(SWEEP_SOURCE)
        corpus.write_bytes(b"tiny corpus")
        run_dir = tmp_path / "runs"
        argv = {"train": ["train", str(corpus), "--run-dir", str(run_dir)],
                "eval": ["eval", str(ckpt), str(corpus)]}
        for command in commands:
            assert run([*argv[command], "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: {message.replace('PATH', str(path))}\n"
            assert captured.out == ""
        assert not run_dir.exists()

    @pytest.mark.parametrize("command", ["trace", "sample", "gradcheck"])
    def test_seed_flag_gets_the_config_message(self, corpus, corpus_path, tmp_path, capsys,
                                               command):
        cfg = TrainConfig(hidden=4)
        params = ModelParams.zeros(corpus.vocab_size, cfg)
        ckpt = str(tmp_path / "model.ckpt")
        save_checkpoint(ckpt, params, AdadeltaState(params, cfg), cfg, corpus.vocab, step=0)
        argv = {"trace": ["trace", ckpt, corpus_path, "--window", "5",
                          "--out-dir", str(tmp_path)],
                "sample": ["sample", ckpt, "--prompt", bytes(corpus.vocab[:2]).decode("ascii"),
                           "--length", "5"],
                "gradcheck": ["gradcheck"]}[command]
        for text, value in (("-1", -1), ("x", "x"), ("1.5", "1.5")):
            assert run([*argv, "--seed", text]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: seed must be an integer >= 0, got {value!r}\n"
            assert captured.out == ""
            assert not list(tmp_path.glob("**/*.csv"))


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

    @pytest.mark.parametrize("threshold", ["nan", "-1", "0"])
    def test_non_positive_threshold_rejected(self, threshold, capsys):
        # refused before any check runs: no check can pass at such a threshold
        assert run(["gradcheck", "--threshold", threshold]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --threshold must be positive, got {float(threshold)!r}\n"
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
                                           ("eps", "0"), ("lr", "-1"), ("val_lanes", "-3"),
                                           ("lr", "inf"), ("eps", "inf")])
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
        assert run(["train", corpus_path, "--variant", "fixed_zoneout", "--zoneout-rate", rate,
                    "--steps", "1", "--run-dir", str(run_dir)]) == 1
        assert capsys.readouterr().err == f"error: zoneout_rate must lie in [0, 1], got {rate}\n"
        assert not run_dir.exists()

    @pytest.mark.parametrize("split", ["training", "validation"])
    def test_short_split_refused_before_any_write(self, corpus, corpus_path, tmp_path, capsys,
                                                  split):
        # refused before the step-0 log record and checkpoint are written: the
        # first chunk_len that the training split has no room for, and a
        # 39-byte corpus whose validation split is 1 symbol, too few to score
        flags = ["--chunk-len", str(100 * (corpus.train_end // 100 + 1))]
        if split == "validation":
            corpus_path = tmp_path / "short.txt"
            corpus_path.write_bytes(corpus.data[:39].tobytes())
            flags = ["--chunk-len", "20", "--seq-len", "10"]
        run_dir = tmp_path / "run"
        assert run(["train", str(corpus_path), "--steps", "1", "--hidden", "4", "--batch", "2",
                    *flags, "--run-dir", str(run_dir)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {split} split (")
        assert not run_dir.exists()

    @pytest.mark.parametrize("flags,name", [
        (["--hidden", "6000000"], "hidden"),                       # 524 TiB of parameters
        (["--batch", str(10 ** 12)], "batch_size"),                # 364 TiB of window rows
        (["--seq-len", str(10 ** 12), "--chunk-len", str(10 ** 12)], "chunk_len"),  # 466 TiB
        (["--hidden", str(10 ** 10)], "hidden"),   # past numpy's largest array size
        *((["--chunk-len", str(2 ** k)], "chunk_len") for k in (63, 64)),
        *((["--hidden", str(2 ** k)], "hidden") for k in (63, 64)),
        *((["--batch", str(2 ** k)], "batch_size") for k in (63, 64)),
        *((["--seq-len", str(2 ** k)], "seq_len") for k in (63, 64)),
    ], ids=["hidden", "batch", "seq-len", "hidden-1e10",
            *(f"{flag}-2**{k}" for flag in ("chunk-len", "hidden", "batch", "seq-len")
              for k in (63, 64))])
    def test_unallocatable_size_refused_before_any_write(self, corpus_path, tmp_path, capsys,
                                                         flags, name):
        # each size is past what a process can map (128 TiB on x86-64 Linux) or
        # past numpy's largest array, so its allocation fails at once without
        # touching memory; a chunk longer than the corpus, or one that seq_len
        # does not divide, is refused before any allocation
        run_dir = tmp_path / "run"
        assert run(["train", corpus_path, "--steps", "1", "--hidden", "8", *flags,
                    "--run-dir", str(run_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and name in captured.err
        assert "Traceback" not in captured.err
        assert not run_dir.exists()

    @pytest.mark.parametrize("command,flag", [("trace", "--window"), ("eval", "--lanes")])
    def test_unallocatable_window_or_lanes_refused(self, corpus, corpus_path, tmp_path, capsys,
                                                   command, flag):
        # 2**63 rows is past numpy's largest array: refused before any allocation
        cfg = TrainConfig(hidden=4)
        params = ModelParams.zeros(corpus.vocab_size, cfg)
        ckpt = str(tmp_path / "model.ckpt")
        save_checkpoint(ckpt, params, AdadeltaState(params, cfg), cfg, corpus.vocab, step=0)
        out_dir = tmp_path / "out"
        argv = [command, ckpt, corpus_path, flag, str(2 ** 63)]
        assert run([*argv, "--out-dir", str(out_dir)] if command == "trace" else argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and flag[2:] in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out_dir.exists()

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

    def test_prompt_and_sample_run_as_one_run_lanes_call(self, checkpoint, monkeypatch, capsys):
        # one call makes the transposed gate weights once for the whole walk
        walk, calls = cli.run_lanes, []
        monkeypatch.setattr(cli, "run_lanes",
                            lambda *args, **kw: calls.append(args) or walk(*args, **kw))
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

    def test_unallocatable_length_rejected(self, checkpoint, capsys):
        # 10**14 rows of indices need about 728 TiB, beyond a 64-bit address
        # space, so the allocation fails without touching memory; 2**60 and
        # 2**63 rows are past numpy's largest array, refused before any mapping
        capsys.readouterr()
        for length in (10 ** 14, 2 ** 60, 2 ** 63):
            assert run(["sample", checkpoint, "--prompt", "the ", "--length", str(length)]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and "--length" in captured.err
            assert "Traceback" not in captured.err and captured.out == ""
