import numpy as np
import pytest

from szlstm import ModelParams, RngState, load_corpus
from szlstm.optim import xavier_init


def synthetic_text(n_words=8000, seed=0):
    """Deterministic tag-heavy byte stream; nested repetitive structure makes
    it easy for a small model to compress well below the uniform rate."""
    words = [b"<page>", b"</page>", b"<title>", b"</title>", b"the ", b"of ",
             b"and ", b"data ", b"[[link]] ", b"0123 "]
    picks = np.random.default_rng(seed).integers(0, len(words), size=n_words)
    return b"".join(words[i] for i in picks)


@pytest.fixture(scope="session")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.bin"
    path.write_bytes(synthetic_text())
    return str(path)


@pytest.fixture(scope="session")
def corpus(corpus_path):
    return load_corpus(corpus_path)


# every StepCache field that backward_window or trace.record_step reads
CACHE_FIELDS = ("x_idx", "s_val", "z", "mask", "f", "i", "o", "u", "h_prev", "c_prev",
                "c", "c_hat", "h", "p")


def tiny_params(vocab=5, hidden=8, variant="adaptive", seed=3, dtype=np.float64, **kw):
    params = ModelParams.zeros(vocab, hidden, variant=variant, dtype=dtype, **kw)
    xavier_init(params, RngState(seed).fork(1))
    return params


def one_hot(indices, width, dtype=np.float32):
    """Rows of zeros with a single 1 at each index: the dense input rows the
    cell's index gathers stand for."""
    indices = np.asarray(indices)
    out = np.zeros((indices.shape[0], width), dtype=dtype)
    out[np.arange(indices.shape[0]), indices] = 1
    return out
