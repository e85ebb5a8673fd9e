"""Seeded synthetic byte corpus for the benchmark.

A Zipf-distributed mix of tag words and random words over a 200-byte
alphabet: wide enough to give the desk-scale vocabulary (~200 symbols), with
enough repeated structure that a few training steps visibly lower the BPC.
The same seed always gives the same bytes.
"""

import numpy as np

# printable ASCII plus 105 high bytes: 200 distinct byte values
ALPHABET = np.array(list(range(32, 127)) + list(range(128, 233)), dtype=np.uint8)
TAGS = (b"<page>", b"</page>", b"<title>", b"</title>", b"[[", b"]]", b"<text>",
        b"</text>", b"&quot;", b"{{cite}}")
# the sample prompt is built from tag words, so its bytes are always in the vocabulary
PROMPT = "<page><title>"


def _lexicon(rng, n_words):
    # letter frequencies are Zipf-like over a seed-dependent ordering of the alphabet
    letters = rng.permutation(ALPHABET)
    letter_p = 1.0 / np.arange(1, len(letters) + 1)
    letter_p /= letter_p.sum()
    lengths = rng.integers(1, 10, size=n_words)
    draws = rng.choice(letters, size=int(lengths.sum()), p=letter_p)
    ends = np.cumsum(lengths)
    return [draws[e - n: e].tobytes() + b" " for n, e in zip(lengths, ends)]


def generate(seed, n_bytes=1_000_000, n_words=3000, zipf_s=1.1):
    """Return n_bytes of text for seed: Zipf-Mandelbrot word ranks, tags on top."""
    rng = np.random.default_rng([seed, 0x5A4C])
    words = list(TAGS) + _lexicon(rng, n_words)
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    p = (ranks + 2.7) ** -zipf_s
    p /= p.sum()
    mean_len = float(sum(len(w) * q for w, q in zip(words, p)))
    picks = rng.choice(len(words), size=int(n_bytes / mean_len * 1.1) + 16, p=p)
    text = b"".join(words[i] for i in picks)
    if len(text) < n_bytes:
        raise ValueError("corpus generator fell short; raise the word count margin")
    return text[:n_bytes]
