"""Pinned outputs of the inference paths, fixed before they were routed
through one lane driver: evaluate_bpc's exact float at 1 and 3 lanes and the
text of `szlstm sample`, for every variant in both precisions. A change to
the step's arithmetic or to the order of its random draws shows here.
"""

import numpy as np
import pytest

from szlstm import AdadeltaState, RngState, TrainConfig, evaluate_bpc, save_checkpoint
from szlstm.cli import dispatch

from conftest import tiny_params

VARIANTS = ("standard", "sf", "fixed_zoneout", "adaptive")
DTYPES = {"f32": np.float32, "f64": np.float64}

# evaluate_bpc(...).hex() on a 301-symbol stream, keyed (variant, precision,
# eval mask mode, lanes)
GOLDEN_BPC = {
    ('standard', 'f32', 'expected', 1): '0x1.6822f9530f873p+1',
    ('standard', 'f32', 'expected', 3): '0x1.686487b356a8ap+1',
    ('standard', 'f32', 'sampled', 1): '0x1.6822f9530f873p+1',
    ('standard', 'f32', 'sampled', 3): '0x1.686487b356a8ap+1',
    ('standard', 'f64', 'expected', 1): '0x1.6822f932fee81p+1',
    ('standard', 'f64', 'expected', 3): '0x1.6864876d0a34dp+1',
    ('standard', 'f64', 'sampled', 1): '0x1.6822f932fee81p+1',
    ('standard', 'f64', 'sampled', 3): '0x1.6864876d0a34dp+1',
    ('sf', 'f32', 'expected', 1): '0x1.69a4c1b1092f9p+1',
    ('sf', 'f32', 'expected', 3): '0x1.69aa17b294bf0p+1',
    ('sf', 'f32', 'sampled', 1): '0x1.69a4c1b1092f9p+1',
    ('sf', 'f32', 'sampled', 3): '0x1.69aa17b294bf0p+1',
    ('sf', 'f64', 'expected', 1): '0x1.69a4c1a3b2b3cp+1',
    ('sf', 'f64', 'expected', 3): '0x1.69aa17865a066p+1',
    ('sf', 'f64', 'sampled', 1): '0x1.69a4c1a3b2b3cp+1',
    ('sf', 'f64', 'sampled', 3): '0x1.69aa17865a066p+1',
    ('fixed_zoneout', 'f32', 'expected', 1): '0x1.6a09208996fc5p+1',
    ('fixed_zoneout', 'f32', 'expected', 3): '0x1.69b13119912c7p+1',
    ('fixed_zoneout', 'f32', 'sampled', 1): '0x1.69a51e8c575fep+1',
    ('fixed_zoneout', 'f32', 'sampled', 3): '0x1.68c17a11e1b7ep+1',
    ('fixed_zoneout', 'f64', 'expected', 1): '0x1.6a09207159ad7p+1',
    ('fixed_zoneout', 'f64', 'expected', 3): '0x1.69b1310116eb3p+1',
    ('fixed_zoneout', 'f64', 'sampled', 1): '0x1.69a51e71f3a5cp+1',
    ('fixed_zoneout', 'f64', 'sampled', 3): '0x1.68c179ec76845p+1',
    ('adaptive', 'f32', 'expected', 1): '0x1.69d5a061dc441p+1',
    ('adaptive', 'f32', 'expected', 3): '0x1.6949e59b77b5fp+1',
    ('adaptive', 'f32', 'sampled', 1): '0x1.6a47894ecda99p+1',
    ('adaptive', 'f32', 'sampled', 3): '0x1.67fb6415162eap+1',
    ('adaptive', 'f64', 'expected', 1): '0x1.69d5a0397e5a0p+1',
    ('adaptive', 'f64', 'expected', 3): '0x1.6949e58e99e45p+1',
    ('adaptive', 'f64', 'sampled', 1): '0x1.6a4789528d7dbp+1',
    ('adaptive', 'f64', 'sampled', 3): '0x1.67fb641d68280p+1',
}

# stdout of `szlstm sample --prompt fab --length 48 --temperature T --seed 9`,
# keyed (variant, precision, T)
GOLDEN_SAMPLES = {
    ('standard', 'f32', '0.7'): 'fabdfbdfbdcdcahefhgcdcfcfccgdcfgeffbgefcdacfcbfbfhd\n',
    ('standard', 'f64', '0.7'): 'fabdfbdfbdcdcahefhgcdcfcfccgdcfgeffbgefcdacfcbfbfhd\n',
    ('sf', 'f32', '0.7'): 'fabdhecdhcbgcaedhggafdhefcbgaffffcdcgahcbabdcbeahhd\n',
    ('sf', 'f64', '0.7'): 'fabdhecdhcbgcaedhggafdhefcbgaffffcdcgahcbabdcbeahhd\n',
    ('fixed_zoneout', 'f32', '0.7'): 'fabcgdchdcbeaaheefgcedeefdcfdcegfeebheeddcbgbdgchhd\n',
    ('fixed_zoneout', 'f64', '0.7'): 'fabcgdchdcbeaaheefgcedeefdcfdcegfeebheeddcbgbdgchhd\n',
    ('adaptive', 'f32', '0.7'): 'fabbgaehebcddahheffefbcdgdhedffheedbgfeffcbhaehaehe\n',
    ('adaptive', 'f64', '0.7'): 'fabbgaehebcddahheffefbcdgdhedffheedbgfeffcbhaehaehe\n',
    ('standard', 'f32', '1.0'): 'fabdfcbgecbfeagefhgcedefhcdgdefhdfcbhfdcdbcfbcfbfhd\n',
    ('standard', 'f64', '1.0'): 'fabdfcbgecbfeagefhgcedefhcdgdefhdfcbhfdcdbcfbcfbfhd\n',
    ('sf', 'f32', '1.0'): 'fabdhebgedcdfbeeeefdhedhgdhgedhhdfcbhedcdcbhaefbghb\n',
    ('sf', 'f64', '1.0'): 'fabdhebgedcdfbeeeefdhedhgdhgedhhdfcbhedcdcbhaefbghb\n',
    ('fixed_zoneout', 'f32', '1.0'): 'fabdhebgedcffadhgggcgdhefdchcdhheedcheeddcbgbdgbghc\n',
    ('fixed_zoneout', 'f64', '1.0'): 'fabdhebgedcffadhgggcgdhefdchcdhheedcheeddcbgbdgbghc\n',
    ('adaptive', 'f32', '1.0'): 'fabbgcbhdcbffahceghceedggdfgeffhedebheedebdgcbhaghb\n',
    ('adaptive', 'f64', '1.0'): 'fabbgcbhdcbffahceghceedggdfgeffhedebheedebdgcbhaghb\n',
}


@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("mask_mode", ["expected", "sampled"])
@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_evaluate_bpc_bits_are_pinned(variant, precision, mask_mode, lanes):
    params = tiny_params(vocab=7, hidden=16, variant=variant, seed=5,
                         dtype=DTYPES[precision], zoneout_rate=0.4)
    split = RngState(31).integers(0, 7, size=301)
    cfg = TrainConfig(eval_mask_mode=mask_mode, seed=17)
    bpc = evaluate_bpc(params, split, cfg, lanes=lanes)
    assert bpc.hex() == GOLDEN_BPC[variant, precision, mask_mode, lanes]


def sampled_text(variant, precision, temperature, tmp_path, capsys):
    params = tiny_params(vocab=8, hidden=16, variant=variant, seed=6,
                         dtype=DTYPES[precision])
    params.flat *= 4.0  # sharper outputs, so the text follows the model state
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, params, AdadeltaState(params), None,
                    np.frombuffer(b"abcdefgh", dtype=np.uint8), step=0)
    assert dispatch(["sample", path, "--prompt", "fab", "--length", "48",
                     "--temperature", temperature, "--seed", "9"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_sample_text_is_pinned(variant, precision, tmp_path, capsys):
    text = sampled_text(variant, precision, "0.7", tmp_path, capsys)
    assert text == GOLDEN_SAMPLES[variant, precision, "0.7"]


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_sample_text_at_temperature_one_is_pinned(variant, precision, tmp_path, capsys):
    """At temperature 1 the sample draws from the step's own output row."""
    text = sampled_text(variant, precision, "1.0", tmp_path, capsys)
    assert text == GOLDEN_SAMPLES[variant, precision, "1.0"]
