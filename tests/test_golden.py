"""Pinned outputs of the inference paths, fixed before they were routed
through one lane driver: evaluate_bpc's exact float at 1 and 3 lanes and the
text of `szlstm sample`, for every variant in both precisions. A change to
the step's arithmetic or to the order of its random draws shows here. The
trace exports and the gradient oracle's tables are pinned the same way,
fixed before the trace and the oracle's replay kept the run's own step
caches. Like every pin here, they hold for one BLAS build.
"""

import hashlib

import numpy as np
import pytest

from szlstm import (
    AdadeltaState,
    RngState,
    TrainConfig,
    evaluate_bpc,
    export_cell_change,
    export_gate_map,
    save_checkpoint,
    trace_stream,
)
from szlstm.cli import dispatch
from szlstm.gradcheck import tiny_window_check

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

# sha256 of the gate CSV followed by the cell-change CSV of a trace over a
# 61-symbol stream (60 steps), keyed (variant, precision, mask mode, window)
GOLDEN_TRACES = {
    ('standard', 'f32', 'sampled', 60): 'dbc2b64d165893ee970a8d2fa082f3157a595b46398def8cae8b5e952e11a8ed',
    ('standard', 'f32', 'sampled', 25): '98d757ae25306708f424acdc49962eac73d88b3b9cacefc1d18d2687116269c9',
    ('standard', 'f32', 'expected', 60): 'dbc2b64d165893ee970a8d2fa082f3157a595b46398def8cae8b5e952e11a8ed',
    ('standard', 'f32', 'expected', 25): '98d757ae25306708f424acdc49962eac73d88b3b9cacefc1d18d2687116269c9',
    ('standard', 'f64', 'sampled', 60): '8320f125ddc354f3284e5fa0921cd084bc3561c1072246e2a91fe011bfb167e2',
    ('standard', 'f64', 'sampled', 25): '1c6d4865e160ad038f741d2e34a4028d67c8a319a8a82112d27772e176ce0447',
    ('standard', 'f64', 'expected', 60): '8320f125ddc354f3284e5fa0921cd084bc3561c1072246e2a91fe011bfb167e2',
    ('standard', 'f64', 'expected', 25): '1c6d4865e160ad038f741d2e34a4028d67c8a319a8a82112d27772e176ce0447',
    ('sf', 'f32', 'sampled', 60): '7b7f5fdf004758fb7d0d2ea44922aff25fbfb085147fc049e5ee62e7df326dbd',
    ('sf', 'f32', 'sampled', 25): '8de6e0046b1d2e8ba05f4dae0f87d58a05a3084b43ca357b0286198bb36099ec',
    ('sf', 'f32', 'expected', 60): '7b7f5fdf004758fb7d0d2ea44922aff25fbfb085147fc049e5ee62e7df326dbd',
    ('sf', 'f32', 'expected', 25): '8de6e0046b1d2e8ba05f4dae0f87d58a05a3084b43ca357b0286198bb36099ec',
    ('sf', 'f64', 'sampled', 60): '76b11042e721b7556f98bf6029af224be172fa7b76c2558939c7c47c31514bbb',
    ('sf', 'f64', 'sampled', 25): '4f0b1d7d425c3174d17c4a648cb1d4a762f68f36423320f8746d7687ef223972',
    ('sf', 'f64', 'expected', 60): '76b11042e721b7556f98bf6029af224be172fa7b76c2558939c7c47c31514bbb',
    ('sf', 'f64', 'expected', 25): '4f0b1d7d425c3174d17c4a648cb1d4a762f68f36423320f8746d7687ef223972',
    ('fixed_zoneout', 'f32', 'sampled', 60): '8a2256b21bd6ce482e06486d0a0c41530bb1858b2e36555ea4b1a092e7739fff',
    ('fixed_zoneout', 'f32', 'sampled', 25): 'e565b0555116ee8abe8a73612ea7ac34530571d9ec2a27703e457df729adb3b1',
    ('fixed_zoneout', 'f32', 'expected', 60): 'f583f9b8d4eb321802800a4f4173e6c2be97f98acab124e24a95348a89f365bf',
    ('fixed_zoneout', 'f32', 'expected', 25): 'e0f5e57c27d2883ec2457f0aaf3170e0aecc9140459497315fa9bc6d29361552',
    ('fixed_zoneout', 'f64', 'sampled', 60): 'cbce272270236e14c1b1e945facd5ea820e03b7eaee16775bfd19443e353b3b2',
    ('fixed_zoneout', 'f64', 'sampled', 25): '144c862b1739f80e1019b4802dbc4035532f89d6f482bdd538013a54921aed76',
    ('fixed_zoneout', 'f64', 'expected', 60): '145f9a413b1bea71121a3c463cd34ca2e818abb12525df880a847ae4fc2f3f09',
    ('fixed_zoneout', 'f64', 'expected', 25): 'edd5af9124c963af906fab6d9165c26831ff1e1b0216c61feaad04a0a58f6fbd',
    ('adaptive', 'f32', 'sampled', 60): '2e8d4933a2076867e89a219ae20ef6adfe1b5151abda53600bcf9ce3bb779c1a',
    ('adaptive', 'f32', 'sampled', 25): 'd4ce487f57916c34bfb995127bdef6d20471690e776c016f36d5b84b38905858',
    ('adaptive', 'f32', 'expected', 60): '86b0438ce9707789e30ee686104b9d69bbe67760caa3cf35b325d8e850d38499',
    ('adaptive', 'f32', 'expected', 25): 'c180b514e7f5a56f50593ae684431371ecc659d162c36eda35718bb8313dfbdb',
    ('adaptive', 'f64', 'sampled', 60): 'ea02e89bf5d790b894142cc96012f76a9da7db393b393b82cd95f63ef48ecbae',
    ('adaptive', 'f64', 'sampled', 25): '1ae1b1f8da691f3fa078f7af8906ca8ba327c74a620e9a4c2582666c247b7b38',
    ('adaptive', 'f64', 'expected', 60): '1652b127fdb7da1da2918f412d9b6c81cc5bf445c31741d328b03787fc7da28a',
    ('adaptive', 'f64', 'expected', 25): 'e02ee6fcf7502ad11b3d8d218a6373d7769b96f6d75e68aff873c34d668c5d85',
}

# sha256 of tiny_window_check(variant, mask_mode=...).format_table() at DEFAULT_SEED
GOLDEN_GRADCHECK = {
    ('standard', 'sampled'): '13baebbf15d51e84ebe229561c30ddf8cb57167d8d0e3cddf46fb65fbf724b6e',
    ('standard', 'expected'): '13baebbf15d51e84ebe229561c30ddf8cb57167d8d0e3cddf46fb65fbf724b6e',
    ('sf', 'sampled'): '678832d16a34541ef9ecf7712b896b384fcb6f6b9781ea535ac7599af98134f4',
    ('sf', 'expected'): '678832d16a34541ef9ecf7712b896b384fcb6f6b9781ea535ac7599af98134f4',
    ('fixed_zoneout', 'sampled'): '53c8d01a0382e94199ca013157dc2de8c1df76ffa0446ad046c6591bddc08665',
    ('fixed_zoneout', 'expected'): 'de9a217e845f1e2acdbf81d61b51e941ebe5b2975d7b7629799d06a0d14f0ce1',
    ('adaptive', 'sampled'): '8af65b49d9c507dc8767840f58359940a26f5e2a829cac5ed7ad48cc0ef72eea',
    ('adaptive', 'expected'): 'dd1f0e4c8498759aba2f7851d5ff56acf0bc560b47b48a13500651bf5b32d133',
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


@pytest.mark.parametrize("window", [60, 25])
@pytest.mark.parametrize("mask_mode", ["sampled", "expected"])
@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_trace_exports_are_pinned(variant, precision, mask_mode, window, tmp_path):
    params = tiny_params(vocab=7, hidden=16, variant=variant, seed=5,
                         dtype=DTYPES[precision], zoneout_rate=0.4)
    stream = RngState(41).integers(0, 7, size=61)
    buffer = trace_stream(params, stream, window=window, mask_mode=mask_mode, seed=13)
    gates, cells = tmp_path / "gates.csv", tmp_path / "cells.csv"
    export_gate_map(buffer, str(gates))
    export_cell_change(buffer, str(cells))
    digest = hashlib.sha256(gates.read_bytes() + cells.read_bytes()).hexdigest()
    assert digest == GOLDEN_TRACES[variant, precision, mask_mode, window]


@pytest.mark.parametrize("mask_mode", ["sampled", "expected"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_gradcheck_table_is_pinned(variant, mask_mode):
    table = tiny_window_check(variant, mask_mode=mask_mode).format_table()
    digest = hashlib.sha256(table.encode()).hexdigest()
    assert digest == GOLDEN_GRADCHECK[variant, mask_mode], table
