"""Package-level API surface: imports, aliases, convenience wrappers."""

import numpy as np

import spa
from spa import DecodeConfig, ModelConfig, SpaModel, beam_search, decode_monolithic
from spa.tokenizer import VOCAB_SIZE

CFG = ModelConfig(
    n_layers=1, d_model=16, n_heads=2, d_ff=32, vocab_size=11, max_seq_len=16, side_reduction=8
)


def make_model():
    model = SpaModel.create(CFG, seed=6)
    model.gate["w"].data[:] = np.random.default_rng(3).standard_normal((CFG.d_model, 2))
    model.base.freeze()
    return model


def test_save_checkpoint_alias_is_save_model():
    assert spa.save_checkpoint is spa.save_model


def test_beam_search_wrapper_matches_monolithic_beam():
    model = make_model()
    dcfg = DecodeConfig(max_new_tokens=4, strategy="beam", beam_width=3, policy="spa")
    mono = decode_monolithic(model, [1, 2], dcfg)
    direct = beam_search(model, [1, 2], width=3, max_new_tokens=4, policy="spa")
    assert direct.tokens == mono.tokens
    assert direct.gate_trace == mono.gate_trace


def test_grad_check_default_tolerance_recorded():
    from spa.gradcheck import grad_check
    from spa.numcore import Tensor

    report = grad_check(lambda t: t.sum(), Tensor(np.ones(3)))
    assert report.tol == 1e-4
    assert report.ok
    assert report.passed()
    assert not report.passed(1e-18)


def test_byte_vocab_constant_exported():
    assert VOCAB_SIZE == 259
