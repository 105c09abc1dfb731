"""Package-level API surface: imports and aliases."""

import spa
from spa.tokenizer import VOCAB_SIZE


def test_save_checkpoint_alias_is_save_model():
    assert spa.save_checkpoint is spa.save_model


def test_every_exported_name_resolves():
    assert all(hasattr(spa, name) for name in spa.__all__)


def test_byte_vocab_constant_exported():
    assert VOCAB_SIZE == 259
