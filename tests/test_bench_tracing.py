"""The traced benchmark wraps `spa` functions by module attribute.

`bench/tracing.py` looks each one up by name; a rename or deletion in
`src/spa` makes `install` raise and the traced benchmark die, so that is
checked here as well as by the benchmark's own self-test.
"""

from pathlib import Path

import numpy as np

import spa.decoding
from spa.decoding import DecodeConfig, decode_monolithic
from spa.model import ModelConfig, SpaModel

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
CFG = ModelConfig(
    n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=20, max_seq_len=16, side_reduction=4
)


def load_tracing():
    """Execute bench/tracing.py as a fresh namespace without writing bytecode."""
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def test_install_wraps_and_uninstall_restores():
    tracing = load_tracing()
    originals = {
        name: getattr(spa.decoding, name)
        for name in ("side_step_rolled", "side_step_layers", "base_forward")
    }
    model = SpaModel.create(CFG, seed=3)
    tracer = tracing["Tracer"]()
    try:
        tracing["install"](tracer)
        for name, fn in originals.items():
            assert getattr(spa.decoding, name) is not fn, name
        for policy, wire in (("always_side", "final"), ("always_side", "all_layers")):
            dcfg = DecodeConfig(max_new_tokens=2, policy=policy, wire_mode=wire)
            decode_monolithic(model, np.array([1, 2]), dcfg)
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert getattr(spa.decoding, name) is fn, name
    names = {span["name"] for span in tracer.export()}
    assert {"model.side_step", "model.base_forward", "decoding.logits_for"} <= names
    # two sessions consult the side twice each
    side_steps = sum(span["name"] == "model.side_step" for span in tracer.export())
    assert side_steps == 4


def test_traced_beam_session_keeps_every_wrapped_name_working():
    """A beam step runs batched attention; the tracer's flop count unpacks
    its 2-D query shape, so a layout change that breaks it fails here."""
    tracing = load_tracing()
    model = SpaModel.create(CFG, seed=4)
    tracer = tracing["Tracer"]()
    dcfg = DecodeConfig(max_new_tokens=3, strategy="beam", beam_width=3, policy="always_side")
    try:
        tracing["install"](tracer)
        decode_monolithic(model, np.array([1, 2]), dcfg)
    finally:
        tracer.uninstall()
    spans = tracer.export()

    def named(name):
        return [span for span in spans if span["name"] == name]

    assert len(named("decoding.beam_decode")) == 1
    # one step-engine call and one base forward per beam step
    assert len(named("decoding.logits_for")) == len(named("model.base_forward")) == 3
    attention = named("numcore.causal_attention")
    assert len(attention) == 3 * CFG.n_layers
    assert all(span["info"] > 0 for span in attention)
