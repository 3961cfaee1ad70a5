"""Compile, the bundle codec and realize, ideal and noiseless, on random valid all-TT configs.

Each seeded config is checked across the whole compile boundary: the
`describe` totals (from layer shapes) equal the compile summary (from the
compiled plans), the bundle survives a JSON round trip byte for byte, the
realized model equals the digital one, and a noiseless perturbation
changes no bit.  The only refusal a valid config may meet is compile's
MappingError (a negative 1x1 weight, which no mesh can carry).
"""

import json

import numpy as np

from tomfn import model as M
from tomfn import photonic as P
from tomfn.errors import MappingError
from tomfn.serialize import dumps

CONFIGS = 24
SAMPLES = 8


def random_config(rng) -> M.ModelConfig:
    def dims():
        return [int(d) for d in rng.integers(1, 40, size=int(rng.integers(2, 5)))]

    heads, d_head = int(rng.integers(1, 4)), int(rng.integers(1, 12))
    return M.ModelConfig(
        visual_dims=dims(),
        audio_dims=dims(),
        text=M.TextConfig(d_model=heads * d_head, heads=heads, d_head=d_head,
                          d_out=int(rng.integers(1, 40)), seq_len=int(rng.integers(1, 4)),
                          pooling=str(rng.choice(["mean", "last"]))),
        fusion=M.FusionConfig(rank=int(rng.integers(1, 4)), d_h=int(rng.integers(1, 40))),
        heads=int(rng.integers(1, 5)),
        tt=M.TTConfig(max_rank=int(rng.integers(1, 9)), tol=float(rng.choice([0.0, 0.1, 0.5])),
                      max_factor=int(rng.integers(2, 9))),
        seed=int(rng.integers(0, 1000)),
    )


def test_random_tt_configs_compile_round_trip_and_realize():
    rng = np.random.default_rng(2024)
    refused = 0
    for i in range(CONFIGS):
        cfg = random_config(rng)
        model = M.build(cfg)
        try:
            bundle = P.compile_model(model)
        except MappingError:
            refused += 1
            continue
        where = (i, cfg)
        assert P.totals(P.model_shapes(model)) == P.totals(bundle.plans), where

        text = dumps(P.bundle_to_obj(bundle))
        assert dumps(P.bundle_to_obj(P.bundle_from_obj(json.loads(text)))) == text, where

        inputs = (rng.normal(size=(SAMPLES, cfg.visual_dims[0])),
                  rng.normal(size=(SAMPLES, cfg.audio_dims[0])),
                  rng.normal(size=(SAMPLES, cfg.text.seq_len, cfg.text.d_model)))
        digital = M.forward_batch(model, *inputs)
        optical = M.forward_batch(P.realize(bundle), *inputs)
        assert np.max(np.abs(optical - digital)) <= 1e-9, where

        noiseless = P.realize(bundle, 0.0, 0, seed=i)
        assert np.array_equal(M.forward_batch(noiseless, *inputs), optical), where
    assert refused <= CONFIGS // 4, f"{refused} of {CONFIGS} configs refused"
