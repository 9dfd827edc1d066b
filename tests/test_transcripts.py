"""Seeded simulator runs stay byte-identical: transcripts and summaries are pinned.

Each digest is the sha256 of `transcript()` followed by `summary()` without
its wall-clock lines.  A change that alters any response, the responders
used, the decode outcome or the decoder's operation count changes it.
"""

import hashlib

import pytest

from mvdmm import simulator
from mvdmm.simulator import SimConfig, StragglerModel

PINNED = {
    "gf8-matdot-half-random": (
        SimConfig("8", "matdot-half l=3 F=17 d=corner", 16, 280, 16, 512,
                  StragglerModel("random", probability=0.02), seed=3),
        "86c1dba3496febca5ecb03414029c70cef06ec8d5bcec6ec09fda9279d190cec"),
    "gf9-poly-box-latency-probe": (
        SimConfig("9", "poly-box m=2,2 n=2,2", 6, 5, 6, 81,
                  StragglerModel("latency", probability=0.3), seed=4, trials=1),
        "11e8fae3a56f9952498a35f7df5c5efc8530fd062a83d33c82270ad413d5a32d"),
    "gf23-better-box-random": (
        SimConfig("23", "better-box m=2,2 F=81", 20, 20, 20, 529,
                  StragglerModel("random", probability=0.1), seed=5),
        "93e03e0f32a01b6605eecfdd976e744259bab5963e2a15a82eebf0a9edc2f62b"),
    "gf2-sep-vars-adversarial": (
        SimConfig("2", "sep-vars mprime=5 nprime=5 F=8", 32, 16, 32, 1024,
                  StragglerModel("adversarial", drop_indices=(1, 2, 3)), seed=6),
        "e0fae72ada6772e7a57b765f6c9f79a58b45d0d9298666b5086a4091f8d247fd"),
    "gf2-sep-vars-partial-grid-random": (
        SimConfig("2", "sep-vars mprime=5 nprime=5 F=8", 32, 16, 32, 1000,
                  StragglerModel("random", probability=0.01), seed=7),
        "293cf60d1ade565cbdfdd219837a2ba0660ef9b440b3928445dd080afc637ecb"),
}


@pytest.mark.parametrize("name", PINNED)
def test_seeded_transcript_digest(name):
    cfg, digest = PINNED[name]
    report = simulator.run(cfg)
    assert report.success
    summary = "".join(ln for ln in report.summary().splitlines(True) if not ln.startswith("wall "))
    assert hashlib.sha256((report.transcript() + summary).encode()).hexdigest() == digest
