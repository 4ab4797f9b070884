#!/usr/bin/env python3
"""Regenerate the shipped fixture files under fixtures/.

Run from the repository root:  python tools/make_fixtures.py
"""

import json
from pathlib import Path

import numpy as np

from bellkit.dilations import trivial_witness
from bellkit.io import canonical_dumps, correlation_to_obj, model_to_obj, witness_to_obj
from bellkit.models import correlation_of
from bellkit.presets import (block_padded_model, chsh_ideal_model, example_pair,
                             random_state, tensor_with_auxiliary)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write(name: str, obj):
    path = FIXTURES / name
    # written as its own JSON parse: JSON reads -0 as the integer 0, so a
    # negative zero (kron with a negative entry makes them) becomes 0 and the
    # file is a fixed point of load and canonical dump
    text = canonical_dumps(json.loads(canonical_dumps(obj)))
    path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main():
    FIXTURES.mkdir(exist_ok=True)
    s3, s2 = example_pair()
    write("exA_S.model.json", model_to_obj(s3))
    write("exA_Shat.model.json", model_to_obj(s2))

    chsh = chsh_ideal_model()
    write("chsh_ideal.model.json", model_to_obj(chsh))
    write("chsh.corr.json", correlation_to_obj(correlation_of(chsh)))
    write("chsh_ideal.witness.json", witness_to_obj(trivial_witness(chsh)))

    # CHSH (x) a 2 x 2 auxiliary state: every irrep has multiplicity 2.  The
    # padded copy adds junk blocks the state never reaches (2-dim on A, 3-dim
    # on B), so a dilation must route unreached blocks too.
    rng = np.random.default_rng(2613)
    aux2 = tensor_with_auxiliary(chsh, random_state(rng, 4), 2, 2)
    write("chsh_aux_k2.model.json", model_to_obj(aux2))
    write("chsh_aux_k2_padded.model.json", model_to_obj(block_padded_model(aux2, rng, 2, 3)))


if __name__ == "__main__":
    main()
