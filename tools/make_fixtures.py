#!/usr/bin/env python3
"""Regenerate the shipped fixture files under fixtures/.

Run from the repository root:  python tools/make_fixtures.py
"""

from pathlib import Path

from bellkit.dilations import trivial_witness
from bellkit.io import canonical_dumps, correlation_to_obj, model_to_obj, witness_to_obj
from bellkit.models import correlation_of
from bellkit.presets import chsh_ideal_model, example_pair

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write(name: str, obj):
    path = FIXTURES / name
    path.write_text(canonical_dumps(obj) + "\n", encoding="utf-8")
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


if __name__ == "__main__":
    main()
