"""Check that a diagram document reads back exactly.

    PYTHONPATH=src python tests/check_document.py DOC

The loader must keep for each step the atom list that a walk of the
step finds, rebuild the source object of every identity perm as its
target (hash-consing), read what the recursive reference walks of
`reference_reads.py`, which share no code with the loader, read, and
write the document back to the same
bytes. A `tick_index` member, as `import-execution` appends it, is
appended again before the bytes are compared. Exits 1 on a mismatch.
"""

import json
import sys

from reference_reads import read_document, reference_config, reference_step

from causalweft.diagram import PermStep, step_atoms
from causalweft.serialize import _Reader, diagram_from_json, diagram_to_json, to_canonical_json


def check(text: str) -> bool:
    d, lab = diagram_from_json(text)
    kept = d.__dict__["_step_atoms"]
    assert len(kept) == d.n_steps
    assert all(atoms == step_atoms(step) for atoms, step in zip(kept, d.steps))
    for atoms in kept:
        for _, atom in atoms:
            if type(atom) is PermStep and atom.perm.is_identity():
                assert atom.perm.target is atom.perm.source
    obj, reader = json.loads(text), _Reader()
    got = read_document(obj, reader.config, reader.step)
    want = read_document(obj, reference_config, reference_step)
    assert not isinstance(got, str) and got == want
    again = diagram_to_json(d, lab)
    if "tick_index" in obj:
        again = again[:-1] + ',"tick_index":' + to_canonical_json(obj["tick_index"]) + "}"
    return again + "\n" == text


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as f:
        sys.exit(not check(f.read()))
