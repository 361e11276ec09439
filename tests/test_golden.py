"""Byte identity of the command line on committed inputs.

`golden/sums.json` holds the SHA-256 of the exit code and stdout of each
command `record` runs, taken before the one-pass rewrite of parsing,
validation and stamp printing: import-execution on three executions (1,
4 and 8 processes); validate, render and timestamps in every format and
clock on each imported diagram and on one `gen_diagram` document; the
JSON reports of both checkers on that document; and `paths` between
event pairs of that document that have witnesses, as text and JSON,
with and without `--limit` (recorded later, before the paths tables
were rebuilt from one walk of each step's atoms). One more sum pins the
compiler alone: the import-execution stdout of 200 seeded executions of
up to 60 actions over up to 8 processes and of one execution of 400
one-action processes, taken in one hash before `lamport.to_diagram` was
rewritten over groups that keep their configuration. A change that
leaves the output alone must leave every sum as it is. After a deliberate
change of output, record the sums again with

    PYTHONPATH=src python tests/test_golden.py > tests/golden/sums.json

The fault-list tests below pin the order and text of `validate`'s
faults on malformed diagrams, which the sums cannot reach.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from causalweft.cli import main
from causalweft.clocks import Action
from causalweft.diagram import (
    Atom,
    Diagram,
    Leaf,
    Par,
    Perm,
    PermStep,
    Prod,
    Tensor,
    Tick,
    validate,
)
from causalweft.lamport import Execution, execution_to_obj, gen_execution
from causalweft.serialize import diagram_from_json, diagram_to_json

GOLDEN = Path(__file__).resolve().parent / "golden"
EXECUTIONS = ("execution-p1", "execution-p4", "execution-p8")
CLOCKS = ("scalar", "vector", "rst", "wb")
DOCUMENT_COMMANDS = (
    ("validate",),
    ("validate", "--json"),
    ("render", "--format", "dot"),
    ("render", "--format", "ascii"),
    *(("timestamps", "--clock", c, *j) for c in CLOCKS for j in ((), ("--json",))),
)
# event pairs of the gen_diagram document with one or two witnesses
PATH_PAIRS = (("0:L", "N:R"), ("0:R", "end:L"), ("8:L", "16:R"), ("2:L", "9:."))

A, B = Atom("A"), Atom("B")


def compiled_executions() -> list[Execution]:
    """The executions of the compile sum: seeds 0-199 of `gen_execution`
    with up to 8 processes and 60 actions, then 400 one-action
    processes, whose configuration nests 400 tensors deep."""
    xs = [gen_execution(seed, max_processes=8, max_actions=60) for seed in range(200)]
    pids = [f"p{i}" for i in range(400)]
    xs.append(
        Execution(
            {p: (f"a{i}",) for i, p in enumerate(pids)},
            frozenset(),
            {f"a{i}": Action(p, p) for i, p in enumerate(pids)},
        )
    )
    return xs


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def record(scratch: Path) -> dict[str, str]:
    """Run every golden command; map its name to the SHA-256 of its exit
    code and stdout. Imported documents are written under `scratch`."""
    sums = {}

    def run(name: str, argv: list[str]) -> str:
        code, out = _run(argv)
        sums[name] = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        return out

    compiled = hashlib.sha256()
    for i, x in enumerate(compiled_executions()):
        path = scratch / f"compiled-{i}.json"
        path.write_text(json.dumps(execution_to_obj(x)), encoding="utf-8")
        code, out = _run(["import-execution", str(path)])
        compiled.update(f"{code}\n{out}".encode())
    name = "import-execution gen_execution seeds 0-199 and 400 processes"
    sums[name] = compiled.hexdigest()

    docs = {"diagram": GOLDEN / "diagram.json"}
    for name in EXECUTIONS:
        out = run(f"import-execution {name}", ["import-execution", str(GOLDEN / f"{name}.json")])
        docs[name] = scratch / f"{name}.diagram.json"
        docs[name].write_text(out, encoding="utf-8")
    for name, path in docs.items():
        for cmd, *opts in DOCUMENT_COMMANDS:
            run(" ".join([cmd, name, *opts]), [cmd, str(path), *opts])
    path = str(docs["diagram"])
    for c in CLOCKS:
        run(f"check-clock diagram --clock {c} --json", ["check-clock", path, "--clock", c, "--json"])
    run("check-order diagram --json", ["check-order", path, "--json"])
    for src, dst in PATH_PAIRS:
        for opts in ((), ("--json",), ("--limit", "1"), ("--limit", "1", "--json")):
            argv = ["paths", path, "--from", src, "--to", dst, *opts]
            run(" ".join(["paths diagram", *argv[2:]]), argv)
    return sums


def test_command_output_matches_the_recorded_sums(tmp_path):
    want = json.loads((GOLDEN / "sums.json").read_text(encoding="utf-8"))
    assert record(tmp_path) == want


# ---------------------------------------------------------------------------
# fault lists of malformed diagrams

def faults(d: Diagram) -> list[str]:
    return [str(f) for f in validate(d)]


def loaded(d: Diagram) -> Diagram:
    """The same diagram read back from its document, whose faults the
    parser finds."""
    return diagram_from_json(diagram_to_json(d))[0]


def test_par_over_a_leaf():
    d = Diagram(Leaf(A), (Par(Tick(A, A), Tick(A, A)), Tick(A, B)))
    assert faults(d) == faults(loaded(d)) == [
        "step 0 at .: parallel step needs a tensor, found [A]",
        "step 1 at .: step expects [A], found ([A] * [A])",
    ]


def test_bad_perm_table_beside_a_boundary_mismatch():
    pair = Tensor(Leaf(A), Leaf(B))
    # hits L twice and names a site the pair lacks
    bad = Perm(pair, pair, (("L", "R"), ("R", "L"), ("RL", "L")))
    d = Diagram(
        Tensor(Tensor(Leaf(B), Leaf(A)), Leaf(A)),
        (Par(Par(Tick(A, A), PermStep(bad)), Tick(B, A)), Tick(A, A)),
    )
    assert faults(d) == [
        "step 0 at LR: target site 'L' hit twice (not injective)",
        "step 0 at LR: 'RL' is not a site of the source",
        "step 0 at LL: step expects [A], found [B]",
        "step 0 at LR: step expects ([A] * [B]), found [A]",
        "step 0 at R: step expects [B], found [A]",
        "step 1 at .: step expects [A], found (([A] * ([A] * [B])) * [A])",
    ]


def test_tick_with_the_wrong_input_type():
    d = Diagram(
        Tensor(Leaf(A), Leaf(Prod(A, B))),
        (Par(Tick(A, A), Tick(B, A)), Par(Tick(A, B), Tick(A, A)), Tick(B, B)),
    )
    assert faults(d) == faults(loaded(d)) == [
        "step 0 at R: step expects [B], found [(A x B)]",
        "step 2 at .: step expects [B], found ([B] * [A])",
    ]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        json.dump(record(Path(scratch)), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
