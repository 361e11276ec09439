"""Seeded mutation fuzzing of the command line.

Generated diagram, execution and valuation documents are mutated (a key
dropped, a value retyped, an atom or site string flipped, a
two-element list swapped, a list entry duplicated, the text truncated)
and fed to every command that reads them, in process. Each run must
end with exit code 0, 1 or 2; no exception may escape `cli.main`.
Malformed input is exit 2 with one `error:` line, so an escaping
exception is a defect. Everything is a pure function of the seeds.
"""

import contextlib
import copy
import io
import json
import random

from causalweft.cli import main
from causalweft.clocks import CLOCK_NAMES, by_name, stamp_to_obj
from causalweft.lamport import execution_to_obj, gen_execution
from causalweft.paths import events
from causalweft.serialize import diagram_to_obj, to_canonical_json
from causalweft.verify import GenParams, gen_diagram, random_valuation

RETYPED = (None, 0, -1, 2.5, True, "", "LR", "A", [], {}, [0, 1], {"atom": "A"})


def _slots(obj, out):
    """Every (container, key) pair of a JSON tree, outermost first."""
    if not isinstance(obj, (dict, list)):
        return out
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in list(items):
        out.append((obj, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _flip(text: str, rng: random.Random) -> str:
    if text and not text.strip("LR"):  # a site path
        i = rng.randrange(len(text))
        flipped = text[:i] + "LR"[text[i] == "L"] + text[i + 1 :]
        return rng.choice((flipped, text[:i], text + "L"))
    return rng.choice(("A", "B", "t1", "p1", text + "'", text[:-1], "->"))


def mutate(obj, rng: random.Random):
    """A copy of a JSON tree with one random mutation applied."""
    obj = copy.deepcopy(obj)
    slots = _slots(obj, [])
    if not slots:
        return rng.choice(RETYPED)
    container, key = rng.choice(slots)
    value = container[key]
    kind = rng.randrange(5)
    if kind == 0 and isinstance(container, dict):
        del container[key]
    elif kind == 1 and isinstance(value, str):
        container[key] = _flip(value, rng)
    elif kind == 2 and isinstance(value, list) and len(value) == 2:
        value.reverse()
    elif kind == 3 and isinstance(value, list) and value:
        value.insert(rng.randrange(len(value) + 1), copy.deepcopy(rng.choice(value)))
    else:
        container[key] = copy.deepcopy(rng.choice(RETYPED))
    return obj


def mutants(obj, rng: random.Random, n: int):
    """n mutated documents as text: one to three mutations each, and
    every fifth one truncated."""
    for m in range(n):
        mutated = obj
        for _ in range(rng.randint(1, 3)):
            mutated = mutate(mutated, rng)
        text = json.dumps(mutated)
        if m % 5 == 4:
            text = text[: rng.randrange(len(text) + 1)]
        yield text


def run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class Runner:
    """Runs commands and keeps every run that broke the contract."""

    def __init__(self):
        self.runs = 0
        self.faults = []

    def __call__(self, argv, text):
        self.runs += 1
        try:
            code, err = run(argv)
        except Exception as e:  # any escape is the defect
            self.faults.append((argv[0], repr(e), text[:200]))
            return
        if code not in (0, 1, 2) or (code == 2 and not err.startswith("error: ")):
            self.faults.append((argv[0], f"exit {code}: {err!r}", text[:200]))


def fuzz(tmp_path, seed: int) -> Runner:
    """Run every command on mutants drawn with `seed`; documents are
    written under `tmp_path`."""
    rng = random.Random(seed)
    check = Runner()
    doc, val = tmp_path / "doc.json", tmp_path / "val.json"

    for seed in range(12):
        d, lab = gen_diagram(GenParams(seed=seed, max_steps=6, max_sites=5))
        evs = events(d)
        coords = [f"{e.cut}:{e.site or '.'}" for e in (evs[0], evs[-1])]
        base = diagram_to_obj(d, lab)
        for text in mutants(base, rng, 40):
            doc.write_text(text, encoding="utf-8")
            path, clock = str(doc), rng.choice(CLOCK_NAMES)
            for argv in (
                ["validate", path, "--json"],
                ["render", path, "--format", "dot"],
                ["render", path, "--format", "ascii"],
                ["timestamps", path, "--clock", clock],
                ["check-clock", path, "--clock", clock],
                ["check-order", path],
                ["paths", path, "--from", coords[0], "--to", coords[1], "--limit", "3"],
            ):
                check(argv, text)

        # valuation files, read against the unmutated document
        doc.write_text(to_canonical_json(base), encoding="utf-8")
        clock = by_name(CLOCK_NAMES[seed % len(CLOCK_NAMES)])
        stamps = random_valuation(clock, d.initial, rng)
        base_val = {s or ".": stamp_to_obj(clock, v) for s, v in stamps.items()}
        for text in mutants(base_val, rng, 15):
            val.write_text(text, encoding="utf-8")
            for cmd in ("timestamps", "check-clock"):
                argv = [cmd, str(doc), "--clock", clock.name, "--valuation", str(val)]
                check(argv, text)

    for seed in range(12):
        base = execution_to_obj(gen_execution(seed, max_processes=3, max_actions=8))
        for text in mutants(base, rng, 60):
            doc.write_text(text, encoding="utf-8")
            check(["import-execution", str(doc)], text)
    return check


def test_mutated_documents_never_escape_the_cli(tmp_path):
    check = fuzz(tmp_path, 20240601)
    assert check.runs > 4000
    assert check.faults == []
