import argparse
import gc
import json
import sys

import pytest

from causalweft import cli
from causalweft.clocks import Action
from causalweft.cli import main
from causalweft.diagram import (
    Atom,
    Diagram,
    Fork,
    Join,
    Leaf,
    Par,
    PermStep,
    Prod,
    Tensor,
    Tick,
    TickRef,
    noop,
    perm_swap,
)
from causalweft.lamport import execution_to_obj
from causalweft.paths import Event
from causalweft.serialize import diagram_from_json, diagram_hash, diagram_to_json
from causalweft.verify import (
    GenParams,
    OrderLawReport,
    broken_clock,
    check_clock_condition,
    gen_diagram,
    report_to_obj,
)

from conftest import build_message_flow, build_two_tick
from test_lamport import PING, make_execution
from test_serialize import BOOL_STEP_DOC

A, B = Atom("A"), Atom("B")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def flow_file(tmp_path):
    return write(tmp_path, "flow.json", diagram_to_json(*build_message_flow()))


def swapped_diamond_doc():
    """A diamond beside a spectator lane, then a swap, so the diamond's
    start at L reaches the final R two ways."""
    d = Diagram(
        Tensor(Leaf(Prod(A, A)), Leaf(B)),
        (
            Par(Fork(A, A), Tick(B, B)),
            Par(Par(Tick(A, A), Tick(A, A)), Tick(B, B)),
            Par(Join(A, A), Tick(B, B)),
            PermStep(perm_swap(Leaf(Prod(A, A)), Leaf(B))),
        ),
    )
    lab = {
        TickRef(0, "R"): Action("p9", "p9"),
        TickRef(1, "LL"): Action("p1", "p1"),
        TickRef(1, "LR"): Action("p2", "p2"),
        TickRef(1, "R"): Action("p9", "p9"),
        TickRef(2, "R"): Action("p9", "p9"),
    }
    return diagram_to_json(d, lab)


# ---------------------------------------------------------------------------
# validate

def test_validate_prints_the_final_config(flow_file, capsys):
    assert main(["validate", flow_file]) == 0
    assert capsys.readouterr().out == "([(t1' x t2)] * [t3])\n"


def test_validate_json(flow_file, capsys):
    assert main(["validate", flow_file, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {
        "ok": True,
        "faults": [],
        "final": "([(t1' x t2)] * [t3])",
    }


def test_validate_reports_boundary_faults(tmp_path, capsys):
    bad = Diagram(Leaf(A), (Tick(A, A), Tick(B, B)))
    path = write(tmp_path, "bad.json", diagram_to_json(bad))
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "step 1" in out
    assert main(["validate", path, "--json"]) == 1


def test_validate_rejects_malformed_json(tmp_path, capsys):
    path = write(tmp_path, "broken.json", "{not json")
    assert main(["validate", path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("labels", ["null", "0", '{"step":0}'])
def test_labels_that_are_not_a_list_are_an_input_error(tmp_path, capsys, labels):
    doc = '{"initial":{"leaf":{"atom":"A"}},"steps":[],"labels":' + labels + "}"
    path = write(tmp_path, "labels.json", doc)
    assert main(["validate", path]) == 2
    got = json.loads(labels)
    assert capsys.readouterr().err == f"error: labels must be a list, got {got!r}\n"


def test_a_boolean_label_step_is_an_input_error(tmp_path, capsys):
    path = write(tmp_path, "labels.json", BOOL_STEP_DOC)
    assert main(["validate", path]) == 2
    assert capsys.readouterr() == (
        "",
        "error: bad label position {'path': '', 'step': True, 'value': {'actor': 'p'}}\n",
    )


def test_a_label_entry_with_an_extra_key_is_an_input_error(tmp_path, capsys):
    # reading it and printing it again would drop the extra key
    doc = BOOL_STEP_DOC.replace('"step":true', '"step":0,"note":1')
    path = write(tmp_path, "labels.json", doc)
    assert main(["validate", path]) == 2
    assert capsys.readouterr() == (
        "",
        "error: bad label entry "
        "{'path': '', 'step': 0, 'note': 1, 'value': {'actor': 'p'}}\n",
    )


def test_missing_file_is_an_input_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def deeply_nested(n):
    """A valid diagram document whose initial configuration nests n
    tensors, each two JSON levels deep."""
    leaf = '{"leaf":{"atom":"A"}}'
    initial = '{"tensor":[' * n + leaf + ("," + leaf + "]}") * n
    return '{"initial":' + initial + ',"steps":[],"labels":[]}'


@pytest.mark.parametrize("argv", [["validate"], ["check-clock", "--clock", "vector"]])
def test_a_document_nested_too_deeply_is_an_input_error(tmp_path, capsys, argv):
    path = write(tmp_path, "deep.json", deeply_nested(1500))
    assert main([argv[0], path, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err == "error: document nests too deeply\n"


def test_deep_valuation_and_execution_files_are_input_errors(tmp_path, flow_file, capsys):
    deep = "[" * 5000 + "]" * 5000
    valuation = write(tmp_path, "val.json", '{"L":' + deep + "}")
    argv = ["timestamps", flow_file, "--clock", "vector", "--valuation", valuation]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: document nests too deeply\n"
    execution = write(tmp_path, "x.json", '{"processes":' + deep + "}")
    assert main(["import-execution", execution]) == 2
    assert capsys.readouterr().err == "error: document nests too deeply\n"


# ---------------------------------------------------------------------------
# render

def test_render_dot_to_stdout(flow_file, capsys):
    assert main(["render", flow_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph diagram {")
    assert '[label="p1->p2"]' in out


def test_render_ascii_to_file(flow_file, tmp_path, capsys):
    target = tmp_path / "flow.txt"
    assert main(["render", flow_file, "--format", "ascii", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8").startswith("---- cut 0 ----")


def test_render_draws_no_label_that_names_a_non_tick(tmp_path, capsys):
    # the loader keeps labels on a fork and on a hold; `validate`
    # reports them, and render draws their edges bare
    d = Diagram(Leaf(Prod(A, A)), (Fork(A, A), Par(Tick(A, A), noop(Leaf(A)))))
    lab = {
        TickRef(0, ""): Action("p9"),
        TickRef(1, "L"): Action("p1"),
        TickRef(1, "R"): Action("p8"),
    }
    path = write(tmp_path, "stray.json", diagram_to_json(d, lab))
    assert main(["render", path]) == 0
    out = capsys.readouterr().out
    assert '  "0:." -> "1:L";\n  "0:." -> "1:R";\n' in out
    assert '  "1:L" -> "2:L" [label="p1"];\n  "1:R" -> "2:R";\n' in out
    assert "p9" not in out and "p8" not in out
    assert main(["validate", path]) == 1
    assert capsys.readouterr().out == (
        "label at TickRef(step=0, path='') names no tick\n"
        "label at TickRef(step=1, path='R') names no tick\n"
    )


def test_render_refuses_invalid_diagrams(tmp_path, capsys):
    bad = Diagram(Leaf(A), (Tick(B, B),))
    path = write(tmp_path, "bad.json", diagram_to_json(bad))
    assert main(["render", path]) == 2
    assert "does not typecheck" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# paths

def test_paths_enumerates_witnesses(tmp_path, capsys):
    path = write(tmp_path, "swapped.json", swapped_diamond_doc())
    assert main(["paths", path, "--from", "0:L", "--to", "end:R"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0] == "0:L -> 1:LL -> 2:LL -> 3:L -> 4:R"
    assert lines[1] == "0:L -> 1:LR -> 2:LR -> 3:L -> 4:R"

    assert main(["paths", path, "--from", "0:L", "--to", "N:R", "--limit", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1

    assert main(["paths", path, "--from", "0:R", "--to", "4:L", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == [
        [
            {"cut": 0, "site": "R"},
            {"cut": 1, "site": "R"},
            {"cut": 2, "site": "R"},
            {"cut": 3, "site": "R"},
            {"cut": 4, "site": "L"},
        ]
    ]


def test_negative_counts_are_input_errors(tmp_path, capsys):
    path = write(tmp_path, "swapped.json", swapped_diamond_doc())
    for argv, text in (
        (["paths", path, "--from", "0:L", "--to", "N:R", "--limit", "-3"], "limit"),
        (["laws", "--clock", "vector", "--samples", "-5"], "samples"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {text} must be >= 0\n")
    # zero is no limit, and no samples
    assert main(["paths", path, "--from", "0:L", "--to", "N:R", "--limit", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert main(["laws", "--clock", "vector", "--samples", "0"]) == 0
    assert capsys.readouterr().out == "clock vector: 0 samples, 0 law failures\n"


def test_a_limit_past_sys_maxsize_is_no_limit(tmp_path, capsys):
    # islice takes no stop past sys.maxsize; no enumeration gets there
    path = write(tmp_path, "swapped.json", swapped_diamond_doc())
    argv = ["paths", path, "--from", "0:L", "--to", "N:R", "--limit"]
    assert main(argv + ["0"]) == 0
    unlimited = capsys.readouterr()
    assert len(unlimited.out.splitlines()) == 2 and unlimited.err == ""
    for limit in (sys.maxsize, sys.maxsize + 1, 99999999999999999999):
        assert main(argv + [str(limit)]) == 0
        assert capsys.readouterr() == unlimited


def test_paths_follow_a_span_longer_than_the_recursion_limit(tmp_path, capsys):
    long = Diagram(Leaf(A), (Tick(A, A),) * 1200)
    path = write(tmp_path, "long.json", diagram_to_json(long))
    assert main(["paths", path, "--from", "0:.", "--to", "1200:.", "--limit", "1"]) == 0
    assert capsys.readouterr().out.count(" -> ") == 1200


def test_paths_between_unrelated_events_prints_nothing(tmp_path, capsys):
    path = write(tmp_path, "swapped.json", swapped_diamond_doc())
    assert main(["paths", path, "--from", "0:L", "--to", "1:R"]) == 0
    assert capsys.readouterr().out == ""


def test_paths_rejects_bad_coordinates(flow_file, capsys):
    for src in ("0L", "q:L", "0:X"):
        assert main(["paths", flow_file, "--from", src, "--to", "N:R"]) == 2
        assert "error:" in capsys.readouterr().err
    # coordinates outside the diagram
    assert main(["paths", flow_file, "--from", "0:LL", "--to", "N:R"]) == 2


def test_a_cut_is_ascii_digits_n_or_end(flow_file, capsys):
    # `int` reads each of these but the last as a cut
    for cut in ("1_0", "١", "+1", " 1", "1 ", "-1", "¹", ""):
        src = f"{cut}:L"
        assert main(["paths", flow_file, f"--from={src}", "--to", "N:R"]) == 2
        assert capsys.readouterr() == ("", f"error: bad cut in event {src!r}\n")
    for src in ("01:L", "1:L", "0:L"):
        assert main(["paths", flow_file, "--from", src, "--to", "end:R"]) == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# timestamps

def test_timestamps_text_lists_every_event(flow_file, capsys):
    assert main(["timestamps", flow_file, "--clock", "scalar"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert '3:L  {"*":1}' in lines
    assert '3:R  {}' in lines


def test_timestamps_json(flow_file, capsys):
    assert main(["timestamps", flow_file, "--clock", "rst", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["clock"] == "rst"
    assert len(obj["events"]) == 10
    final_left = [e for e in obj["events"] if e["cut"] == 3 and e["site"] == "L"]
    assert final_left == [{"cut": 3, "site": "L", "stamp": {"p1->p2": 1}}]


def test_timestamps_start_from_a_valuation_file(tmp_path, capsys):
    doc = write(tmp_path, "two.json", diagram_to_json(*build_two_tick()))
    val = write(tmp_path, "val.json", json.dumps({".": {"*": 3}}))
    assert main(["timestamps", doc, "--clock", "scalar", "--valuation", val, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    stamps = {(e["cut"], e["site"]): e["stamp"] for e in obj["events"]}
    assert stamps == {(0, ""): {"*": 3}, (1, ""): {"*": 4}, (2, ""): {"*": 5}}


def test_timestamps_need_action_labels(tmp_path, capsys):
    d, _ = build_two_tick()
    lab = {TickRef(0, ""): "checkpoint", TickRef(1, ""): Action("p1", "p1")}
    path = write(tmp_path, "strlab.json", diagram_to_json(d, lab))
    assert main(["timestamps", path, "--clock", "scalar"]) == 2
    assert "not an action" in capsys.readouterr().err


def test_timestamps_reject_bad_valuation_files(tmp_path, flow_file, capsys):
    val = write(tmp_path, "val.json", "[1, 2]")
    assert main(["timestamps", flow_file, "--clock", "scalar", "--valuation", val]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["timestamps", "check-clock"])
def test_a_valuation_file_that_names_a_site_twice_is_an_input_error(tmp_path, command, capsys):
    # "." and "" both name the root site
    doc = write(tmp_path, "two.json", diagram_to_json(*build_two_tick()))
    val = write(tmp_path, "val.json", json.dumps({".": {"p1": 5}, "": {"p1": 1}}))
    assert main([command, doc, "--clock", "vector", "--valuation", val]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: valuation names site '.' twice\n"


def test_a_valuation_file_that_is_not_json_is_an_input_error(tmp_path, flow_file, capsys):
    val = write(tmp_path, "val.json", '{"L": ')
    assert main(["timestamps", flow_file, "--clock", "scalar", "--valuation", val]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: valuation file is not JSON: Expecting value: line 1 column 7 (char 6)\n"
    )


def test_timestamps_reject_non_integer_matrix_counts(tmp_path, flow_file, capsys):
    stamp = {"owner": "p1", "matrix": {"p1": {"p1": "x"}}}
    val = write(tmp_path, "val.json", json.dumps({"L": stamp, "R": stamp}))
    assert main(["timestamps", flow_file, "--clock", "wb", "--valuation", val]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-negative integer" in err


def test_timestamps_reject_non_scalar_actors(tmp_path, capsys):
    doc = json.loads(diagram_to_json(*build_two_tick()))
    doc["labels"][0]["value"] = {"actor": ["x"]}
    path = write(tmp_path, "listy.json", json.dumps(doc))
    assert main(["timestamps", path, "--clock", "vector"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "actor must be a string or an integer" in err


# ---------------------------------------------------------------------------
# checks

def test_check_clock_passes_on_generated_diagrams(tmp_path, capsys):
    doc = str(tmp_path / "gen.json")
    assert main(["gen", "--seed", "5", "--out", doc]) == 0
    for clock in ("scalar", "vector", "rst", "wb"):
        assert main(["check-clock", doc, "--clock", clock]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out


def test_check_clock_json_report(flow_file, capsys):
    assert main(["check-clock", flow_file, "--clock", "wb", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["check"] == "clock-condition"
    assert obj["clock"] == "wb"
    assert obj["violations"] == []
    assert obj["checked_pairs"] > 0
    with open(flow_file, encoding="utf-8") as f:
        text = f.read()
    assert obj["diagram_hash"] == diagram_hash(*diagram_from_json(text))


def test_check_order_text(flow_file, capsys):
    assert main(["check-order", flow_file]) == 0
    out = capsys.readouterr().out
    assert "order laws hold" in out
    assert out.startswith("10 events")


def test_checks_read_the_whole_order_of_a_large_diagram(tmp_path, capsys):
    doc = str(tmp_path / "big.json")
    argv = ["gen", "--seed", "3", "--max-steps", "128", "--max-sites", "24"]
    assert main(argv + ["--out", doc]) == 0
    assert main(["check-order", doc]) == 0
    assert capsys.readouterr().out == (
        "949 events, 170657 ordered pairs: order laws hold\n"
    )
    assert main(["check-clock", doc, "--clock", "vector"]) == 0
    assert capsys.readouterr().out == (
        "clock vector: 170657 ordered pairs, 0 violations\n"
    )


def test_laws_text(capsys):
    assert main(["laws", "--clock", "vector", "--samples", "500"]) == 0
    assert "0 law failures" in capsys.readouterr().out


def test_laws_json(capsys):
    assert main(["laws", "--clock", "wb", "--samples", "200", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["clock"] == "wb"
    assert obj["samples"] == 200
    assert obj["failures"] == []


# ---------------------------------------------------------------------------
# failed checks: the lines after the summary, and exit 1

@pytest.fixture
def broken(monkeypatch):
    """Every clock name reads the lawless `broken_clock()`."""
    monkeypatch.setattr(cli, "by_name", lambda name: broken_clock())


@pytest.fixture
def small_file(tmp_path):
    d, lab = gen_diagram(GenParams(seed=1, max_steps=4, max_sites=3))
    return write(tmp_path, "small.json", diagram_to_json(d, lab))


def test_check_clock_prints_each_violation(broken, small_file, capsys):
    assert main(["check-clock", small_file, "--clock", "vector"]) == 1
    assert capsys.readouterr().out == (
        "clock broken: 6 ordered pairs, 3 violations\n"
        "  0:. !<= 1:. via 0:. -> 1:.\n"
        "  0:. !<= 2:. via 0:. -> 1:. -> 2:.\n"
        "  1:. !<= 2:. via 1:. -> 2:.\n"
    )


def test_check_clock_json_lists_each_violation(broken, small_file, capsys):
    assert main(["check-clock", small_file, "--clock", "vector", "--json"]) == 1
    out = capsys.readouterr().out
    d, lab = gen_diagram(GenParams(seed=1, max_steps=4, max_sites=3))
    clock = broken_clock()
    obj = report_to_obj(check_clock_condition(d, lab, clock), clock)
    obj["diagram_hash"] = diagram_hash(d, lab)
    assert out == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    got = json.loads(out)
    assert (got["clock"], got["checked_pairs"], len(got["violations"])) == ("broken", 6, 3)
    assert got["violations"][0]["source"] == {"cut": 0, "site": ""}
    assert got["violations"][0]["dest_stamp"] == {"*": -1}


def test_laws_prints_each_failure(broken, capsys):
    assert main(["laws", "--clock", "vector", "--samples", "3"]) == 1
    assert capsys.readouterr().out == (
        "clock broken: 3 samples, 4 law failures\n"
        "  increment-inflationary: a=Action(actor='p3', target='p1') t={'*': 4} inc={'*': 3}\n"
        "  increment-inflationary: a=Action(actor='p3', target='p2') t={'*': -2} inc={'*': -3}\n"
        "  merge-absorbs-right: l={'*': -2} r={} merge={'*': -2}\n"
        "  increment-inflationary: a=Action(actor='p2', target='p2') t={'*': 1} inc={'*': 0}\n"
    )
    assert main(["laws", "--clock", "vector", "--samples", "3", "--json"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert (obj["clock"], obj["samples"], len(obj["failures"])) == ("broken", 3, 4)
    assert obj["failures"][2] == {
        "law": "merge-absorbs-right", "detail": "l={'*': -2} r={} merge={'*': -2}"
    }


BAD_ORDER = OrderLawReport(
    events=3,
    pairs=5,
    reflexivity=(Event(0, "L"),),
    antisymmetry=((Event(0, ""), Event(1, "R")),),
    transitivity=((Event(0, ""), Event(1, "L"), Event(2, "LR")),),
)


def test_check_order_prints_each_law_failure(monkeypatch, flow_file, capsys):
    monkeypatch.setattr(cli, "check_order_laws", lambda d: BAD_ORDER)
    assert main(["check-order", flow_file]) == 1
    assert capsys.readouterr().out == (
        "3 events, 5 ordered pairs: order laws violated\n"
        "  not reflexive at 0:L\n"
        "  both 0:. <= 1:R and 1:R <= 0:.\n"
        "  0:. <= 1:L <= 2:LR but not 0:. <= 2:LR\n"
    )
    assert main(["check-order", flow_file, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "events": 3,
        "pairs": 5,
        "reflexivity": [{"cut": 0, "site": "L"}],
        "antisymmetry": [[{"cut": 0, "site": ""}, {"cut": 1, "site": "R"}]],
        "transitivity": [
            [{"cut": 0, "site": ""}, {"cut": 1, "site": "L"}, {"cut": 2, "site": "LR"}]
        ],
    }


# ---------------------------------------------------------------------------
# gen

def test_gen_is_deterministic(capsys):
    assert main(["gen", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "11"]) == 0
    assert capsys.readouterr().out == first
    assert main(["gen", "--seed", "12"]) == 0
    assert capsys.readouterr().out != first


def test_gen_output_validates(tmp_path, capsys):
    doc = str(tmp_path / "gen.json")
    assert main(["gen", "--seed", "3", "--max-steps", "5", "--max-sites", "4", "--out", doc]) == 0
    assert main(["validate", doc]) == 0
    capsys.readouterr()


def test_gen_rejects_bad_params(capsys):
    assert main(["gen", "--seed", "1", "--max-sites", "0"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# import-execution

def test_import_execution(tmp_path, capsys):
    path = write(tmp_path, "ping.json", json.dumps(execution_to_obj(PING)))
    assert main(["import-execution", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["tick_index"]) == {"a1", "a2"}
    assert set(doc["tick_index"]["a1"]) == {"step", "path"}

    out = str(tmp_path / "compiled.json")
    assert main(["import-execution", path, "--out", out]) == 0
    assert main(["validate", out]) == 0
    capsys.readouterr()


def test_import_execution_rejects_cycles(tmp_path, capsys):
    cyclic = make_execution(
        {"p1": ("a1", "a4"), "p2": ("a2", "a3")},
        messages=[("a4", "a2"), ("a3", "a1")],
    )
    path = write(tmp_path, "cyclic.json", json.dumps(execution_to_obj(cyclic)))
    assert main(["import-execution", path]) == 2
    assert "happens before itself" in capsys.readouterr().err


def test_import_execution_rejects_invalid_executions(tmp_path, capsys):
    obj = {
        "processes": {"p1": ["a1"], "p2": ["a1"]},
        "messages": [],
        "actions": {"a1": {"actor": "p1", "target": "p1"}},
    }
    path = write(tmp_path, "dup.json", json.dumps(obj))
    assert main(["import-execution", path]) == 2
    assert "invalid execution" in capsys.readouterr().err


def test_import_execution_rejects_non_string_endpoints(tmp_path, capsys):
    obj = execution_to_obj(PING)
    obj["messages"] = [[["a1"], "a2"]]
    path = write(tmp_path, "listy.json", json.dumps(obj))
    assert main(["import-execution", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "pair of action ids" in err


def test_import_execution_rejects_a_non_object(tmp_path, capsys):
    path = write(tmp_path, "list.json", "[]")
    assert main(["import-execution", path]) == 2
    assert capsys.readouterr() == ("", "error: expected an execution object, got []\n")


def test_import_execution_rejects_non_scalar_actors(tmp_path, capsys):
    obj = execution_to_obj(PING)
    obj["actions"]["a1"] = {"actor": ["x"]}
    path = write(tmp_path, "listy.json", json.dumps(obj))
    assert main(["import-execution", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "actor must be a string or an integer" in err


def test_import_and_validate_take_400_processes(tmp_path, capsys):
    # one site per process, so the configuration nests 400 tensors deep
    wide = make_execution({f"p{i}": (f"a{i}",) for i in range(400)})
    path = write(tmp_path, "wide.json", json.dumps(execution_to_obj(wide)))
    out = str(tmp_path / "compiled.json")
    assert main(["import-execution", path, "--out", out]) == 0
    assert main(["validate", out]) == 0
    final = capsys.readouterr().out.rstrip("\n")
    assert final.startswith("(" * 399 + "[") and final.count(" * ") == 399
    assert main(["validate", out, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "faults": [], "final": final}


def test_import_of_1500_processes_is_an_input_error(tmp_path, capsys):
    # the compiled configuration nests 1500 tensors deep, past what the
    # JSON writer can nest; nothing is written
    wide = make_execution({f"p{i}": (f"a{i}",) for i in range(1500)})
    path = write(tmp_path, "wide.json", json.dumps(execution_to_obj(wide)))
    out = tmp_path / "compiled.json"
    assert main(["import-execution", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: document nests too deeply\n"
    assert not out.exists()


def test_subcommand_is_required():
    with pytest.raises(SystemExit):
        main([])


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    def rebuild():
        raise AssertionError("main rebuilt the argument parser")

    monkeypatch.setattr(cli, "_build_parser", rebuild)
    assert main(["gen", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "3", "--max-steps", "2"]) == 0
    assert main(["gen", "--seed", "3"]) == 0
    assert capsys.readouterr().out.endswith(first)


# Each subcommand's arguments in declaration order, after its -h:
# option strings, dest, default, required, choices, type, metavar, help.
# The order fixes the usage line, the help text and the "the following
# arguments are required" error.
FILE = ((), "file", None, True, None, None, None, None)
JSON = (("--json",), "json", False, False, None, None, None, None)
CLOCK = (("--clock",), "clock", None, True, ("rst", "scalar", "vector", "wb"), None, None, None)
VALUATION = (
    ("--valuation",), "valuation", None, False, None, None, None,
    "JSON file of initial site timestamps",
)
OUT = (("--out",), "out", None, False, None, None, None, None)
ARGUMENTS = {
    "validate": [FILE, JSON],
    "render": [
        FILE, (("--format",), "format", "dot", False, ("dot", "ascii"), None, None, None), OUT
    ],
    "paths": [
        FILE,
        (("--from",), "src", None, True, None, None, "CUT:SITE", None),
        (("--to",), "dst", None, True, None, None, "CUT:SITE", None),
        (("--limit",), "limit", 0, False, None, int, None, "stop after N witnesses"),
        JSON,
    ],
    "timestamps": [FILE, CLOCK, VALUATION, JSON],
    "check-clock": [FILE, CLOCK, VALUATION, JSON],
    "check-order": [FILE, JSON],
    "laws": [
        CLOCK,
        (("--seed",), "seed", 0, False, None, int, None, None),
        (("--samples",), "samples", 10_000, False, None, int, None, None),
        JSON,
    ],
    "gen": [
        (("--seed",), "seed", None, True, None, int, None, None),
        (("--max-steps",), "max_steps", 8, False, None, int, None, None),
        (("--max-sites",), "max_sites", 6, False, None, int, None, None),
        OUT,
    ],
    "import-execution": [FILE, OUT],
}


def test_each_subcommand_declares_its_arguments_in_order():
    [subs] = [a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subs.choices) == list(ARGUMENTS)
    for name, parser in subs.choices.items():
        assert parser.prog == f"causalweft {name}"
        first, *rest = parser._actions
        assert isinstance(first, argparse._HelpAction)
        got = [
            (
                tuple(a.option_strings), a.dest, a.default, a.required,
                a.choices, a.type, a.metavar, a.help,
            )
            for a in rest
        ]
        assert got == ARGUMENTS[name], name
        flags = [isinstance(a, argparse._StoreTrueAction) for a in rest]
        assert flags == [arg is JSON for arg in ARGUMENTS[name]], name


# ---------------------------------------------------------------------------
# the cycle collector: paused for each command, then as the caller had it

def diamond_chain(rounds, stray=False):
    """A diamond on lane L beside a ticking lane R, `rounds` times over,
    each round ending in a swap and a swap back; every tick is labeled,
    and with `stray` every fork too, which `validate` reports."""
    steps, lab = [], {}
    for _ in range(rounds):
        t = len(steps)
        steps += [
            Par(Fork(A, A), Tick(B, B)),
            Par(Par(Tick(A, A), Tick(A, A)), Tick(B, B)),
            Par(Join(A, A), Tick(B, B)),
            PermStep(perm_swap(Leaf(Prod(A, A)), Leaf(B))),
            PermStep(perm_swap(Leaf(B), Leaf(Prod(A, A)))),
        ]
        lab |= {TickRef(t + i, "R"): Action("p9", "p1") for i in range(3)}
        lab |= {TickRef(t + 1, "LL"): Action("p1", "p1"), TickRef(t + 1, "LR"): Action("p2", "p9")}
        if stray:
            lab[TickRef(t, "L")] = Action("p1")
    return diagram_to_json(Diagram(Tensor(Leaf(Prod(A, A)), Leaf(B)), tuple(steps)), lab)


def ring_execution(n):
    """Actions a1..an dealt round four processes; each odd action sends
    to the next one, which sits on the next process."""
    owner = {f"a{i}": f"p{i % 4 + 1}" for i in range(1, n + 1)}
    processes = {p: tuple(a for a in owner if owner[a] == p) for p in sorted(set(owner.values()))}
    messages = [(f"a{i}", f"a{i + 1}") for i in range(1, n, 2)]
    targets = {s: owner[r] for s, r in messages} | {r: owner[s] for s, r in messages}
    return make_execution(processes, messages, targets)


def imported(tmp_path, n):
    """The file of ring_execution(n), and the document import-execution
    writes for it."""
    exe = write(tmp_path, f"ring{n}.json", json.dumps(execution_to_obj(ring_execution(n))))
    doc = str(tmp_path / f"ring{n}.diagram.json")
    assert main(["import-execution", exe, "--out", doc]) == 0
    return exe, doc


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector turned on or off before the test, and put back as
    it was after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_main_leaves_the_collector_as_it_found_it(
    collector, broken, small_file, monkeypatch, tmp_path, capsys
):
    threshold = gc.get_threshold()
    for argv, code in (
        (["check-order", small_file], 0),
        (["check-clock", small_file, "--clock", "vector"], 1),
        (["validate", str(tmp_path / "absent.json")], 2),
    ):
        assert main(argv) == code
        assert gc.isenabled() is collector
    for argv, code in ((["--help"], 0), (["frobnicate"], 2), (["validate"], 2)):
        with pytest.raises(SystemExit) as exit:
            main(argv)
        assert exit.value.code == code
        assert gc.isenabled() is collector

    def fail(d):
        raise RuntimeError("checker failed")

    monkeypatch.setattr(cli, "check_order_laws", fail)
    with pytest.raises(RuntimeError):
        main(["check-order", small_file])
    assert gc.isenabled() is collector
    assert gc.get_threshold() == threshold
    capsys.readouterr()


@pytest.mark.parametrize("collector", [True], indirect=True)
def test_a_command_runs_no_collection(collector, tmp_path, capsys):
    _, doc = imported(tmp_path, 100)
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        assert main(["timestamps", doc, "--clock", "wb"]) == 0
    finally:
        gc.callbacks.remove(record)
    assert capsys.readouterr().out.count("\n") > 100
    assert started == []


def cyclic_garbage(argv, code):
    """The objects in reference cycles that `main(argv)` leaves behind;
    the caller keeps the collector off."""
    gc.collect()
    assert main(argv) == code
    return gc.collect()


# Each command's arguments as templates over the inputs of one size, its
# exit code and the `cli` attribute patched to make it fail; each runs
# with and without --json where it takes it (ARGUMENTS).
BROKEN_CLOCK = ("by_name", lambda name: broken_clock())
BROKEN_ORDER = ("check_order_laws", lambda d: BAD_ORDER)
COMMANDS = {
    "validate": (["validate", "{doc}"], 0, None),
    "validate-faults": (["validate", "{stray}"], 1, None),
    "render": (["render", "{doc}"], 0, None),
    "render-imported": (["render", "{imported}", "--format", "ascii"], 0, None),
    "paths": (["paths", "{doc}", "--from", "0:L", "--to", "end:L", "--limit", "4"], 0, None),
    "timestamps": (["timestamps", "{doc}", "--clock", "vector"], 0, None),
    "timestamps-imported": (["timestamps", "{imported}", "--clock", "wb"], 0, None),
    "check-clock": (["check-clock", "{doc}", "--clock", "vector"], 0, None),
    "check-clock-broken": (["check-clock", "{imported}", "--clock", "vector"], 1, BROKEN_CLOCK),
    "check-order": (["check-order", "{imported}"], 0, None),
    "check-order-broken": (["check-order", "{doc}"], 1, BROKEN_ORDER),
    "laws": (["laws", "--clock", "wb", "--samples", "{samples}"], 0, None),
    "laws-broken": (["laws", "--clock", "vector", "--samples", "{samples}"], 1, BROKEN_CLOCK),
    "gen": (["gen", "--seed", "3", "--max-steps", "{steps}"], 0, None),
    "import-execution": (["import-execution", "{exe}"], 0, None),
}


@pytest.mark.parametrize("collector", [False], indirect=True)
@pytest.mark.parametrize("name", list(COMMANDS))
def test_cyclic_garbage_does_not_grow_with_the_input(
    name, collector, monkeypatch, tmp_path, capsys
):
    # The collector can stay paused through a command only because its
    # data is acyclic: what a command leaves in cycles must not depend
    # on the input, and must be nothing without --json.
    argv, code, patch = COMMANDS[name]
    if patch:
        monkeypatch.setattr(cli, *patch)
    sizes = []
    for scale in (1, 10):
        exe, doc = imported(tmp_path, 4 * scale)
        sizes.append({
            "doc": write(tmp_path, f"chain{scale}.json", diamond_chain(3 * scale)),
            "stray": write(tmp_path, f"stray{scale}.json", diamond_chain(3 * scale, stray=True)),
            "exe": exe,
            "imported": doc,
            "samples": str(100 * scale),
            "steps": str(8 * scale),
        })
    for flags in ([], ["--json"]) if JSON in ARGUMENTS[argv[0]] else ([],):
        counts = [
            cyclic_garbage([a.format(**inputs) for a in argv] + flags, code) for inputs in sizes
        ]
        assert counts[0] == counts[1], flags
        if not flags:
            assert counts == [0, 0]
    capsys.readouterr()
