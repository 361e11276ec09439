import re

import pytest

from causalweft.clocks import Action
from causalweft.diagram import (
    Atom,
    Diagram,
    Fork,
    Leaf,
    Prod,
    Tick,
    TickRef,
    cut_configs,
    identity,
    noop,
    sites,
)
from causalweft.paths import step_relation
from causalweft.render import render, to_ascii, to_dot

A, B = Atom("A"), Atom("B")

EDGE = re.compile(r'"(\d+):([^"]*)" -> "(\d+):([^"]*)"')


def parse_edges(dot: str) -> set[tuple[int, str, int, str]]:
    def site(s: str) -> str:
        return "" if s == "." else s

    return {
        (int(k), site(a), int(k2), site(b))
        for k, a, k2, b in EDGE.findall(dot)
    }


def expected_edges(d: Diagram) -> set[tuple[int, str, int, str]]:
    return {
        (k, a, k + 1, b)
        for k, step in enumerate(d.steps)
        for a, b in step_relation(step)
    }


def test_identity_dot_has_one_rank_and_no_edges():
    dot = to_dot(identity(Leaf(A)))
    assert dot.startswith("digraph diagram {")
    assert dot.count("rank=same") == 1
    assert '"0:.";' in dot
    assert parse_edges(dot) == set()


def test_fork_dot_edges():
    d = Diagram(Leaf(Prod(A, B)), (Fork(A, B),))
    edges = parse_edges(to_dot(d))
    assert edges == {(0, "", 1, "L"), (0, "", 1, "R")}


def test_dot_edge_set_matches_the_step_relations(message_flow):
    d, lab = message_flow
    dot = to_dot(d, lab)
    assert dot.count("rank=same") == len(cut_configs(d))
    assert parse_edges(dot) == expected_edges(d)


def test_dot_ranks_list_every_site(message_flow):
    d, _ = message_flow
    dot = to_dot(d)
    for t, cfg in enumerate(cut_configs(d)):
        for s in sites(cfg):
            assert f'"{t}:{s or "."}"' in dot


def test_tick_edges_carry_their_labels(message_flow):
    d, lab = message_flow
    dot = to_dot(d, lab)
    assert '"0:L" -> "1:L" [label="p1->p2"];' in dot
    # unlabeled rendering drops the annotation, not the edge
    bare = to_dot(d)
    assert "label=" not in bare
    assert parse_edges(bare) == parse_edges(dot)


def test_actor_only_label_text(two_tick):
    d, _ = two_tick
    lab = {TickRef(0, ""): Action("p1"), TickRef(1, ""): "checkpoint"}
    dot = to_dot(d, lab)
    assert '[label="p1"]' in dot
    assert '[label="checkpoint"]' in dot


def test_a_label_on_a_hold_draws_no_tick():
    d = Diagram(Leaf(A), (noop(Leaf(A)),))
    dot = render(d, {TickRef(0, ""): Action("p1")}, "dot")
    assert '  "0:." -> "1:.";\n' in dot
    assert "label=" not in dot
    # only the tick's edge is labeled, although the perm that follows
    # keeps the tick's site
    d = Diagram(Leaf(A), (Tick(A, A), noop(Leaf(A))))
    lab = {TickRef(0, ""): Action("p1"), TickRef(1, ""): Action("p2")}
    dot = to_dot(d, lab)
    assert '  "0:." -> "1:." [label="p1"];\n' in dot
    assert '  "1:." -> "2:.";\n' in dot
    assert "p2" not in dot


def test_ascii_layout(message_flow):
    d, lab = message_flow
    text = to_ascii(d, lab)
    lines = text.splitlines()
    assert lines[0] == "---- cut 0 ----"
    assert lines[1] == "L=[t1]  R=[(t2 x t3)]"
    assert "    tick @ L: t1 -> t1'  (p1->p2)" in lines
    assert "    fork @ R: (t2 x t3) -> t2 | t3" in lines
    assert "    join @ L: t1' | t2 -> (t1' x t2)" in lines
    assert sum(1 for ln in lines if ln.startswith("---- cut ")) == 4
    assert lines[-1] == "L=[(t1' x t2)]  R=[t3]"


def test_ascii_shows_moved_routes(message_flow):
    d, _ = message_flow
    text = to_ascii(d)
    perm_lines = [ln for ln in text.splitlines() if "perm @" in ln]
    assert len(perm_lines) == 1
    for route in ("L->LL", "RL->LR", "RR->R"):
        assert route in perm_lines[0]


def test_ascii_identity_perm_is_a_hold(message_flow):
    d, _ = message_flow
    text = to_ascii(d)
    assert "hold @ R" in text  # the noop beside the join
    assert "perm @ R" not in text


def test_identity_ascii():
    text = to_ascii(identity(Leaf(A)))
    assert text == "---- cut 0 ----\n.=[A]\n"


def test_render_dispatch(diamond):
    d, lab = diamond
    assert render(d, lab) == to_dot(d, lab)
    assert render(d, lab, format="ascii") == to_ascii(d, lab)
    with pytest.raises(ValueError, match="unknown format"):
        render(d, lab, format="svg")


def test_renders_are_deterministic(diamond, message_flow):
    for d, lab in (diamond, message_flow):
        assert to_dot(d, lab) == to_dot(d, lab)
        assert to_ascii(d, lab) == to_ascii(d, lab)


def test_corpus_renders_parse_cleanly(small_corpus):
    for d, lab in small_corpus[:40]:
        dot = to_dot(d, lab)
        assert parse_edges(dot) == expected_edges(d)
        assert to_ascii(d, lab).count("---- cut ") == d.n_steps + 1
