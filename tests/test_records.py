"""Value semantics of the result records and the mutable pipeline states.

Frozen records compare by value, refuse attribute writes and survive copies;
``CycleOrPath`` rejects a repeated vertex and a short cycle on every way of
building one; the pipeline states start from fresh, empty containers.
"""

import copy
import pickle

import pytest

from oddramsey import parity_switch
from oddramsey.bipartite_even import (
    Bipartition,
    EvenCover,
    Miss,
    ParityHypergraph,
    StronglyEvenWitness,
)
from oddramsey.colored_graph import CycleOrPath, ParityCensus, SimpleGraph
from oddramsey.constructions import OracleResult
from oddramsey.errors import PreconditionFailed
from oddramsey.hamilton import ClosureTrace
from oddramsey.parity_switch import AgreementPartition, SwitchOutcome
from oddramsey.unique_finder import (
    Claw,
    ColorLedger,
    PreservedCollection,
    UniqueFreeResult,
)

from test_parity_switch import _coloring_twos, _hexagon, _split_host


def _frozen_records():
    """One of each frozen record, built afresh on every call."""
    cyc = CycleOrPath((0, 1, 2), closed=True)
    census = ParityCensus({1: 3})
    g = SimpleGraph.complete(3)
    return [
        census,
        cyc,
        CycleOrPath((0, 1)),
        ClosureTrace(g, 3, (), g),
        SwitchOutcome(cyc, "c4-switch", (cyc, cyc), cyc),
        AgreementPartition((frozenset({0, 1}),)),
        OracleResult(False, None, 7),
        Claw(0, (1, 2, 3), 1),
        UniqueFreeResult(cyc, census, ColorLedger.fresh(2)),
        Miss("unknown", "even-cover"),
        ParityHypergraph(2, ((0, frozenset({1})),)),
        EvenCover((0, 1)),
        StronglyEvenWitness((0, 1), (2, 3)),
        Bipartition((0, 1), (2, 3)),
    ]


@pytest.mark.parametrize("i", range(len(_frozen_records())))
def test_frozen_records_compare_by_value(i):
    rec, twin = _frozen_records()[i], _frozen_records()[i]
    assert rec is not twin and rec == twin
    assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert isinstance(copy.deepcopy(rec), type(rec))


@pytest.mark.parametrize("i", range(len(_frozen_records())))
def test_frozen_records_refuse_attribute_writes(i):
    rec = _frozen_records()[i]
    names = type(rec).__match_args__
    before = [getattr(rec, k) for k in names]
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert [getattr(rec, k) for k in names] == before


def test_records_repr_names_class_and_fields():
    assert repr(Miss("unknown", "x")) == "Miss(status='unknown', stage='x')"
    assert repr(CycleOrPath((0, 1))) == "CycleOrPath(vertices=(0, 1), closed=False)"
    assert repr(OracleResult(True, None, 0, "s")) == (
        "OracleResult(exists=True, witness=None, nodes=0, scheme='s')"
    )
    assert repr(ColorLedger.fresh(1)) == (
        "ColorLedger(palette=1, unused={1}, history=[])"
    )
    assert Miss("unknown", "x") != Miss("not_found", "x")


def _cycle_builders():
    yield lambda vs, closed: CycleOrPath(vs, closed)
    yield lambda vs, closed: CycleOrPath(vertices=vs, closed=closed)
    if hasattr(CycleOrPath, "_make"):
        yield lambda vs, closed: CycleOrPath._make((vs, closed))
        valid = CycleOrPath((0, 1, 2), closed=True)
        yield lambda vs, closed: valid._replace(vertices=vs, closed=closed)
        yield lambda vs, closed: valid._replace(vertices=vs)._replace(closed=closed)


@pytest.mark.parametrize(
    "vertices, closed, message",
    [
        ((0, 1, 0), False, "repeated vertex in cycle/path"),
        ((3, 4, 5, 4), True, "repeated vertex in cycle/path"),
        ((0, 1), True, "a cycle needs at least 3 vertices"),
    ],
)
def test_cycle_or_path_rejects_on_every_build(vertices, closed, message):
    for build in _cycle_builders():
        with pytest.raises(PreconditionFailed, match=message):
            build(vertices, closed)
        ok = build((0, 1, 2, 3), closed)
        assert ok == CycleOrPath((0, 1, 2, 3), closed)


@pytest.mark.parametrize(
    "parts, banned, twos, patched, provenance",
    [
        ([(0, 3, 6), (7, 8, 9, 10)], [(2, 4)], [(1, 2)], "_c6_dispatch",
         "c6-switch case-2 -> inner"),
        ([(0, 3, 8), (9, 10, 11)], [(1, 5), (2, 4)], [(1, 2)], "_c6_dispatch",
         "c6-switch case-3 -> inner"),
        ([(0, 3, 7, 9), (6, 8, 10, 11)], [], [(1, 2), (2, 11)], "switch_c4",
         "inner (delegated)"),
    ],
)
def test_switch_outcome_rewraps_keep_cycle_candidates_and_witness(
    monkeypatch, parts, banned, twos, patched, provenance
):
    # the hosts of the case-2 and case-3 re-application tests and of the
    # case-1.2.2 delegation test; the inner switch answers with a stub whose
    # fields the rewrap must carry over unchanged
    cyc = CycleOrPath((0, 1, 2, 3), closed=True)
    inner = SwitchOutcome(cyc, "inner", (cyc.reversed(), cyc), _hexagon())
    real = getattr(parity_switch, patched)
    calls = []

    def stub(*args):
        calls.append(args)
        first_dispatch = patched == "_c6_dispatch" and len(calls) == 1
        return real(*args) if first_dispatch else inner

    monkeypatch.setattr(parity_switch, patched, stub)
    g = _split_host(parts, banned)
    out = parity_switch.switch_c6(g, _coloring_twos(g, twos), _hexagon())
    assert out == SwitchOutcome(cyc, provenance, inner.candidates, inner.witness)


def test_state_defaults_are_fresh_containers():
    a, b = PreservedCollection(5), PreservedCollection(n=5)
    assert a.n == 5
    assert (a.claws, a.paths, a.remaining) == ([], [], set())
    assert (a.virtual_real, a.gadget_color) == ({}, None)
    assert a == b
    a.paths.append([0, 1])
    assert b.paths == [] and a != b
    given = {1, 2}
    assert PreservedCollection(3, remaining=given).remaining is given
    ledger, other = ColorLedger.fresh(3), ColorLedger.fresh(3)
    assert (ledger.palette, ledger.unused, ledger.history) == (3, {1, 2, 3}, [])
    ledger.free_color(2, "claw", center=0)
    assert ledger.unused == {1, 3}
    assert ledger.history == [
        {"event": "free-color", "color": 2, "reason": "claw", "center": 0}
    ]
    assert (other.unused, other.history) == ({1, 2, 3}, [])
