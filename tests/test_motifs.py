"""Motif classification and the label algebra behind the edge checks."""

from itertools import product

import pytest

from tegraph import MOTIFS, Event, Motif, classify_motif, classify_pair, prescribed_nodes
from tegraph.motifs import _CODE_OF_SLOTS

# one concrete node-pair example per class, earlier pair first
CASES = [
    (Motif.ABAB, (1, 2), (1, 2)),
    (Motif.ABBA, (1, 2), (2, 1)),
    (Motif.ABAC, (1, 2), (1, 3)),
    (Motif.ABCA, (1, 2), (3, 1)),
    (Motif.ABBC, (1, 2), (2, 3)),
    (Motif.ABCB, (1, 2), (3, 2)),
]


@pytest.mark.parametrize("motif,first,second", CASES)
def test_classification_table(motif, first, second):
    assert classify_pair(*first, *second) is motif


def test_classification_is_label_invariant():
    # renaming nodes never changes the class
    for motif, (a, b), (c, d) in CASES:
        relabel = {1: 40, 2: 17, 3: 99}
        assert (
            classify_pair(relabel[a], relabel[b], relabel[c], relabel[d]) is motif
        )


def test_disjoint_pairs_rejected():
    with pytest.raises(ValueError, match="share no node"):
        classify_pair(1, 2, 3, 4)


def test_classify_motif_checks_order():
    early = Event(1, 2, 0.0)
    late = Event(1, 3, 4.0)
    assert classify_motif(early, late) is Motif.ABAC
    with pytest.raises(ValueError, match="out of order"):
        classify_motif(late, early)


def test_attribute_table():
    expected = {
        Motif.ABAB: ("AB", "AB", +1),
        Motif.ABBA: ("AB", "BA", -1),
        Motif.ABAC: ("A", "A", +1),
        Motif.ABCA: ("A", "B", -1),
        Motif.ABBC: ("B", "A", -1),
        Motif.ABCB: ("B", "B", +1),
    }
    for motif, (out, into, switch) in expected.items():
        assert motif.xi_out == out
        assert motif.xi_in == into
        assert motif.switch == switch
    assert {m for m in MOTIFS if m.is_two_node} == {Motif.ABAB, Motif.ABBA}


def test_switch_tracks_role_persistence():
    # +1 exactly when each shared node keeps its source/target role
    for motif, first, second in CASES:
        shared = set(first) & set(second)
        kept = all(
            (node == first[0]) == (node == second[0]) for node in shared
        )
        assert motif.switch == (+1 if kept else -1)


@pytest.mark.parametrize(
    "motif,expected",
    [
        (Motif.ABAB, (10, 20)),
        (Motif.ABBA, (20, 10)),
        (Motif.ABAC, (10, None)),
        (Motif.ABCA, (None, 10)),
        (Motif.ABBC, (20, None)),
        (Motif.ABCB, (None, 20)),
    ],
)
def test_prescribed_nodes(motif, expected):
    assert prescribed_nodes(motif, 10, 20) == expected


def test_prescription_matches_classification():
    # the nodes a motif prescribes are exactly the later pair's shared part
    for motif, first, second in CASES:
        src, dst = prescribed_nodes(motif, *first)
        assert src is None or src == second[0]
        assert dst is None or dst == second[1]


def test_canonical_order_and_values():
    assert tuple(m.value for m in MOTIFS) == (
        "ABAB",
        "ABBA",
        "ABAC",
        "ABCA",
        "ABBC",
        "ABCB",
    )
    assert Motif("ABCA") is Motif.ABCA
    assert str(Motif.ABBC) == "ABBC"


def test_slot_table_matches_classification():
    # the earlier event (0, 1) shares node a, its slot, with slot b of the later
    # event, whose other node is the earlier event's other node or a new one
    for a, b, same in product((0, 1), repeat=3):
        other = 1 - a if same else 2
        later = (other, a) if b else (a, other)
        assert MOTIFS[_CODE_OF_SLOTS[a << 2 | b << 1 | same]] is classify_pair(0, 1, *later)
