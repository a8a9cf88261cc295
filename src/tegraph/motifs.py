"""Two-event motif classes and their edge-label algebra.

An ordered pair of events that share at least one node falls into one of
six classes, named by the pattern of node first-appearances across the two
events (source before target, earlier event first). Each class carries
three attributes used by the consistency checks and the inverse map:

* ``xi_out``: which node(s) of the earlier event recur in the later one,
* ``xi_in``: which node(s) of the later event are prescribed, and where,
* ``switch``: +1 if a shared node keeps its source/target role, -1 if it
  swaps (only meaningful composition-wise; see below).

Single-letter labels name one node (A = source of the earlier event in
``xi_out`` / source of the later event in ``xi_in``, B = target); AB and BA
name both nodes of a two-node pair in the given order.
"""

from __future__ import annotations

from enum import Enum

from .events import Event


class Motif(Enum):
    """The six classes of adjacent event pairs."""

    ABAB = "ABAB"
    ABBA = "ABBA"
    ABAC = "ABAC"
    ABCA = "ABCA"
    ABBC = "ABBC"
    ABCB = "ABCB"

    def __str__(self) -> str:
        return self.value

    @property
    def xi_out(self) -> str:
        return _ATTRS[self][0]

    @property
    def xi_in(self) -> str:
        return _ATTRS[self][1]

    @property
    def switch(self) -> int:
        return _ATTRS[self][2]

    @property
    def is_two_node(self) -> bool:
        return self in (Motif.ABAB, Motif.ABBA)


# (xi_out, xi_in, switch) per class.
_ATTRS = {
    Motif.ABAB: ("AB", "AB", +1),
    Motif.ABBA: ("AB", "BA", -1),
    Motif.ABAC: ("A", "A", +1),
    Motif.ABCA: ("A", "B", -1),
    Motif.ABBC: ("B", "A", -1),
    Motif.ABCB: ("B", "B", +1),
}

# canonical order: the order of definition
MOTIFS: tuple[Motif, ...] = tuple(Motif)


def classify_pair(u_i: int, v_i: int, u_j: int, v_j: int) -> Motif:
    """Motif of two node pairs, earlier pair first.

    Raises ValueError if the pairs share no node.
    """
    if u_i not in (u_j, v_j) and v_i not in (u_j, v_j):
        raise ValueError(f"event pairs ({u_i},{v_i}) and ({u_j},{v_j}) share no node")
    letters: dict[int, str] = {}
    pattern = []
    for node in (u_i, v_i, u_j, v_j):
        if node not in letters:
            letters[node] = "ABC"[len(letters)]
        pattern.append(letters[node])
    return Motif("".join(pattern))


def classify_motif(first: Event, second: Event) -> Motif:
    """Motif of two events, where ``first`` precedes ``second``.

    Raises ValueError if the events share no node or are out of order.
    """
    if second.time < first.time:
        raise ValueError("events out of order: first must not come after second")
    return classify_pair(first.source, first.target, second.source, second.target)


def prescribed_nodes(motif: Motif, u_i: int, v_i: int) -> tuple[int | None, int | None]:
    """Nodes of the later event dictated by the earlier event's pair.

    Returns (source, target) of the later event with ``None`` where the
    motif leaves the node free (letter C).
    """
    known = {"A": u_i, "B": v_i}
    pattern = motif.value
    return (known.get(pattern[2]), known.get(pattern[3]))
