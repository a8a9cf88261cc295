"""Temporal networks as time-ordered tables of dyadic events.

An event is a directed interaction (source, target, time). A temporal
network holds its events in four read-only numpy columns, in the order of
a stable sort by time; its one constructor takes them in any row order and
checks every row by the rule of ``Event``, which is built only on demand.
Equal-time events are either rejected or kept in a stable, reading order,
depending on the tie policy the network is built under.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass
from math import inf, isfinite, isqrt
from typing import Iterable, Sequence, TextIO

import numpy as np

from . import _text

TIE_REJECT = "reject"
TIE_STABLE = "stable_order"
_TIE_POLICIES = (TIE_REJECT, TIE_STABLE)


class ParseError(ValueError):
    """Malformed event input; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True, slots=True)
class Event:
    """One directed contact: ``source`` acts on ``target`` at ``time``."""

    source: int
    target: int
    time: float

    def __post_init__(self):
        if not (_right(self.source) and _right(self.target)):
            raise ValueError(f"node ids must be integers, got ({self.source!r}, {self.target!r})")
        if self.source < 0 or self.target < 0:
            raise ValueError(f"node ids must be non-negative, got ({self.source}, {self.target})")
        if self.source == self.target:
            raise ValueError(f"self-loop at node {self.source} (time {self.time})")
        if not (_right(self.time, True) and _finite(self.time) and self.time >= 0):
            raise ValueError(f"event time must be non-negative and finite, got {_spelled(self.time)}")

    @property
    def nodes(self) -> tuple[int, int]:
        return (self.source, self.target)


def _readonly(values, dtype=None) -> np.ndarray:
    column = np.asarray(values, dtype=dtype).view()
    column.flags.writeable = False
    return column


def _right(value, number: bool = False) -> bool:
    """Whether ``value`` is an integer, or a number where ``number``; a bool is neither."""
    kinds = (int, float, np.integer, np.floating) if number else (int, np.integer)
    return type(value) is not bool and isinstance(value, kinds)


def _finite(number) -> bool:
    """Whether a number is finite as a float: an int past the float range is not."""
    try:
        return isfinite(number)
    except OverflowError:
        return False


def _spelled(number, spell=str) -> str:
    """``number`` for a message, by ``spell``; an int past the float range by
    its bit length, as it may have too many digits to print."""
    if _right(number) and not _finite(number):
        return f"an int past the float range ({number.bit_length()} bits)"
    return spell(number)


def _column(values, numbers: bool = False):
    """``values`` as a one-dimensional int64 column, or float64 where ``numbers``,
    and the mask of its values of a wrong type (by the dtype kind of an array; in a
    list by ``_right``, value by value only where a type other than int, or float
    where ``numbers``, appears), which read 0; ints past its range stay Python ints."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        if values.ndim != 1:
            raise ValueError(f"columns must be one-dimensional, got shape {values.shape}")
        wrong = np.full(len(values), values.dtype.kind not in ("iuf" if numbers else "iu"))
        if values.dtype == np.uint64 and values.max(initial=0) >> 63:
            values = values.astype(object)
    elif set(map(type, values)) <= ({int, float} if numbers else {int}):
        wrong = np.zeros(len(values), bool)
    else:
        wrong = np.array([not _right(value, numbers) for value in values], bool)
    if wrong.any():
        values = np.where(wrong, 0, np.fromiter(values, object, len(values)))
    try:
        return np.asarray(values, np.float64 if numbers else np.int64), wrong
    except OverflowError:  # ints past int64 stay; past the float range, they are wrong numbers
        if not numbers:
            return np.asarray(values, object), wrong
        wrong = wrong | [not _finite(value) for value in values]
        return np.where(wrong, 0.0, np.fromiter(values, object, len(values))).astype(np.float64), wrong


def _given(values, k, number: bool = False):
    """Value ``k`` of a column as given, as a Python object; a number as a
    float where it is finite as one."""
    value = values[k].item() if isinstance(values[k], np.generic) else values[k]
    return float(value) if number and _right(value, True) and _finite(value) else value


def _faults(sources, targets, times) -> np.ndarray:
    """Mask of the id and time rows that ``Event`` rejects for their values."""
    return (np.minimum(sources, targets) < 0) | (sources == targets) | ~((times >= 0) & (times < inf))


# the most ids whose pair keys i * n + j fit int64
_MAX_IDS = isqrt(2**63 - 1)


def _starts(grouped: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted column that differ from their predecessor."""
    new = np.ones(len(grouped), dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=new[1:])
    return new


def _packed_sort(keys: np.ndarray, positions: np.ndarray, out: np.ndarray) -> int:
    """Sort ``key << shift | position`` of the non-negative int64 ``keys`` into
    ``out`` and return ``shift``, the bit length of the largest position:
    ``out >> shift`` is then ``np.sort(keys)`` and ``out & ((1 << shift) - 1)``
    the order that sorts them stably. ``positions`` is ``arange(len(keys))``.
    Raises OverflowError where the packed key would pass int64: where the
    largest key is at least ``2**(63 - shift)``, about 9e12 for a million keys.
    """
    shift = max(len(keys) - 1, 0).bit_length()
    if int(keys.max(initial=0)) >> (63 - shift):
        raise OverflowError(f"keys up to {int(keys.max())} do not pack with {shift} position bits")
    np.left_shift(keys, shift, out=out)
    out |= positions
    out.sort()
    return shift


def _stable_sort(keys: np.ndarray):
    """Non-negative int64 ``keys`` sorted, and the order that sorts them
    stably: exactly ``np.sort(keys)`` and ``np.argsort(keys, kind="stable")``.

    Numpy's stable argsort is a timsort; this is one vectorised ``np.sort``
    of the packed keys (``_packed_sort``), several times faster, split back
    into keys and positions. The stable argsort is taken only where the
    packed key would pass int64.
    """
    order = np.empty(len(keys), np.int64)
    try:
        shift = _packed_sort(keys, np.arange(len(keys)), order)
    except OverflowError:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    ordered = order >> shift
    order &= (1 << shift) - 1
    return ordered, order


def _inverse(permutation: np.ndarray) -> np.ndarray:
    """The inverse of a permutation of ``0 .. n - 1``, by one scatter."""
    inverse = np.empty_like(permutation)
    inverse[permutation] = np.arange(len(permutation))
    return inverse


def _first_seen(sources: np.ndarray, targets: np.ndarray):
    """Node columns renumbered 0, 1, ... by first appearance, scanning the
    events in order, source before target; and the new node ids."""
    ends = np.stack((sources, targets), 1).ravel()
    grouped, order = _stable_sort(ends)
    new = _starts(grouped)
    seen = np.zeros(len(ends), bool)
    seen[order[new]] = True  # a stable sort lists each node's first appearance first
    # a node's new id counts the first appearances before its own
    ends[order] = (np.cumsum(seen) - 1)[order[new]][np.cumsum(new) - 1]
    return ends[0::2], ends[1::2], np.arange(np.count_nonzero(new))


class TemporalNetwork:
    """Immutable time-sorted event table of four read-only numpy columns.

    ``sources`` and ``targets`` are int64 positions into ``node_ids``, the
    sorted distinct node ids (int64, or object past the int64 range);
    ``times`` is float64. The constructor takes these columns in any row
    order, ``sources`` and ``targets`` as node ids or, when ``node_ids`` is
    given, as positions into it, and names the first row that ``Event``
    rejects. The columns are those of a stable sort by time, bit for bit.
    A warning gives the count of repeated (source, target, time) triples,
    which are kept; then under ``tie_policy="reject"`` equal timestamps
    raise, and under ``"stable_order"`` (default) equal-time events keep
    their given relative order, with a warning giving the tie count.
    ``net[i]``, iteration and ``events`` build ``Event`` objects on demand.
    """

    __slots__ = ("sources", "targets", "times", "node_ids")

    def __init__(self, sources, targets, times, node_ids=None, tie_policy: str = TIE_STABLE):
        if tie_policy not in _TIE_POLICIES:
            raise ValueError(f"unknown tie_policy {tie_policy!r}, expected one of {_TIE_POLICIES}")
        given = sources, targets, times
        (sources, misplaced), (targets, wrong), (times, wrong_time) = (
            _column(sources), _column(targets), _column(times, numbers=True))
        if not len(sources) == len(targets) == len(times):
            raise ValueError(f"sources, targets and times have unequal lengths {tuple(map(len, given))}")
        misplaced |= wrong  # an id of a wrong type, or a position past the node ids
        if node_ids is not None:
            ids, bad = _column(node_ids)
            bad |= (ids < 0) | np.append(False, ids[1:] <= ids[:-1])
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"node_ids must be strictly ascending ids, got {_given(node_ids, k)!r} at {k}")
            node_ids = ids
            misplaced |= np.maximum(sources, targets) >= len(ids)
        bad = np.flatnonzero(misplaced | wrong_time | _faults(sources, targets, times))
        if len(bad):
            k = int(bad[0])
            source, target, time = _given(given[0], k), _given(given[1], k), _given(given[2], k, number=True)
            if node_ids is not None and (misplaced[k] or min(source, target) < 0):
                raise ValueError(f"event {k}: node positions ({source!r}, {target!r}) not in 0..{len(node_ids) - 1}")
            if node_ids is not None:
                source, target = _given(node_ids, source), _given(node_ids, target)
            try:
                Event(source, target, time)
            except ValueError as exc:
                raise ValueError(f"event {k}: {exc}") from None
        if node_ids is None:
            node_ids, ends = np.unique(np.stack((sources, targets), 1).ravel(), return_inverse=True)
            sources, targets = ends[0::2], ends[1::2]
        if np.all(times[1:] >= times[:-1]):  # the given order is the stable one
            order = np.arange(len(times))
        else:  # a stable sort of each time's rank among the distinct times
            order = _stable_sort(np.unique(times, return_inverse=True)[1])[1]
        ordered = times[order]
        run = _starts(ordered)  # the first event of each run of equal times
        ties = len(run) - int(np.count_nonzero(run))
        if ties:
            # a duplicate triple is tied: sort the events not alone in their run
            tied = order[~(run & np.append(run[1:], True))]
            tied = tied[np.lexsort((times[tied], targets[tied], sources[tied]))]
            distinct = _starts(sources[tied]) | _starts(targets[tied]) | _starts(times[tied])
            duplicates = len(tied) - int(np.count_nonzero(distinct))
            del tied, distinct
            if duplicates:
                warnings.warn(f"{duplicates} duplicate event triples kept")
            if tie_policy == TIE_REJECT:
                raise ValueError(f"{ties} equal-timestamp adjacencies under tie_policy='reject'")
            warnings.warn(f"{ties} equal-timestamp adjacencies resolved by stable order")
        self.__setstate__((sources[order], targets[order], ordered, node_ids))

    def __getstate__(self):
        return self.sources, self.targets, self.times, self.node_ids

    def __setstate__(self, state):
        sources, targets, times, node_ids = state
        self.sources, self.targets = _readonly(sources, np.int64), _readonly(targets, np.int64)
        self.times, self.node_ids = _readonly(times, np.float64), _readonly(node_ids)

    def _lists(self, index=slice(None)):
        """Source ids, target ids and times of the events at ``index``, as lists."""
        ids = self.node_ids
        return ids[self.sources[index]].tolist(), ids[self.targets[index]].tolist(), self.times[index].tolist()

    @property
    def events(self) -> tuple[Event, ...]:
        """The events, as a new tuple on each access: bind it once, or index the columns."""
        return tuple(self)

    @property
    def nodes(self) -> frozenset[int]:
        return frozenset(self.node_ids.tolist())

    @property
    def tie_count(self) -> int:
        """Equal-timestamp adjacencies in the time order."""
        return int(np.count_nonzero(self.times[1:] == self.times[:-1]))

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return map(Event, *self._lists())

    def __getitem__(self, index: int) -> Event:
        return Event(*(column[0] for column in self._lists([index])))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TemporalNetwork):
            return NotImplemented
        return all(map(np.array_equal, self.__getstate__(), other.__getstate__()))

    def __hash__(self):
        return hash(tuple(zip(*self._lists())))

    def __repr__(self) -> str:
        return f"TemporalNetwork({len(self)} events, {len(self.node_ids)} nodes)"

    @property
    def duration(self) -> float:
        """Time span from first to last event (0 for <2 events)."""
        if len(self) < 2:
            return 0.0
        return float(self.times[-1] - self.times[0])


def canonicalize(net: TemporalNetwork) -> TemporalNetwork:
    """Return the canonical form of ``net``.

    Times are shifted so the earliest event is at 0 and nodes are relabelled
    0, 1, 2, ... in order of first appearance (scanning events in order,
    source before target). Idempotent; the result compares equal for any two
    networks that differ only by a time translation and a node relabelling.
    """
    if len(net) == 0:
        raise ValueError("cannot canonicalize an empty network")
    sources, targets, node_ids = _first_seen(net.sources, net.targets)
    return TemporalNetwork(sources, targets, net.times - net.times[0], node_ids)


def write_events(net: TemporalNetwork, stream: TextIO) -> None:
    """One ``source target time`` line per event, lossless (``_text.time_strings``),
    written a bounded chunk of rows at a time."""
    ids = net.node_ids.take
    columns = (ids, net.sources), (ids, net.targets), (_text.time_strings, net.times)
    stream.writelines(_text.rows("%d %d %s\n", *columns))


_ROW = np.dtype([("source", np.int64), ("target", np.int64), ("time", np.float64)])
# the bytes numpy's tokenizer and the line loop read alike: tab, newline, printable ASCII
_PLAIN = b"\t\n" + bytes(range(0x20, 0x7F))
# "#" as the first non-blank character; a "#" anywhere else is data
_COMMENT_LINE = re.compile(r"^[\t ]*#.*\n?", re.MULTILINE)


def _tokenized(text: str, delimiter, usecols, on_self_loop):
    """Source, target and time columns of ``text`` by numpy's C tokenizer, or
    None where the line loop has to read it: text other than tab, newline and
    printable ASCII, a line the tokenizer refuses (ids past int64, ``1_0``,
    short lines, multi-character delimiters), or a row the loop rejects."""
    if not text.isascii() or text.encode().translate(None, _PLAIN):
        return None
    if "#" in text:
        text = _COMMENT_LINE.sub("", text)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(
                text.splitlines(), _ROW, comments=None, delimiter=delimiter, usecols=usecols, ndmin=1
            )
    except (ValueError, TypeError):
        return None
    sources, targets, times = rows["source"], rows["target"], rows["time"]
    if on_self_loop == "skip":
        keep = sources != targets
        sources, targets, times = sources[keep], targets[keep], times[keep]
    return None if _faults(sources, targets, times).any() else (sources, targets, times)


def _parsed_lines(lines: Iterable[str], delimiter, usecols, on_self_loop, first: int = 1):
    """Source, target and time columns of ``lines``, the first numbered ``first``,
    one line at a time; raises ``ParseError`` at the first malformed line."""
    i, j, k = usecols
    sources, targets, times = [], [], []
    for lineno, raw in enumerate(lines, start=first):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        parts = line.split(delimiter)
        if len(parts) < 3:
            raise ParseError(lineno, f"expected at least 3 columns, got {len(parts)}")
        try:
            source, target = int(parts[i]), int(parts[j])
        except ValueError as exc:
            raise ParseError(lineno, f"bad node id: {exc}") from None
        try:
            time = float(parts[k])
        except ValueError as exc:
            raise ParseError(lineno, f"bad time: {exc}") from None
        if source == target:
            if on_self_loop == "skip":
                continue
            raise ParseError(lineno, f"self-loop at node {source}")
        if source < 0 or target < 0 or not 0 <= time < inf:
            try:  # only a rejected line becomes an Event, for its message
                Event(source, target, time)
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
        sources.append(source)
        targets.append(target)
        times.append(time)
    return _column(sources)[0], _column(targets)[0], np.array(times, np.float64)


def _columns(stream, delimiter, usecols, on_self_loop):
    """Source, target and time columns of a stream or an iterable of lines. A
    stream is read in chunks of whole lines, about ``_text.CHUNK`` characters
    each, by numpy's C tokenizer or else by the line loop, numbering on from
    the chunks before; only the columns of each chunk are kept, after empty
    ones that give a stream of no events its dtypes."""
    if not hasattr(stream, "read"):
        return _parsed_lines(stream, delimiter, usecols, on_self_loop)
    first, chunks = 1, [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64))]
    while text := stream.read(_text.CHUNK):
        while text[-1] != "\n" and (line := stream.readline()):  # a readline may stop at "\r"
            text += line
        columns = _tokenized(text, delimiter, usecols, on_self_loop)
        chunks.append(columns or _parsed_lines(io.StringIO(text), delimiter, usecols, on_self_loop, first))
        first += text.count("\n")
    return [np.concatenate(column) for column in zip(*chunks)]


def parse_events(
    stream: Iterable[str],
    delimiter: str | None = None,
    fields: Sequence[str] = ("source", "target", "time"),
    tie_policy: str = TIE_STABLE,
    on_self_loop: str = "error",
) -> TemporalNetwork:
    """Parse whitespace- or delimiter-separated event lines.

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped. ``fields`` gives the column order and must be a permutation of
    (source, target, time); extra columns are ignored. Node ids are read as
    Python ``int`` literals and times as ``float`` literals. ``on_self_loop``
    is ``"error"`` or ``"skip"``. The ``TemporalNetwork`` constructor warns
    of duplicate triples, then of ties (or rejects them under ``tie_policy``).

    A stream (with ``read`` and ``readline``) is read a bounded chunk of whole
    lines at a time, each converted by numpy's C tokenizer; a chunk that the
    tokenizer refuses or that holds a rejected line is read again line by
    line, which gives the same columns and locates the error. Other iterables
    of lines are read line by line.

    Raises
    ------
    ParseError
        On a malformed line, with its line number.
    """
    if sorted(fields) != ["source", "target", "time"]:
        raise ValueError(f"fields must be a permutation of source/target/time, got {fields}")
    if on_self_loop not in ("error", "skip"):
        raise ValueError(f"on_self_loop must be 'error' or 'skip', got {on_self_loop!r}")
    usecols = [list(fields).index(name) for name in ("source", "target", "time")]
    return TemporalNetwork(*_columns(stream, delimiter, usecols, on_self_loop), None, tie_policy)


def load_events(path: str, **kwargs) -> TemporalNetwork:
    """``parse_events`` over a file path."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_events(fh, **kwargs)


def save_events(net: TemporalNetwork, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_events(net, fh)
