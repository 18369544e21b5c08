"""Sample ids as UTF-8 bytes: how they are held, ordered and paired.

:class:`SampleIds` holds a set of checked ids as their UTF-8 bytes, end to
end in one uint8 buffer, plus one offsets array; an id is decoded only when
it is read.  Ids are ordered and paired through those bytes, never by a
Python ``sorted`` or a ``{id: row}`` dict:

- :func:`_sort` sorts ids as Python sorts their ``str`` (code-point order
  is UTF-8 byte order) by windows of seven bytes (:func:`_windows`), only
  ids still tied taking the next round; ``kfold_split`` and the trainer's
  canonical order use it, and so do the fallbacks below.
- An :class:`_Index` of unique ids holds their keys (:func:`_keys`: the
  bytes padded with 0xFF to whole 8-byte words, equal exactly when the ids
  are) sorted by a one-word mix of each key (:func:`_ranks`).  Another
  set's ids are found in it by a binary search of their mixes, and each
  match is then compared word for word.  The plain file reader's
  duplicate check and suite join (:func:`_place`), and ``restrict``,
  ``align_to`` and ``from_columns`` (:func:`_pair`) all go through it.  A
  set gets no index where two of its mixes are equal, as a repeated id's
  are, or where its keys would be far wider than its ids (one very long id
  among short ones): :func:`_pair` then sorts instead, and the reader
  reads the file as if its plain pass had declined it.  Ids given as
  ``str`` are checked by a ``set`` before they are encoded (``core``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# Ids decoded, gathered, cut into keys or placed at once.
_DECODE_ROWS = 4096
# Windows a round of :func:`_sort` after the first cuts at most, unless one
# per id still tied is more, and at most 64 per id: ``lexsort`` takes about
# 3 kB per key.
_ROUND_WORDS = 1 << 12


class SampleIds(Sequence):
    """Sample ids already known to be non-empty, unique strings.

    Id i is ``raw[offsets[i]:offsets[i + 1]]``: its UTF-8 bytes, a lone
    surrogate kept with ``surrogatepass``, in one uint8 buffer.  Built
    from strings (``SampleIds(strs)``) only where those passed the checks:
    ``core._as_ids`` and the file reader build them, and every constructor
    takes them as they are, so the ids of a loaded file are checked once
    and then travel with the data.

    Indexing, iteration, ``len``, ``repr`` and equality are those of the
    tuple of its ids; a slice is a ``SampleIds`` too.  It has no ordering,
    hash or ``+``: ``tuple(ids)`` has them.
    """

    __slots__ = ("_raw", "_offsets")

    def __init__(self, ids):
        data = [sid.encode("utf-8", "surrogatepass") for sid in ids]
        lens = np.fromiter(map(len, data), np.intp, len(data))
        self._raw = np.frombuffer(b"".join(data), dtype=np.uint8)
        self._offsets = _offsets(lens)

    @classmethod
    def _of(cls, raw: np.ndarray, offsets: np.ndarray) -> "SampleIds":
        out = object.__new__(cls)
        out._raw, out._offsets = raw, offsets
        return out

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _take(self, np.arange(len(self))[i])
        i = range(len(self))[i]  # an IndexError, or i from the end
        start, stop = self._offsets[i:i + 2]
        return self._raw[start:stop].tobytes().decode("utf-8", "surrogatepass")

    def __iter__(self):
        for _, chunk in _decoded(self):
            yield from chunk

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __eq__(self, other):
        if isinstance(other, SampleIds):
            return self is other or (np.array_equal(self._offsets, other._offsets)
                                     and np.array_equal(self._raw, other._raw))
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented


def _offsets(lens: np.ndarray) -> np.ndarray:
    """The offsets of ids of byte lengths ``lens`` laid end to end."""
    offsets = np.zeros(len(lens) + 1, dtype=np.intp)
    np.cumsum(lens, out=offsets[1:])
    return offsets


def _joined(parts) -> SampleIds:
    """The ids of the :class:`SampleIds` ``parts``, end to end, as one."""
    return SampleIds._of(np.concatenate([p._raw for p in parts]),
                         _offsets(np.concatenate([p._offsets[1:] - p._offsets[:-1]
                                                  for p in parts])))


def _take(ids: SampleIds, rows: np.ndarray) -> SampleIds:
    """The ids at ``rows`` of ``ids``, in that order, with a buffer of
    their own, gathered :data:`_DECODE_ROWS` ids at a time."""
    starts = ids._offsets[:-1][rows]
    lens = ids._offsets[1:][rows] - starts
    offsets, raw = _offsets(lens), ids._raw
    out = np.empty(offsets[-1], dtype=np.uint8)
    for row in range(0, len(lens), _DECODE_ROWS):
        end = min(row + _DECODE_ROWS, len(lens))
        at = np.repeat(starts[row:end] - offsets[row:end], lens[row:end])
        at += np.arange(offsets[row], offsets[end])  # the bytes' sources
        out[offsets[row]:offsets[end]] = raw[at]
    return SampleIds._of(out, offsets)


def _decoded(ids: SampleIds):
    """``(rows, strs)`` of each run of :data:`_DECODE_ROWS` rows of ``ids``,
    ``rows`` its slice, the run decoded at once: joined by ``\\n`` and
    split, unless an id of it holds one."""
    for row in range(0, len(ids), _DECODE_ROWS):
        rows = slice(row, row + _DECODE_ROWS)
        offsets = ids._offsets[rows.start:rows.stop + 1]
        data, cuts = ids._raw[offsets[0]:offsets[-1]], offsets[1:-1] - offsets[0]
        if 10 in data:  # one by one
            data, ends = data.tobytes(), [0, *cuts.tolist(), data.size]
            yield rows, [data[a:b].decode("utf-8", "surrogatepass")
                         for a, b in zip(ends[:-1], ends[1:])]
            continue
        text = np.insert(data, cuts, 10).tobytes()
        yield rows, text.decode("utf-8", "surrogatepass").split("\n")


def _same_rows(ids: SampleIds, row: int, part: SampleIds) -> bool:
    """Whether the ids of ``part``, whose buffer holds nothing else, are
    rows ``row`` on of ``ids``, which holds at least as many after it."""
    offsets = ids._offsets[row:row + len(part) + 1]
    return (np.array_equal(offsets - offsets[0], part._offsets)
            and np.array_equal(ids._raw[offsets[0]:offsets[-1]], part._raw))


def _words(raw: np.ndarray) -> np.ndarray:
    """The 8 bytes from each byte of ``raw`` on, padded with 0x00, as
    big-endian words."""
    padded = np.concatenate((raw, np.zeros(8, dtype=np.uint8)))
    return np.ndarray(padded.size - 7, ">u8", padded, 0, (1,))


def _windows(words, starts, left) -> np.ndarray:
    """The window of each id whose bytes from the window on start at
    ``starts`` in :func:`_words` ``words`` and number ``left``, an array
    this overwrites: the first seven of those bytes, padded with 0x00, as
    a big-endian word whose last byte is ``left``, capped at 8.  An id
    with none left has window 0."""
    key = words[starts].byteswap(inplace=True).view(np.uint64)
    np.clip(left, 0, 8, out=left)
    drop = np.minimum(left, 7)
    drop *= -8
    drop += 64  # the bits of the bytes after the id, of the first seven
    # (numpy shifts a uint64 by 64 to 0)
    key >>= drop.view(np.uint64)
    key <<= drop.view(np.uint64)
    key |= left.view(np.uint64)
    return key


def _sort(ids: SampleIds) -> tuple[np.ndarray, np.ndarray]:
    """``(order, new)``: the permutation that sorts ``ids`` as Python sorts
    their ``str``, and for each sorted position whether its id differs
    from the one before it.

    Each round sorts the ids still tied by their next window
    (:func:`_windows`).  So ``a`` sorts before ``a\\0`` (fewer bytes left)
    and before ``ab`` (0x00 before ``b``), and only ids that share their
    first 7j bytes and run past them take round j.  Round 0 is one
    ``argsort``; later ones keep their groups in place, and read as many
    windows at once as :data:`_ROUND_WORDS` allows for the ids still tied,
    so two equal long ids take a few rounds, not one per seven bytes.
    """
    words, starts, lens = _words(ids._raw), ids._offsets[:-1], np.diff(ids._offsets)
    key = _windows(words, starts, lens.copy())
    order = key.argsort()
    key = key[order]
    tied = key[1:] == key[:-1]
    new = np.ones(key.size, dtype=bool)
    new[1:] = ~tied
    todo, skip = _tied(tied, key), 7
    while todo.size:
        rows = order[todo]
        ahead = skip + 7 * np.arange(min(64, max(1, _ROUND_WORDS // rows.size)))
        key = _windows(words, np.minimum(starts[rows, None] + ahead, ids._raw.size),
                       lens[rows, None] - ahead)
        group = np.cumsum(new[todo], dtype=np.uint64)
        order[todo] = rows[perm := np.lexsort(np.vstack((key.T[::-1], group)))]
        key = key[perm]
        tied = (key[1:] == key[:-1]).all(axis=1)
        tied &= ~new[todo[1:]]  # a group's first stays first
        new[todo[1:]] = ~tied
        todo, skip = todo[_tied(tied, key[:, -1])], skip + 7 * ahead.size
    return order, new


def _tied(tied, key) -> np.ndarray:
    """The sorted positions, ``tied[i]`` where window ``key`` i equals the
    next, that are tied to a neighbour and have bytes left."""
    more = np.zeros(key.size, dtype=bool)
    more[1:] = tied
    more[:-1] |= tied
    at = np.flatnonzero(more)
    return at[(key[at] & np.uint64(0xFF)) == 8]  # equal ids have none


# _TAIL[j] is a little-endian word whose bytes after its first j are 0xFF.
_TAIL = np.array([(1 << 64) - (1 << 8 * j) for j in range(9)], dtype="<u8")


def _width(ids: SampleIds) -> int | None:
    """Words per key (:func:`_keys`) of ``ids``: the fewest that hold the
    longest, or None where the keys would take more than 64 bytes per id
    plus 8 per id byte, as one very long id among short ones does."""
    longest = int((ids._offsets[1:] - ids._offsets[:-1]).max())
    width = -(-longest // 8)
    return width if width * len(ids) <= 8 * len(ids) + int(ids._offsets[-1]) else None


def _keys(ids: SampleIds, width: int) -> np.ndarray:
    """The (n, ``width``) uint64 keys of ``ids``: each id's first
    ``8 * width`` bytes, padded with 0xFF to ``width`` 8-byte words, read
    as little-endian words.  No UTF-8 text holds 0xFF, so two ids that fit
    have equal keys exactly when they are equal: ``a`` and ``a\\0`` too,
    which zero padding would merge.  Cut :data:`_DECODE_ROWS` ids at a
    time."""
    padded = np.concatenate((ids._raw, np.full(8 * width, 0xFF, dtype=np.uint8)))
    words = np.ndarray(padded.size - 7, "<u8", padded, 0, (1,))  # one per byte
    keys = np.empty((len(ids), width), dtype="<u8")
    for row in range(0, len(ids), _DECODE_ROWS):
        offsets = ids._offsets[row:row + _DECODE_ROWS + 1]
        starts, lens = offsets[:-1], offsets[1:] - offsets[:-1]
        for j in range(width):
            np.bitwise_or(words[starts + 8 * j], _TAIL[np.clip(lens - 8 * j, 0, 8)],
                          out=keys[row:row + len(lens), j])
    return keys


_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so a multiply by it loses no bits


def _ranks(keys: np.ndarray) -> np.ndarray:
    """The sort key of each row of ``keys``: its one word, or a
    multiply-xor of its words, which rows that differ may share."""
    ranks = keys[:, 0]
    for j in range(1, keys.shape[1]):
        ranks = ranks * _MIX
        ranks ^= keys[:, j]
    return ranks


class _Index:
    """An index of unique ids: the ids, their keys (:func:`_keys`) sorted
    by their sort keys (:func:`_ranks`), those sort keys, and the
    permutation that sorts them; empty until :meth:`build`.  A suite's is
    its first prediction file's."""

    ids = keys = ranks = order = None

    def build(self, ids: SampleIds) -> "_Index | None":
        """This, now the index of ``ids``, or None where their keys would
        be too wide (:func:`_width`) or two of their sort keys are equal:
        a repeated id, or two wide ids whose sort keys collide."""
        width = _width(ids)
        if width is None:
            return None
        keys = _keys(ids, width)
        order = _ranks(keys).argsort()
        keys = keys[order]
        ranks = _ranks(keys)
        if (ranks[1:] == ranks[:-1]).any():
            return None
        self.ids, self.keys, self.ranks, self.order = ids, keys, ranks, order
        return self

    def rows(self, ids: SampleIds) -> np.ndarray:
        """The row of each of ``ids`` in the index, or -1 where it lacks
        it: its sort key is found by a binary search, theirs sorted first
        so that each search starts where the last ended, and its key is
        then compared word for word.  An id longer than the index's keys
        hold is lacking."""
        width = self.keys.shape[1]
        keys = _keys(ids, width)
        order = _ranks(keys).argsort()
        keys = keys[order]
        at = np.searchsorted(self.ranks, _ranks(keys))
        np.minimum(at, len(self.ranks) - 1, out=at)
        lost = (self.keys[at] != keys).any(axis=1)
        lost |= ((ids._offsets[1:] - ids._offsets[:-1]) > 8 * width)[order]
        rows = np.empty(len(ids), dtype=np.intp)
        rows[order] = np.where(lost, -1, self.order[at])
        return rows


def _pair(ids: SampleIds, wanted: SampleIds) -> np.ndarray:
    """The row in ``ids`` of each of ``wanted``, or -1 where ``ids`` lacks
    it; each side holds unique ids.  Found through the index of ``ids``
    (:class:`_Index`), or, where they get none, by sorting both sides
    together (:func:`_sort`), so an id of both is two equal neighbours."""
    index = _Index().build(ids)
    if index is not None:
        return index.rows(wanted)
    order, new = _sort(_joined([ids, wanted]))
    at = np.flatnonzero(~new)
    a, b = order[at - 1], order[at]
    rows = np.full(len(wanted), -1)
    rows[np.maximum(a, b) - len(ids)] = np.minimum(a, b)
    return rows


def _place(chunks, index: _Index, dtype):
    """``(ids, values)``: the values of ``chunks``, ``(values, ids)`` pairs,
    in the row order of ``index``'s ids; None after a None chunk, or unless
    they hold each of those ids once.

    A chunk whose ids are the index's next rows is taken as it comes.  The
    others are held until they hold :data:`_DECODE_ROWS` ids, or the last
    chunk is read, and then placed by the rows of their ids
    (:meth:`_Index.rows`).
    """
    ids, count, held, waiting = index.ids, 0, [], 0
    values, seen = np.empty(len(ids), dtype=dtype), np.zeros(len(ids), dtype=bool)
    for chunk in chunks:
        if chunk is None:
            return None
        part, part_ids = chunk
        if count + len(part) > len(ids):
            return None  # more rows than the index
        if _same_rows(ids, count, part_ids):
            values[count:count + len(part)] = part
            seen[count:count + len(part)] = True
        else:
            held.append(chunk)
            waiting += len(part)
        count += len(part)
        if held and (waiting >= _DECODE_ROWS or count == len(ids)):
            rows = index.rows(_joined([i for _, i in held]))
            if rows.min() < 0:
                return None  # an id the index lacks
            values[rows] = np.concatenate([p for p, _ in held])
            seen[rows] = True
            held, waiting = [], 0
    if count != len(ids) or not seen.all():
        return None  # an id missing, or one repeated
    return ids, values
