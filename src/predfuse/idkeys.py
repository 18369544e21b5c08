"""Sample ids as sorted uint64 keys: how the files of a suite are joined.

A key holds an id's UTF-8 bytes, padded to whole 8-byte words
(:func:`_keys`), and is cut by the file reader (``io_files``) straight from
the bytes it reads.  A suite's index is its first prediction file's keys
and the permutation that sorts them (:class:`_Suite`).  A later file lines
up with the first when its own keys, sorted, equal the first file's sorted
keys; its values then go to the first file's rows through the two sorting
permutations (:func:`_place`): a sort-merge join (Kim et al., "Sort vs.
Hash Revisited", PVLDB 2009).
"""

from __future__ import annotations

import numpy as np

# _TAIL[j] is a little-endian word whose bytes after its first j are 0xFF.
_TAIL = np.array([(1 << 64) - (1 << 8 * j) for j in range(9)], dtype="<u8")


def _keys(spans, width: int | None = None):
    """The (n, ``width``) uint64 keys of the ids at ``spans``, ``(raw,
    starts, lengths)`` of their UTF-8 bytes in the uint8 array ``raw``.
    ``width`` defaults to the fewest words that hold the longest id, and the
    keys then to None where :func:`_width` finds them too wide.

    A key is an id's bytes padded with 0xFF to ``width`` 8-byte words, read
    as little-endian words.  No UTF-8 text holds 0xFF, so two ids have
    equal keys exactly when they are equal: ``a`` and ``a\\0`` too, which
    zero padding would merge.
    """
    raw, starts, lens = spans
    width = width or _width(len(lens), int(lens.sum()), int(lens.max()))
    if width is None:
        return None
    padded = np.concatenate((raw, np.full(8 * width, 0xFF, dtype=np.uint8)))
    words = np.ndarray(padded.size - 7, "<u8", padded, 0, (1,))  # one per byte
    keys = np.empty((len(starts), width), dtype="<u8")
    for j in range(width):
        np.bitwise_or(words[starts + 8 * j], _TAIL[np.clip(lens - 8 * j, 0, 8)],
                      out=keys[:, j])
    return keys


def _width(n: int, total: int, longest: int) -> int | None:
    """Words per key of ``n`` ids of ``total`` bytes, the longest
    ``longest``; None where the keys would take more than 64 bytes per id
    plus 8 per id byte, as one very long id among short ones does.  The
    reader then reads the file as if its plain pass had declined it."""
    width = -(-longest // 8)
    return width if width * n <= 8 * n + total else None


def _joined(parts, width: int) -> np.ndarray:
    """The keys ``parts`` as one array ``width`` words wide: narrower ones
    get the 0xFF words :func:`_keys` would have cut at that width."""
    keys, row = np.full((sum(map(len, parts)), width), _TAIL[0]), 0
    for part in parts:
        keys[row:row + len(part), :part.shape[1]] = part
        row += len(part)
    return keys


def _encoded(ids):
    """The spans (:func:`_keys`) of ``ids``' UTF-8 bytes, end to end."""
    data = [sid.encode() for sid in ids]
    lens = np.fromiter(map(len, data), np.intp, len(data))
    return np.frombuffer(b"".join(data), dtype=np.uint8), np.cumsum(lens) - lens, lens


_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so a multiply by it loses no bits


def _ranks(keys: np.ndarray) -> np.ndarray:
    """The sort key of each row of ``keys``: its one word, or a
    multiply-xor of its words, which rows that differ may share."""
    ranks = keys[:, 0].copy()
    for j in range(1, keys.shape[1]):
        ranks *= _MIX
        ranks ^= keys[:, j]
    return ranks


def _order(keys: np.ndarray):
    """The permutation that sorts ``keys`` by their sort keys
    (:func:`_ranks`), or None where two of those are equal: a repeated id,
    or two wide ids whose sort keys collide."""
    ranks = _ranks(keys)
    order = ranks.argsort()
    ranks = ranks[order]
    return None if (ranks[1:] == ranks[:-1]).any() else order


class _Suite:
    """A suite's id index: its first prediction file's ids, their keys in
    file order and :func:`_order` of them; None until that file is read,
    and for good if its ids get no index."""

    ids = keys = order = None

    def index(self, ids, keys, order=None) -> "_Suite | None":
        """This suite, now the index of ``ids`` by their ``keys``, or None
        where those are None or :func:`_order` finds no order of them."""
        if order is None and keys is not None:
            order = _order(keys)
        if order is None:
            return None
        self.ids, self.keys, self.order = ids, keys, order
        return self


def _place(chunks, suite: _Suite, dtype):
    """``(ids, values)``: the values of ``chunks``, ``(ids, values, spans)``
    triples, in the row order of ``suite``'s first file; None after a None
    chunk, or unless they hold each of its ids once.

    Rows in the first file's order are taken as they come.  From the first
    chunk out of that order on, each chunk's keys are cut; at the end,
    sorted, they must equal the first file's keys sorted.
    """
    ids, keys = suite.ids, suite.keys
    (n, width), own, count = keys.shape, None, 0
    values = np.empty(n, dtype=dtype)
    for chunk in chunks:
        if chunk is None:
            return None
        chunk_ids, part, spans = chunk
        k = len(chunk_ids)
        if count + k > n:
            return None  # more rows than the suite's first file
        if own is None and ids[count:count + k] == tuple(chunk_ids):
            pass  # rows in the first file's order
        elif spans[2].max() > 8 * width:
            return None  # an id longer than any of the first file's
        else:
            if own is None:
                own = keys.copy()  # its rows so far are the first file's
            own[count:count + k] = _keys(spans, width)
        values[count:count + k] = part
        count += k
    if count != n:
        return None  # an id missing
    if own is None:
        return ids, values
    order = _ranks(own).argsort()
    if not np.array_equal(own[order], keys[suite.order]):
        return None  # an id the first file lacks, or one repeated
    placed = np.empty(n, dtype=dtype)
    placed[suite.order] = values[order]
    return ids, placed
