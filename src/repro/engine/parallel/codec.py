"""Shard codec: one recursive column layout for morsels.

A shard is a ``{value: count}`` dict; the process backend ships one
per input slot out and one result back per morsel.  Pickle is general
but fat and slow — every ``Tup`` carries its class reference and slot
state — and a per-cell Python loop costs ~2 µs per row per direction.
This codec lays a shard out the way the bag model builds its values
(Section 3 of the paper: complex objects are atoms closed under the
tuple and bag constructors) and moves whole columns with C-level bulk
operations.  A *column* holds values of one kind, and its layout is
chosen recursively from what it holds:

* **atoms** (``int`` / ``str``) — packed cells.  Ints that fit 64 bits
  are their own cells; otherwise the cells index a first-sight intern
  table that travels as one pickled list.
* **flat tuples** — same-arity ``Tup``s of such atoms (the paper's
  Thm 4.4 fragment; the join/scan shape): one row-major block of
  ``arity x n`` cells.  Out: ``array(code, chain.from_iterable(
  rows))``; in: ``frombytes`` + ``zip(*[iter(cells)] * arity)`` +
  ``map(Tup.trusted, ...)`` — no per-cell bytecode either way.
* **other tuples** — one column per attribute.
* **bags** — a length column (distinct members per bag), a count
  column, and one column of all their members in bag order.

A count column is packed cells when every count is an ``int`` within
64 bits, else one pickled list (``Trop`` costs, ``Prov`` polynomials),
which lets pickle's memo share what the annotations have in common.
Packed cells are ``len | typecode | cells``, the narrowest ``array``
typecode that holds the column's min and max.  The shard is the body
of one bag: ``CL01 | n | count column | value column``.

A shard the layout cannot express — a ``bool`` / ``float`` / ``None``
/ ``bytes`` / exotic atom anywhere (``True == 1 == 1.0`` would collapse
in an intern dict), mixed arity, a tuple beside an atom, a
heterogeneous dict a worker hands back for the parent's seal to
reject — travels as one length-framed pickle, ``CP01 | len | pickle``,
so the codec is total and ``decode_shard(encode_shard(d)) == d`` with
every atom's runtime type preserved.

Decoding trusts the *values* (the parent validated the shard it split)
but not the *framing*: every length is checked before ``frombytes``, a
packed count must be positive, the members of one bag must be
distinct, and a truncated or malformed blob raises
:class:`~repro.core.errors.CodecError`, never ``IndexError`` or a
silently short dict.  Each inner bag is sealed by ``Bag.trusted``:
with the shape a bag-free member column implies, exact by
construction, or — when the members themselves hold bags — with
``_check_homogeneous``.  Embedded pickles mean blobs must only come
from this program's own workers.
"""

from __future__ import annotations

import pickle
from array import array
from itertools import chain, islice, repeat
from operator import attrgetter
from typing import Any, Collection, Dict, Iterable, List, Tuple

from repro.core.bag import (
    _ATOM_SHAPE, Bag, Tup, _check_homogeneous, _flat_tup_shape, _tup_shape,
)
from repro.core.errors import CodecError

__all__ = ["encode_shard", "decode_shard"]

_MAGIC = b"CL01"         # the column layout
_MAGIC_PICKLED = b"CP01"  # the whole shard as one pickle

# column kinds
_K_ATOMS = 0
_K_FLAT = 1
_K_TUPLE = 2
_K_BAG = 3

# count-column tags
_C_PACKED = 0
_C_PICKLED = 1

#: Cell typecodes, narrowest first; the code byte on the wire is the
#: ``array`` typecode itself.
_CELLS = tuple(
    (code, 0, (1 << 8 * array(code).itemsize) - 1) for code in "BHIQ"
) + tuple(
    (code, -(1 << 8 * array(code).itemsize - 1),
     (1 << 8 * array(code).itemsize - 1) - 1) for code in "bhiq")
_ITEMSIZE = {code: array(code).itemsize for code, _, _ in _CELLS}

_INTS = frozenset((int,))
#: Atom types an intern dict keeps apart by equality alone.
_INTERNED = frozenset((int, str))

_ITEMS = attrgetter("_items")
_COUNTS = attrgetter("_counts")
_PROTOCOL = pickle.HIGHEST_PROTOCOL


def _write_varint(buf: bytearray, value: int) -> None:
    """Unsigned LEB128."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _write_bytes(buf: bytearray, raw: bytes) -> None:
    _write_varint(buf, len(raw))
    buf += raw


def _read_bytes(data: bytes, pos: int) -> Tuple[bytes, int]:
    """A varint-length-prefixed byte run; a slice never runs short."""
    length, pos = _read_varint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError("truncated columnar-morsel blob")
    return data[pos:end], end


def _unpickle(raw: bytes, kind: type) -> Any:
    try:
        value = pickle.loads(raw)
    except Exception as exc:  # garbage can make pickle raise anything
        raise CodecError("bad embedded pickle") from exc
    if type(value) is not kind:
        raise CodecError(f"embedded pickle is not a {kind.__name__}")
    return value


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

def _write_ints(buf: bytearray, values: Collection[int]) -> bool:
    """Append exact ints as packed cells; ``False``, nothing written,
    when the range does not fit a 64-bit cell."""
    low, high = min(values, default=0), max(values, default=0)
    for code, floor, ceiling in _CELLS:
        if floor <= low and high <= ceiling:
            _write_varint(buf, len(values))
            buf.append(ord(code))
            buf += array(code, values).tobytes()
            return True
    return False


def _write_cells(buf: bytearray, atoms: Collection[Any], kinds) -> None:
    """Append int/str atoms as ``table | cells``: ints are their own
    cells behind an empty table; anything else indexes a first-sight
    intern table, pickled as one list."""
    if kinds <= _INTS:
        mark = len(buf)
        buf.append(0)  # empty table: the cells are the atoms
        if _write_ints(buf, atoms):
            return
        del buf[mark:]  # beyond 64 bits: intern them instead
    table = dict.fromkeys(atoms)
    _write_bytes(buf, pickle.dumps(list(table), _PROTOCOL))
    slots = dict(zip(table, range(len(table))))
    _write_ints(buf, list(map(slots.__getitem__, atoms)))


def _write_column(buf: bytearray, values: Collection[Any]) -> bool:
    """Append ``values`` as one column, kind byte first; ``False`` when
    the layout cannot express them (the shard is then pickled)."""
    kinds = set(map(type, values))
    if kinds <= _INTERNED:
        buf.append(_K_ATOMS)
        _write_cells(buf, values, kinds)
        return True
    if kinds == {Tup}:
        rows = list(map(_ITEMS, values))
        arities = set(map(len, rows))
        if len(arities) != 1:
            return False
        arity = arities.pop()
        cells = list(chain.from_iterable(rows))
        cell_kinds = set(map(type, cells))
        if cell_kinds <= _INTERNED:
            buf.append(_K_FLAT)
            _write_varint(buf, arity)
            _write_cells(buf, cells, cell_kinds)
            return True
        buf.append(_K_TUPLE)
        _write_varint(buf, arity)
        return all(_write_column(buf, column) for column in zip(*rows))
    if kinds == {Bag}:
        bags = list(map(_COUNTS, values))
        buf.append(_K_BAG)
        _write_ints(buf, list(map(len, bags)))
        return _write_body(buf,
                           list(chain.from_iterable(map(dict.values, bags))),
                           list(chain.from_iterable(bags)))
    return False


def _write_body(buf: bytearray, counts: List[Any],
                members: Collection[Any]) -> bool:
    """Append a count column, then the column of the members the counts
    belong to."""
    mark = len(buf)
    buf.append(_C_PACKED)
    if not (set(map(type, counts)) <= _INTS and _write_ints(buf, counts)):
        del buf[mark:]
        buf.append(_C_PICKLED)
        _write_bytes(buf, pickle.dumps(counts, _PROTOCOL))
    return _write_column(buf, members)


def encode_shard(counts: Dict[Any, Any]) -> bytes:
    """Encode a ``{value: count}`` shard into the wire format (see the
    module docstring for the layout)."""
    out = bytearray(_MAGIC)
    _write_varint(out, len(counts))
    if not _write_body(out, list(counts.values()), counts):
        out = bytearray(_MAGIC_PICKLED)
        _write_bytes(out, pickle.dumps(counts, _PROTOCOL))
    return bytes(out)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

def _read_ints(data: bytes, pos: int) -> Tuple[array, int]:
    length, pos = _read_varint(data, pos)
    code = chr(data[pos])
    itemsize = _ITEMSIZE.get(code)
    if itemsize is None:
        raise CodecError(f"bad cell width {code!r}")
    pos += 1
    end = pos + length * itemsize
    if end > len(data):
        raise CodecError("truncated columnar-morsel blob")
    cells = array(code)
    cells.frombytes(memoryview(data)[pos:end])
    return cells, end


def _read_cells(data: bytes, pos: int, n: int) -> Tuple[Iterable, int]:
    raw, pos = _read_bytes(data, pos)
    cells, pos = _read_ints(data, pos)
    if len(cells) != n:
        raise CodecError("column lengths disagree")
    if raw:
        # a cell past the table is an IndexError: decode_shard types it
        cells = map(_unpickle(raw, list).__getitem__, cells)
    return cells, pos


def _read_column(data: bytes, pos: int, n: int) -> Tuple[Iterable, Any, int]:
    """Decode a column of ``n`` values: ``(values, shape, pos)``, where
    ``shape`` is the shape every value has when the column holds no
    bag (exact by construction), and ``None`` when it does."""
    kind = data[pos]
    pos += 1
    if kind == _K_ATOMS:
        cells, pos = _read_cells(data, pos, n)
        return cells, _ATOM_SHAPE, pos
    if kind == _K_FLAT or kind == _K_TUPLE:
        arity, pos = _read_varint(data, pos)
        if arity > len(data):  # every attribute takes at least a byte
            raise CodecError(f"bad arity {arity}")
        if kind == _K_FLAT:
            cells, pos = _read_cells(data, pos, n * arity)
            rows = zip(*[iter(cells)] * arity) if arity else repeat((), n)
            shape = _flat_tup_shape(arity)
        else:
            columns, shapes = [], []
            for _ in range(arity):
                column, shape, pos = _read_column(data, pos, n)
                columns.append(column)
                shapes.append(shape)
            rows = zip(*columns)
            shape = None if None in shapes else _tup_shape(tuple(shapes))
        return map(Tup.trusted, rows), shape, pos
    if kind == _K_BAG:
        lengths, pos = _read_ints(data, pos)
        if len(lengths) != n or min(lengths, default=0) < 0:
            raise CodecError("column lengths disagree")
        counts, members, shape, pos = _read_body(data, pos, sum(lengths))
        counts, members = iter(counts), iter(members)
        inner = [dict(zip(islice(members, length), islice(counts, length)))
                 for length in lengths]
        if list(map(len, inner)) != lengths.tolist():
            raise CodecError("colliding members in a nested bag")
        if shape is None:
            bags = [Bag.trusted(d, _check_homogeneous(d)) for d in inner]
        else:
            bags = [Bag.trusted(d, shape if d else None) for d in inner]
        return bags, None, pos
    raise CodecError(f"bad column kind {kind}")


def _read_body(data: bytes, pos: int, n: int):
    """The count column and the member column of ``n`` members:
    ``(counts, members, shape, pos)``."""
    tag = data[pos]
    if tag == _C_PACKED:
        counts, pos = _read_ints(data, pos + 1)
        if counts and min(counts) <= 0:
            raise CodecError("non-positive packed count")
    elif tag == _C_PICKLED:
        raw, pos = _read_bytes(data, pos + 1)
        counts = _unpickle(raw, list)
    else:
        raise CodecError(f"bad count tag {tag}")
    if len(counts) != n:
        raise CodecError("column lengths disagree")
    members, shape, pos = _read_column(data, pos, n)
    return counts, members, shape, pos


def _decode(data: bytes) -> Dict[Any, Any]:
    magic = data[:4]
    if magic == _MAGIC_PICKLED:
        raw, pos = _read_bytes(data, 4)
        if pos != len(data):  # pickle.loads would ignore trailing data
            raise CodecError("trailing bytes after columnar-morsel blob")
        return _unpickle(raw, dict)
    if magic != _MAGIC:
        raise CodecError("not a columnar-morsel blob")
    nvalues, pos = _read_varint(data, 4)
    counts, values, _, pos = _read_body(data, pos, nvalues)
    if pos != len(data):
        raise CodecError("trailing bytes after columnar-morsel blob")
    out = dict(zip(values, counts))
    if len(out) != nvalues:
        raise CodecError("duplicate values in columnar-morsel blob")
    return out


def decode_shard(data: bytes) -> Dict[Any, Any]:
    """Decode :func:`encode_shard` output back into a count dict.

    Raises :class:`~repro.core.errors.CodecError` on anything that is
    not a complete, well-framed blob."""
    try:
        return _decode(data)
    except IndexError as exc:
        # a read past the end, or a cell past its table
        raise CodecError("truncated columnar-morsel blob") from exc
