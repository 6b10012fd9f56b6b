"""Packed-column binary codec for morsels.

A shard is a ``{value: count}`` dict; the process backend ships one
per input slot out and one result back per morsel.  Pickle is general
but fat and slow — every ``Tup`` carries its class reference and slot
state — and a per-cell Python loop costs ~2 µs per row per direction.
This codec exploits the structure the bag model guarantees (Section 3
of the paper: complex objects are atoms closed under tuple and bag
constructors) and moves whole columns with C-level bulk operations:

* **count column** — every multiplicity in the blob, as one
  ``array`` of fixed-width machine ints whose width (1/2/4/8 bytes) is
  chosen from the column's min/max.  Counts that are not machine ints
  (``Trop`` costs, ``Prov`` polynomials, ints beyond 64 bits) travel
  as *one* pickled list per shard, which lets pickle's memo share
  what the annotations have in common.
* **packed value cells** — a *flat* shard (every value a same-arity
  ``Tup`` of atoms — the paper's Thm 4.4 fragment, the join/scan
  shape — or every value a bare atom) is ``arity x n`` cells in row
  order.  Integer atoms are the cells themselves; a mix of ``str``
  and ``int`` atoms goes through a first-sight intern table and the
  cells index it.  Encoding is ``array(code, chain.from_iterable(
  rows)).tobytes()``; decoding is ``frombytes`` + ``zip`` +
  ``map(Tup.trusted, ...)`` + ``dict(zip(...))`` — no per-cell
  bytecode in either direction.
* **tagged recursive stream** — the one fallback, for everything
  else: nested ``Tup``/``Bag`` values, mixed arity, arity 0, the
  empty shard, and any column holding ``bool``/``float``/``None``/
  ``bytes``/exotic atoms (``True == 1 == 1.0`` would collapse in an
  intern dict, so those keep a type-keyed atom table).  Tuples are
  ``TUP arity item...``, nested bags are ``BAG n value...`` with
  their counts drawn from the shared count column in stream order.
  Atoms outside the scalar fast path fall back to an embedded pickle,
  so the codec is total over every shard the engine can produce:
  ``decode_shard(encode_shard(d)) == d`` with the runtime type of
  every atom preserved — property-tested in ``tests/test_morsels.py``.

Layout: ``magic | n | count column | mode | values``.  The magic names
the count column: ``CM03`` for packed ints (every N and Bool shard),
``CM04`` for the pickled list.  (``CM01``/``CM02`` were the varint
layouts this one replaced; blobs never outlive an exchange, so
nothing reads them.)

Decoding trusts the *values* (the parent validated the shard it
split, so no constructor re-validates) but not the *framing*: every
length is checked before ``frombytes``, and a truncated or malformed
blob raises :class:`~repro.core.errors.CodecError`, never
``IndexError`` or a silently short dict.  Embedded pickles mean blobs
must only come from this program's own workers.
"""

from __future__ import annotations

import pickle
import struct
from array import array
from itertools import chain, islice
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Tuple

from repro.core.bag import Bag, Tup, _cardinality_of, _check_homogeneous
from repro.core.errors import CodecError

__all__ = ["encode_shard", "decode_shard"]

_MAGIC = b"CM03"
_MAGIC_ANNOTATED = b"CM04"

# value modes
_M_GENERIC = 0   # tagged recursive stream (nested, mixed, exotic)
_M_TUPLES = 1    # same-arity atom tuples: arity, then n*arity cells
_M_ATOMS = 2     # bare atoms: n cells

# atom table tags
_A_NONE = 0
_A_TRUE = 1
_A_FALSE = 2
_A_INT = 3
_A_STR = 4
_A_FLOAT = 5
_A_BYTES = 6
_A_PICKLE = 7

# value stream tags
_V_ATOM = 0
_V_TUP = 1
_V_BAG = 2

#: Cell typecodes, narrowest first; the code byte on the wire is the
#: ``array`` typecode itself.
_CELLS = tuple(
    (code, 0, (1 << 8 * array(code).itemsize) - 1) for code in "BHIQ"
) + tuple(
    (code, -(1 << 8 * array(code).itemsize - 1),
     (1 << 8 * array(code).itemsize - 1) - 1) for code in "bhiq")
_ITEMSIZE = {code: array(code).itemsize for code, _, _ in _CELLS}

#: Atom types an intern dict keeps apart by equality alone.
_INTERNED = frozenset((int, str))

_ITEMS = attrgetter("_items")
_EXHAUSTED = object()

_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from


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


def _write_signed(buf: bytearray, value: int) -> None:
    # zigzag: small magnitudes of either sign stay one byte
    if value >= 0:
        _write_varint(buf, value << 1)
    else:
        _write_varint(buf, ((-value) << 1) - 1)


def _read_signed(data: bytes, pos: int) -> Tuple[int, int]:
    raw, pos = _read_varint(data, pos)
    if raw & 1:
        return -((raw + 1) >> 1), pos
    return raw >> 1, pos


def _take(data: bytes, pos: int) -> Tuple[bytes, int]:
    """A varint-length-prefixed byte run; a slice never runs short."""
    length, pos = _read_varint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError("truncated columnar-morsel blob")
    return data[pos:end], end


def _unpickle(raw: bytes) -> Any:
    try:
        return pickle.loads(raw)
    except Exception as exc:  # garbage can make pickle raise anything
        raise CodecError("bad embedded pickle") from exc


# ----------------------------------------------------------------------
# Packed int columns
# ----------------------------------------------------------------------

def _write_column(buf: bytearray, values: List[int], low: int,
                  high: int) -> bool:
    """Append ``values`` (exact ints within ``[low, high]``) as
    ``len | typecode | cells``; ``False``, nothing written, when the
    range does not fit a 64-bit cell."""
    for code, floor, ceiling in _CELLS:
        if floor <= low and high <= ceiling:
            _write_varint(buf, len(values))
            buf += code.encode("ascii")
            buf += array(code, values).tobytes()
            return True
    return False


def _read_column(data: bytes, pos: int) -> Tuple[array, int]:
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


# ----------------------------------------------------------------------
# Atom tables
# ----------------------------------------------------------------------

def _write_atom(buf: bytearray, atom: Any) -> None:
    if atom is None:
        buf.append(_A_NONE)
    elif atom is True:
        buf.append(_A_TRUE)
    elif atom is False:
        buf.append(_A_FALSE)
    elif type(atom) is int:
        buf.append(_A_INT)
        _write_signed(buf, atom)
    elif type(atom) is float:
        buf.append(_A_FLOAT)
        buf += _pack_double(atom)
    else:
        if type(atom) is str:
            tag, raw = _A_STR, atom.encode("utf-8")
        elif type(atom) is bytes:
            tag, raw = _A_BYTES, atom
        else:
            tag, raw = _A_PICKLE, pickle.dumps(
                atom, protocol=pickle.HIGHEST_PROTOCOL)
        buf.append(tag)
        _write_varint(buf, len(raw))
        buf += raw


def _read_atoms(data: bytes, pos: int) -> Tuple[List[Any], int]:
    natoms, pos = _read_varint(data, pos)
    atoms: List[Any] = []
    append = atoms.append
    for _ in range(natoms):
        tag = data[pos]
        pos += 1
        if tag == _A_NONE:
            append(None)
        elif tag == _A_TRUE:
            append(True)
        elif tag == _A_FALSE:
            append(False)
        elif tag == _A_INT:
            value, pos = _read_signed(data, pos)
            append(value)
        elif tag == _A_STR:
            raw, pos = _take(data, pos)
            append(raw.decode("utf-8"))
        elif tag == _A_FLOAT:
            if pos + 8 > len(data):
                raise CodecError("truncated columnar-morsel blob")
            append(_unpack_double(data, pos)[0])
            pos += 8
        elif tag == _A_BYTES:
            raw, pos = _take(data, pos)
            append(raw)
        elif tag == _A_PICKLE:
            raw, pos = _take(data, pos)
            append(_unpickle(raw))
        else:
            raise CodecError(f"bad atom tag {tag}")
    return atoms, pos


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

def _encode_cells(buf: bytearray, atoms: List[Any]) -> bool:
    """Append a flat run of atoms as ``table | column``: ints are
    their own cells behind an empty table, a str/int mix indexes a
    first-sight intern table.  ``False``, nothing written, for any
    other atom type (or a nested value) in the run."""
    kinds = set(map(type, atoms))
    if kinds == {int}:
        mark = len(buf)
        buf.append(0)  # empty table: the cells are the atoms
        if _write_column(buf, atoms, min(atoms), max(atoms)):
            return True
        del buf[mark:]  # beyond 64 bits: intern them instead
    if not kinds or not kinds <= _INTERNED:
        return False
    table = dict.fromkeys(atoms)
    _write_varint(buf, len(table))
    for atom in table:
        _write_atom(buf, atom)
    slots = dict(zip(table, range(len(table))))
    return _write_column(buf, list(map(slots.__getitem__, atoms)),
                         0, len(table) - 1)


def _encode_flat(buf: bytearray, counts: Dict[Any, Any]) -> bool:
    """Append the value section of a flat shard (mode byte onwards);
    ``False``, nothing written, when the shard is not flat."""
    mark = len(buf)
    if set(map(type, counts)) == {Tup}:
        rows = list(map(_ITEMS, counts))
        arities = set(map(len, rows))
        arity = arities.pop()
        if arities or not arity:
            return False
        buf.append(_M_TUPLES)
        _write_varint(buf, arity)
        atoms = list(chain.from_iterable(rows))
    else:
        buf.append(_M_ATOMS)
        atoms = list(counts)
    if _encode_cells(buf, atoms):
        return True
    del buf[mark:]
    return False


class _AtomTable:
    """The generic stream's atom table: dense indices on first sight,
    keyed by type as well as value so ``True``, ``1`` and ``1.0``
    stay three atoms."""

    __slots__ = ("index", "buf")

    def __init__(self) -> None:
        self.index: Dict[Any, int] = {}
        self.buf = bytearray()

    def intern(self, atom: Any) -> int:
        key = (type(atom), atom)
        slot = self.index.get(key)
        if slot is None:
            slot = len(self.index)
            self.index[key] = slot
            _write_atom(self.buf, atom)
        return slot


def _encode_value(value: Any, buf: bytearray, atoms: _AtomTable,
                  column: List[Any]) -> None:
    if isinstance(value, Tup):
        buf.append(_V_TUP)
        items = value.items()
        _write_varint(buf, len(items))
        for item in items:
            _encode_value(item, buf, atoms, column)
    elif isinstance(value, Bag):
        inner = value._counts
        buf.append(_V_BAG)
        _write_varint(buf, len(inner))
        # this bag's counts first, then whatever its elements nest
        column.extend(inner.values())
        for element in inner:
            _encode_value(element, buf, atoms, column)
    else:
        buf.append(_V_ATOM)
        _write_varint(buf, atoms.intern(value))


def _encode_counts(buf: bytearray, column: List[Any]) -> bool:
    """Append the count column packed; ``False``, nothing written,
    when some count is not a machine int."""
    if not set(map(type, column)) <= {int, bool}:
        return False
    return _write_column(buf, column, min(column, default=0),
                         max(column, default=0))


def encode_shard(counts: Dict[Any, Any]) -> bytes:
    """Encode a ``{value: count}`` shard into the wire format (see the
    module docstring for the layout)."""
    column = list(counts.values())
    values = bytearray()
    if not _encode_flat(values, counts):
        atoms = _AtomTable()
        stream = bytearray()
        for value in counts:
            _encode_value(value, stream, atoms, column)
        values.append(_M_GENERIC)
        _write_varint(values, len(atoms.index))
        values += atoms.buf
        values += stream
    out = bytearray(_MAGIC)
    _write_varint(out, len(counts))
    if not _encode_counts(out, column):
        out[:4] = _MAGIC_ANNOTATED
        raw = pickle.dumps(column, protocol=pickle.HIGHEST_PROTOCOL)
        _write_varint(out, len(raw))
        out += raw
    out += values
    return bytes(out)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

def _decode_value(data: bytes, pos: int, atoms: List[Any],
                  column: Iterator[Any]) -> Tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _V_ATOM:
        index, pos = _read_varint(data, pos)
        return atoms[index], pos
    if tag == _V_TUP:
        arity, pos = _read_varint(data, pos)
        items = []
        for _ in range(arity):
            item, pos = _decode_value(data, pos, atoms, column)
            items.append(item)
        return Tup.trusted(tuple(items)), pos
    if tag == _V_BAG:
        ndistinct, pos = _read_varint(data, pos)
        inner_counts = list(islice(column, ndistinct))
        if len(inner_counts) != ndistinct:
            raise CodecError("count column runs short")
        inner: Dict[Any, Any] = {}
        for count in inner_counts:
            element, pos = _decode_value(data, pos, atoms, column)
            inner[element] = count
        bag = Bag.__new__(Bag)
        bag._shape = _check_homogeneous(inner.keys())
        bag._counts = inner
        bag._cardinality = _cardinality_of(inner)
        bag._hash = None
        return bag, pos
    raise CodecError(f"bad value tag {tag}")


def _decode(data: bytes) -> Dict[Any, Any]:
    magic = data[:4]
    if magic not in (_MAGIC, _MAGIC_ANNOTATED):
        raise CodecError("not a columnar-morsel blob")
    nvalues, pos = _read_varint(data, 4)
    if magic == _MAGIC:
        column, pos = _read_column(data, pos)
    else:
        raw, pos = _take(data, pos)
        column = _unpickle(raw)
        if type(column) is not list:
            raise CodecError("count column is not a list")
    mode = data[pos]
    pos += 1
    if mode == _M_GENERIC:
        atoms, pos = _read_atoms(data, pos)
        counts = iter(column)
        top = list(islice(counts, nvalues))
        if len(top) != nvalues:
            raise CodecError("count column runs short")
        keys = []
        for _ in top:
            value, pos = _decode_value(data, pos, atoms, counts)
            keys.append(value)
        if next(counts, _EXHAUSTED) is not _EXHAUSTED:
            raise CodecError("count column runs long")
        out = dict(zip(keys, top))
    elif mode in (_M_TUPLES, _M_ATOMS):
        arity = 1
        if mode == _M_TUPLES:
            arity, pos = _read_varint(data, pos)
        table, pos = _read_atoms(data, pos)
        cells, pos = _read_column(data, pos)
        if (arity < 1 or len(cells) != nvalues * arity
                or len(column) != nvalues):
            raise CodecError("column lengths disagree")
        keys = map(table.__getitem__, cells) if table else cells
        if mode == _M_TUPLES:
            keys = map(Tup.trusted, zip(*[iter(keys)] * arity))
        out = dict(zip(keys, column))
    else:
        raise CodecError(f"bad value mode {mode}")
    if pos != len(data):
        raise CodecError("trailing bytes after columnar-morsel blob")
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
