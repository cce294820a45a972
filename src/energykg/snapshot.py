"""Binary sidecar of a Turtle file: the store that parsing that file
gives, ready to use.

``uplift`` and ``climate`` write ``<file>.ttl.ekg`` beside each Turtle
file. It holds the file's term texts and id triples exactly as the Turtle
parser would produce them: ids numbered by each term's first appearance
as subject, predicate, then object, in document order, and the distinct
triples in document order. It also holds, for each position, the
``dataset.grouping`` that the store keeps of those triples: the triple
numbers ordered by that position's id, and each id's run. Loading maps
the ids onto the store's dictionary with C-level ``map`` and hands the
groupings over as read, so the store equals the parse's bucket for
bucket, every query answer is byte-identical, and no load step loops
over triples in Python or sorts. ``Snapshot.load`` drops each section
once the store has taken it: the texts and the triple array once the
triples are built, and each grouping's arrays as its position's run
table is built (the run starts stay, as the store's own). So the
sidecar's arrays and the built store are not held at once.

A sidecar is used only when it proves that it describes the very bytes
of its Turtle file, as a hash-based ``.pyc`` does (PEP 552): its header
holds the Turtle's byte length and hash, and a CRC-32 covers the rest of
the sidecar. The hash is ``importlib.util.source_hash``, a SipHash whose
key changes with the Python version, of the hashes of the file's 64 KiB
blocks, so the writer hashes the file it streamed out, and the reader
the file's open handle, a block at a time, neither holding its bytes.
``read`` returns None for a missing, truncated, stale, foreign,
older-version or inconsistent sidecar, and ``Snapshot.load`` returns
False, having added nothing, for one whose ids or triple numbers are
out of range; either way the caller parses the Turtle instead.

Layout (version 2), every integer little-endian:

- header (``_HEADER``): magic, version, Turtle length and hash, term
  count, character count, blob byte count, triple count, for each
  position the length of its triple-number section (the triple count,
  or 0 when the grouping keeps the triples' own order, as the subjects'
  does) and its run count, and the CRC-32 of everything after the
  header, then of the header before the CRC
- term count + 1 character offsets into the blob, ``uint32``
- the blob: every term's canonical text in id order, UTF-8
- triple count × 3 term ids, ``uint32``
- for subject, predicate and object in turn, ``uint32`` each: the triple
  numbers in grouping order (if any), the id of each run (run count),
  and each run's start, then the triple count (run count + 1)

A graph holding a blank node gets no sidecar: the parser relabels blank
nodes apart from those already loaded, which a fixed id table cannot.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from binascii import crc32
from functools import partial
from importlib.util import source_hash
from itertools import accumulate, islice
from operator import itemgetter
from typing import BinaryIO, Callable, Iterator, Optional, TextIO

from .dataset import Dataset, Grouping, grouping
from .terms import GraphName

SUFFIX = ".ekg"
_MAGIC = b"EKGSNAP\0"
_VERSION = 2
# Magic, version, Turtle length and hash, term, character, blob byte and
# triple counts, and each position's triple-number and run counts; then
# the CRC-32.
_HEADER = struct.Struct("<8sIQ8sQQQQ6Q")
_CRC = struct.Struct("<I")
_START = _HEADER.size + _CRC.size
# An array typecode of four-byte unsigned ints.
_U32 = "I" if array("I").itemsize == 4 else "L"
_SWAP = sys.byteorder == "big"
# Term texts per chunk written, which bounds the writer's buffers.
_CHUNK = 1024
_BLOCK = 1 << 16


def _digest(turtle: BinaryIO) -> tuple[int, bytes]:
    """The length and hash of the Turtle bytes read from the handle to its
    end: the hash of its blocks' hashes, in order."""
    length, hashes = 0, []
    for block in iter(partial(turtle.read, _BLOCK), b""):
        length += len(block)
        hashes.append(source_hash(block))
    return length, source_hash(b"".join(hashes))


class Snapshot:
    """A sidecar's term texts, in id order, its flat id triples and the
    grouping of the triples at each position."""

    __slots__ = ("texts", "triples", "groupings")

    def __init__(self, texts: list[str], triples: array, groupings: list[Grouping]) -> None:
        self.texts = texts
        self.triples = triples
        self.groupings = groupings

    def load(self, ds: Dataset, graph: GraphName) -> bool:
        """Intern the texts into the dataset and add the triples to graph,
        as loading the Turtle file would. Returns False, and leaves the
        dataset as it was, when an id or a triple number is out of range.
        Each section is dropped from the snapshot as the store takes it,
        so the sidecar's arrays and the built store are not held at once,
        and a snapshot loads only once."""
        try:
            with ds.interning() as ids:
                # Mapped through the dictionary's own ids, so the triples
                # share its int objects; an id past the texts has none.
                remap = ids.intern_all(self.texts).__getitem__
                flat = map(remap, self.triples)
                del self.texts, self.triples
                triples = list(zip(flat, flat, flat))
                del flat
                groupings = self.groupings
                del self.groupings
                # A triple number past the triples raises before the graph is added.
                ds.add_graph(graph, triples, _handed(groupings, remap))
        except IndexError:
            return False
        return True


def _handed(groupings: list[Grouping], remap: Callable[[int], int]) -> Iterator[Grouping]:
    """Each grouping with its run ids remapped, taken off the list as it
    is handed over."""
    while groupings:
        order, keys, starts = groupings.pop(0)
        yield order, map(remap, keys), starts


def read(path: str, turtle: BinaryIO) -> Optional[Snapshot]:
    """The sidecar at path if it describes exactly the bytes that the binary
    handle turtle reads, from where it stands to its end, and is whole and
    consistent; otherwise None. The handle is read only once the sidecar's
    header is sound."""
    try:
        with open(path, "rb") as handle:
            return _read(handle, turtle)
    except (OSError, EOFError, ValueError, struct.error):
        # Unreadable, shorter than its header says, or not UTF-8.
        return None


def _u32(handle: BinaryIO, count: int) -> array:
    section = array(_U32)
    section.fromfile(handle, count)
    return section


def _read(handle: BinaryIO, turtle: BinaryIO) -> Optional[Snapshot]:
    head = handle.read(_START)
    magic, version, length, digest, terms, chars, size, count, *shapes = _HEADER.unpack_from(head)
    if magic != _MAGIC or version != _VERSION:
        return None
    # Per position, the length of its triple numbers and its run count.
    shapes = list(zip(shapes[0::2], shapes[1::2]))
    if any(numbers not in (0, count) for numbers, _ in shapes):
        return None
    if _digest(turtle) != (length, digest):
        return None
    # Checked before any section is read, so no count can ask for more
    # memory than the file holds.
    groups = sum(4 * numbers + 8 * runs + 4 for numbers, runs in shapes)
    if os.fstat(handle.fileno()).st_size != _START + 4 * (terms + 1) + size + 12 * count + groups:
        return None
    offsets = _u32(handle, terms + 1)
    blob = handle.read(size)
    triples = _u32(handle, 3 * count)
    # The arrays after the blob, in file order.
    sections = [triples]
    groupings = []
    for numbers, runs in shapes:
        order = _u32(handle, numbers) if numbers else range(count)
        keys, starts = _u32(handle, runs), _u32(handle, runs + 1)
        sections += (order, keys, starts) if numbers else (keys, starts)
        groupings.append((order, keys, starts))
    crc = crc32(blob, crc32(offsets))
    for section in sections:
        crc = crc32(section, crc)
    if (crc32(head[: _HEADER.size], crc),) != _CRC.unpack_from(head, _HEADER.size):
        return None
    if _SWAP:
        for section in (offsets, *sections):
            section.byteswap()
    text = blob.decode("utf-8")
    del blob
    # The offsets run from 0 to the end of the text.
    if offsets[0] != 0 or offsets[-1] != chars or len(text) != chars:
        return None
    texts = list(map(text.__getitem__, map(slice, offsets, islice(offsets, 1, None))))
    # No text is empty, so the offsets rise; each is an IRI or a literal,
    # not a blank node.
    if not all(texts) or not set(map(itemgetter(0), texts)) <= {"<", '"'}:
        return None
    # Each grouping's runs start at 0 and end at the triple count. The ids
    # and triple numbers are bounded as they are loaded.
    if any(starts[0] != 0 or starts[-1] != count for _, _, starts in groupings):
        return None
    return Snapshot(texts, triples, groupings)


def write(handle: BinaryIO, turtle: TextIO, texts: list[str], triples: list[int]) -> bool:
    """Write to the binary handle the sidecar of the Turtle file just
    written through the text handle ``turtle``, which is read back by name.

    ``texts`` and ``triples`` are the document order ``write_turtle``
    returned: the term texts by document id, and each triple's ids in
    turn, in written order. The list of triples is cleared once it is
    written, so it is not held while the groupings are built. Writes
    nothing and returns False for a graph holding a blank node, or one
    whose texts are too long for 32-bit offsets.
    """
    if "_" in set(map(itemgetter(0), texts)):
        return False
    try:
        offsets = array(_U32, accumulate(map(len, texts), initial=0))
    except OverflowError:
        return False
    chars = offsets[-1]
    # Lists, whose items are read faster than an array's.
    columns = [triples[position::3] for position in range(3)]
    count = len(triples) // 3

    crc = 0

    def put(section) -> int:
        nonlocal crc
        if _SWAP and isinstance(section, array):
            section.byteswap()
        crc = crc32(section, crc)
        handle.write(section)
        return len(section)

    handle.write(bytes(_START))
    put(offsets)
    size = 0
    for start in range(0, len(texts), _CHUNK):
        size += put("".join(texts[start : start + _CHUNK]).encode("utf-8"))
    put(array(_U32, triples))
    triples.clear()
    shapes = []
    for position in range(3):
        # The document is written a subject block at a time, so the
        # subjects' grouping keeps the triples' order and writes none.
        grouped = position == 0
        order, keys, starts = grouping(columns[position], grouped)
        columns[position] = None
        for section in (keys, starts) if grouped else (order, keys, starts):
            put(array(_U32, section))
        shapes += (0 if grouped else count, len(keys))

    turtle.flush()
    with open(turtle.name, "rb") as source:
        length, digest = _digest(source)
    header = _HEADER.pack(_MAGIC, _VERSION, length, digest, len(texts), chars, size, count, *shapes)
    handle.seek(0)
    handle.write(header + _CRC.pack(crc32(header, crc)))
    return True
