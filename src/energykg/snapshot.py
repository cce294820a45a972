"""Binary sidecar of a Turtle file: what parsing that file gives, ready
to insert.

``uplift`` and ``climate`` write ``<file>.ttl.ekg`` beside each Turtle
file. It holds the file's term texts and id triples exactly as the Turtle
parser would produce them: ids numbered by each term's first appearance
as subject, predicate, then object, in document order, and the triples in
document order. Inserting these gives the same dictionary, the same
index buckets and the same triple-set order as the parse, so every query
answer is byte-identical.

A sidecar is used only when it proves that it describes the very bytes
of its Turtle file, as a hash-based ``.pyc`` does (PEP 552): its header
holds the Turtle's byte length and hash, and a CRC-32 covers the rest of
the sidecar. The hash is ``importlib.util.source_hash``, a SipHash whose
key changes with the Python version, of the hashes of the file's 64 KiB
blocks, so the writer can hash the file it streamed out a block at a
time. ``read`` returns None for a missing, truncated, stale, foreign or
inconsistent sidecar, and the caller parses the Turtle instead.

Layout, every integer little-endian:

- header (``_HEADER``): magic, version, Turtle length and hash, term
  count, character count, blob byte count, triple count, and the CRC-32
  of everything after the header, then of the header before the CRC
- term count + 1 character offsets into the blob, ``uint32``
- the blob: every term's canonical text in id order, UTF-8
- triple count × 3 term ids, ``uint32``

A graph holding a blank node gets no sidecar: the parser relabels blank
nodes apart from those already loaded, which a fixed id table cannot.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from binascii import crc32
from importlib.util import source_hash
from itertools import accumulate, islice
from operator import itemgetter, lt
from typing import BinaryIO, Iterable, Iterator, Optional, TextIO

from .dataset import Dataset
from .terms import GraphName

SUFFIX = ".ekg"
_MAGIC = b"EKGSNAP\0"
_VERSION = 1
# Magic, version, Turtle length and hash, term, character, blob byte and
# triple counts; then the CRC-32.
_HEADER = struct.Struct("<8sIQ8sQQQQ")
_CRC = struct.Struct("<I")
_START = _HEADER.size + _CRC.size
# An array typecode of four-byte unsigned ints.
_U32 = "I" if array("I").itemsize == 4 else "L"
_SWAP = sys.byteorder == "big"
# Term texts and triples per chunk written, which bounds the writer's buffers.
_CHUNK = 1024
_BLOCK = 1 << 16


def _digest(blocks: Iterable[bytes]) -> bytes:
    """The Turtle's hash: the hash of its blocks' hashes, in order."""
    return source_hash(b"".join(map(source_hash, blocks)))


class Snapshot:
    """A sidecar's term texts, in id order, and flat id triples."""

    __slots__ = ("texts", "triples")

    def __init__(self, texts: list[str], triples: array) -> None:
        self.texts = texts
        self.triples = triples

    def load(self, ds: Dataset, graph: GraphName) -> None:
        """Intern the texts into the dataset and add the triples to graph,
        as loading the Turtle file would."""
        with ds.interning() as ids:
            term_ids = ids.intern_all(self.texts)
        flat = map(term_ids.__getitem__, self.triples)
        ds.add_ids(zip(flat, flat, flat), graph)


def read(path: str, turtle: bytes) -> Optional[Snapshot]:
    """The sidecar at path if it describes exactly the Turtle bytes and is
    whole and consistent; otherwise None."""
    try:
        with open(path, "rb") as handle:
            return _read(handle, turtle)
    except (OSError, EOFError, ValueError, struct.error):
        # Unreadable, shorter than its header says, or not UTF-8.
        return None


def _read(handle: BinaryIO, turtle: bytes) -> Optional[Snapshot]:
    head = handle.read(_START)
    magic, version, length, digest, terms, chars, size, count = _HEADER.unpack_from(head)
    if magic != _MAGIC or version != _VERSION or length != len(turtle):
        return None
    with memoryview(turtle) as view:
        if digest != _digest(view[start : start + _BLOCK] for start in range(0, length, _BLOCK)):
            return None
    # Checked before any section is read, so no count can ask for more
    # memory than the file holds.
    if os.fstat(handle.fileno()).st_size != _START + 4 * (terms + 1) + size + 12 * count:
        return None
    offsets = array(_U32)
    offsets.fromfile(handle, terms + 1)
    blob = handle.read(size)
    triples = array(_U32)
    triples.fromfile(handle, 3 * count)
    crc = crc32(head[: _HEADER.size], crc32(triples, crc32(blob, crc32(offsets))))
    if (crc,) != _CRC.unpack_from(head, _HEADER.size):
        return None
    if _SWAP:
        offsets.byteswap()
        triples.byteswap()
    text = blob.decode("utf-8")
    del blob
    ends = offsets[1:]
    # The offsets rise from 0 to the end of the text, so no text is empty.
    if offsets[0] != 0 or offsets[-1] != chars or len(text) != chars:
        return None
    if not all(map(lt, offsets, ends)) or (triples and max(triples) >= terms):
        return None
    # Each text is an IRI or a literal, not a blank node.
    if not set(map(text.__getitem__, islice(offsets, terms))) <= {"<", '"'}:
        return None
    return Snapshot(list(map(text.__getitem__, map(slice, offsets, ends))), triples)


def write(handle: BinaryIO, turtle: TextIO, texts: list[str], triples: Iterator[int]) -> bool:
    """Write to the binary handle the sidecar of the Turtle file just
    written through the text handle ``turtle``, which is read back by name.

    ``texts`` and ``triples`` are the document order ``write_turtle``
    returned: the term texts by document id, and each triple's ids in
    turn, in written order. Writes nothing and returns False for a graph
    holding a blank node, or one whose texts are too long for 32-bit
    offsets.
    """
    if "_" in set(map(itemgetter(0), texts)):
        return False
    try:
        offsets = array(_U32, accumulate(map(len, texts), initial=0))
    except OverflowError:
        return False
    chars = offsets[-1]

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
    ids = 0
    while written := put(array(_U32, islice(triples, 3 * _CHUNK))):
        ids += written

    turtle.flush()
    with open(turtle.name, "rb") as source:
        digest = _digest(iter(lambda: source.read(_BLOCK), b""))
        length = source.tell()
    header = _HEADER.pack(_MAGIC, _VERSION, length, digest, len(texts), chars, size, ids // 3)
    handle.seek(0)
    handle.write(header + _CRC.pack(crc32(header, crc)))
    return True
