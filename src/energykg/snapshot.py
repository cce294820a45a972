"""Binary sidecar of a Turtle file: the store that parsing that file
gives, ready to use.

``uplift`` and ``climate`` write ``<file>.ttl.ekg`` beside each Turtle
file. It holds the file's term texts and id triples exactly as the Turtle
parser would produce them: ids numbered by each term's first appearance
as subject, predicate, then object, in document order, and the distinct
triples in document order, which keeps each subject's triples together.
So the triples' subjects are stored as their runs alone, the id of each
run and its start, and each triple as its predicate and object; a
triple's subject is the id of the run it is in, and no stored subject
can disagree with the runs. For the predicate and the object the file
holds the ``dataset.grouping`` of the triples, whose run ids rise, so
that no id has two runs.
Loading splits the texts in one C call, maps the ids onto the store's
dictionary with C-level ``map`` into triple tuples, each run's id
repeated over its run, and hands the three groupings to
``Dataset.add_graph`` with their run ids mapped as they are read, which
fills each position's run table from them: the arrays of the triple
numbers and run starts stay the store's. So the store equals the
parse's bucket for bucket, every query answer is byte-identical, and no
load step loops over triples in Python or sorts. ``Snapshot.load`` drops
the texts and the triple array once the store has taken them.

A sidecar is used only when it proves that it describes the very bytes
of its Turtle file, as a hash-based ``.pyc`` does (PEP 552): its header
holds the Turtle's byte length and hash, and a CRC-32 covers the rest of
the sidecar. The hash is ``importlib.util.source_hash``, a SipHash whose
key changes with the Python version, of the hashes of the file's 64 KiB
blocks, so the writer hashes the file it streamed out, and the reader
the file's open handle, a block at a time, neither holding its bytes.
``read`` returns None for a missing, truncated, stale, foreign,
older-version or inconsistent sidecar, and ``Snapshot.load`` returns
False, having added nothing, for one whose ids are out of range, whose
texts repeat or whose subject run ids repeat; either way the caller
parses the Turtle instead. Each check of the groupings loops in C over
their runs, or over the triple numbers for their range.

Layout (version 4), every integer little-endian:

- header (``_HEADER``): magic, version, Turtle length and hash, term
  count, character count, blob byte count, triple count, for each
  position its run count, and the CRC-32 of everything after the header,
  then of the header before the CRC
- the blob: every term's canonical text in id order, joined by ``"\\0"``,
  UTF-8
- triple count × 2 term ids, ``uint32``: each triple's predicate and
  object
- the subjects' runs, ``uint32`` each: the id of each run (run count)
  and each run's start, then the triple count (run count + 1)
- for predicate and object in turn, ``uint32`` each: the triple numbers
  in grouping order (triple count), the id of each run, rising, and each
  run's start, then the triple count

Sidecars of versions 1 to 3 are ignored. A graph holding a blank node,
or a text holding ``"\\0"``, gets no sidecar: the parser relabels blank
nodes apart from those already loaded, which a fixed id table cannot,
and the separator would split the text.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from binascii import crc32
from functools import partial
from importlib.util import source_hash
from itertools import chain, islice, repeat
from operator import itemgetter, lt, sub
from typing import BinaryIO, Optional, TextIO

from .dataset import U32, Dataset, Grouping, grouping
from .terms import GraphName

SUFFIX = ".ekg"
_MAGIC = b"EKGSNAP\0"
_VERSION = 4
# Magic, version, Turtle length and hash, term, character, blob byte and
# triple counts, and each position's run count; then the CRC-32.
_HEADER = struct.Struct("<8sIQ8sQQQQ3Q")
_CRC = struct.Struct("<I")
_START = _HEADER.size + _CRC.size
_SWAP = sys.byteorder == "big"
# Term texts per chunk written, which bounds the writer's buffers.
_CHUNK = 1024
_BLOCK = 1 << 16
# A text's first character, or "" for an empty text.
_FIRST = itemgetter(slice(1))


def _digest(turtle: BinaryIO) -> tuple[int, bytes]:
    """The length and hash of the Turtle bytes read from the handle to its
    end: the hash of its blocks' hashes, in order."""
    length, hashes = 0, []
    for block in iter(partial(turtle.read, _BLOCK), b""):
        length += len(block)
        hashes.append(source_hash(block))
    return length, source_hash(b"".join(hashes))


class Snapshot:
    """A sidecar's term texts, in id order, each triple's predicate and
    object ids, the subjects' run ids and starts, and the predicates' and
    objects' groupings, all in the file's ids."""

    __slots__ = ("texts", "pairs", "subjects", "groupings")

    def __init__(
        self,
        texts: list[str],
        pairs: array,
        subjects: tuple[array, array],
        groupings: list[Grouping],
    ) -> None:
        self.texts = texts
        self.pairs = pairs
        self.subjects = subjects
        self.groupings = groupings

    def load(self, ds: Dataset, graph: GraphName) -> bool:
        """Intern the texts into the dataset and add the triples to graph,
        as loading the Turtle file would. Returns False, and leaves the
        dataset as it was, when an id is out of range, two texts are one
        or two subject runs have one id. The texts and the triple array
        are dropped from the snapshot as the store takes them, and a
        snapshot loads only once."""
        try:
            with ds.interning() as ids:
                known = len(ids)
                # The dictionary's own ids, so the triples share its int objects.
                mapped = ids.intern_all(self.texts)
                del self.texts
                # Texts that are all new and distinct take one new id each.
                if len(ids) - known != len(mapped) and len(set(mapped)) != len(mapped):
                    raise ValueError("two texts of the sidecar are one term")
                # An id past the texts raises IndexError, here or where it
                # fills a run table.
                remap = mapped.__getitem__
                keys, starts = self.subjects
                # Each triple's subject is its run's id, repeated over the run.
                runs = map(repeat, map(remap, keys), map(sub, starts[1:], starts))
                flat = map(remap, self.pairs)
                del self.pairs
                triples = list(zip(chain.from_iterable(runs), flat, flat))
                del flat
                groupings = [(None, keys, starts), *self.groupings]
                if known:
                    # The first file's ids are the dictionary's; a later
                    # file's run ids are mapped as the tables are filled.
                    groupings = [
                        (order, map(remap, run_ids), run_starts)
                        for order, run_ids, run_starts in groupings
                    ]
                ds.add_graph(graph, triples, groupings)
        except (IndexError, ValueError):
            return False
        return True


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


def _section(handle: BinaryIO, typecode: str, count: int) -> array:
    section = array(typecode)
    section.fromfile(handle, count)
    return section


def _rise(values: array) -> bool:
    """Whether each value is below the next, compared in C."""
    return all(map(lt, values, islice(values, 1, None)))


def _sorted(values: array) -> bool:
    """Whether no value is below the one before it: the values as a list
    equal their sort, which finds them in one run, in C."""
    listed = values.tolist()
    return listed == sorted(listed)


def _read(handle: BinaryIO, turtle: BinaryIO) -> Optional[Snapshot]:
    head = handle.read(_START)
    magic, version, length, digest, terms, chars, size, count, *runs = _HEADER.unpack_from(head)
    if magic != _MAGIC or version != _VERSION:
        return None
    if _digest(turtle) != (length, digest):
        return None
    # Checked before any section is read, so no count can ask for more
    # memory than the file holds: the blob, four ids per triple (its
    # predicate and object, and its number in two groupings), and each
    # position's run ids and starts.
    sections = size + 16 * count + sum(8 * n + 4 for n in runs)
    if os.fstat(handle.fileno()).st_size != _START + sections:
        return None
    blob = handle.read(size)
    pairs = _section(handle, U32, 2 * count)
    subjects = _section(handle, U32, runs[0]), _section(handle, U32, runs[0] + 1)
    groupings = [
        (_section(handle, U32, count), _section(handle, U32, n), _section(handle, U32, n + 1))
        for n in runs[1:]
    ]
    # The arrays after the blob, in file order.
    arrays = [pairs, *subjects, *chain.from_iterable(groupings)]
    crc = crc32(blob)
    for section in arrays:
        crc = crc32(section, crc)
    if (crc32(head[: _HEADER.size], crc),) != _CRC.unpack_from(head, _HEADER.size):
        return None
    if _SWAP:
        for section in arrays:
            section.byteswap()
    text = blob.decode("utf-8")
    del blob
    texts = text.split("\0") if text else []
    # Each text is an IRI's or a literal's: not empty, not a blank node's.
    if len(text) != chars or len(texts) != terms or not set(map(_FIRST, texts)) <= {"<", '"'}:
        return None
    # Each grouping's runs start at 0, end at the triple count, and no run
    # starts before the one before it, so that each triple is in one run.
    for starts in (subjects[1], *map(itemgetter(2), groupings)):
        if starts[0] != 0 or starts[-1] != count or not _sorted(starts):
            return None
    # The predicates' and objects' run ids rise, so each is one run's, and
    # their triple numbers are below the triple count. Every id is bounded,
    # and the subjects' run ids found distinct, as they are loaded.
    for order, keys, _ in groupings:
        if not _rise(keys) or (order and max(order) >= count):
            return None
    return Snapshot(texts, pairs, subjects, groupings)


def write(handle: BinaryIO, turtle: TextIO, texts: list[str], triples: list[int]) -> bool:
    """Write to the binary handle the sidecar of the Turtle file just
    written through the text handle ``turtle``, which is read back by name.

    ``texts`` and ``triples`` are the document order ``write_turtle``
    returned: the term texts by document id, and each triple's ids in
    turn, in written order, which keeps each subject's triples together.
    The list of triples is cleared once it is written, so it is not held
    while the groupings are built. Writes nothing whole and returns False
    for a graph holding a blank node or a text holding ``"\\0"``.
    """
    if "_" in set(map(_FIRST, texts)):
        return False
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
    size = chars = 0
    for start in range(0, len(texts), _CHUNK):
        chunk = texts[start : start + _CHUNK]
        joined = "\0".join(chunk)
        if joined.count("\0") != len(chunk) - 1:
            return False
        if start:
            joined = "\0" + joined
        chars += len(joined)
        size += put(joined.encode("utf-8"))
    # Each triple's predicate and object; its subject is its run's id.
    del triples[::3]
    put(array(U32, triples))
    triples.clear()
    shapes = []
    for position in range(3):
        # The document is written a subject block at a time, so the
        # subjects' grouping keeps the triples' order and writes only
        # its runs.
        grouped = position == 0
        order, keys, starts = grouping(columns[position], grouped)
        columns[position] = None
        for section in (keys, starts) if grouped else (order, keys, starts):
            put(array(U32, section))
        shapes.append(len(keys))

    turtle.flush()
    with open(turtle.name, "rb") as source:
        length, digest = _digest(source)
    header = _HEADER.pack(_MAGIC, _VERSION, length, digest, len(texts), chars, size, count, *shapes)
    handle.seek(0)
    handle.write(header + _CRC.pack(crc32(header, crc)))
    return True
