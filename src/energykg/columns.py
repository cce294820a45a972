"""Reading the energy and climate tables a column at a time.

A table's rows are read a block at a time and turned into columns, and
each column is parsed and checked in one go, so no Python-level call
runs per cell. A check that fails is kept as a ``Failure``: the row's
index among the table's rows, the check's place among the checks a row
goes through, and a message. ``raise_first`` raises the earliest by row
and then by place, the error a reader going row by row, check by check
would meet. A column that fails a check in bulk is scanned for its
first failing cell (``parse_column``).
"""

from __future__ import annotations

import csv
import re
from contextlib import suppress
from decimal import Decimal, InvalidOperation
from itertools import compress, count, islice, repeat
from operator import add
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .errors import EnergyKgError

Failure = tuple[int, int, str]
T = TypeVar("T")

# A number as an input cell may spell it: ASCII digits with an optional
# sign, decimal point and exponent. ``Decimal`` also reads NaN, Infinity,
# underscores between digits and the digits of other scripts, which
# this does not match.
NUMBER = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# Text made of the characters NUMBER uses and line breaks. Over these
# characters, ``Decimal`` reads exactly the texts that NUMBER matches.
_NUMBER_CHARS = re.compile(r"[0-9.eE+\-\n]*")


class NotANumber(EnergyKgError):
    """The cell at ``index`` of a column, ``cell`` once stripped, spells
    no number."""

    def __init__(self, index: int, cell: str) -> None:
        super().__init__(f"non-numeric value {cell!r}")
        self.index = index


def text_lines(text: str) -> Iterator[str]:
    """The lines of text, each with its "\\n", as iterating over
    ``io.StringIO(text)`` gives them, for a CSV reader; without the copy
    of the text that StringIO holds, at four bytes a character."""
    lines = text.split("\n")
    last = lines.pop()
    yield from map(add, lines, repeat("\n"))
    if last:
        yield last


# Rows read and turned into columns at a time: only one block's texts
# are held, and freed as a whole.
_BLOCK_ROWS = 256


def csv_blocks(
    rows: Iterator[list[str]], width: int, failures: list[Failure]
) -> Iterator[tuple[list[Sequence[str]], Sequence[int]]]:
    """The rows left in a CSV reader, a block of rows at a time, as
    ``width`` columns, with each row's number in the file (the header is
    row 1).

    Blank rows are skipped, and the rows are indexed in order without
    them. A row of another width, or one the reader cannot read (such as
    one with a field longer than ``csv.field_size_limit()``), is a
    failure at the first place (0): the last block's columns end before
    it, its numbers end with it, and no block follows, since no later row
    can fail earlier."""
    number = 2
    kept = 0
    while True:
        block: list[list[str]] = []
        unread = None
        try:
            # A read that fails leaves the rows read before it in block.
            block.extend(islice(rows, _BLOCK_ROWS))
        except csv.Error as exc:
            unread = str(exc)
        if not block and unread is None:
            return
        # The block's row numbers, then the number of the row after it.
        numbers: Sequence[int] = range(number, number + len(block) + 1)
        number += len(block)
        filled = list(map(any, block))
        if not all(filled):
            block = list(compress(block, filled))
            numbers = list(compress(numbers, filled + [True]))
        lengths = list(map(len, block))
        short = len(block)
        if lengths.count(width) < len(block):
            short = next(k for k, n in enumerate(lengths) if n != width)
            failures.append((kept + short, 0, f"expected {width} cells, got {lengths[short]}"))
        elif unread is not None:
            failures.append((kept + short, 0, unread))
        kept += short
        failed = short < len(block) or unread is not None
        yield list(zip(*block[:short])) or [()] * width, numbers[: short + failed]
        if failed:
            return


def csv_header(rows: Iterator[list[str]], error: type[EnergyKgError]) -> Optional[list[str]]:
    """The first row of a CSV reader, or None when there is none; a row
    the reader cannot read raises error."""
    try:
        return next(rows, None)
    except csv.Error as exc:
        raise error(f"row 1: {exc}")


def raise_first(
    failures: list[Failure], where: Callable[[int], str], error: type[EnergyKgError]
) -> None:
    """Raise the earliest failure, by row and then by place, as an error
    whose message starts with the row's label (``where``)."""
    if failures:
        index, _, message = min(failures)
        raise error(f"{where(index)}: {message}")


def parse_column(
    parse: Callable[[Any], T], cells: Sequence, error: type[Exception]
) -> tuple[list[T], Optional[Exception]]:
    """parse of every cell, in one ``map``, and None; or, when a cell fails
    with error, the parses of the cells before it and that error: the
    failing cell's index is the number of parses."""
    try:
        return list(map(parse, cells)), None
    except error:
        values = []
        for cell in cells:
            try:
                values.append(parse(cell))
            except error as exc:
                return values, exc
        raise


def number_column(cells: Iterable[str]) -> list[Optional[Decimal]]:
    """The number each cell spells once stripped of surrounding whitespace
    (``NUMBER``), or None for a cell that is then empty.

    The column is checked with one match over its cells joined by line
    breaks, and the cells become ``Decimal`` values in one ``map``. A
    cell that spells no number, or whose exponent ``Decimal`` cannot
    hold, raises NotANumber for the first such cell."""
    stripped = list(map(str.strip, cells))
    if _NUMBER_CHARS.fullmatch("\n".join(stripped)):
        # Fails on a cell with a line break inside, a misplaced sign or
        # point, or too large an exponent.
        with suppress(InvalidOperation):
            values: list[Optional[Decimal]] = list(map(Decimal, filter(None, stripped)))
            if len(values) < len(stripped):
                # Each non-empty cell's value by position; None at the others.
                at = dict(zip(compress(count(), stripped), values))
                values = list(map(at.get, range(len(stripped))))
            return values
    values, _ = parse_column(_number_or_none, stripped, InvalidOperation)
    raise NotANumber(len(values), stripped[len(values)])


def _number_or_none(cell: str) -> Optional[Decimal]:
    return spelt_number(cell) if cell else None


def spelt_number(cell: str) -> Decimal:
    """The number that a stripped cell spells (``NUMBER``); raise
    InvalidOperation if it spells none, or one ``Decimal`` cannot hold."""
    if not NUMBER.fullmatch(cell):
        raise InvalidOperation(f"not a number: {cell!r}")
    return Decimal(cell)
