"""Exception types raised across the package."""

import io
import sys
from collections.abc import Callable, Iterable, Iterator
from typing import TextIO, TypeVar

_T = TypeVar("_T")


class ShardcastError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(ShardcastError):
    """Scheme parameters outside the supported 2 <= k <= n <= 255 range."""


class ZeroInverse(ShardcastError):
    """Multiplicative inverse of zero requested."""


class DuplicateShareId(ShardcastError):
    """Two supplied shares carry the same share id."""


class LengthMismatch(ShardcastError):
    """Share bodies of unequal length supplied to recovery."""


class WrongShareCount(ShardcastError):
    """Recovery called with a share count different from k."""


class BadLength(ShardcastError):
    """Byte string has the wrong length for its role."""


class BadBeaconCode(ShardcastError):
    """Frame does not carry the expected beacon type code."""


class BadShareId(ShardcastError):
    """Frame carries a share id outside 1..255."""


class ParseError(ShardcastError):
    """Malformed line in an input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def read_utf8(path: str | None, parse: Callable[[Iterable[str]], _T]) -> _T:
    """``parse`` over the lines of ``path`` read as UTF-8 text, or of stdin
    when ``path`` is None.

    A byte that is not UTF-8 fails the read. Only then does ``parse`` run
    again, over a read that keeps each bad byte as a lone surrogate and
    raises ParseError at the first line holding one, before ``parse`` sees
    that line. So an error ``parse`` finds on an earlier line wins.
    """
    if path is not None:
        def text(errors: str) -> TextIO:
            return open(path, encoding="utf-8", errors=errors)
    elif hasattr(sys.stdin, "buffer"):
        data = sys.stdin.buffer.read()  # stdin cannot be read twice; its bytes can

        def text(errors: str) -> TextIO:
            return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)
    else:  # a text stream with no bytes beneath it
        return parse(sys.stdin)
    try:
        with text("strict") as fh:
            return parse(fh)
    except UnicodeDecodeError:
        with text("surrogateescape") as fh:
            return parse(_utf8_lines(fh))


def _utf8_lines(lines: Iterable[str]) -> Iterator[str]:
    for lineno, line in enumerate(lines, start=1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(lineno, "not UTF-8 text") from None
        yield line


class EmptyFile(ShardcastError):
    """Input file contains no sighting rows."""


class EmptyConfigList(ShardcastError):
    """A sweep needs at least one configuration."""


class InvalidScheme(ShardcastError):
    """Exposure scheme with k > n, k < 1, or slot length below one second."""


class InvalidConfig(ShardcastError, ValueError):
    """A setting or argument outside its allowed range.

    ``fields`` names the settings involved, the one to point at first.
    """

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields
