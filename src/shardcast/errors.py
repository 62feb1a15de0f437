"""Exception types raised across the package."""

from contextlib import contextmanager


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


@contextmanager
def utf8_text(path: str):
    """``path`` opened as UTF-8 text. A byte that is not UTF-8 fails the read;
    only then is the file scanned again, for a ParseError at that byte's line."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        # Lines numbered as the read numbers them; a bad byte is a lone surrogate.
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(lineno, "not UTF-8 text") from None
        raise  # no bad byte now: the file changed since the read


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
