"""Exception types shared across the package, and the one reader of text
input files that raises them."""

from os import PathLike


class SubtokError(Exception):
    """Base class for user-facing errors (bad input, bad data, I/O)."""


class CorpusDecodeError(SubtokError):
    """Raised when corpus bytes are not valid UTF-8."""

    def __init__(self, byte_offset, reason=""):
        self.byte_offset = byte_offset
        msg = f"invalid UTF-8 at byte offset {byte_offset}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class EmptyVocabError(SubtokError):
    """Raised when vocabulary construction yields no entries."""


class InsufficientDataError(SubtokError):
    """Raised when a requested sample exceeds the available token count."""

    def __init__(self, requested, available):
        self.requested = requested
        self.available = available
        super().__init__(
            f"requested {requested} tokens but only {available} are available"
        )


class ConfigError(SubtokError, ValueError):
    """Raised when a model or training setting is out of range."""


class FormatError(SubtokError):
    """Raised on malformed input files; carries a line number when known."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


def nonnegative_int(text: str, what: str, line_number: int) -> int:
    """`text` as a non-negative integer; FormatError naming `what` and the
    line otherwise."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise FormatError(f"{what} must be a non-negative integer, "
                          f"got {text!r}", line_number)
    return value


def load_file(load, path, **kwargs):
    """load(path, **kwargs), with ` in <path>` added to the message of a
    FormatError that it raises."""
    try:
        return load(path, **kwargs)
    except FormatError as exc:
        exc.args = (f"{exc} in {path}",)
        raise


def read_lines(source, what: str):
    """The lines of `source`, newlines kept: a path, read as UTF-8, or an
    iterable of lines. A file that cannot be opened or decoded raises
    SubtokError `cannot read <what> <path>: <reason>`."""
    if not isinstance(source, (str, PathLike)):
        yield from source
        return
    try:
        with open(source, encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise SubtokError(f"cannot read {what} {source}: {exc}") from exc


def read_fields(source, what: str, sep: str, count: int, expected: str,
                first_line: int = 1):
    """(line number, fields) of each non-empty line of read_lines(source,
    what), split on `sep` and numbered from `first_line`; a line without
    `count` fields raises FormatError(expected, line number)."""
    for ln, line in enumerate(read_lines(source, what), start=first_line):
        line = line.rstrip("\n")
        if line:
            fields = line.split(sep)
            if len(fields) != count:
                raise FormatError(expected, ln)
            yield ln, fields
