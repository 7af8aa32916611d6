"""Exception types shared across the package, the one reader of text input
files that raises them, and the one writer of output files."""

import os
import shutil
import tempfile
from os import PathLike
from pathlib import Path


class SubtokError(Exception):
    """Base class for user-facing errors (bad input, bad data, I/O)."""


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
    """`text` as a non-negative integer, read as the writers spell one: in
    ASCII digits only. Anything else raises FormatError naming `what` and
    the line: signs, white space, underscores and other scripts' digits,
    which `int` takes, and a number with more digits than `int` converts."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more than sys.get_int_max_str_digits()
            pass
    raise FormatError(f"{what} must be a non-negative integer, got {text!r}",
                      line_number)


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


def write_files(writers: dict, make_dir: bool = False) -> None:
    """Write each target path of `writers`, a path -> a function that writes
    a file to the path given, into one `.partial-*` directory beside the
    targets, then rename each into place once all are written, so that a
    failure leaves every target as it was. The targets share a directory,
    which `make_dir` creates when it is missing and removes again on
    failure. A target that exists and is not a regular file is refused up
    front; an OSError is raised as SubtokError `cannot write <target>:
    <reason>`."""
    targets = [Path(p) for p in writers]
    for target in targets:
        if target.exists() and not target.is_file():
            raise SubtokError(f"{target} exists and is not a regular file")
    directory = targets[0].parent
    new_dirs = [d for d in (directory, *directory.parents) if not d.exists()]
    failed = targets[0]  # the target that an error names
    try:
        if make_dir:
            directory.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=directory,
                                         prefix=".partial-") as tmp:
            for failed, write in zip(targets, writers.values()):
                write(Path(tmp) / failed.name)
            for failed in targets:
                os.replace(Path(tmp) / failed.name, failed)
    except BaseException as exc:
        if make_dir and new_dirs:
            shutil.rmtree(new_dirs[-1], ignore_errors=True)
        if isinstance(exc, OSError):
            raise SubtokError(f"cannot write {failed}: "
                              f"{exc.strerror or exc}") from exc
        raise
