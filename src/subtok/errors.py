"""Exception types shared across the package."""


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
