"""Exception types shared across the package, and the one rule by which an
input file's reader names the file."""

import json
from contextlib import contextmanager
from typing import Iterator


class ProgestError(Exception):
    """Base class for every error this package raises on purpose."""


class GrammarError(ProgestError):
    """Invalid grammar text or an inconsistent grammar object."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RuleError(ProgestError):
    """A rewriting rule violates its structural invariants."""


class ApplyError(ProgestError):
    """A rewriting rule could not be applied at the requested node."""


class UnderivableTreeError(ProgestError):
    """No application sequence of the rule set produces the given tree."""


class IncompleteTreeError(ProgestError):
    """An operation that needs a finished tree was given a partial one."""


class SchemaError(ProgestError):
    """A rule's type schema references a position that does not exist."""


class ContextError(ProgestError):
    """A context is malformed or does not declare a used variable."""


class MiniLangError(ProgestError):
    """Parse failure in the condition mini-language."""


class MiniTypeError(MiniLangError):
    """A condition does not type-check under its context."""


class SearchOverflowError(ProgestError):
    """Exhaustive enumeration exceeded its configured state cap."""


class BundleError(ProgestError):
    """A model bundle is missing, corrupt, or has the wrong version."""


@contextmanager
def reading(path: str, error: type[ProgestError]) -> Iterator[None]:
    """Raise a file that is not UTF-8 text, or not JSON, or nested deeper
    than its recursive readers reach, as ``error`` led by its ``path``, and
    lead any ``ProgestError`` raised while reading it (a bad record,
    context or grammar line) with its ``path`` too, once: so that the
    message tells which input to mend."""
    try:
        yield
    except UnicodeDecodeError as err:
        raise error(f"{path}: not valid UTF-8 ({err})") from None
    except json.JSONDecodeError as err:
        raise error(f"{path}: not valid JSON ({err})") from None
    except RecursionError:
        raise error(f"{path}: nested too deeply to read") from None
    except ProgestError as err:
        lead = f"{path}: "
        if not str(err).startswith(lead):
            err.args = (lead + str(err),)
        raise
