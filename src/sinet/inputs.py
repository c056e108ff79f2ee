"""Outside input: the one JSON decoder, the field checkers every config,
world, manifest and dataset value goes through, and FileError.

A checker returns its value unchanged (so it is written back as given) or
raises ValueError naming the field. A file reader (load_checkpoint,
read_manifest, load_dataset) turns an error into a FileError, the file's
path first, as does the check that a checkpoint fits its manifest's model.
"""

import json
import numbers
import sys
from contextlib import contextmanager


class FileError(ValueError):
    """A checkpoint, manifest or dataset file that cannot be read or used.
    The message starts with the file's path."""


@contextmanager
def reading(path):
    """Raise an OSError or ValueError met while reading the file at `path`
    as a FileError, path first."""
    try:
        yield
    except OSError as e:
        raise FileError(f"{path}: cannot read: {e.strerror or e}") from None
    except ValueError as e:
        raise FileError(f"{path}: {e}") from None


def decode_json(text, what):
    """The JSON value of `text` (str, or UTF-8 bytes); ValueError `what: why`
    when it holds none, nesting deeper than the recursion limit included."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ValueError(f"{what}: {e}") from None


_TYPES = {int: numbers.Integral, float: numbers.Real, str: str, list: (list, tuple), dict: dict}
_NOUNS = {int: "an integer", float: "a number", str: "a string", list: "a JSON array",
          dict: "a JSON object"}

# (a value of the wrong kind, a missing key), worded as each input always
# was: a config names a field by its path, a dataset line by the value found
NAMED = ("{what} must be {noun}, got {json}", "{what} is missing {key!r}")
PATH = ("{what}: expected {name}, got {v!r}", "{what} is missing {key!r}")
VALUE = ("{what} {v!r} is not {noun}", "{what} is missing field {key!r}")


def checked(v, kind, what, words=NAMED):
    """v when it is a value of `kind` (int, float, str, list or dict) the
    program can hold: no bool is a number, and an int is at most
    sys.maxsize in size, or for a float, at most the largest float."""
    if isinstance(v, bool) or not isinstance(v, _TYPES[kind]):
        raise ValueError(words[0].format(
            what=what, v=v, json=json.dumps(v, default=repr), noun=_NOUNS[kind],
            name=kind.__name__ if kind in (int, float, str) else _NOUNS[kind]))
    if isinstance(v, numbers.Integral) and abs(v) > (sys.maxsize if kind is int
                                                     else sys.float_info.max):
        raise ValueError(f"{what}: int too large to "
                         f"{'fit an index-sized integer' if kind is int else 'convert to float'}")
    return v


def elements(v, kind, what, n=None, words=NAMED):
    """v when it is an array of `n` (by default any number of) values of
    `kind`."""
    checked(v, list, what, words)
    if n is not None and len(v) != n:
        raise ValueError(f"{what} must have exactly {n} entries, "
                         f"got {json.dumps(v, default=repr)}")
    # an array of floats alone, as a dataset grid is, in one pass at C speed
    if kind is not float or not set(map(type, v)) <= {float}:
        for x in v:
            checked(x, kind, what, words)
    return v


def members(d, what, required, optional=(), words=NAMED):
    """d when it is an object with every key of `required` and no key
    outside `required` and `optional`."""
    checked(d, dict, what, words)
    for key in required:
        if key not in d:
            raise ValueError(words[1].format(what=what, key=key))
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}; "
                         f"allowed: {sorted([*required, *optional])}")
    return d
