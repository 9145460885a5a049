"""Where a JSON study file repeats a key, for the error that refuses it.

`cli` imports this module only after its reader has refused a repeated key:
with PYTHONDONTWRITEBYTECODE=1 every CLI call compiles the modules it
imports from source, so code that only an error needs stays out of `cli`.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

from .errors import ParseError


class _Pairs(list):
    """A JSON object as its (key, value) pairs, repeats and all."""


def _repeats(node: object, place: tuple) -> Iterator[tuple[tuple, str]]:
    """(place, key) for each object under `node` that repeats a key, in the
    order the reader closes them: an object's values before the object."""
    if isinstance(node, list):
        for key, value in node if isinstance(node, _Pairs) else enumerate(node):
            yield from _repeats(value, place + (key,))
    if isinstance(node, _Pairs):
        keys = [key for key, _ in node]
        yield from ((place, key) for key in keys if keys.count(key) > 1)


def placed(error: ParseError, text: str, path: str) -> ParseError:
    """`error`, the reader's refusal of a repeated key, with the place of the
    object as every other input error names it: `<path>, stratum N,
    observational.treated: key 'events' is repeated`.  A second read keeps
    every pair; if it fails further on in the text, `error` is returned."""
    try:
        place, key = next(_repeats(json.loads(text, object_pairs_hook=_Pairs, parse_int=str), ()))
    except (ValueError, RecursionError, StopIteration):
        return error
    where = path
    if place[:1] == ("strata",) and len(place) > 1:
        where, place = f"{path}, stratum {place[1]}", place[2:]
    if place:
        where += ", " + ".".join(map(str, place))
    return ParseError(f"{where}: key {key!r} is repeated")
