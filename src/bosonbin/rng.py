"""Random-number policy: counter-based Philox generators, split by index.

Every stochastic operation in the package takes an explicit
``numpy.random.Generator``. Generators are always built here so the whole
package draws from one seedable, splittable family and results never depend
on global state or on thread scheduling.
"""
from __future__ import annotations

import threading
from typing import Any, Callable, TypeVar

import numpy as np

T = TypeVar("T")


def generator(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Build the package-wide generator (Philox) from a seed.

    Args:
        seed: nonnegative integer or an existing ``SeedSequence``.

    Returns:
        A ``numpy.random.Generator`` backed by the Philox bit generator.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    _check_int("seed", seed, 0)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def split(seed: int, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from one master seed.

    Children are spawned through ``SeedSequence`` so child ``i`` depends only
    on ``(seed, i)``; work distributed over threads stays reproducible as
    long as results are written back by index.
    """
    _check_int("seed", seed, 0)
    _check_int("count", count, 0)
    children = np.random.SeedSequence(int(seed)).spawn(count)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


# The types that fit an example of each type, and their names: a bool fits
# only a bool, a numpy integer fits an int, and an int fits a float.
_KINDS = {bool: bool, int: (int, np.integer), float: (int, float, np.integer), str: str, dict: dict}
_NOUNS = {bool: "true or false", int: "integer", float: "number", str: "string", dict: "JSON object"}


def _fits(value: Any, example: Any) -> bool:
    """Whether a value has its example's type (`_KINDS`); for a tuple, a
    list or tuple whose items fit its first item."""
    if isinstance(example, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, example[0]) for v in value)
    return isinstance(value, _KINDS[type(example)]) and isinstance(value, bool) == isinstance(example, bool)


def _kind(example: Any, plural: bool = False) -> str:
    """The type _fits asks for, in words: "an integer", "a list of lists of integers"."""
    if isinstance(example, tuple):
        noun = "list" + "s" * plural + " of " + _kind(example[0], True)
    else:
        noun = _NOUNS[type(example)] + "s" * plural
    return noun if plural or type(example) is bool else ("an " if noun[0] in "aeiou" else "a ") + noun


def _check(key: str, value: Any, example: Any, least: int | None = None) -> None:
    """Refuse, by key, a value that does not fit its example or is below least;
    the message cuts the value's repr to 100 characters (a unitary's entries)."""
    if not _fits(value, example) or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{key} must be {_kind(example)}{bound}, got {value!r:.100}")


def _check_int(key: str, value: Any, least: int) -> None:
    """Refuse a count, seed or limit that is not an integer >= least."""
    _check(key, value, 0, least)


def _check_fields(data: dict, fields: dict[str, tuple[Any, int | None, bool | None]], prefix: str = "") -> None:
    """Check a JSON object's fields against a key -> (example, least, required)
    table, naming a refused field by its dotted key (prefix + key). A
    required (True) key must be given; an optional (False) one may be
    missing, and a None one may also be null."""
    for key, (example, least, required) in fields.items():
        if key not in data:
            if required:
                raise ValueError(f"{prefix}{key} must be given")
        elif data[key] is not None or required is not None:
            _check(prefix + key, data[key], example, least)


def _thread_map(fn: Callable[[int], T], count: int, threads: int) -> list[T]:
    """[fn(0), ..., fn(count - 1)], run on up to `threads` threads; slots
    are filled by index, so thread scheduling cannot reorder anything
    observable. If calls raise, the exception of the lowest failing index
    is raised once the started calls have ended; no index is started after
    a failure is seen (every unclaimed index is above the failed one).

    Plain threads, not concurrent.futures: importing that (with logging
    and queue) would lengthen every CLI process's start (README, CLI)."""
    if threads <= 1:
        return [fn(i) for i in range(count)]
    results: list[Any] = [None] * count
    errors: dict[int, BaseException] = {}
    indices = iter(range(count))  # each next() is one atomic claim

    def worker() -> None:
        while not errors and (i := next(indices, count)) < count:
            try:
                results[i] = fn(i)
            except BaseException as exc:  # raised again below, in the caller's thread
                errors[i] = exc

    pool = [threading.Thread(target=worker) for _ in range(min(threads, count))]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    if errors:
        raise errors[min(errors)]
    return results
