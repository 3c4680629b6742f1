"""Content-keyed memo of the offline design's pure stages.

A memoized function's key reads its arguments recursively: an array gives
its shape, dtype and bytes, a dataclass its type and fields, a tuple or list
its items, and a scalar its type and value (a float its hex digits, so that
0.0 and -0.0 differ).  Byte-identical arguments return the one result first
computed for them; its arrays are set read-only, so an in-place write raises
instead of changing what later callers get.  A call that raises stores
nothing, an argument of any other type bypasses the memo, and each function
keeps its SIZE most recently used results.  Module constants the function
reads (``plant.HALF_WIDTHS``, say) count as part of its code, not its key.
"""

import functools

import numpy as np

SIZE = 8

_memos = []


class _Unkeyed(TypeError):
    """An argument whose content the key cannot read."""


def _key(a):
    if isinstance(a, np.ndarray) and not a.dtype.hasobject:
        return a.shape, a.dtype.str, a.tobytes()
    if isinstance(a, float):
        return type(a), a.hex()
    if a is None or isinstance(a, (bool, int, str)):
        return type(a), a
    if isinstance(a, (tuple, list)):
        return (type(a),) + tuple(map(_key, a))
    names = getattr(type(a), "__dataclass_fields__", None)
    if names is None:
        raise _Unkeyed(type(a).__name__)
    return (type(a),) + tuple(_key(getattr(a, n)) for n in names)


def _freeze(result):
    if isinstance(result, np.ndarray):
        result.flags.writeable = False
    elif hasattr(type(result), "__dataclass_fields__"):
        for name in type(result).__dataclass_fields__:
            _freeze(getattr(result, name))
    return result


def memoized(fn):
    """``fn`` with a bounded memo keyed by its arguments' content."""
    memo = {}
    _memos.append(memo)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            key = _key((args, sorted(kwargs.items())))
        except _Unkeyed:
            return fn(*args, **kwargs)
        if key in memo:
            memo[key] = result = memo.pop(key)  # now the most recent
            return result
        result = memo[key] = _freeze(fn(*args, **kwargs))
        if len(memo) > SIZE:
            del memo[next(iter(memo))]
        return result

    return wrapper


def clear():
    """Empty every memo."""
    for memo in _memos:
        memo.clear()
