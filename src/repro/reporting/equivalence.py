"""Backend-equivalence comparison of analysis payloads.

The ``numpy`` and ``python`` backends must produce byte-identical results:
every deterministic field of a serialized :class:`~repro.core.results.ModelResult`
or batch payload — miss counts, per-access breakdowns, piece statistics,
work units, cache counters — has to match exactly.  The only fields allowed
to differ are wall-clock measurements (``*_seconds``) and the ratio fields
derived from them (``speedup``, ``sweep_ratio``, ``normalized_wall``),
which depend on the machine, not on the computation.

:func:`normalize` strips exactly those volatile fields; :func:`diff_payloads`
reports every remaining difference with its JSON path.  The oracle tests
(``tests/test_backend_equivalence.py``) use them to hold the NumPy engines
against the pure-Python reference on every registered kernel.
"""

from __future__ import annotations

from typing import List

__all__ = ["diff_payloads", "normalize", "payloads_equal"]

#: Keys whose values are wall-clock measurements and therefore differ run to
#: run; everything else must be byte-identical across backends.
_VOLATILE_SUFFIX = "_seconds"

#: Machine-dependent ratios *derived from* wall-clock fields (the bench
#: report's numpy-vs-python ``speedup``, the curve workload's
#: ``sweep_ratio``, calibration-normalized ``normalized_wall``): stripping
#: only the raw ``*_seconds`` inputs would leave these to spuriously fail
#: cross-run diffs of bench/trace payloads.
_VOLATILE_KEYS = frozenset({"speedup", "sweep_ratio", "normalized_wall"})


def _is_volatile_key(key) -> bool:
    return isinstance(key, str) and (key.endswith(_VOLATILE_SUFFIX) or key in _VOLATILE_KEYS)


def normalize(value):
    """Recursively drop wall-clock-dependent fields from a JSON payload.

    Every dictionary key ending in ``_seconds`` (``elapsed_seconds``,
    ``stack_distance_seconds``, ``wall_seconds``, ...) is removed, as are
    the ratio fields derived from them (see ``_VOLATILE_KEYS``); all other
    structure and values are preserved untouched.
    """
    if isinstance(value, dict):
        return {
            key: normalize(entry)
            for key, entry in value.items()
            if not _is_volatile_key(key)
        }
    if isinstance(value, list):
        return [normalize(entry) for entry in value]
    return value


def diff_payloads(left, right, path: str = "$") -> List[str]:
    """All differences between two normalized payloads, as JSON-path strings."""
    if isinstance(left, dict) and isinstance(right, dict):
        differences: List[str] = []
        for key in sorted(set(left) | set(right)):
            if key not in left:
                differences.append(f"{path}.{key}: only in right")
            elif key not in right:
                differences.append(f"{path}.{key}: only in left")
            else:
                differences.extend(diff_payloads(left[key], right[key], f"{path}.{key}"))
        return differences
    if isinstance(left, list) and isinstance(right, list):
        if len(left) != len(right):
            return [f"{path}: list length {len(left)} != {len(right)}"]
        differences = []
        for index, (a, b) in enumerate(zip(left, right)):
            differences.extend(diff_payloads(a, b, f"{path}[{index}]"))
        return differences
    if left != right:
        return [f"{path}: {left!r} != {right!r}"]
    return []


def payloads_equal(left, right) -> bool:
    """True when the payloads agree on every deterministic field."""
    return not diff_payloads(normalize(left), normalize(right))
