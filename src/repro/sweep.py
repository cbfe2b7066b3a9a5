"""The one sweep-spec parser: byte sizes, ``MIN:MAX[:POINTS]`` ranges, axes.

Every surface that accepts a sweep — ``repro-haystack curve --sweep``,
``repro-haystack explore``, :meth:`repro.api.Session.sweep`, the server's
``capacities`` field, the design-space axes of :mod:`repro.explore`, and the
bench harness's grid builders — parses through this module.  There is
deliberately no second implementation: a grep gate in ``tests/test_sweep.py``
fails if the size regex or the log-spacing formula reappears anywhere else,
so the accepted syntax can never fork between the CLI, the API, and the
server.

Three layers, smallest first:

* :func:`parse_size` — one byte size: ``4096``, ``32K``, ``1MiB``;
* :func:`expand_range` — a log-spaced ``MIN:MAX[:POINTS]`` range;
* :class:`Sweep` — a whole axis from any spelling: a range string, a CSV
  string mixing sizes and ranges, an int, or an iterable of any of those.

All values are plain positive ints; validation failures raise
:class:`SweepError` (a ``ValueError``) with a message that names the axis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

__all__ = [
    "DEFAULT_SWEEP_POINTS",
    "Sweep",
    "SweepError",
    "expand_range",
    "log_spaced",
    "parse_size",
]

#: Default number of points when a ``MIN:MAX`` range omits the count.
DEFAULT_SWEEP_POINTS = 16

#: Byte sizes accept power-of-two suffixes: ``4096``, ``32K``, ``1MiB``, ...
_SIZE_PATTERN = re.compile(r"^(\d+)\s*(K|M|G)?(I?B)?$")
_SIZE_SCALES = {"": 1, "K": 1024, "M": 1024**2, "G": 1024**3}

#: Spec value a :class:`Sweep` accepts: range/CSV string, int, or iterable.
SweepSpec = Union[str, int, Iterable[Union[str, int]], "Sweep", None]


class SweepError(ValueError):
    """A sweep spec that cannot be parsed or validated."""


def parse_size(text: str, *, label: str = "size") -> int:
    """Parse one byte size like ``4096``, ``32K``, or ``1MiB``."""
    match = _SIZE_PATTERN.match(text.strip().upper())
    if not match:
        raise SweepError(f"cannot parse {label} {text!r} (use bytes or K/M/G suffixes)")
    value = int(match.group(1))
    if value <= 0:
        raise SweepError(f"{label} must be positive, got {text!r}")
    return value * _SIZE_SCALES[match.group(2) or ""]


def log_spaced(low: int, high: int, points: int) -> List[int]:
    """``points`` log-spaced integers from ``low`` to ``high``, deduplicated.

    The exact rounding recipe is part of the output contract: baselines and
    byte-identity gates depend on it, so both endpoints are always present
    and every intermediate value is ``round(low * ratio ** (i / (points-1)))``.
    """
    if points < 2:
        raise SweepError(f"a sweep needs at least 2 points, got {points}")
    if high <= low:
        raise SweepError(f"sweep MAX must exceed MIN, got {low}:{high}")
    ratio = high / low
    sizes = {round(low * ratio ** (index / (points - 1))) for index in range(points)}
    return sorted(sizes)


def expand_range(
    spec: str, *, default_points: int = DEFAULT_SWEEP_POINTS, label: str = "sweep"
) -> List[int]:
    """Expand ``MIN:MAX[:POINTS]`` into a log-spaced list of byte sizes."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise SweepError(f"{label} takes MIN:MAX[:POINTS], got {spec!r}")
    low = parse_size(parts[0], label=label)
    high = parse_size(parts[1], label=label)
    points = default_points
    if len(parts) == 3:
        try:
            points = int(parts[2])
        except ValueError:
            raise SweepError(
                f"{label} point count must be an integer, got {parts[2]!r}"
            ) from None
    if points < 2:
        raise SweepError(f"{label} needs at least 2 points, got {points}")
    if high <= low:
        raise SweepError(f"{label} MAX must exceed MIN, got {spec!r}")
    return log_spaced(low, high, points)


def _parse_fragment(fragment: str, *, default_points: int, label: str) -> List[int]:
    """One comma-separated fragment: a single size or a ``MIN:MAX`` range."""
    if ":" in fragment:
        return expand_range(fragment, default_points=default_points, label=label)
    return [parse_size(fragment, label=label)]


@dataclass(frozen=True)
class Sweep:
    """One immutable sweep axis: sorted, deduplicated, positive ints.

    Build with :meth:`parse`, which accepts every spelling the project's
    surfaces use::

        Sweep.parse("64:16K:12")            # log-spaced range
        Sweep.parse("1K,32K,1M")            # CSV of sizes
        Sweep.parse("64,1K:8K:4")           # CSV mixing sizes and ranges
        Sweep.parse(4096)                   # single value
        Sweep.parse([64, "32K", range(1, 4)])  # iterable, nested ranges ok
    """

    values: Tuple[int, ...]

    @classmethod
    def parse(
        cls,
        spec: SweepSpec,
        *,
        default_points: int = DEFAULT_SWEEP_POINTS,
        label: str = "sweep",
    ) -> "Sweep":
        """Parse any supported spelling into a sweep axis.

        ``None`` parses to the empty axis so optional config plumbs through
        unconditionally.  Booleans are rejected (``True`` is not capacity 1).
        """
        if spec is None:
            return cls(())
        if isinstance(spec, Sweep):
            return spec
        collected: List[int] = []
        for item in _iter_spec(spec):
            if isinstance(item, str):
                for fragment in item.split(","):
                    if fragment.strip():
                        collected.extend(
                            _parse_fragment(
                                fragment, default_points=default_points, label=label
                            )
                        )
            else:
                if isinstance(item, bool) or not isinstance(item, int):
                    try:
                        item = _coerce_int(item)
                    except TypeError:
                        raise SweepError(
                            f"{label} values must be ints or size strings, got {item!r}"
                        ) from None
                if item <= 0:
                    raise SweepError(f"{label} values must be positive, got {item}")
                collected.append(item)
        return cls(tuple(sorted(set(collected))))

    def union(self, other: "Sweep") -> "Sweep":
        return Sweep(tuple(sorted(set(self.values) | set(other.values))))

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __bool__(self) -> bool:
        return bool(self.values)


def _iter_spec(spec: Union[str, int, Iterable]) -> Iterable:
    """Yield the scalar items of a spec: strings stay whole, iterables flatten."""
    if isinstance(spec, (str, int)):
        yield spec
        return
    if isinstance(spec, Sequence) or isinstance(spec, (range, set, frozenset, tuple)):
        for item in spec:
            if isinstance(item, (tuple, list, range, set, frozenset)):
                yield from item
            else:
                yield item
        return
    try:
        iterator = iter(spec)
    except TypeError:
        yield spec
        return
    for item in iterator:
        if isinstance(item, (tuple, list, range, set, frozenset)):
            yield from item
        else:
            yield item


def _coerce_int(value) -> int:
    """``operator.index`` semantics: int-likes pass, bools and floats do not."""
    import operator

    if isinstance(value, bool):
        raise TypeError(f"booleans are not sweep values: {value!r}")
    return operator.index(value)
