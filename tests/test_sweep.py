"""The shared sweep parser: sizes, ranges, axes — and the no-fork grep gate."""

import re
from pathlib import Path

import pytest

from repro.sweep import (
    DEFAULT_SWEEP_POINTS,
    Sweep,
    SweepError,
    expand_range,
    log_spaced,
    parse_size,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4096", 4096),
            ("32K", 32 * 1024),
            ("32k", 32 * 1024),
            ("1M", 1024**2),
            ("2G", 2 * 1024**3),
            ("1MiB", 1024**2),
            ("8KB", 8 * 1024),
            (" 64 ", 64),
        ],
    )
    def test_accepted_spellings(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "x", "12Q", "K", "-64", "1.5K", "3:4"])
    def test_rejected_spellings(self, text):
        with pytest.raises(SweepError):
            parse_size(text)

    def test_zero_is_rejected(self):
        with pytest.raises(SweepError, match="positive"):
            parse_size("0K")
        with pytest.raises(SweepError, match=r"^--associativities must be positive, got '0'$"):
            parse_size("0", label="--associativities")

    def test_error_names_the_axis(self):
        with pytest.raises(SweepError, match="line size"):
            parse_size("bogus", label="line size")


class TestLogSpaced:
    def test_formula_contract(self):
        # The rounding recipe is load-bearing: bench baselines and the
        # explore table digest depend on these exact values.
        ratio = 4096.0
        expected = sorted({round(64 * ratio ** (i / 15)) for i in range(16)})
        assert log_spaced(64, 64 * 4096, 16) == expected

    def test_endpoints_present_and_sorted(self):
        values = log_spaced(64, 4096, 8)
        assert values[0] == 64 and values[-1] == 4096
        assert values == sorted(set(values))

    def test_close_bounds_deduplicate(self):
        assert log_spaced(2, 4, 16) == [2, 3, 4]

    def test_degenerate_specs_rejected(self):
        with pytest.raises(SweepError):
            log_spaced(64, 4096, 1)
        with pytest.raises(SweepError):
            log_spaced(4096, 64, 8)


class TestExpandRange:
    def test_default_point_count(self):
        values = expand_range("64:16K")
        assert values[0] == 64 and values[-1] == 16 * 1024
        assert len(values) <= DEFAULT_SWEEP_POINTS

    def test_explicit_points_and_suffixes(self):
        assert expand_range("1K:8K:4") == [1024, 2048, 4096, 8192]

    @pytest.mark.parametrize("spec", ["64", "a:b", "64:1K:x", "64:1K:1", "1K:64", "1:2:3:4"])
    def test_malformed_ranges_rejected(self, spec):
        with pytest.raises(SweepError):
            expand_range(spec)


class TestSweep:
    def test_none_is_the_empty_axis(self):
        axis = Sweep.parse(None)
        assert not axis and len(axis) == 0 and list(axis) == []

    def test_csv_mixing_sizes_and_ranges(self):
        axis = Sweep.parse("64,1K:8K:4,32")
        assert axis.values == (32, 64, 1024, 2048, 4096, 8192)

    def test_single_int_and_iterables(self):
        assert Sweep.parse(4096).values == (4096,)
        assert Sweep.parse([64, "32K", range(1, 4)]).values == (1, 2, 3, 64, 32 * 1024)

    def test_existing_sweep_passes_through(self):
        axis = Sweep.parse("1K,2K")
        assert Sweep.parse(axis) is axis

    def test_duplicates_collapse_sorted(self):
        assert Sweep.parse(["2K", 1024, "1K:2K:2"]).values == (1024, 2048)

    def test_booleans_rejected(self):
        with pytest.raises(SweepError, match="ints or size strings"):
            Sweep.parse([True])

    def test_floats_rejected(self):
        with pytest.raises(SweepError):
            Sweep.parse([1.5])

    def test_nonpositive_rejected(self):
        with pytest.raises(SweepError, match="positive"):
            Sweep.parse([0])

    def test_union(self):
        merged = Sweep.parse("64").union(Sweep.parse("32,64"))
        assert merged.values == (32, 64)


class TestNoForkedParsers:
    """Grep gates: the sweep grammar must never grow a second implementation.

    ``repro.sweep`` is the single owner of the size-suffix regex and the
    log-spacing formula.  A copy anywhere else in ``src/repro`` would let
    the CLI, API, server, and bench grammars drift apart — exactly the bug
    class the shared parser exists to kill.
    """

    def _offending_files(self, needle: str):
        hits = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            if path.name == "sweep.py":
                continue
            if re.search(needle, path.read_text(encoding="utf-8")):
                hits.append(str(path.relative_to(SRC_ROOT)))
        return hits

    def test_size_suffix_regex_has_one_home(self):
        assert self._offending_files(r"\(K\|M\|G\)") == []

    def test_log_spacing_formula_has_one_home(self):
        assert self._offending_files(r"ratio\s*\*\*") == []

    def test_min_max_splitting_has_one_home(self):
        # Splitting a spec on ":" is how a hand-rolled MIN:MAX parser starts.
        assert self._offending_files(r"""\.split\(["']:["']\)""") == []
