#!/usr/bin/env python
"""Tile-size selection with the design-space explorer.

The paper motivates HayStack as a tool for memory-hierarchy aware software
development: "selecting the optimal tile size ... is far less intuitive".
This example considers a kernel that sweeps repeatedly over an array that is
larger than the cache.  Blocking (tiling) the sweep keeps a tile resident
across the repeated passes — but only if the tile fits the cache.  The model
ranks the candidate tile sizes without executing the program.

The whole candidate grid runs through ``Session.explore`` — one call that
tiles the kernel per candidate, analyzes each variant once, and returns the
configurations ranked by predicted misses (``docs/EXPLORE.md`` documents the
output anatomy).  Tile 1 is the untiled baseline.

Run with:  python examples/tile_size_selection.py
(The tiled variants take a few minutes each on the pure-Python polyhedral
substrate; set REPRO_EXAMPLE_FAST=1 for a seconds-scale variant used by CI.)
"""

import os

from repro.api import Session
from repro.scop import ScopBuilder

CACHE_LINES = 8


def build_repeated_sweep(n: int, passes: int) -> "Scop":
    """s += A[i] repeated ``passes`` times over an array of n lines."""
    b = ScopBuilder("sweep", context={"N": n, "T": passes}, element_size=64)
    A = b.array("A", (n,))
    s = b.array("s", (1,))
    with b.loop("t", 0, passes):
        with b.loop("i", 0, n):
            b.stmt(reads=[A[b.v("i")], s[0]], writes=[s[0]])
    return b.build()


def main() -> None:
    fast = os.environ.get("REPRO_EXAMPLE_FAST", "") not in ("", "0")
    n, passes = (16, 2) if fast else (32, 4)
    tiles = (1, 4, 8, 16) if fast else (1, 4, 8, 16, 32)
    # Fast mode budgets the symbolic pipeline: the tiled variants trip it and
    # degrade to the exact trace fallback, so CI sees the same ranking in
    # seconds instead of minutes.
    budget = 2_000 if fast else None

    scop = build_repeated_sweep(n, passes)
    session = Session().machine((CACHE_LINES * 64,)).budget(budget)
    result = session.explore(scop, tiles=tiles, capacities=[CACHE_LINES * 64])

    print(f"Repeated sweep over {n} cache lines ({passes} passes), "
          f"{CACHE_LINES}-line fully associative L1:\n")
    print(f"{'variant':<10} {'L1 misses':>10} {'hits':>8} {'miss ratio':>11}")
    for config in sorted(result.configs, key=lambda c: c.tile):
        name = "untiled" if config.tile == 1 else f"tile {config.tile}"
        hits = config.accesses - config.misses
        print(f"{name:<10} {config.misses:>10} {hits:>8} {config.miss_ratio:>10.1%}")

    best = result.best()
    name = "untiled" if best.tile == 1 else f"tile {best.tile}"
    print(f"\nBest variant according to the model: {name}")
    print(f"({result.analyses} analyses for {len(result.configs)} configurations, "
          f"{result.elapsed_seconds:.1f}s)")
    print("Tiles that fit the cache are reused across the passes; the largest")
    print("tile no longer fits and behaves like the untiled sweep.")


if __name__ == "__main__":
    main()
