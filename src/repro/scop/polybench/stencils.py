"""PolyBench 4.2.1 stencil kernels.

adi, fdtd-2d, heat-3d, jacobi-1d, jacobi-2d and seidel-2d.  Stencils access
neighbouring elements (``i-1``, ``i+1``) which exercises the offset handling
of the cache-line mapping.
"""

from __future__ import annotations

from typing import Dict

from ..builder import ScopBuilder
from ..scop import Scop

__all__ = ["adi", "fdtd_2d", "heat_3d", "jacobi_1d", "jacobi_2d", "seidel_2d"]


def jacobi_1d(sizes: Dict[str, int]) -> Scop:
    n, tsteps = sizes["N"], sizes["TSTEPS"]
    b = ScopBuilder("jacobi-1d", context={"N": n, "TSTEPS": tsteps})
    A = b.array("A", (n,))
    B = b.array("B", (n,))
    with b.loop("t", 0, tsteps):
        with b.loop("i", 1, n - 1):
            b.stmt(reads=[A[b.v("i") - 1], A[b.v("i")], A[b.v("i") + 1]], writes=[B[b.v("i")]])
        with b.loop("i2", 1, n - 1):
            b.stmt(reads=[B[b.v("i2") - 1], B[b.v("i2")], B[b.v("i2") + 1]], writes=[A[b.v("i2")]])
    return b.build()


def jacobi_2d(sizes: Dict[str, int]) -> Scop:
    n, tsteps = sizes["N"], sizes["TSTEPS"]
    b = ScopBuilder("jacobi-2d", context={"N": n, "TSTEPS": tsteps})
    A = b.array("A", (n, n))
    B = b.array("B", (n, n))
    with b.loop("t", 0, tsteps):
        with b.loop("i", 1, n - 1):
            with b.loop("j", 1, n - 1):
                b.stmt(
                    reads=[
                        A[b.v("i"), b.v("j")],
                        A[b.v("i"), b.v("j") - 1],
                        A[b.v("i"), b.v("j") + 1],
                        A[b.v("i") + 1, b.v("j")],
                        A[b.v("i") - 1, b.v("j")],
                    ],
                    writes=[B[b.v("i"), b.v("j")]],
                )
        with b.loop("i2", 1, n - 1):
            with b.loop("j2", 1, n - 1):
                b.stmt(
                    reads=[
                        B[b.v("i2"), b.v("j2")],
                        B[b.v("i2"), b.v("j2") - 1],
                        B[b.v("i2"), b.v("j2") + 1],
                        B[b.v("i2") + 1, b.v("j2")],
                        B[b.v("i2") - 1, b.v("j2")],
                    ],
                    writes=[A[b.v("i2"), b.v("j2")]],
                )
    return b.build()


def heat_3d(sizes: Dict[str, int]) -> Scop:
    n, tsteps = max(sizes["N"] // 4, 6), sizes["TSTEPS"]
    b = ScopBuilder("heat-3d", context={"N": n, "TSTEPS": tsteps})
    A = b.array("A", (n, n, n))
    B = b.array("B", (n, n, n))
    def stencil(src, dst, t_suffix):
        with b.loop("i" + t_suffix, 1, n - 1):
            with b.loop("j" + t_suffix, 1, n - 1):
                with b.loop("k" + t_suffix, 1, n - 1):
                    i, j, k = b.v("i" + t_suffix), b.v("j" + t_suffix), b.v("k" + t_suffix)
                    b.stmt(
                        reads=[
                            src[i + 1, j, k],
                            src[i, j, k],
                            src[i - 1, j, k],
                            src[i, j + 1, k],
                            src[i, j - 1, k],
                            src[i, j, k + 1],
                            src[i, j, k - 1],
                        ],
                        writes=[dst[i, j, k]],
                    )

    with b.loop("t", 0, tsteps):
        stencil(A, B, "")
        stencil(B, A, "2")
    return b.build()


def fdtd_2d(sizes: Dict[str, int]) -> Scop:
    nx, ny, tmax = sizes["NX"], sizes["NY"], sizes["TMAX"]
    b = ScopBuilder("fdtd-2d", context={"NX": nx, "NY": ny, "TMAX": tmax})
    ex = b.array("ex", (nx, ny))
    ey = b.array("ey", (nx, ny))
    hz = b.array("hz", (nx, ny))
    fict = b.array("_fict_", (tmax,))
    with b.loop("t", 0, tmax):
        with b.loop("j", 0, ny):
            b.stmt(reads=[fict[b.v("t")]], writes=[ey[0, b.v("j")]])
        with b.loop("i", 1, nx):
            with b.loop("j2", 0, ny):
                b.stmt(
                    reads=[ey[b.v("i"), b.v("j2")], hz[b.v("i"), b.v("j2")], hz[b.v("i") - 1, b.v("j2")]],
                    writes=[ey[b.v("i"), b.v("j2")]],
                )
        with b.loop("i2", 0, nx):
            with b.loop("j3", 1, ny):
                b.stmt(
                    reads=[ex[b.v("i2"), b.v("j3")], hz[b.v("i2"), b.v("j3")], hz[b.v("i2"), b.v("j3") - 1]],
                    writes=[ex[b.v("i2"), b.v("j3")]],
                )
        with b.loop("i3", 0, nx - 1):
            with b.loop("j4", 0, ny - 1):
                b.stmt(
                    reads=[
                        hz[b.v("i3"), b.v("j4")],
                        ex[b.v("i3"), b.v("j4") + 1],
                        ex[b.v("i3"), b.v("j4")],
                        ey[b.v("i3") + 1, b.v("j4")],
                        ey[b.v("i3"), b.v("j4")],
                    ],
                    writes=[hz[b.v("i3"), b.v("j4")]],
                )
    return b.build()


def seidel_2d(sizes: Dict[str, int]) -> Scop:
    n, tsteps = sizes["N"], sizes["TSTEPS"]
    b = ScopBuilder("seidel-2d", context={"N": n, "TSTEPS": tsteps})
    A = b.array("A", (n, n))
    with b.loop("t", 0, tsteps):
        with b.loop("i", 1, n - 1):
            with b.loop("j", 1, n - 1):
                b.stmt(
                    reads=[
                        A[b.v("i") - 1, b.v("j") - 1],
                        A[b.v("i") - 1, b.v("j")],
                        A[b.v("i") - 1, b.v("j") + 1],
                        A[b.v("i"), b.v("j") - 1],
                        A[b.v("i"), b.v("j")],
                        A[b.v("i"), b.v("j") + 1],
                        A[b.v("i") + 1, b.v("j") - 1],
                        A[b.v("i") + 1, b.v("j")],
                        A[b.v("i") + 1, b.v("j") + 1],
                    ],
                    writes=[A[b.v("i"), b.v("j")]],
                )
    return b.build()


def adi(sizes: Dict[str, int]) -> Scop:
    """Alternating direction implicit solver (column and row sweeps)."""
    n, tsteps = sizes["N"], sizes["TSTEPS"]
    b = ScopBuilder("adi", context={"N": n, "TSTEPS": tsteps})
    u = b.array("u", (n, n))
    v = b.array("v", (n, n))
    p = b.array("p", (n, n))
    q = b.array("q", (n, n))
    with b.loop("t", 0, tsteps):
        # Column sweep.
        with b.loop("i", 1, n - 1):
            b.stmt(writes=[v[0, b.v("i")], p[b.v("i"), 0], q[b.v("i"), 0]])
            with b.loop("j", 1, n - 1):
                b.stmt(
                    reads=[
                        p[b.v("i"), b.v("j") - 1],
                        q[b.v("i"), b.v("j") - 1],
                        u[b.v("j"), b.v("i") - 1],
                        u[b.v("j"), b.v("i")],
                        u[b.v("j"), b.v("i") + 1],
                    ],
                    writes=[p[b.v("i"), b.v("j")], q[b.v("i"), b.v("j")]],
                )
            b.stmt(writes=[v[n - 1, b.v("i")]])
            with b.loop("j2", 1, n - 1):
                b.stmt(
                    reads=[p[b.v("i"), n - 1 - b.v("j2")], v[n - b.v("j2"), b.v("i")], q[b.v("i"), n - 1 - b.v("j2")]],
                    writes=[v[n - 1 - b.v("j2"), b.v("i")]],
                )
        # Row sweep.
        with b.loop("i2", 1, n - 1):
            b.stmt(writes=[u[b.v("i2"), 0], p[b.v("i2"), 0], q[b.v("i2"), 0]])
            with b.loop("j3", 1, n - 1):
                b.stmt(
                    reads=[
                        p[b.v("i2"), b.v("j3") - 1],
                        q[b.v("i2"), b.v("j3") - 1],
                        v[b.v("i2") - 1, b.v("j3")],
                        v[b.v("i2"), b.v("j3")],
                        v[b.v("i2") + 1, b.v("j3")],
                    ],
                    writes=[p[b.v("i2"), b.v("j3")], q[b.v("i2"), b.v("j3")]],
                )
            b.stmt(writes=[u[b.v("i2"), n - 1]])
            with b.loop("j4", 1, n - 1):
                b.stmt(
                    reads=[p[b.v("i2"), n - 1 - b.v("j4")], u[b.v("i2"), n - b.v("j4")], q[b.v("i2"), n - 1 - b.v("j4")]],
                    writes=[u[b.v("i2"), n - 1 - b.v("j4")]],
                )
    return b.build()
