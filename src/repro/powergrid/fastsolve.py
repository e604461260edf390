"""Runtime-compiled multi-RHS sparse LU triangular-solve kernel.

SuperLU's ``solve`` walks the L/U factors once **per right-hand side**:
the traversal of the sparse factor structure — pointer-chasing through
column pointers and row indices — is paid ``B`` times for a ``(n, B)``
solve, and it is the dominant cost of lockstep multi-benchmark
transient integration (see :mod:`repro.powergrid.transient`).

This module binds a small C kernel — compiled once per machine and
cached on disk by :mod:`repro.utils.ckernel` — that walks each factor
**once** and applies every update to all ``B`` right-hand sides in an
inner loop over contiguous memory, which the compiler auto-vectorizes.  On the mesh matrices this repo produces,
it solves a 19-wide batch 5-10x faster than ``SuperLU.solve``.

Bit-exactness property
----------------------

For a fixed factorization, the kernel performs the *same* sequence of
floating-point operations on column ``b`` of the right-hand side
regardless of the batch width ``B`` (the batch dimension is the inner
loop).  Solving ``(n,)``, ``(n, 1)`` or column ``b`` of ``(n, B)``
therefore produces bit-identical results — unlike SuperLU, whose
blocked multi-RHS path differs from its single-RHS path by ~1 ulp and
depends on the batch composition.  The transient solver routes both
entry points (single-load ``simulate`` and lockstep ``simulate_many``)
through one kernel instance, so their outputs are bit-identical.

The kernel requires a factorization computed **without equilibration**
(``options={"Equil": False}``) so that ``A[inv_pr][:, inv_pc] = L @ U``
holds exactly; :func:`build_lu_kernel` returns ``None`` (callers fall
back to ``SuperLU.solve``) when no C compiler is available, compilation
fails, the environment sets ``REPRO_DISABLE_CKERNEL``, or a self-check
against ``SuperLU.solve`` deviates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.ckernel import get_lib

__all__ = ["LUKernel", "build_lu_kernel"]


class LUKernel:
    """Compiled multi-RHS solver bound to one SuperLU factorization."""

    def __init__(self, lu, ffi, lib) -> None:
        self.n = lu.shape[0]
        self._ffi = ffi
        self._lib = lib
        L = lu.L.tocsc(copy=True)
        U = lu.U.tocsc(copy=True)
        L.sort_indices()
        U.sort_indices()
        # Keep numpy arrays alive for the lifetime of the kernel; the
        # cffi pointers below borrow their buffers.
        self._arrays = (
            np.ascontiguousarray(L.indptr, dtype=np.int32),
            np.ascontiguousarray(L.indices, dtype=np.int32),
            np.ascontiguousarray(L.data, dtype=np.float64),
            np.ascontiguousarray(U.indptr, dtype=np.int32),
            np.ascontiguousarray(U.indices, dtype=np.int32),
            np.ascontiguousarray(U.data, dtype=np.float64),
            np.ascontiguousarray(np.argsort(lu.perm_r), dtype=np.int32),
            np.ascontiguousarray(lu.perm_c, dtype=np.int32),
        )
        cast = ffi.cast
        from_buffer = ffi.from_buffer
        self._ptrs = tuple(
            cast("const int *" if a.dtype == np.int32 else "const double *",
                 from_buffer(a))
            for a in self._arrays
        )
        # Forward row permutation, needed by the fused stepper to land
        # pad injections on the permuted right-hand side rows.
        self._pr_array = np.ascontiguousarray(lu.perm_r, dtype=np.int32)
        self._pr_ptr = cast("const int *", from_buffer(self._pr_array))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for ``(n,)`` or ``(n, B)`` right-hand sides.

        Column ``b`` of a batched solve is bit-identical to solving
        that column alone (see the module docstring).
        """
        squeeze = rhs.ndim == 1
        b = np.ascontiguousarray(
            rhs.reshape(self.n, -1) if squeeze else rhs, dtype=np.float64
        )
        n_rhs = b.shape[1]
        x = np.empty_like(b)
        work = np.empty_like(b)
        ffi = self._ffi
        self._lib.lu_solve_many(
            self.n,
            n_rhs,
            *self._ptrs,
            ffi.cast("const double *", ffi.from_buffer(b)),
            ffi.cast("double *", ffi.from_buffer(x)),
            ffi.cast("double *", ffi.from_buffer(work)),
        )
        return x[:, 0] if squeeze else x

    def make_stepper(
        self,
        cap_over_h: np.ndarray,
        pad_nodes: np.ndarray,
        pad_g: np.ndarray,
        pad_gl: np.ndarray,
        pad_g_vdd: np.ndarray,
        vdd: float,
        v0: np.ndarray,
        pad_i0: np.ndarray,
    ) -> "BEStepper":
        """Bind a fused backward-Euler stepper to this factorization.

        ``v0`` is ``(n, B)`` and ``pad_i0`` is ``(n_pads, B)``; both are
        copied into internal buffers.  ``pad_nodes`` must be unique
        (one injection per row); the transient solver rejects a grid
        whose pads share a node.
        """
        return BEStepper(
            self, cap_over_h, pad_nodes, pad_g, pad_gl, pad_g_vdd,
            vdd, v0, pad_i0,
        )


class BEStepper:
    """Fused multi-RHS backward-Euler stepping in one C call per step.

    Holds double-buffered voltage state, the pad branch currents and
    the solver work buffer; :meth:`step` advances every right-hand side
    by one timestep.  Each arithmetic expression in the C step matches
    the numpy reference path operation for operation, so a fused step
    is bit-identical to the unfused build-rhs / solve / update-pads
    sequence.
    """

    def __init__(
        self, kernel, cap_over_h, pad_nodes, pad_g, pad_gl,
        pad_g_vdd, vdd, v0, pad_i0,
    ) -> None:
        ffi = kernel._ffi
        self._lib = kernel._lib
        self._ffi = ffi
        self.n, self.n_rhs = v0.shape
        self._vdd = float(vdd)
        n_pads = int(np.asarray(pad_nodes).shape[0])
        statics = (
            np.ascontiguousarray(cap_over_h, dtype=np.float64).reshape(-1),
            np.ascontiguousarray(pad_nodes, dtype=np.int32),
            np.ascontiguousarray(pad_g, dtype=np.float64).reshape(-1),
            np.ascontiguousarray(pad_gl, dtype=np.float64).reshape(-1),
            np.ascontiguousarray(pad_g_vdd, dtype=np.float64).reshape(-1),
        )
        self._v = [
            np.ascontiguousarray(v0, dtype=np.float64),
            np.empty((self.n, self.n_rhs), dtype=np.float64),
        ]
        self._pad_i = np.ascontiguousarray(pad_i0, dtype=np.float64)
        self._work = np.empty((self.n, self.n_rhs), dtype=np.float64)
        # Keep every bound array alive; the cffi pointers borrow them.
        self._keepalive = statics
        cast = ffi.cast
        from_buffer = ffi.from_buffer
        cap_a, pads_a, g_a, gl_a, gvdd_a = statics
        self._pre = kernel._ptrs + (
            kernel._pr_ptr,
            cast("const double *", from_buffer(cap_a)),
        )
        self._pad_args = (
            cast("const int *", from_buffer(pads_a)),
            n_pads,
            cast("const double *", from_buffer(g_a)),
            cast("const double *", from_buffer(gl_a)),
            cast("const double *", from_buffer(gvdd_a)),
            self._vdd,
        )
        self._v_ptrs = [
            cast("const double *", from_buffer(self._v[0])),
            cast("const double *", from_buffer(self._v[1])),
        ]
        self._v_out_ptrs = [
            cast("double *", from_buffer(self._v[0])),
            cast("double *", from_buffer(self._v[1])),
        ]
        self._pad_i_ptr = cast("double *", from_buffer(self._pad_i))
        self._work_ptr = cast("double *", from_buffer(self._work))
        self._cur = 0

    @property
    def v(self) -> np.ndarray:
        """Current ``(n, B)`` voltage state (the live double buffer)."""
        return self._v[self._cur]

    def load_pointer(self, array: np.ndarray):
        """A cffi ``const double *`` into a C-contiguous float64 array.

        Offset the returned pointer with ``+ k`` (element arithmetic)
        to address per-step load slabs inside a chunk buffer.
        """
        return self._ffi.cast(
            "const double *", self._ffi.from_buffer(array)
        )

    def step(self, load_ptr, load_row_stride: int) -> np.ndarray:
        """Advance one timestep; returns the new voltage state view."""
        cur = self._cur
        nxt = cur ^ 1
        self._lib.be_step_many(
            self.n, self.n_rhs,
            *self._pre,
            self._v_ptrs[cur],
            load_ptr, load_row_stride,
            *self._pad_args,
            self._pad_i_ptr,
            self._v_out_ptrs[nxt],
            self._work_ptr,
        )
        self._cur = nxt
        return self._v[nxt]


def build_lu_kernel(lu) -> Optional[LUKernel]:
    """Build a compiled kernel for ``lu``, or ``None`` to fall back.

    ``lu`` must come from ``splu(..., options={"Equil": False})`` —
    with equilibration the row/column scalings are not exposed and the
    factors alone cannot reproduce the solve.  A self-check against
    ``lu.solve`` rejects the kernel (returning ``None``) if results
    deviate beyond accumulated-roundoff tolerance.
    """
    handle = get_lib()
    if handle is None:
        return None
    ffi, lib = handle
    try:
        kernel = LUKernel(lu, ffi, lib)
    except (ValueError, MemoryError):
        return None
    n = lu.shape[0]
    rng = np.random.default_rng(0)
    probe = rng.standard_normal(n)
    reference = lu.solve(probe)
    candidate = kernel.solve(probe)
    scale = max(float(np.max(np.abs(reference))), 1e-300)
    if not np.all(np.isfinite(candidate)):
        return None
    if float(np.max(np.abs(candidate - reference))) > 1e-9 * scale:
        return None
    return kernel
