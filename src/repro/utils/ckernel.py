"""Runtime-compiled C kernels: one source, one cached shared library.

The hot loops that numpy and scipy run with too much per-call overhead
live in one C translation unit, compiled once per machine (cached on
disk under a hash of the source) and loaded through cffi on first use:

* ``lu_solve_many`` and ``be_step_many`` — the multi-RHS sparse LU
  solve and the fused backward-Euler step behind
  :mod:`repro.powergrid.fastsolve`;
* ``gl_fista_step`` — one FISTA iteration of the group lasso after its
  BLAS product (:mod:`repro.core.group_lasso`), with
  ``gl_pairwise_sum``, the numpy summation order it relies on;
* ``ar1_inplace`` — the AR(1) recurrence of the activity synthesiser's
  fluctuation traces, all traces in one pass
  (:mod:`repro.workload.activity`).

Every kernel mirrors its numpy reference path operation for operation
and the library is compiled with ``-ffp-contract=off`` and without
fast-math, so no FMA contraction or reassociation can move a rounding:
kernel and reference return the same bits.

:func:`get_lib` returns ``None`` — callers then take their numpy or
scipy path — when the environment sets ``REPRO_DISABLE_CKERNEL``, cffi
or a C compiler is missing, or compilation fails.  Importing this
module does not import cffi or compile anything.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
import threading
from typing import Optional

__all__ = ["CACHE_ENV_VAR", "DISABLE_ENV_VAR", "get_lib", "kernel_cache_dir"]

#: Set (to anything non-empty) to force the numpy / scipy fallbacks.
DISABLE_ENV_VAR = "REPRO_DISABLE_CKERNEL"

#: Overrides the compiled-kernel cache directory.
CACHE_ENV_VAR = "REPRO_KERNEL_CACHE"

_KERNEL_SOURCE = r"""
#include <math.h>

/* Multi-RHS solve of  A x = b  given  A[ipr][:, ipc^-1] = L U  from a
 * SuperLU factorization without equilibration.
 *
 * Layout: b, x and the work buffer are row-major (n, nrhs); the inner
 * loops run over the contiguous nrhs dimension so they vectorize.
 * L is CSC with sorted indices and an explicit unit diagonal stored
 * first in each column; U is CSC with sorted indices, diagonal last.
 */
void lu_solve_many(
    int n, int nrhs,
    const int *Lp, const int *Li, const double *Lx,
    const int *Up, const int *Ui, const double *Ux,
    const int *ipr, const int *pc,
    const double *b, double *x, double *y)
{
    int j, k, t;
    /* scatter: y = b[ipr] */
    for (j = 0; j < n; ++j) {
        const double *src = b + (long)ipr[j] * nrhs;
        double *dst = y + (long)j * nrhs;
        for (t = 0; t < nrhs; ++t) dst[t] = src[t];
    }
    /* forward solve L y = y (unit diagonal, stored first) */
    for (j = 0; j < n; ++j) {
        const double *yj = y + (long)j * nrhs;
        for (k = Lp[j] + 1; k < Lp[j + 1]; ++k) {
            double lv = Lx[k];
            double *yi = y + (long)Li[k] * nrhs;
            for (t = 0; t < nrhs; ++t) yi[t] -= lv * yj[t];
        }
    }
    /* backward solve U y = y (diagonal stored last) */
    for (j = n - 1; j >= 0; --j) {
        int end = Up[j + 1] - 1;
        double d = Ux[end];
        double *yj = y + (long)j * nrhs;
        for (t = 0; t < nrhs; ++t) yj[t] /= d;
        for (k = Up[j]; k < end; ++k) {
            double uv = Ux[k];
            double *yi = y + (long)Ui[k] * nrhs;
            for (t = 0; t < nrhs; ++t) yi[t] -= uv * yj[t];
        }
    }
    /* gather: x[k] = y[pc[k]] */
    for (j = 0; j < n; ++j) {
        const double *src = y + (long)pc[j] * nrhs;
        double *dst = x + (long)j * nrhs;
        for (t = 0; t < nrhs; ++t) dst[t] = src[t];
    }
}

/* One fused backward-Euler timestep for all right-hand sides:
 *   rhs   = cap_over_h * v - load  (+ pad companion injections)
 *   v_out = A^-1 rhs               (permuted L/U triangular solves)
 *   pad_i = pad_g*(vdd - v_out[pad]) + pad_gl*pad_i
 * The right-hand side is assembled directly into the row-permuted work
 * buffer, so the step makes no extra full-array passes beyond the
 * solve itself.  Every arithmetic expression mirrors the numpy
 * reference path operation for operation (the file is compiled with
 * -ffp-contract=off, so no FMA contraction can perturb a rounding).
 */
void be_step_many(
    int n, int nrhs,
    const int *Lp, const int *Li, const double *Lx,
    const int *Up, const int *Ui, const double *Ux,
    const int *ipr, const int *pc, const int *pr,
    const double *cap_over_h,
    const double *v,
    const double *load, long load_row_stride,
    const int *pad_nodes, int n_pads,
    const double *pad_g, const double *pad_gl, const double *pad_g_vdd,
    double vdd,
    double *pad_i,
    double *v_out, double *y)
{
    int j, k, t;
    /* fused scatter + rhs build: y[j] = cap[r]*v[r] - load[r], r = ipr[j] */
    for (j = 0; j < n; ++j) {
        long r = ipr[j];
        double c = cap_over_h[r];
        const double *vr = v + r * nrhs;
        const double *lr = load + r * load_row_stride;
        double *yj = y + (long)j * nrhs;
        for (t = 0; t < nrhs; ++t) {
            double prod = c * vr[t];
            yj[t] = prod - lr[t];
        }
    }
    /* pad companion injection at the permuted rows */
    for (k = 0; k < n_pads; ++k) {
        double gv = pad_g_vdd[k];
        double gl = pad_gl[k];
        const double *pik = pad_i + (long)k * nrhs;
        double *yj = y + (long)pr[pad_nodes[k]] * nrhs;
        for (t = 0; t < nrhs; ++t) {
            double term = gl * pik[t];
            double inj = gv + term;
            yj[t] += inj;
        }
    }
    /* forward solve L y = y (unit diagonal, stored first) */
    for (j = 0; j < n; ++j) {
        const double *yj = y + (long)j * nrhs;
        for (k = Lp[j] + 1; k < Lp[j + 1]; ++k) {
            double lv = Lx[k];
            double *yi = y + (long)Li[k] * nrhs;
            for (t = 0; t < nrhs; ++t) yi[t] -= lv * yj[t];
        }
    }
    /* backward solve U y = y (diagonal stored last) */
    for (j = n - 1; j >= 0; --j) {
        int end = Up[j + 1] - 1;
        double d = Ux[end];
        double *yj = y + (long)j * nrhs;
        for (t = 0; t < nrhs; ++t) yj[t] /= d;
        for (k = Up[j]; k < end; ++k) {
            double uv = Ux[k];
            double *yi = y + (long)Ui[k] * nrhs;
            for (t = 0; t < nrhs; ++t) yi[t] -= uv * yj[t];
        }
    }
    /* gather: v_out[k] = y[pc[k]] */
    for (j = 0; j < n; ++j) {
        const double *src = y + (long)pc[j] * nrhs;
        double *dst = v_out + (long)j * nrhs;
        for (t = 0; t < nrhs; ++t) dst[t] = src[t];
    }
    /* pad branch-current update from the solved voltages */
    for (k = 0; k < n_pads; ++k) {
        double g = pad_g[k];
        double gl = pad_gl[k];
        const double *vk = v_out + (long)pad_nodes[k] * nrhs;
        double *pik = pad_i + (long)k * nrhs;
        for (t = 0; t < nrhs; ++t) {
            double drop = vdd - vk[t];
            double drive = g * drop;
            double hist = gl * pik[t];
            pik[t] = drive + hist;
        }
    }
}

/* numpy's pairwise summation of a contiguous double array: below 8
 * elements one running sum from -0.0; up to 128 elements eight
 * interleaved accumulators joined as a tree, then the tail; above 128
 * a split at half the length rounded down to a multiple of 8.  np.sum
 * of a contiguous array, and a reduction along a contiguous column,
 * add the elements in exactly this order.
 */
double gl_pairwise_sum(const double *a, long n)
{
    long i;
    if (n < 8) {
        double res = -0.0;
        for (i = 0; i < n; ++i) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int j;
        for (j = 0; j < 8; ++j) r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8) {
            for (j = 0; j < 8; ++j) r[j] += a[i + j];
        }
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i) res += a[i];
        return res;
    }
    {
        long n2 = n / 2;
        n2 -= n2 % 8;
        return gl_pairwise_sum(a, n2) + gl_pairwise_sum(a + n2, n - n2);
    }
}

/* One FISTA iteration of the penalized group lasso on row-major (K, M)
 * arrays, after the BLAS product G = Y S:
 *   W     = Y - step * (G - AT)                       (into G)
 *   n_m   = ||W[:, m]||
 *   B_new = W * max(0, 1 - mu_step / max(n_m, 1e-300))
 *   restart when sum((Y - B_new) * (B_new - B)) > 0   (terms into Y)
 *   t     = (1 + sqrt(1 + 4 t^2)) / 2, or 1 on a restart
 *   Y     = B_new, or B_new + (t_prev - 1) / t * (B_new - B)
 *   state = {t, max|B_new - B| / max(1, max|B_new|)}
 * Each expression mirrors the numpy reference loop in
 * repro.core.group_lasso operation for operation.  Column norms sum
 * their squares row by row, as numpy reduces axis 0 of a C-ordered
 * array; a single column is contiguous, so numpy sums it pairwise.
 * The maxima are taken in eight lanes, then over the lanes (a maximum
 * does not depend on order); a NaN change makes the residual NaN, as
 * np.max would.  work holds M doubles: the squared column norms, then
 * the shrink factors.  No two arrays may overlap.
 */
void gl_fista_step(
    long K, long M,
    const double *restrict AT, double *restrict G, double *restrict Y,
    const double *restrict B, double *restrict B_new,
    double *restrict work,
    double step, double mu_step, double *restrict state)
{
    long n = K * M, i, j, k, m;
    double *shrink = work;
    double t_prev = state[0], t_new, momentum, total;
    double dlane[8], blane[8], dmax = 0.0, bmax = 0.0, scale;
    int restart;

    for (k = 0; k < K; ++k) {
        double *w = G + k * M;
        const double *at = AT + k * M;
        const double *y = Y + k * M;
        for (m = 0; m < M; ++m) {
            double grad = w[m] - at[m];
            double move = step * grad;
            w[m] = y[m] - move;
        }
        if (M == 1) continue;
        if (k == 0) {
            for (m = 0; m < M; ++m) shrink[m] = w[m] * w[m];
        } else {
            for (m = 0; m < M; ++m) {
                double sq = w[m] * w[m];
                shrink[m] += sq;
            }
        }
    }
    if (M == 1) {
        for (k = 0; k < K; ++k) B_new[k] = G[k] * G[k];
        shrink[0] = gl_pairwise_sum(B_new, K);
    }
    for (m = 0; m < M; ++m) {
        double nrm = sqrt(shrink[m]);
        double floor_nrm = nrm < 1e-300 ? 1e-300 : nrm;
        double keep = 1.0 - mu_step / floor_nrm;
        shrink[m] = keep < 0.0 ? 0.0 : keep;
    }
    for (k = 0; k < K; ++k) {
        const double *w = G + k * M;
        const double *b = B + k * M;
        double *bn = B_new + k * M;
        double *y = Y + k * M;
        for (m = 0; m < M; ++m) {
            double next = w[m] * shrink[m];
            double gap = y[m] - next;
            double delta = next - b[m];
            bn[m] = next;
            y[m] = gap * delta;
        }
    }
    total = gl_pairwise_sum(Y, n);

    t_new = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t_prev * t_prev));
    momentum = (t_prev - 1.0) / t_new;
    restart = total > 0.0;
    if (restart) t_new = 1.0;
    for (j = 0; j < 8; ++j) dlane[j] = blane[j] = 0.0;
    for (i = 0; i < n; i += 8) {
        long width = n - i < 8 ? n - i : 8;
        for (j = 0; j < width; ++j) {
            double next = B_new[i + j];
            double delta = next - B[i + j];
            double push = momentum * delta;
            double d = fabs(delta);
            double a = fabs(next);
            Y[i + j] = restart ? next : next + push;
            dlane[j] = ((d > dlane[j]) | (d != d)) ? d : dlane[j];
            blane[j] = a > blane[j] ? a : blane[j];
        }
    }
    for (j = 0; j < 8; ++j) {
        dmax = ((dlane[j] > dmax) | (dlane[j] != dlane[j])) ? dlane[j] : dmax;
        bmax = blane[j] > bmax ? blane[j] : bmax;
    }
    scale = bmax > 1.0 ? bmax : 1.0;
    state[0] = t_new;
    state[1] = dmax / scale;
}

/* The AR(1) recurrence x[t] = x[t] + rho * x[t-1], in place, down the
 * rows of a row-major (n_steps, n_series) array: one rounded multiply
 * and one rounded add per element, as the numpy row loop in
 * repro.workload.activity computes them.  The inner loop runs over the
 * contiguous series, so it vectorizes.
 */
void ar1_inplace(long n_steps, long n_series, double rho, double *x)
{
    long t, j;
    for (t = 1; t < n_steps; ++t) {
        const double *prev = x + (t - 1) * n_series;
        double *cur = x + t * n_series;
        for (j = 0; j < n_series; ++j) {
            double push = rho * prev[j];
            cur[j] = cur[j] + push;
        }
    }
}
"""

_CDEF = """
void lu_solve_many(
    int n, int nrhs,
    const int *Lp, const int *Li, const double *Lx,
    const int *Up, const int *Ui, const double *Ux,
    const int *ipr, const int *pc,
    const double *b, double *x, double *y);
void be_step_many(
    int n, int nrhs,
    const int *Lp, const int *Li, const double *Lx,
    const int *Up, const int *Ui, const double *Ux,
    const int *ipr, const int *pc, const int *pr,
    const double *cap_over_h,
    const double *v,
    const double *load, long load_row_stride,
    const int *pad_nodes, int n_pads,
    const double *pad_g, const double *pad_gl, const double *pad_g_vdd,
    double vdd,
    double *pad_i,
    double *v_out, double *y);
double gl_pairwise_sum(const double *a, long n);
void gl_fista_step(
    long K, long M,
    const double *AT, double *G, double *Y,
    const double *B, double *B_new, double *work,
    double step, double mu_step, double *state);
void ar1_inplace(long n_steps, long n_series, double rho, double *x);
"""

_lib = None
_lib_failed = False
_lib_lock = threading.Lock()


def kernel_cache_dir() -> str:
    """Directory holding the compiled kernel shared objects."""
    root = os.environ.get(CACHE_ENV_VAR)
    if root:
        return root
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "kernels"
    )


def _compile_library() -> Optional[str]:
    """Compile the kernels to a cached .so; returns its path or None."""
    source_hash = hashlib.sha256(_KERNEL_SOURCE.encode()).hexdigest()[:16]
    cache_dir = kernel_cache_dir()
    lib_path = os.path.join(cache_dir, f"repro-kernels-{source_hash}.so")
    if os.path.exists(lib_path):
        return lib_path
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError:
        return None
    cc = os.environ.get("CC", "cc")
    with tempfile.TemporaryDirectory() as tmp:
        c_path = os.path.join(tmp, "kernels.c")
        with open(c_path, "w", encoding="utf-8") as fh:
            fh.write(_KERNEL_SOURCE)
        tmp_so = os.path.join(tmp, "kernels.so")
        # -ffp-contract=off keeps mul/add sequences exactly as written
        # (no FMA contraction), which the bit-identity guarantees of
        # be_step_many, gl_fista_step and ar1_inplace versus their numpy
        # reference paths depend on.
        base = [
            cc, "-O3", "-ffp-contract=off", "-fPIC", "-shared",
            c_path, "-o", tmp_so, "-lm",
        ]
        for flags in (["-march=native"], []):
            cmd = base[:1] + flags + base[1:]
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, timeout=120
                )
            except (OSError, subprocess.TimeoutExpired):
                return None
            if proc.returncode == 0:
                try:
                    os.replace(tmp_so, lib_path)
                except OSError:
                    return None
                return lib_path
    return None


def get_lib():
    """The loaded ``(ffi, lib)`` pair (compiled on first use), or None."""
    global _lib, _lib_failed
    if _lib is not None or _lib_failed:
        return _lib
    with _lib_lock:
        if _lib is not None or _lib_failed:
            return _lib
        if os.environ.get(DISABLE_ENV_VAR):
            _lib_failed = True
            return None
        try:
            import cffi
        except ImportError:
            _lib_failed = True
            return None
        lib_path = _compile_library()
        if lib_path is None:
            _lib_failed = True
            return None
        try:
            ffi = cffi.FFI()
            ffi.cdef(_CDEF)
            _lib = (ffi, ffi.dlopen(lib_path))
        except (OSError, cffi.FFIError):
            _lib_failed = True
            return None
    return _lib
