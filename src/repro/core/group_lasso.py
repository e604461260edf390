"""Multi-response group lasso for sensor selection (paper Section 2.2).

The paper selects sensors by solving

.. math::

    \\min_\\beta \\; \\|G - \\beta Z\\|_F \\quad
    \\text{s.t.} \\; \\sum_{m=1}^M \\|\\beta_m\\|_2 \\le \\lambda

where each *group* :math:`\\beta_m` is the column of coefficients tying
candidate sensor *m* to all K responses; the constraint drives entire
columns to zero, so the surviving columns identify the important
sensors.

This module implements the problem from scratch (no sklearn):

* :func:`group_lasso_penalized` solves the equivalent Lagrangian form
  ``min 1/2 ||G - Z B^T||_F^2 + mu * sum_m ||B_m||_2`` by FISTA with
  vectorized group proximal steps (features are expected standardized,
  but the solver handles general scaling).
* :func:`group_lasso_constrained` recovers the paper's budget form by a
  monotone bisection on ``mu`` such that ``sum_m ||B_m||_2`` meets the
  budget ``lambda`` — Lagrangian duality makes the mapping monotone.
  Probes that only locate the bracket may run at a loose tolerance;
  every verdict and result that matters is taken from one polish step,
  a strict warm-started re-solve.

Unlike the interior-point SOCP solver the paper references, the solver
returns *exactly* zero columns for unselected sensors (sub-tolerance
residues of inactive groups are zeroed), so the selection threshold T
separates selected from unselected sensors by construction (the paper's
Fig. 1 shows the same separation with tiny numerical residues instead
of exact zeros).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.obs import get_registry, span
from repro.utils.ckernel import get_lib
from repro.utils.validation import check_matrix, check_non_negative, check_positive

__all__ = [
    "GroupLassoResult",
    "SufficientStats",
    "StrongRuleScreener",
    "WarmState",
    "group_lasso_penalized",
    "group_lasso_constrained",
]

#: Relative margin by which :meth:`SufficientStats.ols_norm_floor` must
#: exceed the budget limit before the slack check skips lstsq.  lstsq
#: returns the rcond-truncated minimum-norm solution, which meets the
#: normal equations ``S Bᵀ = A`` only up to rounding and the truncated
#: directions; the floor already allows for both in absolute terms, and
#: this margin covers the relative rounding, about (M + K)·eps, of the
#: two norm sums being compared.
OLS_FLOOR_MARGIN = 1e-6


@dataclass
class GroupLassoResult:
    """Solution of a group-lasso fit.

    Attributes
    ----------
    coef:
        ``(K, M)`` coefficient matrix (the paper's beta); column ``m``
        holds sensor ``m``'s coefficients for all K responses.
    penalty:
        The Lagrangian penalty ``mu`` the solution corresponds to.
    budget:
        The constraint value ``lambda`` when solved in constrained form
        (``None`` for direct penalized solves).
    objective:
        Final penalized objective value.
    n_iterations:
        FISTA iterations performed.
    converged:
        Whether the iteration-to-iteration tolerance was met.
    final_residual:
        Relative coefficient change at the last iteration (the
        convergence criterion value); 0.0 for solves that needed no
        iterations.
    """

    coef: np.ndarray
    penalty: float
    budget: Optional[float] = None
    objective: float = float("nan")
    n_iterations: int = 0
    converged: bool = True
    final_residual: float = 0.0

    def group_norms(self) -> np.ndarray:
        """``(M,)`` column norms ``||beta_m||_2`` (the Fig. 1 quantity)."""
        return np.linalg.norm(self.coef, axis=0)

    def norm_sum(self) -> float:
        """``sum_m ||beta_m||_2`` — the constrained form's budget usage."""
        return float(self.group_norms().sum())

    def active_groups(self, threshold: float = 0.0) -> np.ndarray:
        """Indices of groups with ``||beta_m||_2 > threshold``, sorted."""
        check_non_negative(threshold, "threshold")
        return np.nonzero(self.group_norms() > threshold)[0]


@dataclass
class SufficientStats:
    """Sufficient statistics of a group-lasso problem ``(Z, G)``.

    Everything the penalized and constrained solvers need that costs
    O(N·M²) or O(N·M·K) to build: compute once per (Z, G) pair and
    thread through every solve of a penalty path or budget bisection.
    Expensive derived quantities (the FISTA step-size bound, the OLS
    norm-sum floor and, when the floor cannot settle the slack check,
    the OLS solution) are computed lazily and cached too.

    Attributes
    ----------
    S:
        ``(M, M)`` Gram matrix ``Z^T Z``; ``None`` in *lazy* mode
        (``from_arrays(..., lazy=True)``), where the full Gram is never
        materialized and dense sub-blocks are assembled on demand via
        :meth:`slice` — the memory contract of strong-rule screening.
    A:
        ``(M, K)`` cross-products ``Z^T G``.
    diag_S:
        ``(M,)`` diagonal of ``S``.
    gram_G:
        ``tr(G^T G)`` — the data-dependent constant of the objective.
    n_samples:
        Number of rows N the statistics were computed from.
    Z:
        The feature matrix, retained only in lazy mode so sub-Grams and
        exact dual residuals can be computed in O(N·m²) / O(N·M·K).
    """

    S: Optional[np.ndarray]
    A: np.ndarray
    diag_S: np.ndarray
    gram_G: float
    n_samples: int
    Z: Optional[np.ndarray] = None
    _lipschitz: Optional[float] = None
    _ols_coef: Optional[np.ndarray] = None
    _ols_norm_sum: float = 0.0
    _ols_floor: Optional[float] = None

    @classmethod
    def from_arrays(
        cls, Z: np.ndarray, G: np.ndarray, lazy: bool = False
    ) -> "SufficientStats":
        """Validate ``(Z, G)`` and compute the statistics.

        With ``lazy=True`` the M×M Gram is *not* built: only ``A``,
        ``diag(S)`` and ``tr(GᵀG)`` are computed (all O(N·M·K)), and
        ``Z`` is kept so :meth:`slice` can assemble dense sub-problems
        over screened survivor sets.
        """
        Z = check_matrix(Z, "Z")
        G = check_matrix(G, "G", n_rows=Z.shape[0])
        A = Z.T @ G
        if lazy:
            return cls(
                S=None,
                A=A,
                diag_S=np.einsum("ij,ij->j", Z, Z),
                gram_G=float(np.sum(G * G)),
                n_samples=Z.shape[0],
                Z=Z,
            )
        S = Z.T @ Z
        return cls(
            S=S,
            A=A,
            diag_S=np.diag(S).copy(),
            gram_G=float(np.sum(G * G)),
            n_samples=Z.shape[0],
        )

    @property
    def is_lazy(self) -> bool:
        """Whether the full Gram is deferred (``S is None``)."""
        return self.S is None

    @property
    def n_features(self) -> int:
        """M — number of candidate groups."""
        return self.A.shape[0]

    @property
    def n_responses(self) -> int:
        """K — number of response columns."""
        return self.A.shape[1]

    @property
    def mu_max(self) -> float:
        """Smallest penalty at which the all-zero solution is optimal.

        Each group's activation threshold at ``B = 0`` is ``||A[m]||_2``
        (the group proximal step zeroes group ``m`` exactly when its
        residual correlation norm is ``<= mu``), so the max row norm of
        ``A`` is the path start: ``B(mu_max) == 0`` exactly — pinned by
        regression tests, and the soundness anchor of the sequential
        strong rule's step 0 (whose reference residuals are the rows of
        ``A`` themselves).
        """
        if self.A.size == 0:
            return 0.0
        norms = np.linalg.norm(self.A, axis=1)
        top = float(norms.max())
        if top == 0.0:
            return 0.0
        # The 1-D norm kernel's summation order can land one ulp above
        # the axis-reduced value computed here; re-measure the near-max
        # rows with it so no group's threshold, however it is measured,
        # exceeds mu_max.
        near = np.nonzero(norms >= top * (1.0 - 1e-12))[0]
        return max(top, *(float(np.linalg.norm(self.A[m])) for m in near))

    @property
    def lipschitz(self) -> float:
        """Cached spectral bound of ``S`` (the FISTA step-size bound)."""
        if self.S is None:
            raise ValueError(
                "lazy SufficientStats carry no full Gram; solve on a "
                "slice() instead"
            )
        if self._lipschitz is None:
            self._lipschitz = _spectral_bound(self.S)
        return self._lipschitz

    def slice(self, cols: np.ndarray) -> "SufficientStats":
        """Dense sub-statistics over the candidate subset ``cols``.

        The sub-Gram costs O(N·m²) in lazy mode (one small matmul on
        the retained ``Z``) and a fancy-index copy otherwise; ``m``
        is active-set sized under screening, so the full M×M Gram is
        never touched.
        """
        cols = np.asarray(cols, dtype=np.intp)
        if self.S is not None:
            S_sub = self.S[np.ix_(cols, cols)]
        else:
            Zc = self.Z[:, cols]
            S_sub = Zc.T @ Zc
        return SufficientStats(
            S=S_sub,
            A=self.A[cols],
            diag_S=self.diag_S[cols],
            gram_G=self.gram_G,
            n_samples=self.n_samples,
        )

    def dual_residual(
        self, coef: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """Exact dual residual ``C = A - S B^T`` for a group-sparse ``B``.

        ``active`` indexes the nonzero columns of ``coef``; the product
        is taken over them only, so the cost is O(N·M·K) in lazy mode
        (via ``Zᵀ(Z Bᵀ)``, never forming ``S``) and O(M·a·K) dense.
        Row norms of the result drive both the KKT check on screened-out
        groups and the next strong-rule step.

        The lazy product ``Zᵀ Y`` is taken as ``(Yᵀ Z)ᵀ``: the same
        bits (pinned by tests), but BLAS then streams the row-major
        ``Z`` once instead of walking it transposed.
        """
        if active.size == 0:
            return self.A.copy()
        Bat = coef[:, active].T
        if self.S is not None:
            return self.A - self.S[:, active] @ Bat
        Y = self.Z[:, active] @ Bat
        return self.A - (Y.T @ self.Z).T

    def ols(self, Z: np.ndarray, G: np.ndarray) -> Tuple[np.ndarray, float]:
        """Cached unpenalized least-squares solution and its norm sum.

        ``Z`` and ``G`` must be the arrays the statistics were built
        from; lstsq on the raw data is better conditioned than solving
        the normal equations from ``S`` and ``A``.  Each lstsq run (not
        a cache hit) counts into ``group_lasso.ols_slack_solves``.
        """
        if self._ols_coef is None:
            coef_t, *_ = np.linalg.lstsq(Z, G, rcond=None)
            self._ols_coef = coef_t.T
            self._ols_norm_sum = float(
                np.linalg.norm(self._ols_coef, axis=0).sum()
            )
            registry = get_registry()
            if registry.enabled:
                registry.counter("group_lasso.ols_slack_solves").inc()
        return self._ols_coef, self._ols_norm_sum

    def ols_norm_floor(self) -> float:
        """Cached lower bound on ``sum_m ||B_m||`` of the OLS solution.

        Every least-squares ``B`` solves the normal equations
        ``S Bᵀ = A``, so for any ``(M, K)`` matrix ``W``

        .. math::

            \\langle W, A \\rangle = \\sum_m \\langle (SW)_m, B_m \\rangle
            \\le \\max_m \\|(SW)_m\\| \\sum_m \\|B_m\\|.

        With the row-normalized ``W_m = A_m / ||A_m||`` (0 where
        ``A_m = 0``) the left side is ``sum_m ||A_m||``, so every exact
        solution has a norm sum of at least
        ``sum_m ||A_m|| / max_m ||(SW)_m||``, with equality for a single
        group.  ``SW`` costs one ``S @ W`` when dense and two passes over
        ``Z`` when lazy, against lstsq's O(N·M·min(N, M)).

        The floor returned also bounds the solution :meth:`ols` returns,
        which is not exact: lstsq zeroes singular values below
        ``eps·max(N, M)·σ_max`` (and ``σ_max <= ||Z||_F``), ``A`` and
        ``SW`` are rounded sums of at most ``N + M`` terms, and lstsq
        is backward stable.  Assuming its backward error is at most
        ``(N + M)·eps`` relative, each of these moves ``<W, A>`` by at
        most ``(N + M)·eps·√M·||Z||_F·||G||_F`` and ``max_m ||(SW)_m||``
        by at most ``(N + M)·eps·√M·||Z||_F²``; four times those
        amounts are taken off the numerator and added to the
        denominator (the floor is 0 when nothing is left).  What remains
        is the relative rounding of the two norm sums, which
        ``OLS_FLOOR_MARGIN`` covers.
        """
        if self._ols_floor is None:
            row_norms = np.linalg.norm(self.A, axis=1)
            W = np.divide(
                self.A, row_norms[:, None],
                out=np.zeros_like(self.A), where=row_norms[:, None] > 0,
            )
            if self.S is not None:
                SW = self.S @ W
            else:
                SW = ((self.Z @ W).T @ self.Z).T
            top = float(np.linalg.norm(SW, axis=1).max()) if SW.size else 0.0
            z_sq = float(self.diag_S.sum())  # ||Z||_F²
            unit = (
                4.0 * (self.n_samples + self.n_features)
                * np.finfo(float).eps * np.sqrt(self.n_features)
            )
            num = float(row_norms.sum()) - unit * np.sqrt(z_sq * self.gram_G)
            den = top + unit * z_sq
            self._ols_floor = num / den if num > 0.0 else 0.0
        return self._ols_floor


@dataclass
class WarmState:
    """Warm-start seed carried from one constrained solve to the next.

    Attributes
    ----------
    coef:
        ``(K, M)`` coefficients of the previous solve.
    penalty:
        The dual penalty ``mu`` the previous solve ended at; the next
        solve starts its bracketing path there instead of at
        :attr:`SufficientStats.mu_max`.
    """

    coef: np.ndarray
    penalty: float


class StrongRuleScreener:
    """Sequential strong-rule group screening over a penalty path.

    Carries the state the rule needs between solves on one ``(Z, G)``
    problem: the dual residual norms ``||c_g|| = ||A_g - S_g B^T||`` of
    the last solution and the penalty ``mu_ref`` it was solved at.  A
    solve at ``mu`` then *discards* every group outside the warm active
    set with

    .. math::  \\|c_g(\\mu_{ref})\\| < 2\\mu - \\mu_{ref}

    (the sequential strong rule of Tibshirani et al.; for ``mu`` above
    the reference the symmetric slope bound ``mu - |mu - mu_ref|`` is
    used, which reduces to the rule above on a descending path) and
    solves the penalized problem on a dense :meth:`SufficientStats.slice`
    over the survivors only.  The rule is a heuristic, so every screened
    solve is followed by an exact KKT check on the discarded set
    (``||A_g - S_g B^T|| <= mu``); violators are re-admitted — seeded
    with their exact single-group update — and the solve repeats until
    the check is clean.  The survivor set grows monotonically, so the
    loop terminates after at most M re-admission rounds.

    A fresh screener starts from the exact path head: ``B(mu_max) == 0``
    and its residuals are the rows of ``A``, so ``mu_ref = mu_max`` and
    ``c_norms = ||A_g||`` describe an *exact* solution and step 0 of the
    rule is sound.  When the reference is too stale to bound anything
    (``mu - |mu - mu_ref| <= 0``) the screener falls back to the basic
    strong-rule bound ``mu`` instead of keeping everything — still
    KKT-safeguarded, and it keeps the survivor slice (and therefore
    peak memory) active-set sized even after a long warm jump.

    Telemetry: every screened solve adds its discarded-group count to
    the ``path.screen_dropped`` counter and its re-admissions to
    ``path.kkt_violations``; the same totals accumulate on
    :attr:`n_dropped` / :attr:`n_violations` for registry-free callers.
    """

    def __init__(self, stats: SufficientStats, max_slices: int = 16) -> None:
        self.stats = stats
        self.c_norms = (
            np.linalg.norm(stats.A, axis=1)
            if stats.A.size
            else np.zeros(stats.n_features)
        )
        self.mu_ref = stats.mu_max
        self.n_dropped = 0
        self.n_violations = 0
        self._slices: "dict[bytes, SufficientStats]" = {}
        self._slice_order: "list[bytes]" = []
        self._max_slices = max(1, int(max_slices))

    def survivors(self, mu: float, keep: np.ndarray) -> np.ndarray:
        """Strong-rule survivor set at ``mu`` (always includes ``keep``)."""
        bound = mu - abs(mu - self.mu_ref)
        if bound <= 0.0:
            bound = mu  # stale reference: basic rule, KKT-backed
        mask = self.c_norms >= bound
        mask[np.asarray(keep, dtype=np.intp)] = True
        return np.nonzero(mask)[0]

    def slice(self, cols: np.ndarray) -> SufficientStats:
        """Cached dense sub-statistics over ``cols`` (small LRU)."""
        key = cols.tobytes()
        sub = self._slices.get(key)
        if sub is None:
            sub = self.stats.slice(cols)
            self._slices[key] = sub
            self._slice_order.append(key)
            while len(self._slice_order) > self._max_slices:
                self._slices.pop(self._slice_order.pop(0), None)
        return sub

    def update(self, c_norms: np.ndarray, mu: float) -> None:
        """Install the residual norms of a fresh solution at ``mu``."""
        self.c_norms = c_norms
        self.mu_ref = float(mu)


def _solve_screened(
    screener: StrongRuleScreener,
    mu: float,
    max_iter: int,
    tol: float,
    warm_start: Optional[np.ndarray],
) -> GroupLassoResult:
    """One screened penalized solve: slice, solve, KKT-check, re-admit."""
    check_positive(mu, "mu")
    stats = screener.stats
    n_features, n_responses = stats.n_features, stats.n_responses
    if warm_start is not None:
        warm = np.array(warm_start, dtype=float, copy=True)
        if warm.shape != (n_responses, n_features):
            raise ValueError(
                f"warm_start must be ({n_responses}, {n_features}), "
                f"got {warm.shape}"
            )
    else:
        warm = np.zeros((n_responses, n_features))
    keep = np.nonzero(np.linalg.norm(warm, axis=0) > 0)[0]
    surv = screener.survivors(mu, keep)
    # Violations smaller than the solve's own accuracy are iterate
    # noise, not KKT failures; re-admitting them would thrash.
    slack = mu * max(1e-8, 10.0 * tol)
    readmitted = 0
    B = np.zeros((n_responses, n_features))
    res = None
    c_norms = screener.c_norms
    for _round in range(n_features + 1):
        sub = screener.slice(surv)
        res = group_lasso_penalized(
            None, None, mu, max_iter=max_iter, tol=tol,
            warm_start=warm[:, surv], stats=sub,
        )
        B = np.zeros((n_responses, n_features))
        B[:, surv] = res.coef
        active = surv[np.linalg.norm(res.coef, axis=0) > 0]
        C = stats.dual_residual(B, active)
        c_norms = np.linalg.norm(C, axis=1)
        viol = (c_norms > mu + slack) & (stats.diag_S > 1e-15)
        viol[surv] = False
        if not np.any(viol):
            break
        idx = np.nonzero(viol)[0]
        readmitted += idx.size
        warm = B
        warm[:, idx] = ((1.0 - mu / c_norms[idx]) / stats.diag_S[idx]) * C[idx].T
        surv = np.union1d(surv, idx)
    screener.update(c_norms, mu)
    dropped = n_features - surv.size
    screener.n_dropped += dropped
    screener.n_violations += readmitted
    registry = get_registry()
    if registry.enabled:
        registry.counter("path.screen_dropped").inc(dropped)
        if readmitted:
            registry.counter("path.kkt_violations").inc(readmitted)
    return GroupLassoResult(
        coef=B,
        penalty=mu,
        objective=res.objective,
        n_iterations=res.n_iterations,
        converged=res.converged,
        final_residual=res.final_residual,
    )


def _objective(
    B: np.ndarray,
    S: np.ndarray,
    A: np.ndarray,
    gram_G: float,
    mu: float,
    active: np.ndarray,
) -> float:
    """Penalized objective from sufficient statistics (active groups only)."""
    if active.size == 0:
        return 0.5 * gram_G
    Ba = B[:, active]
    Sa = S[np.ix_(active, active)]
    Aa = A[active, :]
    fit = gram_G - 2.0 * float(np.sum(Ba * Aa.T)) + float(np.sum((Ba @ Sa) * Ba))
    return 0.5 * fit + mu * float(np.linalg.norm(Ba, axis=0).sum())


def _spectral_bound(S: np.ndarray, n_iter: int = 80, seed: int = 0) -> float:
    """Estimate of the largest eigenvalue of the PSD matrix S, times 1.05.

    ``n_iter`` power iterations from a seeded random start, scaled by a
    5 % safety factor; the FISTA step is its reciprocal.  It is *not*
    an upper bound.  Power iteration converges at the rate
    ``lambda_2 / lambda_1``, so with a small spectral gap (or a start
    nearly orthogonal to the top eigenvector) it stops short of
    ``lambda_max``.  On the paper's voltage Grams the gap is large and
    the value is 1.05 ``lambda_max``.  On standardized 320 x M
    standard-normal Grams (M = 8, 20, 40), the regime of screened
    slices on random data, it fell below ``lambda_max`` in 1 to 3 of
    2,000 seeded draws, down to 0.983 ``lambda_max``; FISTA's
    convergence guarantee does not cover that step.
    """
    n = S.shape[0]
    if n == 0:
        return 1.0
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(n_iter):
        w = S @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 1.0
        lam = norm
        v = w / norm
    return 1.05 * lam


def _fista(
    B: np.ndarray,
    S: np.ndarray,
    AT: np.ndarray,
    mu: float,
    max_iter: int,
    tol: float,
    L: Optional[float] = None,
    kernel=None,
) -> Tuple[np.ndarray, int, bool, float]:
    """FISTA with adaptive restart for the penalized group lasso.

    Minimizes ``f(B) = 1/2 tr(B S B^T) - tr(B A) + mu * sum ||B_m||``
    (the data-independent constant dropped).  ``AT`` is ``A^T`` with
    shape (K, M).  All group proximal updates are vectorized, so each
    iteration is a handful of BLAS calls regardless of M — this is what
    makes the highly correlated voltage features tractable.

    ``kernel`` is the compiled library of :func:`repro.utils.ckernel.get_lib`;
    given one (and a non-empty ``B``) the iterations run in
    :func:`_fista_compiled`, bit-identical to the numpy loop below,
    which stays the reference and the fallback.
    """
    if L is None:
        L = _spectral_bound(S)
    step = 1.0 / L
    if kernel is not None and B.size:
        return _fista_compiled(kernel, B, S, AT, mu, max_iter, tol, step)
    Y = B.copy()
    t_prev = 1.0
    converged = False
    iterations = 0
    residual = 0.0
    for it in range(max_iter):
        iterations = it + 1
        grad = Y @ S - AT
        W = Y - step * grad
        norms = np.linalg.norm(W, axis=0)
        shrink = np.maximum(0.0, 1.0 - (mu * step) / np.maximum(norms, 1e-300))
        B_new = W * shrink[np.newaxis, :]

        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
        momentum = (t_prev - 1.0) / t_new
        delta = B_new - B
        # Adaptive restart (gradient scheme): if the momentum direction
        # opposes the progress direction, reset it.
        if float(np.sum((Y - B_new) * delta)) > 0.0:
            t_new = 1.0
            Y = B_new.copy()
        else:
            Y = B_new + momentum * delta
        B = B_new
        t_prev = t_new

        scale = max(1.0, float(np.max(np.abs(B))) if B.size else 1.0)
        residual = float(np.max(np.abs(delta))) / scale if delta.size else 0.0
        if residual <= tol:
            converged = True
            break
    return B, iterations, converged, residual


def _fista_compiled(
    kernel,
    B: np.ndarray,
    S: np.ndarray,
    AT: np.ndarray,
    mu: float,
    max_iter: int,
    tol: float,
    step: float,
) -> Tuple[np.ndarray, int, bool, float]:
    """The :func:`_fista` loop with one C call per iteration.

    Each iteration makes the numpy loop's BLAS product ``Y @ S`` (into
    a preallocated buffer), then ``gl_fista_step`` does everything else
    — gradient step, column norms, group shrinkage, restart test,
    momentum update and residual — in the numpy loop's order of
    operations, so iterates, iteration counts and residuals are the
    same bits.  The buffers belong to this call, and cffi releases the
    GIL during the step, so concurrent solves on threads are safe.
    """
    ffi, lib = kernel
    n_responses, n_features = B.shape
    AT = np.ascontiguousarray(AT, dtype=np.float64)
    if AT.shape != B.shape or S.shape != (n_features, n_features):
        raise ValueError(
            f"AT {AT.shape} and S {S.shape} do not fit B {B.shape}"
        )
    # C-ordered private copies: a warm start sliced with fancy indexing
    # can arrive F-ordered, and B is overwritten as scratch below.
    B = np.array(B, dtype=np.float64, order="C")
    Y = B.copy()
    B_new = np.empty_like(B)
    G = np.empty_like(B)
    work = np.empty(n_features)
    state = np.array([1.0, 0.0])  # t, residual

    def ptr(array: np.ndarray):
        return ffi.from_buffer("double[]", array)

    p_at, p_g, p_y, p_work, p_state = map(ptr, (AT, G, Y, work, state))
    p_b, p_bn = ptr(B), ptr(B_new)
    mu_step = mu * step
    step_fn = lib.gl_fista_step
    matmul = np.matmul
    converged = False
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        matmul(Y, S, out=G)
        step_fn(
            n_responses, n_features, p_at, p_g, p_y, p_b, p_bn, p_work,
            step, mu_step, p_state,
        )
        B, B_new = B_new, B
        p_b, p_bn = p_bn, p_b
        if p_state[1] <= tol:
            converged = True
            break
    return B, iterations, converged, float(p_state[1])


def group_lasso_penalized(
    Z: Optional[np.ndarray],
    G: Optional[np.ndarray],
    mu: float,
    max_iter: int = 20000,
    tol: float = 1e-7,
    warm_start: Optional[np.ndarray] = None,
    stats: Optional[SufficientStats] = None,
    screen: Optional[StrongRuleScreener] = None,
) -> GroupLassoResult:
    """Solve ``min 1/2 ||G - Z B^T||_F^2 + mu * sum_m ||B_m||_2`` by FISTA.

    Accelerated proximal gradient with adaptive restart; every group's
    proximal update is vectorized, which keeps it robust and fast on
    the near-collinear features power-grid voltages produce.

    Parameters
    ----------
    Z:
        ``(N, M)`` feature matrix (normalized candidate voltages,
        samples first).  May be ``None`` when ``stats`` is given.
    G:
        ``(N, K)`` response matrix (normalized critical voltages).
        May be ``None`` when ``stats`` is given.
    mu:
        Group penalty weight (>= 0; 0 reduces to OLS on all features).
    max_iter:
        FISTA iteration cap.
    tol:
        Convergence threshold on the largest coefficient change per
        iteration, relative to the largest coefficient magnitude.
    warm_start:
        Optional ``(K, M)`` initial coefficients (e.g. the solution at
        a nearby ``mu``), which makes penalty sweeps dramatically
        faster.
    stats:
        Optional precomputed :class:`SufficientStats` for ``(Z, G)``.
        When given, no Gram matrix is recomputed (``Z``/``G`` are not
        read) and the solve counts into the ``path.gram_reuse``
        metric; the solution is bit-identical to the uncached path.
    screen:
        Optional :class:`StrongRuleScreener` over this problem.  When
        given (requires ``mu > 0``), the solve runs on the strong-rule
        survivor slice only, followed by an exact KKT check on the
        discarded groups with violator re-admission until clean — see
        :class:`StrongRuleScreener`.  The screener's ``stats`` are used
        (``Z``/``G``/``stats`` may be ``None``) and may be *lazy*
        (:meth:`SufficientStats.from_arrays` with ``lazy=True``), so
        the full ``M×M`` Gram is never materialized.

    Returns
    -------
    GroupLassoResult

    Notes
    -----
    FISTA leaves tiny (sub-``tol``) residues on inactive groups; they
    are zeroed before returning, so the result reports exact group
    sparsity.  Tests check solutions against the KKT conditions.
    """
    check_non_negative(mu, "mu")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    check_positive(tol, "tol")
    if screen is not None:
        if stats is not None and stats is not screen.stats:
            raise ValueError(
                "stats and screen.stats must be the same object"
            )
        return _solve_screened(screen, mu, max_iter, tol, warm_start)
    stats_reused = stats is not None
    if stats is None:
        if Z is None or G is None:
            raise ValueError("Z and G are required when stats is not given")
        stats = SufficientStats.from_arrays(Z, G)
    elif stats.is_lazy:
        raise ValueError(
            "lazy SufficientStats require screening; pass screen= or "
            "solve on a slice()"
        )
    S, A, gram_G = stats.S, stats.A, stats.gram_G
    n_features = stats.n_features
    n_responses = stats.n_responses

    if warm_start is not None:
        B = np.array(warm_start, dtype=float, copy=True)
        if B.shape != (n_responses, n_features):
            raise ValueError(
                f"warm_start must be ({n_responses}, {n_features}), got {B.shape}"
            )
    else:
        B = np.zeros((n_responses, n_features))

    registry = get_registry()
    _t0 = _time.perf_counter() if registry.enabled else 0.0
    kernel = get_lib() if B.size else None
    B, iterations, converged, residual = _fista(
        B, S, A.T.copy(), mu, max_iter, tol, L=stats.lipschitz, kernel=kernel
    )
    # Zero out sub-threshold residues so inactive groups are exactly
    # zero.  At the optimum, inactive groups satisfy ||grad_m|| <= mu
    # strictly; their FISTA residues are O(tol) while active groups are
    # O(1).
    if mu > 0:
        norms = np.linalg.norm(B, axis=0)
        scale = max(1.0, float(norms.max()) if norms.size else 1.0)
        B[:, norms <= 10.0 * tol * scale] = 0.0

    if registry.enabled:
        registry.timer("group_lasso.penalized").record(
            _time.perf_counter() - _t0
        )
        registry.counter("group_lasso.solves").inc()
        if kernel is not None:
            registry.counter("group_lasso.kernel_solves").inc()
        registry.counter("group_lasso.iterations").inc(iterations)
        if stats_reused:
            registry.counter("path.gram_reuse").inc()

    active = np.nonzero(np.linalg.norm(B, axis=0) > 0)[0]
    return GroupLassoResult(
        coef=B,
        penalty=mu,
        objective=_objective(B, S, A, gram_G, mu, active),
        n_iterations=iterations,
        converged=converged,
        final_residual=residual,
    )


def group_lasso_constrained(
    Z: np.ndarray,
    G: np.ndarray,
    budget: float,
    rtol: float = 1e-2,
    max_bisections: int = 40,
    solver_max_iter: int = 20000,
    solver_tol: float = 1e-7,
    stats: Optional[SufficientStats] = None,
    warm: Optional[WarmState] = None,
    probe_tol: Optional[float] = None,
    screen: "bool | StrongRuleScreener | None" = None,
) -> GroupLassoResult:
    """Solve the paper's Eq. (12): minimize the fit subject to
    ``sum_m ||beta_m||_2 <= budget``.

    Parameters
    ----------
    Z, G:
        Normalized data matrices as in :func:`group_lasso_penalized`.
    budget:
        The paper's hyper-parameter ``lambda`` — the total group-norm
        budget.  Larger budgets admit more sensors.
    rtol:
        Relative tolerance on meeting the budget.
    max_bisections:
        Maximum bisection steps on the dual penalty.
    solver_max_iter, solver_tol:
        Passed to the inner penalized solver.
    stats:
        Optional precomputed :class:`SufficientStats` for ``(Z, G)``.
        Built once per call when not given; either way the whole
        path-following + bisection shares one Gram computation.
    warm:
        Optional :class:`WarmState` from a constrained solve on the
        same ``(Z, G)`` at a nearby budget; the dual-penalty path
        starts from its penalty instead of ``mu_max`` and every solve
        is seeded with its coefficients.  Counted in the
        ``sweep.warm_start_hits`` metric.
    probe_tol:
        Optional looser tolerance for the *probe* solves that only
        locate the dual-penalty bracket (their ``norm_sum`` needs
        ``rtol`` accuracy, not ``solver_tol``).  Every feasibility
        verdict a loose probe cannot be trusted with, and the returned
        solution, come from a strict warm re-solve at ``solver_tol``.
        ``None`` (default) runs every solve at ``solver_tol``.
    screen:
        Strong-rule group screening (see :class:`StrongRuleScreener`).
        ``None``/``False`` (default) disables it — the unscreened path
        is bit-identical to previous releases.  ``True`` builds a fresh
        screener (and, when ``stats`` is not given, *lazy* statistics
        that never materialize the ``M×M`` Gram).  Passing a
        :class:`StrongRuleScreener` instance reuses its sequential
        state — the previous solve's dual residuals — across budgets,
        which is how the path engine threads the rule along a λ sweep.
        Every screened solve is KKT-safeguarded, so the returned
        solution solves the same problem to the same tolerance.

    Returns
    -------
    GroupLassoResult
        With :attr:`GroupLassoResult.budget` set, and
        :attr:`GroupLassoResult.penalty` the dual ``mu`` found.  The
        returned solution never exceeds the budget by more than
        ``rtol`` relatively: ``norm_sum() <= budget * (1 + rtol)``.

    Notes
    -----
    ``sum_m ||B_m(mu)||_2`` is non-increasing in ``mu``; bisection on
    ``mu`` therefore converges to the budget-binding solution.  If even
    a vanishing penalty uses less than the budget, the constraint is
    slack and the (essentially unpenalized) solution is returned.

    Each call emits one ``group_lasso.constrained`` event on the active
    observability registry carrying the budget (lambda), the dual
    penalty, the returned solve's iteration count and final residual,
    and the total iterations spent along the warm-started path.
    """
    registry = get_registry()
    with span("fit.group_lasso", registry, budget=float(budget)) as sp:
        iters_before = registry.counter("group_lasso.iterations").value
        result = _constrained(
            Z, G, budget, rtol, max_bisections, solver_max_iter, solver_tol,
            stats=stats, warm=warm, probe_tol=probe_tol, screen=screen,
        )
        if not registry.enabled:
            return result
        total_iterations = (
            registry.counter("group_lasso.iterations").value - iters_before
        )
        n_active = int(result.active_groups().shape[0])
        sp.set_attribute("iterations", result.n_iterations)
        sp.set_attribute("n_active", n_active)
        registry.event(
            "group_lasso.constrained",
            budget=float(budget),
            penalty=result.penalty,
            iterations=result.n_iterations,
            total_iterations=total_iterations,
            final_residual=result.final_residual,
            converged=result.converged,
            n_active=n_active,
        )
    return result


def _constrained(
    Z: np.ndarray,
    G: np.ndarray,
    budget: float,
    rtol: float,
    max_bisections: int,
    solver_max_iter: int,
    solver_tol: float,
    stats: Optional[SufficientStats] = None,
    warm: Optional[WarmState] = None,
    probe_tol: Optional[float] = None,
    screen: "bool | StrongRuleScreener | None" = None,
) -> GroupLassoResult:
    """The actual constrained solve (see :func:`group_lasso_constrained`)."""
    check_positive(budget, "budget")
    if stats is None:
        # from_arrays validates (Z, G); given stats were built from
        # validated arrays, so Z and G are checked only where they are
        # read below, in the lstsq branch of the slack check.
        stats = SufficientStats.from_arrays(Z, G, lazy=bool(screen))
    screener: Optional[StrongRuleScreener] = None
    if isinstance(screen, StrongRuleScreener):
        screener = screen
        if screener.stats.n_features != stats.n_features:
            raise ValueError(
                "screen carries state for a different problem: "
                f"{screener.stats.n_features} features vs "
                f"{stats.n_features}"
            )
        stats = screener.stats
    elif screen:
        screener = StrongRuleScreener(stats)
    if stats.is_lazy and screener is None:
        raise ValueError(
            "lazy SufficientStats require screening; pass screen=True"
        )
    n_responses, n_features = stats.n_responses, stats.n_features
    registry = get_registry()

    # Slack check without a penalized solve: if even the unpenalized
    # (OLS) solution fits inside the budget, the constraint is inactive.
    # lstsq handles the highly correlated candidate columns exactly,
    # where a first-order solver at mu ~ 0 would crawl.  It runs only
    # when the certified floor on every OLS norm sum (two passes over Z
    # at most) cannot already prove the budget binds; the floor and any
    # lstsq solution are cached on the stats, so a λ path pays for each
    # at most once.
    limit = budget * (1.0 + rtol)
    if stats.ols_norm_floor() <= limit * (1.0 + OLS_FLOOR_MARGIN):
        Z = check_matrix(Z, "Z")
        G = check_matrix(G, "G", n_rows=Z.shape[0])
        ols_coef, ols_norm_sum = stats.ols(Z, G)
        if ols_norm_sum <= limit:
            if stats.is_lazy:
                # No dense Gram to feed _objective; the raw residual is
                # O(N·M·K) and exact.
                resid = G - Z @ ols_coef.T
                objective = 0.5 * float(np.sum(resid * resid))
            else:
                active = np.arange(n_features)
                objective = _objective(
                    ols_coef, stats.S, stats.A, stats.gram_G, 0.0, active
                )
            return GroupLassoResult(
                coef=ols_coef.copy(),
                penalty=0.0,
                budget=budget,
                objective=objective,
                n_iterations=0,
                converged=True,
            )

    # At B = 0 each group's activation threshold is ||A[m]||; above the
    # max no group activates.
    mu_max = stats.mu_max
    if mu_max == 0.0:
        return GroupLassoResult(
            coef=np.zeros((n_responses, n_features)),
            penalty=0.0,
            budget=budget,
            objective=0.0,
            n_iterations=0,
            converged=True,
        )

    bracket_tol = solver_tol
    if probe_tol is not None and probe_tol > solver_tol:
        bracket_tol = probe_tol

    def solve(
        mu: float, warm_coef: np.ndarray, tol: Optional[float] = None
    ) -> GroupLassoResult:
        return group_lasso_penalized(
            Z, G, mu, max_iter=solver_max_iter,
            tol=bracket_tol if tol is None else tol,
            warm_start=warm_coef, stats=stats, screen=screener,
        )

    def polish(result: GroupLassoResult) -> GroupLassoResult:
        """Strict-tolerance re-solve at ``result.penalty``, warm from it.

        The one certify/polish step: it settles every feasibility
        verdict a loose probe cannot be trusted with, and it produces
        what the caller receives.  The degenerate scopes of this
        problem class have non-unique optima, and *which* optimum a
        solver reaches is part of the contract: the proximal solver's
        shrinkage concentrates mass on the same groups whether it runs
        loose-then-polished or strict throughout, so polished results
        match the all-strict (``probe_tol=None``) path.
        """
        return solve(result.penalty, result.coef.copy(), tol=solver_tol)

    def zero_result() -> GroupLassoResult:
        # The exact solution for any mu >= mu_max: all groups off.
        # Always feasible (norm sum 0), so it is a safe fallback when
        # no feasible iterate was ever solved explicitly.
        return GroupLassoResult(
            coef=np.zeros((n_responses, n_features)),
            penalty=mu_max,
            budget=budget,
            objective=0.5 * stats.gram_G,
            n_iterations=0,
            converged=True,
        )

    # Warm-started path along the canonical penalty grid
    # ``mu_max * decay^k`` until the budget is exceeded; solutions
    # along the path stay sparse, so every solve is cheap.  This
    # brackets the dual penalty without ever touching the dense
    # small-mu regime.  A WarmState from a nearby budget jumps onto
    # the grid point just above its penalty (usually one or two solves
    # from the answer) instead of walking all the way down from
    # mu_max — but because the bracket endpoints always land on grid
    # points, the bisection path (and therefore the selected set) is
    # independent of the warm history: a warm solve returns the same
    # solution a cold solve would.
    decay = 0.65

    def grid(k: int) -> float:
        # Repeated multiplication, bit-identical to a cold walk.
        mu = mu_max
        for _ in range(k):
            mu *= decay
        return mu

    warm_usable = (
        warm is not None
        and warm.coef.shape == (n_responses, n_features)
        and 0.0 < warm.penalty < mu_max
    )
    if warm_usable:
        warm_coef = np.array(warm.coef, dtype=float, copy=True)
        ratio = np.log(float(warm.penalty) / mu_max) / np.log(decay)
        k = max(1, int(np.floor(ratio)))
        if registry.enabled:
            registry.counter("sweep.warm_start_hits").inc()
    else:
        warm_coef = np.zeros((n_responses, n_features))
        k = 1

    hi_mu = mu_max
    hi_result: Optional[GroupLassoResult] = None
    hi_k = 0
    lo_mu = None
    # Walk up the grid if the starting point is already infeasible
    # (the previous budget sat close and its penalty is below this
    # budget's crossing), otherwise walk down until the budget is
    # exceeded; either way the final bracket is a pair of adjacent
    # grid points.  Walk probes run at the loose tolerance; an
    # infeasible verdict is always trustworthy (a loose FISTA solve
    # can only *understate* the norm sum — its relative-change
    # criterion may trigger while the coefficients are still growing),
    # but a feasible verdict whose norm sum has *stalled* is suspect:
    # the slack check (its floor or lstsq) already proved the true norm
    # sum must grow past the budget as mu falls, so a frozen value means
    # the loose solve stopped prematurely and must be polished before it
    # may extend the walk.
    prev_ns = 0.0
    for _ in range(120):
        mu = grid(k)
        result = solve(mu, warm_coef)
        warm_coef = result.coef.copy()
        used = result.norm_sum()
        if (
            bracket_tol > solver_tol
            and used <= budget
            and used <= prev_ns * (1.0 + 1e-3)
        ):
            result = polish(result)
            warm_coef = result.coef.copy()
            used = result.norm_sum()
        prev_ns = used
        if used > budget:
            lo_mu = mu
            if k <= 1 or hi_result is not None:
                # hi_mu is feasible either via hi_result or (when
                # still mu_max) the exact zero solution.
                break
            k -= 1
        else:
            hi_mu, hi_result, hi_k = mu, result, k
            if lo_mu is not None:
                break
            k += 1

    # Polish the feasible endpoint at solver_tol: a loose walk probe
    # understates its norm sum (FISTA's relative-change criterion can
    # trigger while the coefficients are still growing), so what
    # looked feasible may not be.  If polishing flips the verdict, the
    # endpoint becomes a strictly-verified infeasible lo bound and the
    # walk repairs upward — larger penalties mean sparser, cheaper
    # solves, so the repair path costs little.
    if bracket_tol > solver_tol and lo_mu is not None:
        while hi_result is not None:
            polished = polish(hi_result)
            if polished.norm_sum() <= budget:
                hi_result = polished
                break
            lo_mu = hi_mu
            hi_k -= 1
            if hi_k < 1:
                hi_mu, hi_result = mu_max, None
                break
            hi_mu = grid(hi_k)
            hi_result = solve(hi_mu, polished.coef.copy())
    if lo_mu is None:
        # Numerically the budget is never exceeded (degenerate data);
        # return the loosest (feasible) solution found, polished at
        # solver_tol.  If polishing exposes the walk's loose probes as
        # optimistic after all, fall through to a bisection restarted
        # from the strictly-infeasible penalty.
        final = hi_result if hi_result is not None else zero_result()
        if bracket_tol > solver_tol and final.n_iterations > 0:
            final = polish(final)
        if final.norm_sum() <= budget * (1.0 + rtol):
            final.budget = budget
            return final
        lo_mu = final.penalty
        hi_mu, hi_result = mu_max, None
        warm_coef = final.coef.copy()

    # Bisect [lo_mu, hi_mu]: norm_sum(lo_mu) > budget >= norm_sum(hi_mu).
    # ``best`` must always stay on the feasible side: initializing it
    # to the infeasible lo endpoint could return a budget-violating
    # placement when no bisection iterate lands within rtol.
    #
    # Loose probes steer the bisection, but two gates protect its
    # correctness, and both are settled by the strict polish.  First,
    # norm_sum is non-increasing in mu, so a probe at ``mid < hi_mu``
    # reporting a norm sum *below* the feasible endpoint's proves the
    # solve stalled — its feasible verdict cannot be trusted.  Second,
    # a probe is only *accepted* (in the rtol band) on a fully-converged
    # norm sum, never a loose estimate.
    best = hi_result if hi_result is not None else zero_result()
    best_strict = False
    ns_hi = best.norm_sum()
    for _ in range(max_bisections):
        mid = float(np.sqrt(lo_mu * hi_mu))
        result = solve(mid, warm_coef)
        warm_coef = result.coef.copy()
        used = result.norm_sum()
        in_band = abs(used - budget) <= rtol * budget
        strict = bracket_tol == solver_tol
        if not strict and (
            in_band or (used <= budget and used < ns_hi * (1.0 - 1e-6))
        ):
            result = polish(result)
            warm_coef = result.coef.copy()
            used = result.norm_sum()
            in_band = abs(used - budget) <= rtol * budget
            strict = True
        if used > budget:
            lo_mu = mid
            if in_band and strict:
                # Polished slightly-over solution inside the band.
                best, best_strict = result, True
                break
        else:
            hi_mu = mid
            ns_hi = max(ns_hi, used)
            best, best_strict = result, strict
            if in_band:
                break

    if bracket_tol > solver_tol and best.n_iterations > 0 and not best_strict:
        # The bisection ended without an in-band acceptance (whose
        # polish already ran); the returned solution must still be
        # solver_tol-accurate.
        best = polish(best)
    if best.norm_sum() > budget * (1.0 + rtol):
        # Defensive guard: polishing can grow the norm sum past the
        # band when the accepted probe was borderline (or, in the dense
        # regime, badly stalled).  Walk mu back up (norm_sum is
        # non-increasing in mu) until the polished solution is feasible
        # again; mu_max bounds the walk because the zero solution is
        # always feasible.
        mu = best.penalty
        polished = best
        for _ in range(60):
            factor = 2.0 if polished.norm_sum() > budget * 2.0 else 1.05
            mu = min(mu * factor, mu_max)
            polished = polish(solve(mu, polished.coef.copy()))
            if polished.norm_sum() <= budget * (1.0 + rtol):
                best = polished
                break
            if mu >= mu_max:
                best = zero_result()
                break
        else:
            # Should be unreachable (norm_sum falls steeply in mu);
            # scale the coefficients onto the budget as a feasible
            # last resort.
            polished.coef *= budget / polished.norm_sum()
            best = polished
    best.budget = budget
    return best
