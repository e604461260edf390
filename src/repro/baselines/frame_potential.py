"""FrameSense: greedy frame-potential minimization (arXiv 1305.6292).

Ranieri, Chebira & Vetterli select sensors by *worst-out* elimination
on the frame potential ``FP(S) = sum_{i,j in S} <v_i, v_j>^2`` of the
unit-normalized candidate columns: starting from all candidates,
repeatedly remove the one whose removal decreases FP the most (the
most redundant column), until the budget remains.  The greedy is
near-optimal w.r.t. the mean-squared reconstruction error bound in the
paper.

The elimination sequence does not depend on the target budget, so the
survivor sets are nested — reversing the removal order yields a full
priority ranking (last survivor = highest priority) with the prefix
property the :class:`~repro.baselines.placer.Placer` base requires.

Removing candidate ``k`` from the survivor set changes FP by
``-(2 * rowsum_k - G2[k, k])`` where ``G2 = (V^T V)^2`` elementwise
and ``rowsum_k`` sums ``G2[k]`` over the current survivors, so each
elimination step is an O(M) update on cached row sums and the whole
ranking costs O(M^2) after the Gram.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.placer import Placer, register_placer
from repro.core.normalization import Standardizer
from repro.utils.validation import check_matrix

__all__ = ["frame_potential_ranking", "FramePotentialPlacer"]


def frame_potential_ranking(X: np.ndarray) -> np.ndarray:
    """All candidates ranked by reverse frame-potential elimination.

    Parameters
    ----------
    X:
        ``(N, M)`` raw candidate voltages; columns are standardized and
        unit-normalized so FP measures angular redundancy only.

    Returns
    -------
    np.ndarray
        ``(M,)`` candidate indices, best (last eliminated) first.  The
        top-q prefix is FrameSense's budget-q selection.  Of candidates
        tied on the FP decrease, the highest index is eliminated first,
        so exact ties rank toward the lower candidate index.
    """
    X = check_matrix(X, "X")
    Z = Standardizer().fit_transform(X)
    norms = np.linalg.norm(Z, axis=0)
    norms = np.where(norms < 1e-12, 1.0, norms)
    V = Z / norms

    n_candidates = V.shape[1]
    G2 = (V.T @ V) ** 2
    diag = np.diag(G2).copy()
    rowsum = G2.sum(axis=1)  # over current survivors (all, initially)
    alive = np.ones(n_candidates, dtype=bool)
    removal = np.empty(n_candidates, dtype=np.int64)

    for step in range(n_candidates):
        # FP decrease from removing k: off-diagonal terms count twice.
        decrease = 2.0 * rowsum - diag
        decrease[~alive] = -np.inf
        # Last maximum: the higher index of a tie goes first, so the
        # lower one survives longer and ranks ahead of it.
        k = n_candidates - 1 - int(np.argmax(decrease[::-1]))
        removal[step] = k
        alive[k] = False
        rowsum -= G2[:, k]

    return removal[::-1].copy()


@register_placer
class FramePotentialPlacer(Placer):
    """Greedy worst-out frame-potential minimization (FrameSense)."""

    name = "frame_potential"

    def _rank_scope(self, X, F, budget, rng, constraints, meta):
        return frame_potential_ranking(X)
