"""Unified sensor-placement protocol.

Every placement algorithm in the library — the paper's group lasso,
the six ad-hoc baselines, and the modern competitors (QR/DEIM
pivoting, frame-potential minimization, failure-robust greedy) — is a
:class:`Placer`: it ranks one core's candidates by priority and the
base class takes the top ``budget`` of every core's ranking and
assembles a validated :class:`Placement`.

The contract (pinned by ``tests/test_placer_properties.py``):

* ``place(dataset, budget)`` returns exactly ``budget`` distinct,
  in-bounds candidate columns per core, sorted ascending.  Placement
  is per core, as in the paper: core ``c``'s sensors are chosen among
  core ``c``'s blank-area candidates.
* **Tie-break policy**: candidates with equal scores are ordered by
  ascending candidate index (all rankings use stable sorts /
  first-winner argmax; ``frame_potential`` eliminates the *last*
  maximum, so the lower index survives longer and ranks first).  The
  one exception is ``qr_pivot``, which follows LAPACK's pivot order:
  its column swaps can put a higher index first among exact ties.
* **Determinism**: given the same dataset, budget, and constraints
  (including ``seed``), ``place`` returns the same placement.
  Stochastic placers (``uses_rng``) thread one generator sequentially
  through the cores.

Placers take no constructor arguments: everything a caller can set
lives on :class:`PlacementConstraints`.  Implementations register
themselves in a process-global registry (:func:`register_placer`) so
experiments, test suites and tournaments place through
:func:`get_placer` and can enumerate every available algorithm
(:func:`available_placers`).
"""

from __future__ import annotations

import abc
import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Type

import numpy as np

from repro.obs import get_registry
from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import check_integer
from repro.voltage.dataset import VoltageDataset

__all__ = [
    "PlacementConstraints",
    "Placement",
    "Placer",
    "register_placer",
    "get_placer",
    "available_placers",
]


@dataclass(frozen=True, eq=False)
class PlacementConstraints:
    """Settings a :class:`Placer` reads.

    Attributes
    ----------
    emergency_threshold:
        Emergency threshold in volts for placers that need ground-truth
        emergency labels (Eagle-Eye).
    seed:
        Seed (or generator) for stochastic placers; deterministic
        placers ignore it.
    """

    emergency_threshold: Optional[float] = None
    seed: RngLike = 0


@dataclass
class Placement:
    """The outcome of a :meth:`Placer.place` call.

    Attributes
    ----------
    selected_cols:
        Selected candidate columns in dataset X indexing, sorted.
    placer:
        Registry name of the algorithm that produced it.
    budget:
        Sensors requested per core.
    per_core_cols:
        Selected columns grouped per core.
    meta:
        Placer-specific diagnostics (``meta["scopes"][core_index]``
        holds per-core entries, e.g. the robust placer's worst-case
        bound or the group-lasso placer's final lambda).
    """

    selected_cols: np.ndarray
    placer: str
    budget: int
    per_core_cols: Dict[int, np.ndarray] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.selected_cols = np.asarray(self.selected_cols, dtype=np.int64)

    @property
    def n_sensors(self) -> int:
        """Total sensors placed."""
        return int(self.selected_cols.shape[0])


class Placer(abc.ABC):
    """Base class implementing the shared placement policy.

    Subclasses implement :meth:`_rank_scope` — return one core's
    candidates in priority order (best first) — and the base takes the
    first ``budget`` entries of every core's ranking, records
    per-placer obs metrics, and assembles the :class:`Placement`.

    Class attributes
    ----------------
    name:
        Registry name (``register_placer`` keys on it).
    uses_rng:
        Whether the placer consumes ``constraints.seed``; deterministic
        placers receive ``rng=None``.
    """

    name: str = "abstract"
    uses_rng: bool = False

    @abc.abstractmethod
    def _rank_scope(
        self,
        X: np.ndarray,
        F: np.ndarray,
        budget: int,
        rng: Optional[np.random.Generator],
        constraints: PlacementConstraints,
        meta: Dict[str, Any],
    ) -> np.ndarray:
        """Rank one core's candidates by priority (best first).

        Parameters
        ----------
        X:
            ``(N, m)`` raw candidate voltages of this core.
        F:
            ``(N, k)`` raw critical-node voltages of this core.
        budget:
            Sensors that will be taken from the front of the ranking.
        rng:
            The threaded generator (``None`` unless ``uses_rng``).
        constraints:
            The caller's settings (threshold, seed).
        meta:
            Starts empty; anything an implementation stores there is
            surfaced as ``Placement.meta["scopes"][core_index]``.

        Returns
        -------
        np.ndarray
            Distinct local candidate indices (into X's columns), best
            first, of length >= ``budget``.
        """

    def place(
        self,
        dataset: VoltageDataset,
        budget: int,
        constraints: Optional[PlacementConstraints] = None,
    ) -> Placement:
        """Place ``budget`` sensors in every core of ``dataset``.

        Parameters
        ----------
        dataset:
            Training data (candidate voltages X, critical voltages F).
        budget:
            Sensors per core.
        constraints:
            Placement settings; defaults to no threshold, seed 0.

        Raises
        ------
        ValueError
            If a core has fewer candidates than ``budget``.
        """
        check_integer(budget, "budget", minimum=1)
        if constraints is None:
            constraints = PlacementConstraints()

        registry = get_registry()
        t0 = _time.perf_counter() if registry.enabled else 0.0

        rng = make_rng(constraints.seed) if self.uses_rng else None
        scopes = dataset.scopes()
        if not scopes:
            raise ValueError("dataset has no blocks to place sensors for")

        per_core_cols: Dict[int, np.ndarray] = {}
        scope_meta: Dict[int, Dict[str, Any]] = {}
        for core, candidate_cols, block_cols in scopes:
            pool = int(candidate_cols.size)
            where = f" in core {core}"
            if pool < budget:
                raise ValueError(
                    f"cannot select {budget} sensors from {pool} "
                    f"candidates{where}"
                )
            meta: Dict[str, Any] = {}
            order = np.asarray(
                self._rank_scope(
                    dataset.X[:, candidate_cols],
                    dataset.F[:, block_cols],
                    budget,
                    rng,
                    constraints,
                    meta,
                ),
                dtype=np.int64,
            )
            self._check_ranking(order, pool, budget, where)
            per_core_cols[core] = np.sort(candidate_cols[order[:budget]])
            if meta:
                scope_meta[core] = meta

        selected = np.sort(np.concatenate(list(per_core_cols.values())))

        if registry.enabled:
            registry.timer(f"placer.{self.name}.place").record(
                _time.perf_counter() - t0
            )
            registry.counter(f"placer.{self.name}.placements").inc()
            registry.counter(f"placer.{self.name}.sensors").inc(
                int(selected.size)
            )

        return Placement(
            selected_cols=selected,
            placer=self.name,
            budget=int(budget),
            per_core_cols=per_core_cols,
            meta={"scopes": scope_meta} if scope_meta else {},
        )

    def _check_ranking(
        self, order: np.ndarray, pool: int, budget: int, where: str
    ) -> None:
        """Validate a core's ranking: 1-D, in-bounds, distinct, long enough."""
        if order.ndim != 1:
            raise ValueError(
                f"placer {self.name!r} returned a non-1-D ranking{where}"
            )
        if order.size < budget:
            raise ValueError(
                f"placer {self.name!r} ranked only {order.size} of "
                f"{budget} required candidates{where}"
            )
        if order.min() < 0 or order.max() >= pool:
            raise ValueError(
                f"placer {self.name!r} ranked an out-of-range "
                f"candidate{where}"
            )
        if np.unique(order).size != order.size:
            raise ValueError(
                f"placer {self.name!r} ranked a candidate twice{where}"
            )


#: Process-global registry of placement algorithms, keyed by name.
_PLACERS: Dict[str, Type[Placer]] = {}


def register_placer(cls: Type[Placer]) -> Type[Placer]:
    """Class decorator: register a :class:`Placer` under ``cls.name``.

    Re-registering the same class is a no-op; registering a *different*
    class under an existing name raises (names are the tournament's and
    test suite's identity).
    """
    name = getattr(cls, "name", None)
    if not name or name == "abstract":
        raise ValueError(f"placer class {cls.__name__} must set a name")
    existing = _PLACERS.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"placer name {name!r} already registered by "
            f"{existing.__name__}"
        )
    _PLACERS[name] = cls
    return cls


def get_placer(name: str) -> Placer:
    """Instantiate the registered placer ``name``."""
    try:
        cls = _PLACERS[name]
    except KeyError:
        raise KeyError(
            f"unknown placer {name!r}; available: "
            f"{', '.join(available_placers())}"
        ) from None
    return cls()


def available_placers() -> Tuple[str, ...]:
    """Names of all registered placers, sorted."""
    return tuple(sorted(_PLACERS))
