"""Pooled current-map / floorplan / pad-distance features for the surrogate.

The predictor never sees a transient solve — its inputs are exactly
what is known *before* simulation:

* the scenario's per-block power trace (from the shared workload
  front-end, :func:`repro.surrogate.scenarios.scenario_power`),
* the floorplan geometry (block centroids and areas),
* the pad array (distance-to-supply structure), and
* the grid-variant knobs (variation sigmas, pad parasitic scales).

Per block, the dynamic channels summarize the current map the block
injects — peak, sustained-window peak, ramp rate — and each channel is
additionally *patch-pooled* over the floorplan with fixed Gaussian
kernels at several radii.  The pooling is the "convolution" of the
patch-convolution regressor: droop at a block is driven by the current
drawn in its neighborhood, not just by the block itself, and the
pooled channels hand the regressor that neighborhood at three spatial
scales.

Everything here is pure numpy and deterministic; features of a
scenario depend only on that scenario, so batch extraction is
invariant to scenario ordering (property-tested).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.experiments.config import DataConfig
from repro.experiments.data_generation import ChipModel
from repro.powergrid.stamps import (
    pad_resistive_conductance,
    stamp_grid_conductance,
)
from repro.surrogate.scenarios import GridVariant, Scenario, scenario_power

__all__ = ["FeatureExtractor", "POOL_RADII"]

#: Gaussian patch-pooling radii in mm (floorplan length scales: intra-
#: block, neighboring blocks, cross-core).
POOL_RADII = (0.6, 1.2, 2.4)

#: Dynamic per-block channels extracted from the power trace, in order.
_CHANNELS = ("peak", "mean", "q95", "window_peak", "ramp")

#: Channels kept for patch-pooled traces — the cheap trio; the q95
#: quantile is the one temporal statistic whose cost would dominate
#: screening if repeated per pooling radius.
_POOL_CHANNELS = ("peak", "mean", "window_peak")


def _sustained_window(chip: ChipModel) -> int:
    """Averaging window (steps) matched to the pad L/R time constant.

    First-droop depth is governed by current sustained over roughly the
    package time constant, not by one-step spikes; averaging over
    ``L/R / dt`` steps is the cheap stand-in for that low-pass.
    """
    pads = chip.grid.pads
    if not pads:
        return 1
    tau = pads[0].inductance / pads[0].resistance
    return max(1, int(round(tau / chip.config.timestep)))


def _moving_mean_max(power: np.ndarray, window: int) -> np.ndarray:
    """Per-column max of the ``window``-step moving average."""
    if window <= 1 or power.shape[0] <= window:
        return power.max(axis=0)
    csum = np.cumsum(power, axis=0)
    sums = csum[window:] - csum[:-window]
    return np.maximum(csum[window - 1], sums.max(axis=0)) / window


class FeatureExtractor:
    """Turns (scenario, power trace) into per-block feature rows.

    One extractor is bound to one chip model and one variant pool; the
    static geometry (centroids, pad distances, pooling kernels) is
    computed once at construction and shared by every scenario.

    Parameters
    ----------
    chip:
        The nominal chip model.
    variants:
        The grid-variant pool scenarios index into.
    data:
        Step geometry of scenario power traces (the warmup prefix is
        excluded from every dynamic channel).
    pool_radii:
        Gaussian pooling radii in mm.
    use_dc:
        Include the DC droop-map features.  They embed each variant's
        mesh exactly (two back-substitutions per scenario), but their
        cost scales with grid *nodes* while every other feature scales
        with *blocks* — on dense benchmark grids, disabling them keeps
        screening throughput grid-size-independent.
    """

    def __init__(
        self,
        chip: ChipModel,
        variants: Sequence[GridVariant],
        data: DataConfig,
        pool_radii: Sequence[float] = POOL_RADII,
        use_dc: bool = True,
    ) -> None:
        if not variants:
            raise ValueError("FeatureExtractor needs a non-empty variant pool")
        self.chip = chip
        self.variants = tuple(variants)
        self.data = data
        self.pool_radii = tuple(float(r) for r in pool_radii)
        self.window = _sustained_window(chip)

        blocks = chip.floorplan.blocks
        self.n_blocks = len(blocks)
        cx = np.array([b.rect.x + b.rect.width / 2 for b in blocks])
        cy = np.array([b.rect.y + b.rect.height / 2 for b in blocks])
        self.block_area = np.array([b.rect.area for b in blocks])
        self.block_cores = np.array([b.core_index for b in blocks])

        # Pairwise block-centroid distances -> normalized Gaussian
        # pooling kernels, one per radius.  Rows sum to 1, so pooled
        # channels stay in the units of the raw channel.
        d2 = (cx[:, None] - cx[None, :]) ** 2 + (cy[:, None] - cy[None, :]) ** 2
        self.pool_mats: List[np.ndarray] = []
        for radius in self.pool_radii:
            w = np.exp(-d2 / (2.0 * radius * radius))
            self.pool_mats.append(w / w.sum(axis=1, keepdims=True))

        # Pad-distance structure: nearest pad, mean of the 3 nearest,
        # and an effective "spreading conductance" proxy sum(1/(d+p)).
        pads = chip.grid.pads
        px = np.array([chip.grid.coords[p.node, 0] for p in pads])
        py = np.array([chip.grid.coords[p.node, 1] for p in pads])
        pad_d = np.sqrt(
            (cx[:, None] - px[None, :]) ** 2 + (cy[:, None] - py[None, :]) ** 2
        )
        pad_d_sorted = np.sort(pad_d, axis=1)
        pitch = chip.grid.pitch
        self.pad_nearest = pad_d_sorted[:, 0]
        self.pad_near3 = pad_d_sorted[:, : min(3, pad_d.shape[1])].mean(axis=1)
        self.pad_proximity = (1.0 / (pad_d + pitch)).sum(axis=1)

        static = [
            self.block_area,
            self.pad_nearest,
            self.pad_near3,
            self.pad_proximity,
        ]
        self._static = np.column_stack(static)

        # Per-variant DC operators: one sparse LU each, so every
        # scenario's "resistive droop map" costs two back-substitutions
        # instead of a fresh factorization (let alone a transient
        # solve).  At DC the pad inductors are shorts — the LU embeds
        # the variant's mesh variation and pad-resistance corner
        # exactly; what the regressor has left to learn is dynamics.
        self.use_dc = bool(use_dc)
        self._block_nodes = [
            np.asarray(chip.classification.block_nodes[b.name], dtype=np.int64)
            for b in blocks
        ]
        self._dc_lu: List[spla.SuperLU] = []
        self._dc_pad_rhs: List[np.ndarray] = []
        for variant in self.variants if self.use_dc else ():
            vgrid = variant.apply(chip.grid)
            pad_nodes = np.array([p.node for p in vgrid.pads], dtype=np.int64)
            pad_g = pad_resistive_conductance(vgrid)
            pad_diag = np.zeros(vgrid.n_nodes)
            np.add.at(pad_diag, pad_nodes, pad_g)
            system = (
                stamp_grid_conductance(vgrid) + sp.diags(pad_diag, format="csc")
            ).tocsc()
            self._dc_lu.append(spla.splu(system))
            pad_rhs = np.zeros(vgrid.n_nodes)
            np.add.at(pad_rhs, pad_nodes, pad_g * vgrid.vdd)
            self._dc_pad_rhs.append(pad_rhs)

        self._names = self._build_names()

    # ------------------------------------------------------------------
    def _build_names(self) -> Tuple[str, ...]:
        """Stable column labels of the feature matrix."""
        names: List[str] = []
        for ch in _CHANNELS:
            names.append(f"cur.{ch}")
        for radius in self.pool_radii:
            for ch in _POOL_CHANNELS:
                names.append(f"pool{radius:g}.{ch}")
        names += ["chip.peak", "chip.window_peak"]
        if self.use_dc:
            names += ["dc.window_droop", "dc.mean_droop"]
        names += ["geo.area", "pad.nearest", "pad.near3", "pad.proximity"]
        names += [
            "var.resistance_sigma",
            "var.cap_sigma",
            "var.pad_r_scale",
            "var.pad_l_scale",
            "var.pad_r_x_proximity",
        ]
        # The variant pool is finite and shared between training and
        # screening, so each realized variant (including its specific
        # variation draw) earns a one-hot column plus a column scaling
        # the block's sustained current — lets even the linear readout
        # learn per-variant offset *and* gain.
        for v in self.variants:
            names.append(f"var.is_{v.name}")
        for v in self.variants:
            names.append(f"var.{v.name}_x_window")
        return tuple(names)

    @property
    def n_features(self) -> int:
        return len(self._names)

    # ------------------------------------------------------------------
    def _channels(self, current: np.ndarray) -> np.ndarray:
        """``(n_cols, n_channels)`` temporal summary of a current trace.

        Works on any ``(n_steps, n_cols)`` trace — raw per-block
        current, a patch-pooled trace, or the chip total.  Summarizing
        *after* pooling is deliberate: the pooled trace preserves burst
        alignment across neighboring blocks, which is what first-droop
        depth actually responds to.
        """
        diffs = np.diff(current, axis=0)
        ramp = (
            diffs.max(axis=0)
            if diffs.shape[0]
            else np.zeros(current.shape[1])
        )
        return np.column_stack(
            [
                current.max(axis=0),
                current.mean(axis=0),
                np.quantile(current, 0.95, axis=0),
                _moving_mean_max(current, self.window),
                ramp,
            ]
        )

    def _pool_channels(self, trace: np.ndarray) -> np.ndarray:
        """``(n_cols, 3)`` cheap summary of a pooled trace."""
        return np.column_stack(
            [
                trace.max(axis=0),
                trace.mean(axis=0),
                _moving_mean_max(trace, self.window),
            ]
        )

    def _dc_droop(self, variant_idx: int, block_currents: np.ndarray) -> np.ndarray:
        """Per-block worst DC droop (V) of static block-current maps.

        ``block_currents`` is ``(n_blocks, n_maps)``; all maps ride one
        LU solve call.  Returns ``(n_blocks, n_maps)`` droops.
        """
        loads = self.chip.mapper.distribution @ block_currents
        rhs = self._dc_pad_rhs[variant_idx][:, None] - loads
        v = self._dc_lu[variant_idx].solve(rhs)
        vdd = self.chip.config.vdd
        return np.stack(
            [vdd - v[nodes].min(axis=0) for nodes in self._block_nodes]
        )

    def _current(self, power: np.ndarray) -> np.ndarray:
        """Post-warmup per-block current trace in amperes.

        ``power`` is the full trace including warmup; the warmup prefix
        is discarded (it settles the transient state, not the workload
        statistics).  Block power divides by VDD once so channels are
        in amperes — the quantity droop actually responds to.
        """
        recorded = power[self.data.warmup_steps :]
        if recorded.shape[0] == 0:
            raise ValueError("power trace shorter than the warmup prefix")
        return recorded / self.chip.config.vdd

    def extract(
        self, scenario: Scenario, power: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Feature rows ``(n_blocks, n_features)`` of one scenario.

        ``power`` may pass a precomputed :func:`scenario_power` trace;
        otherwise the workload front-end is run here.
        """
        if power is None:
            power = scenario_power(self.chip, scenario, self.data)
        if power.shape[1] != self.n_blocks:
            raise ValueError(
                f"power has {power.shape[1]} blocks, chip has {self.n_blocks}"
            )
        current = self._current(power)
        channels = self._channels(current)
        # Pool the *trace*, then summarize: simultaneity of neighboring
        # bursts survives; pooling the summaries would not keep it.
        pooled = [self._pool_channels(current @ mat.T) for mat in self.pool_mats]
        total = current.sum(axis=1, keepdims=True)
        chip_peak = float(total.max())
        chip_window = float(_moving_mean_max(total, self.window)[0])
        window_col = channels[:, _CHANNELS.index("window_peak")]
        dc_cols: List[np.ndarray] = []
        if self.use_dc:
            dc = self._dc_droop(
                scenario.variant,
                np.column_stack(
                    [window_col, channels[:, _CHANNELS.index("mean")]]
                ),
            )
            dc_cols = [dc[:, 0], dc[:, 1]]
        variant = self.variants[scenario.variant]
        onehot = np.zeros((self.n_blocks, len(self.variants)))
        onehot[:, scenario.variant] = 1.0
        var_cols = np.column_stack(
            [
                np.full(self.n_blocks, variant.resistance_sigma),
                np.full(self.n_blocks, variant.cap_sigma),
                np.full(self.n_blocks, variant.pad_resistance_scale),
                np.full(self.n_blocks, variant.pad_inductance_scale),
                variant.pad_resistance_scale / self.pad_proximity,
                onehot,
                onehot * window_col[:, None],
            ]
        )
        return np.column_stack(
            [
                channels,
                *pooled,
                np.full(self.n_blocks, chip_peak),
                np.full(self.n_blocks, chip_window),
                *dc_cols,
                self._static,
                var_cols,
            ]
        )

    def extract_batch(
        self,
        scenarios: Sequence[Scenario],
        powers: Optional[Sequence[np.ndarray]] = None,
    ) -> np.ndarray:
        """Stacked features ``(n_scenarios * n_blocks, n_features)``.

        Row ``i * n_blocks + b`` is block ``b`` of scenario ``i`` —
        each scenario's rows depend only on that scenario, so the
        output of a permuted batch is the same row blocks permuted.
        """
        rows = [
            self.extract(sc, None if powers is None else powers[i])
            for i, sc in enumerate(scenarios)
        ]
        return np.vstack(rows) if rows else np.empty((0, self.n_features))

    def block_ids(self, n_scenarios: int) -> np.ndarray:
        """Block index of every row of an ``extract_batch`` output."""
        return np.tile(np.arange(self.n_blocks), n_scenarios)
