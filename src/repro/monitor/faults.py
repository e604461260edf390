"""Sensor fault models and online fault-detection policy.

Placed sensors die in the field: readings drop out (NaN from a broken
link), freeze at a stuck code, drift away from calibration, or glitch
into coarse quantization when an ADC loses bits.  This module models
those failure modes as *composable injectors* over sensor streams —
used both by the runtime layer (to exercise graceful degradation, see
:mod:`repro.monitor.fleet`) and by the test suite as fixtures — plus
the :class:`FaultPolicy` describing how the monitor screens readings
for such faults online.

Every injector is a pure function of the clean stream and the cycle
index, which gives two properties the tests rely on:

* **idempotent** — applying the same fault twice equals applying it
  once (corrupted values are input-independent, or quantization which
  is mathematically idempotent);
* **channel-local** — a fault on channel ``q`` never alters any other
  channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.validation import check_integer, check_positive

__all__ = [
    "SensorFault",
    "DropoutFault",
    "StuckAtFault",
    "DriftFault",
    "GlitchFault",
    "FaultPolicy",
    "SCREEN_NAN",
    "SCREEN_RANGE",
    "SCREEN_FROZEN",
]

#: Screen labels reported in :class:`~repro.monitor.fleet.SensorFailure`.
SCREEN_NAN = "nan"
SCREEN_RANGE = "range"
SCREEN_FROZEN = "frozen"


@dataclass(frozen=True)
class SensorFault:
    """Base class: one fault on one sensor channel over a cycle window.

    Parameters
    ----------
    channel:
        Sensor channel (column of the stream) the fault corrupts.
    start:
        First absolute cycle the fault is active.
    duration:
        Number of faulty cycles; ``None`` means permanent (until the
        end of every stream).
    """

    channel: int
    start: int = 0
    duration: Optional[int] = None

    def __post_init__(self) -> None:
        check_integer(self.channel, "channel", minimum=0)
        check_integer(self.start, "start", minimum=0)
        if self.duration is not None:
            check_integer(self.duration, "duration", minimum=1)

    def active(self, t: np.ndarray) -> np.ndarray:
        """Boolean mask of absolute cycles ``t`` where the fault acts."""
        t = np.asarray(t)
        mask = t >= self.start
        if self.duration is not None:
            mask = mask & (t < self.start + self.duration)
        return mask

    def _corrupt(self, values: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Faulty readings replacing ``values`` at absolute cycles ``t``.

        ``values`` has the active-window cycles in its *last* axis;
        ``t`` is the matching ``(W,)`` vector of absolute cycle
        indices.  Subclasses implement the failure physics here.
        """
        raise NotImplementedError

    def apply(self, stream: np.ndarray, t0: int = 0) -> np.ndarray:
        """Return a corrupted copy of ``stream``.

        Parameters
        ----------
        stream:
            ``(T, M)`` single stream or ``(S, T, M)`` stream batch;
            time on the second-to-last axis, channels on the last.
        t0:
            Absolute cycle index of the stream's first row, so faults
            keyed to absolute time compose with chunked replay.
        """
        out = np.array(stream, dtype=float, copy=True)
        if out.ndim not in (2, 3):
            raise ValueError("stream must be (T, M) or (S, T, M)")
        if self.channel >= out.shape[-1]:
            raise ValueError(
                f"fault channel {self.channel} out of range for "
                f"{out.shape[-1]} channels"
            )
        n_cycles = out.shape[-2]
        t = np.arange(t0, t0 + n_cycles)
        idx = np.nonzero(self.active(t))[0]
        if idx.size:
            out[..., idx, self.channel] = self._corrupt(
                out[..., idx, self.channel], t[idx]
            )
        return out


@dataclass(frozen=True)
class DropoutFault(SensorFault):
    """Reading link lost: the channel reports NaN."""

    def _corrupt(self, values: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.full_like(values, np.nan)


@dataclass(frozen=True)
class StuckAtFault(SensorFault):
    """Channel frozen at a constant code (stuck-at-value)."""

    value: float = 0.0

    def _corrupt(self, values: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.full_like(values, float(self.value))


@dataclass(frozen=True)
class DriftFault(SensorFault):
    """Sensor decoupled from its calibration point, ramping away.

    From ``start`` the channel reports ``anchor + rate * (t - start)``
    — an anchored ramp rather than an offset added to the live signal,
    which models a reference-loss failure and keeps the injector
    idempotent (the faulty reading is input-independent).
    """

    anchor: float = 1.0
    rate: float = 0.0

    def _corrupt(self, values: np.ndarray, t: np.ndarray) -> np.ndarray:
        ramp = self.anchor + self.rate * (t - self.start).astype(float)
        return np.broadcast_to(ramp, values.shape).copy()


@dataclass(frozen=True)
class GlitchFault(SensorFault):
    """ADC degradation: readings snap to a coarse quantization grid.

    Quantization is mathematically idempotent; with a power-of-two
    ``lsb`` it is exactly so in floating point.
    """

    lsb: float = 0.0625
    origin: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive(self.lsb, "lsb")

    def _corrupt(self, values: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self.origin + np.round((values - self.origin) / self.lsb) * self.lsb


@dataclass(frozen=True)
class FaultPolicy:
    """Online fault-screening configuration of the runtime monitor.

    Three screens run per sensor per cycle, with fixed priority when
    several fire at once (``nan`` > ``range`` > ``frozen``):

    * **nan** — the reading is not finite.
    * **range** — the reading is outside ``[v_lo, v_hi]``, the
      physically plausible supply band.
    * **frozen** — the reading has stayed within ``frozen_eps`` of the
      previous reading for ``frozen_window`` consecutive cycles (a
      stuck sensor; real supply nets always show cycle noise).

    Detections are *permanent*: once a sensor is flagged the monitor
    fails over to the leave-that-sensor-out fallback model and never
    trusts the channel again (see
    :meth:`~repro.core.pipeline.PlacementModel.fallback_models`).
    """

    v_lo: float = 0.5
    v_hi: float = 1.5
    frozen_window: int = 8
    frozen_eps: float = 0.0

    def __post_init__(self) -> None:
        if not self.v_lo < self.v_hi:
            raise ValueError("v_lo must be < v_hi")
        check_integer(self.frozen_window, "frozen_window", minimum=2)
        if self.frozen_eps < 0:
            raise ValueError("frozen_eps must be >= 0")
