"""Weight schedulers for the low-resource language.

Three strategies produce the step weight w_t applied to low-resource
sentences in the weighted batch loss:

* constant: w_t = w >= 1 for every step (w = 1, the default, recovers
  unweighted training);
* linear progressive: w_t = 1 before ``t_min``, then a linear ramp from
  ``alpha_ini`` at ``t_min`` to ``alpha_fin`` at ``t_total``;
* dynamic loss-ratio: w_t follows the ratio r of the low-resource average
  batch loss to the high-resource average, thresholded at 1 when r * alpha < 1
  and floored at alpha otherwise, with a configurable safety cap.

``Weighting`` bundles the chosen strategy with its parameters and checks them
when it is built. Schedules are immutable values and weight computation is
pure; ``model.train_step`` spreads the step weight over the batch's
low-resource utterances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .util import require_finite_reals, require_ints

# Below this the high-resource average loss is treated as vanished and the
# ratio is meaningless; the scheduler falls back to weight 1.
DEGENERATE_HIGH_LOSS = 1e-9


class Branch(Enum):
    BEFORE_T_MIN = "before_t_min"
    PROGRESSING = "progressing"
    BELOW_THRESHOLD = "below_threshold"
    RATIO_DOMINATES = "ratio_dominates"
    ALPHA_FLOOR = "alpha_floor"
    CAPPED = "capped"
    CONSTANT = "constant"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class WeightDecision:
    """A computed step weight plus which rule produced it."""

    value: float
    branch: Branch


@dataclass(frozen=True)
class LinearSchedule:
    alpha_ini: float
    alpha_fin: float
    t_min: int
    t_total: int

    def __post_init__(self):
        require_finite_reals(self, "alpha_ini", "alpha_fin")
        require_ints(self, "t_min", "t_total")
        if self.alpha_ini < 1:
            raise ValueError(f"alpha_ini must be >= 1, got {self.alpha_ini}")
        if self.alpha_fin < self.alpha_ini:
            raise ValueError(f"alpha_fin must be >= alpha_ini, got {self.alpha_fin} < {self.alpha_ini}")
        if self.t_min < 0 or self.t_total <= self.t_min:
            raise ValueError(f"need 0 <= t_min < t_total, got t_min={self.t_min}, t_total={self.t_total}")


@dataclass(frozen=True)
class DynamicSchedule:
    alpha: float
    weight_cap: float = 10.0

    def __post_init__(self):
        require_finite_reals(self, "alpha", "weight_cap")
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.weight_cap <= self.alpha:
            raise ValueError(f"weight_cap must exceed alpha, got cap={self.weight_cap}, alpha={self.alpha}")


def linear_weight(s: LinearSchedule, t: int) -> WeightDecision:
    """Linear progressive weight at training step t.

    Discontinuous at t_min by design: 1 jumps to alpha_ini.
    """
    if t < 0:
        raise ValueError(f"step must be non-negative, got {t}")
    if t > s.t_total:
        raise ValueError(f"step {t} exceeds t_total={s.t_total}; this schedule does not extend past it")
    if t < s.t_min:
        return WeightDecision(1.0, Branch.BEFORE_T_MIN)
    value = s.alpha_ini + (s.alpha_fin - s.alpha_ini) * (t - s.t_min) / (s.t_total - s.t_min)
    return WeightDecision(value, Branch.PROGRESSING)


def dynamic_weight(s: DynamicSchedule, avg_low: float, avg_high: float) -> WeightDecision:
    """Loss-ratio weight from the current batch's unweighted language averages."""
    if avg_low < 0 or avg_high < 0:
        raise ValueError(f"average losses must be non-negative, got low={avg_low}, high={avg_high}")
    if not (math.isfinite(avg_low) and math.isfinite(avg_high)):
        raise ValueError("average losses must be finite")
    if avg_high < DEGENERATE_HIGH_LOSS:
        return WeightDecision(1.0, Branch.DEGENERATE)
    ratio = avg_low / avg_high
    if ratio * s.alpha < 1:
        return WeightDecision(1.0, Branch.BELOW_THRESHOLD)
    if ratio >= s.weight_cap:
        return WeightDecision(s.weight_cap, Branch.CAPPED)
    if ratio >= s.alpha:
        return WeightDecision(ratio, Branch.RATIO_DOMINATES)
    return WeightDecision(s.alpha, Branch.ALPHA_FLOOR)


class WeightMode(Enum):
    CONSTANT = "constant"
    LINEAR = "linear"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class Weighting:
    """Weighting strategy for a training run; bundles the mode with its parameters.

    The default, CONSTANT with weight 1, is unweighted training. A Weighting
    holds only what its mode reads: ``constant`` stays 1 outside CONSTANT,
    and only LINEAR holds a ``linear`` schedule and only DYNAMIC a
    ``dynamic`` one.
    """

    mode: WeightMode = WeightMode.CONSTANT
    constant: float = 1.0
    linear: LinearSchedule | None = None
    dynamic: DynamicSchedule | None = None

    def __post_init__(self):
        if not isinstance(self.mode, WeightMode):
            raise ValueError(f"mode must be a WeightMode, got {self.mode!r}")
        require_finite_reals(self, "constant")
        if self.constant < 1:
            raise ValueError(f"constant weight must be >= 1, got {self.constant}")
        if self.mode is not WeightMode.CONSTANT and self.constant != 1:
            raise ValueError(f"{self.mode.name} weighting does not read constant={self.constant}")
        for mode, name, kind in ((WeightMode.LINEAR, "linear", LinearSchedule), (WeightMode.DYNAMIC, "dynamic", DynamicSchedule)):
            schedule = getattr(self, name)
            if schedule is not None and not isinstance(schedule, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {schedule!r}")
            if self.mode is mode and schedule is None:
                raise ValueError(f"{mode.name} weighting requires a {name} schedule")
            if self.mode is not mode and schedule is not None:
                raise ValueError(f"{self.mode.name} weighting does not read the {name} schedule")

    def decide(self, t: int, avg_low: float, avg_high: float) -> WeightDecision:
        """Weight for step t; DYNAMIC reads the batch's unweighted low- and high-resource average losses."""
        if self.mode is WeightMode.CONSTANT:
            return WeightDecision(float(self.constant), Branch.CONSTANT)
        if self.mode is WeightMode.LINEAR:
            return linear_weight(self.linear, t)
        return dynamic_weight(self.dynamic, avg_low, avg_high)
