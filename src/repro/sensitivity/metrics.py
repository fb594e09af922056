"""Tolerance metrics fitted from a latency-sensitivity sweep.

The paper frames latency tolerance as the gap between two extremes.  A
perfectly tolerant throughput core hides every cycle of injected latency
behind other warps' work, so its runtime does not move; a core with no
tolerance left is latency-bound, so its runtime scales proportionally
with the unloaded load latency.  For each sweep point this module places
the measured runtime on that axis:

``tolerance(point) = (worst - cycles) / (worst - baseline)``

where ``baseline`` is the unperturbed runtime and ``worst = baseline *
nominal(derived) / nominal(base)`` is the latency-bound extrapolation
from the analytic unloaded-latency estimate
(:func:`~repro.sensitivity.transforms.nominal_dram_latency`).  The value
is clamped to ``[0, 1]``: 1 means fully hidden, 0 means every injected
cycle showed up in the runtime.

Three headline metrics summarize a curve:

* ``slope_cycles_per_injected`` — least-squares slope of total cycles
  versus nominal injected per-load latency (``None`` for sweeps that
  inject no latency, e.g. MSHR/warp-count transforms);
* ``slope_cycles_per_scale`` — least-squares slope of total cycles
  versus the sweep scale factor (always available);
* ``half_tolerance_scale`` / ``half_tolerance_injected`` — the
  (linearly interpolated) sweep point at which tolerance first drops
  below one half: past it, the core exposes more injected latency than
  it hides.  ``None`` when tolerance never crosses 0.5 in the swept
  range, or when the sweep injects no latency.

The per-point exposed fraction (from the existing Figure 2 machinery,
:mod:`repro.core.exposure`) rides along as the ``exposed_fraction``
curve so reports can show *which* latency became exposed, not just that
runtime grew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.utils.codec import Codec
from repro.utils.errors import ExperimentError


@dataclass(frozen=True)
class SensitivityPoint(Codec):
    """One sweep point: a perturbed configuration and its measurements.

    ``scale`` is the sweep scale factor (the transform chain's identity
    scale for the unperturbed baseline point), ``transform`` the compact
    token of the applied chain (empty for the baseline),
    ``injected_latency`` the nominal per-load latency delta versus the
    base configuration, and ``cycles`` / ``exposed_fraction`` /
    ``total_loads`` the measured results.
    """

    scale: float
    config: str
    transform: str
    injected_latency: int
    cycles: int
    exposed_fraction: float
    total_loads: int = 0


@dataclass(frozen=True)
class ToleranceMetrics(Codec):
    """Fitted tolerance metrics for one sensitivity curve."""

    baseline_cycles: int
    slope_cycles_per_scale: Optional[float] = None
    slope_cycles_per_injected: Optional[float] = None
    half_tolerance_scale: Optional[float] = None
    half_tolerance_injected: Optional[float] = None
    tolerance_curve: Tuple[Tuple[float, float], ...] = ()
    exposed_fraction_curve: Tuple[Tuple[float, float], ...] = ()


def ols_slope(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Ordinary least-squares slope of ``ys`` against ``xs``.

    ``None`` when the fit is undefined (fewer than two points, or no
    variance in ``xs``).
    """
    if len(xs) != len(ys):
        raise ExperimentError(
            f"slope fit needs matching series, got {len(xs)} x / {len(ys)} y"
        )
    if len(xs) < 2:
        return None
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        return None
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return numerator / denominator


def tolerance_at(point: SensitivityPoint, baseline: SensitivityPoint,
                 base_nominal_latency: int) -> Optional[float]:
    """The hidden share of this point's injected latency, in ``[0, 1]``.

    ``None`` when the point injects no latency (the ratio is undefined).
    """
    if point.injected_latency <= 0 or base_nominal_latency <= 0:
        return None
    worst = baseline.cycles * (
        (base_nominal_latency + point.injected_latency)
        / base_nominal_latency
    )
    span = worst - baseline.cycles
    if span <= 0:
        return None
    tolerance = (worst - point.cycles) / span
    return min(1.0, max(0.0, tolerance))


def _interpolate_crossing(
    curve: Sequence[Tuple[float, float]], threshold: float = 0.5
) -> Optional[float]:
    """The x at which a (sorted-by-x) curve first crosses below threshold."""
    previous: Optional[Tuple[float, float]] = None
    for x, y in curve:
        if y < threshold:
            if previous is None:
                return x
            x0, y0 = previous
            if y0 == y:
                return x
            return x0 + (x - x0) * (y0 - threshold) / (y0 - y)
        previous = (x, y)
    return None


def fit_tolerance(points: Sequence[SensitivityPoint],
                  base_nominal_latency: int) -> ToleranceMetrics:
    """Fit :class:`ToleranceMetrics` from one curve's sweep points.

    ``points`` must include the unperturbed baseline — the point with an
    empty ``transform`` token (the sweep runner always includes it; for
    hand-built lists the least-injected point is used as a fallback).
    Points are fitted in order of ascending scale.
    """
    if not points:
        raise ExperimentError("cannot fit tolerance metrics from no points")
    ordered = sorted(points, key=lambda point: (point.scale,
                                                point.injected_latency))
    # The unperturbed baseline carries an empty transform token; fall
    # back to the least-injected point for hand-built point lists.
    unperturbed = [point for point in ordered if not point.transform]
    baseline = (unperturbed[0] if unperturbed
                else min(ordered, key=lambda point: point.injected_latency))
    scales = [point.scale for point in ordered]
    cycles = [float(point.cycles) for point in ordered]
    injected = [float(point.injected_latency) for point in ordered]

    slope_scale = ols_slope(scales, cycles)
    slope_injected = (ols_slope(injected, cycles)
                      if any(value > 0 for value in injected) else None)

    tolerance_curve: List[Tuple[float, float]] = []
    injected_tolerance: List[Tuple[float, float]] = []
    for point in ordered:
        tolerance = tolerance_at(point, baseline, base_nominal_latency)
        if tolerance is None:
            continue
        tolerance_curve.append((point.scale, tolerance))
        injected_tolerance.append((float(point.injected_latency), tolerance))
    if tolerance_curve:
        # By definition the baseline hides all (zero) injected latency;
        # anchoring it keeps the half-tolerance interpolation honest.
        # Axes that inject no latency get no tolerance curve at all.
        tolerance_curve.append((baseline.scale, 1.0))
        injected_tolerance.append((0.0, 1.0))
        tolerance_curve.sort(key=lambda pair: pair[0])
        injected_tolerance.sort(key=lambda pair: pair[0])

    half_scale = None
    half_injected = None
    if len(tolerance_curve) > 1:
        half_scale = _interpolate_crossing(tolerance_curve)
        half_injected = _interpolate_crossing(injected_tolerance)

    return ToleranceMetrics(
        baseline_cycles=baseline.cycles,
        slope_cycles_per_scale=slope_scale,
        slope_cycles_per_injected=slope_injected,
        half_tolerance_scale=half_scale,
        half_tolerance_injected=half_injected,
        tolerance_curve=tuple(tolerance_curve),
        exposed_fraction_curve=tuple(
            (point.scale, point.exposed_fraction) for point in ordered),
    )
