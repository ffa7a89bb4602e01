"""Posterior result types returned to BayesPerf users."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from scipy import stats


@dataclass(frozen=True)
class EventEstimate:
    """Posterior summary of one event in one time slice."""

    event: str
    mean: float
    std: float

    def __post_init__(self) -> None:
        if self.std < 0:
            raise ValueError("std must be non-negative")

    @property
    def variance(self) -> float:
        return self.std**2

    @property
    def relative_uncertainty(self) -> float:
        """Posterior coefficient of variation (std / |mean|)."""
        return self.std / max(abs(self.mean), 1e-12)

    def interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Symmetric credible interval at the given confidence."""
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        half = stats.norm.ppf(0.5 + confidence / 2.0) * self.std
        return (self.mean - half, self.mean + half)

    def contains(self, value: float, confidence: float = 0.95) -> bool:
        """Whether *value* lies inside the credible interval."""
        low, high = self.interval(confidence)
        return low <= value <= high


class PosteriorReport:
    """Posterior summaries for every monitored event in one time slice.

    Reports from the engine hold their means and stds as array rows:
    :meth:`means` / :meth:`stds` read the rows, and the
    :class:`EventEstimate` objects of :attr:`estimates` are built on first
    access.
    """

    def __init__(
        self,
        tick: int,
        estimates: Optional[Dict[str, EventEstimate]] = None,
        measured_events: Tuple[str, ...] = (),
        ep_iterations: int = 0,
        ep_converged: bool = True,
    ) -> None:
        self.tick = tick
        self.estimates = {} if estimates is None else estimates
        self.measured_events = measured_events
        self.ep_iterations = ep_iterations
        self.ep_converged = ep_converged
        #: ``(events, mean row, std row)`` of an engine report.
        self._rows = None

    @classmethod
    def _from_rows(cls, tick, events, means, stds, measured_events, ep_iterations, ep_converged):
        report = cls.__new__(cls)
        report.tick, report.measured_events = tick, measured_events
        report.ep_iterations, report.ep_converged = ep_iterations, ep_converged
        report._rows = (events, means, stds)
        return report

    @cached_property
    def estimates(self) -> Dict[str, EventEstimate]:
        events, means, stds = self._rows
        return {
            event: EventEstimate(event=event, mean=mean, std=std)
            for event, mean, std in zip(events, means.tolist(), stds.tolist())
        }

    def __contains__(self, event: str) -> bool:
        return event in self.estimates

    def __getitem__(self, event: str) -> EventEstimate:
        return self.estimates[event]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PosteriorReport):
            return NotImplemented
        fields = ("tick", "estimates", "measured_events", "ep_iterations", "ep_converged")
        return all(getattr(self, name) == getattr(other, name) for name in fields)

    __hash__ = None  # type: ignore[assignment]

    def means(self) -> Dict[str, float]:
        if self._rows is not None:
            return dict(zip(self._rows[0], self._rows[1].tolist()))
        return {name: estimate.mean for name, estimate in self.estimates.items()}

    def stds(self) -> Dict[str, float]:
        if self._rows is not None:
            return dict(zip(self._rows[0], self._rows[2].tolist()))
        return {name: estimate.std for name, estimate in self.estimates.items()}

    def most_uncertain(self, count: int = 5) -> Tuple[EventEstimate, ...]:
        """Events with the highest relative posterior uncertainty."""
        ranked = sorted(
            self.estimates.values(), key=lambda e: e.relative_uncertainty, reverse=True
        )
        return tuple(ranked[:count])
