"""Graceful-degradation policies: pathological conditions become flags.

Production resolution runs hit conditions that are neither clean successes
nor crash-worthy failures — an empty candidate set, an all-NaN feature
column, a singular covariance block rescued by jitter, EM stopping on a
time budget. The policy here is *downgrade and record*: the engine produces
a defined output (empty result, imputed column, jittered factorization,
best-so-far parameters) and files a :class:`HealthFlag` describing what was
degraded, instead of raising or silently proceeding.

Recording is scoped: the engine calls :func:`record_condition` from deep
inside EM or linear algebra, and whichever :func:`health_scope` is active
(opened by ``ResolutionSession.match`` or ``IncrementalResolver.resolve``)
collects the flag. With no scope active, recording is a no-op — library
users who call ``ZeroER.fit`` directly pay nothing unless they opt in.

The collected :class:`HealthReport` rides on ``ERResult.health`` /
``ResolveResult.health`` and is embedded in run reports
(``ERResult.report()["health"]``) next to the spans and metrics.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field

__all__ = [
    "EMPTY_CANDIDATE_SET",
    "ALL_NAN_FEATURE_COLUMN",
    "SINGULAR_COVARIANCE_FALLBACK",
    "EM_NON_CONVERGENCE",
    "EM_TIME_BUDGET_EXHAUSTED",
    "EM_RESUMED_FROM_CHECKPOINT",
    "ARTIFACT_IO_RETRIED",
    "HealthFlag",
    "HealthReport",
    "health_scope",
    "active_health",
    "record_condition",
]

#: Blocking produced zero candidate pairs; the run returns an empty result.
EMPTY_CANDIDATE_SET = "empty_candidate_set"
#: A feature column was entirely NaN; it is imputed to a constant and
#: carries no signal.
ALL_NAN_FEATURE_COLUMN = "all_nan_feature_column"
#: A covariance block failed plain Cholesky and was factorized with
#: diagonal jitter (rank-deficient features). Blocks are factorized once
#: when a distribution is built, so the flag's ``count`` is the number of
#: jittered block factorizations: once per singular block per M-step (and
#: per model load), not once per E-step, ``predict_proba`` or explain call.
SINGULAR_COVARIANCE_FALLBACK = "singular_covariance_fallback"
#: EM hit ``max_iter`` without likelihood convergence; the tail-averaged
#: posterior is returned (paper §6).
EM_NON_CONVERGENCE = "em_non_convergence"
#: EM stopped on its wall-clock budget; best-so-far parameters are
#: returned with ``converged=False``.
EM_TIME_BUDGET_EXHAUSTED = "em_time_budget_exhausted"
#: A fit continued from a checkpoint instead of starting at iteration 0.
EM_RESUMED_FROM_CHECKPOINT = "em_resumed_from_checkpoint"
#: A transient I/O failure during an artifact write succeeded on retry.
ARTIFACT_IO_RETRIED = "artifact_io_retried"

_SEVERITIES = ("info", "warning", "error")


@dataclass
class HealthFlag:
    """One recorded condition: what degraded, how bad, and the evidence."""

    condition: str
    severity: str
    message: str
    context: dict = field(default_factory=dict)
    #: How many times the condition was recorded in this scope.
    count: int = 1

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "severity": self.severity,
            "message": self.message,
            "context": dict(self.context),
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HealthFlag":
        return cls(
            condition=data["condition"],
            severity=data.get("severity", "warning"),
            message=data.get("message", ""),
            context=dict(data.get("context", {})),
            count=int(data.get("count", 1)),
        )


class HealthReport:
    """The degradations one run accumulated, deduplicated by condition.

    Re-recording a condition bumps its flag's ``count`` (and upgrades the
    severity if the new occurrence is worse) instead of appending — a fit
    whose covariance needed jitter in 180 of its 200 M-steps yields one
    flag with ``count=180``, not 180 flags.
    """

    def __init__(self):
        self._flags: dict[str, HealthFlag] = {}

    def record(
        self,
        condition: str,
        message: str,
        *,
        severity: str = "warning",
        **context,
    ) -> HealthFlag:
        if severity not in _SEVERITIES:
            raise ValueError(f"severity must be one of {_SEVERITIES}, got {severity!r}")
        flag = self._flags.get(condition)
        if flag is None:
            flag = HealthFlag(condition, severity, message, dict(context))
            self._flags[condition] = flag
        else:
            flag.count += 1
            if _SEVERITIES.index(severity) > _SEVERITIES.index(flag.severity):
                flag.severity = severity
        return flag

    @property
    def flags(self) -> list[HealthFlag]:
        return list(self._flags.values())

    @property
    def conditions(self) -> set[str]:
        return set(self._flags)

    def has(self, condition: str) -> bool:
        return condition in self._flags

    def __getitem__(self, condition: str) -> HealthFlag:
        return self._flags[condition]

    def __len__(self) -> int:
        return len(self._flags)

    @property
    def ok(self) -> bool:
        """No error-severity flags (warnings and infos are degradations, not failures)."""
        return all(flag.severity != "error" for flag in self._flags.values())

    @property
    def degraded(self) -> bool:
        """Any warning- or error-severity flag."""
        return any(flag.severity != "info" for flag in self._flags.values())

    def merge(self, other: "HealthReport") -> "HealthReport":
        """Fold another report's flags into this one (counts accumulate)."""
        for flag in other.flags:
            mine = self._flags.get(flag.condition)
            if mine is None:
                self._flags[flag.condition] = HealthFlag(**flag.to_dict())
            else:
                mine.count += flag.count
                if _SEVERITIES.index(flag.severity) > _SEVERITIES.index(mine.severity):
                    mine.severity = flag.severity
        return self

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "degraded": self.degraded,
            "flags": [flag.to_dict() for flag in self._flags.values()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HealthReport":
        report = cls()
        for payload in data.get("flags", []):
            flag = HealthFlag.from_dict(payload)
            report._flags[flag.condition] = flag
        return report

    def summary(self) -> str:
        """One line for logs: ``healthy`` or the flagged conditions."""
        if not self._flags:
            return "healthy"
        parts = [
            f"{flag.condition}[{flag.severity}]x{flag.count}"
            for flag in self._flags.values()
        ]
        return "degraded: " + ", ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HealthReport({self.summary()})"


_ACTIVE: contextvars.ContextVar[HealthReport | None] = contextvars.ContextVar(
    "repro_health_report", default=None
)


@contextlib.contextmanager
def health_scope(report: HealthReport | None = None):
    """Collect :func:`record_condition` calls into one report for the block.

    Nested scopes layer: the innermost scope collects, and on exit its
    flags are folded into the enclosing scope so an outer caller still sees
    everything that degraded underneath it.
    """
    inner = report if report is not None else HealthReport()
    outer = _ACTIVE.get()
    token = _ACTIVE.set(inner)
    try:
        yield inner
    finally:
        _ACTIVE.reset(token)
        if outer is not None and inner is not outer:
            outer.merge(inner)


def active_health() -> HealthReport | None:
    return _ACTIVE.get()


def record_condition(condition: str, message: str, *, severity: str = "warning", **context):
    """Record into the active scope, if any (no-op otherwise)."""
    report = _ACTIVE.get()
    if report is not None:
        return report.record(condition, message, severity=severity, **context)
    return None
