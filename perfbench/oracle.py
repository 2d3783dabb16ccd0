"""Offline reference for every served event, and detection quality.

The reference runs the inference path by hand on a separately loaded
copy of the bundle, outside the serving plane: ``preprocess``, then the
:class:`~repro.preprocess.canonicalize.Canonicalizer` when the workload
enables it, then ``score_normalized`` on the (uncompiled) model.  A
served result that differs in its dropped flag or verdict, or whose
score differs by more than the tolerance, is a failure.

Why a tolerance at all: the encoder's scores depend on the batch they
are computed in (the chunk composition changes the blocked summation
inside BLAS — see ``CommandEncoder.embed_batch``), and micro-batch
composition depends on arrival timing.  Measured differences are a few
ulps (< 1e-15); the float64 tolerance is ``1e-12``, and the report
counts scores that are not bitwise equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ids import IntrusionDetectionService
from repro.preprocess.canonicalize import Canonicalizer

#: Score tolerance by serving precision.
TOLERANCE = {"float64": 1e-12, "float32": 1e-5}


@dataclass(frozen=True)
class Expected:
    dropped: bool
    text: str
    changed: bool
    score: float
    verdict: bool


class Reference:
    """Expected outcome per distinct raw line."""

    def __init__(self, bundle, canonicalize=None):
        self.service = IntrusionDetectionService.load(bundle)
        self.canonicalizer = None
        self._canon_probe = Canonicalizer(truncation_length=self.service.normalizer.max_length)
        if canonicalize is not None and canonicalize.enabled:
            self.canonicalizer = Canonicalizer(
                decode_base64=canonicalize.decode_base64,
                max_passes=canonicalize.max_passes,
                truncation_length=self.service.normalizer.max_length,
            )
        self.expected: dict[str, Expected] = {}

    def extend(self, lines) -> None:
        """Compute the reference for every line not seen yet (one scoring call)."""
        pending: dict[str, tuple[str | None, bool]] = {}
        for raw in lines:
            if raw in self.expected or raw in pending:
                continue
            text = self.service.preprocess(raw)
            changed = False
            if text is not None:
                # the traffic property is measured whether or not the
                # workload serves the canonicalizer
                changed = self._canon_probe.canonicalize(text).changed
                if self.canonicalizer is not None:
                    text = self.canonicalizer.canonicalize(text).text
            pending[raw] = (text, changed)
        texts = list(dict.fromkeys(text for text, _ in pending.values() if text is not None))
        scores = dict(zip(texts, (float(s) for s in self.service.score_normalized(texts))))
        threshold = self.service.threshold
        for raw, (text, changed) in pending.items():
            if text is None:
                self.expected[raw] = Expected(True, "", False, 0.0, False)
            else:
                score = scores[text]
                self.expected[raw] = Expected(False, text, changed, score, score >= threshold)


@dataclass
class Check:
    mismatches: int = 0
    inexact_scores: int = 0
    max_score_diff: float = 0.0
    examples: list = field(default_factory=list)


def compare(outcomes, reference: Reference, tolerance: float) -> Check:
    """Count served events that disagree with the reference.

    *outcomes* counts events per ``(raw_line, dropped, score, verdict,
    served_text)``.
    """
    check = Check()
    for (raw, dropped, score, verdict, text), events in outcomes.items():
        expected = reference.expected[raw]
        diff = abs(score - expected.score)
        wrong = (
            dropped != expected.dropped
            or verdict != expected.verdict
            or diff > tolerance
            or (not dropped and text != expected.text)
        )
        if score != expected.score:
            check.inexact_scores += events
            check.max_score_diff = max(check.max_score_diff, diff)
        if wrong:
            check.mismatches += events
            if len(check.examples) < 3:
                check.examples.append(
                    {"line": raw, "served": [dropped, score, text],
                     "expected": [expected.dropped, expected.score, expected.text]}
                )
    return check


def detection_quality(outcomes, truth: dict[str, bool]) -> tuple[float, float, int, int]:
    """``(recall, precision, positives, alerts)`` over distinct raw lines.

    A line's verdict does not depend on how often it repeats, so each
    distinct line counts once; its truth is the loggen ground truth
    (``LogRecord.is_malicious``, or a campaign step).
    """
    flagged: dict[str, bool] = {}
    for raw, _, _, verdict, _ in outcomes:
        flagged[raw] = flagged.get(raw, False) or verdict
    positives = sum(truth[line] for line in flagged)
    alerts = sum(flagged.values())
    hits = sum(1 for line, flag in flagged.items() if flag and truth[line])
    recall = hits / positives if positives else 1.0
    precision = hits / alerts if alerts else 1.0
    return recall, precision, positives, alerts
