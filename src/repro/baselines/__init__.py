"""Hardware baselines the paper compares against (TCAM)."""

from .tcam_classifier import TcamClassifier

__all__ = ["TcamClassifier"]
