"""GCED configuration, including the ablation switches of Table VIII."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.metrics.hybrid import HybridWeights

__all__ = ["GCEDConfig"]


@dataclass(frozen=True)
class GCEDConfig:
    """Tunable knobs of the GCED pipeline.

    Attributes:
        weights: (α, β, γ) of the hybrid score (Eq. 5).
        clip_times: M, the number of clip iterations (Sec. III-F2, tuned by
            experiments; the paper's worked example uses 1, our default 2).
        max_answer_sentences: cap on the minimal sentence subset ASE may
            select.
        use_ase / use_qws / use_grow / use_clip: ablation switches for the
            pipeline stages ("w/o ASE" rows of Table VIII).
        use_informativeness / use_conciseness / use_readability: criterion
            ablations; disabling one redistributes its hybrid weight over
            the remaining criteria ("w/o I" rows of Table VIII).
        incremental_scoring: route the clip search through the
            incremental scoring engine (:mod:`repro.core.scoring`).
            Outputs are bit-identical with the engine on or off; the
            switch exists for equivalence tests and debugging.
    """

    weights: HybridWeights = field(default_factory=HybridWeights)
    clip_times: int = 2
    max_answer_sentences: int = 3
    incremental_scoring: bool = True
    use_ase: bool = True
    use_qws: bool = True
    use_grow: bool = True
    use_clip: bool = True
    use_informativeness: bool = True
    use_conciseness: bool = True
    use_readability: bool = True

    def __post_init__(self) -> None:
        if self.clip_times < 0:
            raise ValueError("clip_times must be non-negative")
        if self.max_answer_sentences < 1:
            raise ValueError("max_answer_sentences must be at least 1")
        if not (
            self.use_informativeness or self.use_conciseness or self.use_readability
        ):
            raise ValueError("at least one scoring criterion must stay enabled")

    def effective_weights(self) -> HybridWeights:
        """Hybrid weights with disabled criteria zeroed and renormalized."""
        alpha = self.weights.alpha if self.use_informativeness else 0.0
        beta = self.weights.beta if self.use_readability else 0.0
        gamma = self.weights.gamma if self.use_conciseness else 0.0
        total = alpha + beta + gamma
        return HybridWeights(alpha / total, beta / total, gamma / total)

    def ablate(self, component: str) -> "GCEDConfig":
        """Return a copy with one named component disabled.

        ``component`` is one of: "ase", "qws", "grow", "clip", "i", "c",
        "r" — matching the rows of Table VIII.
        """
        mapping = {
            "ase": {"use_ase": False},
            "qws": {"use_qws": False},
            "grow": {"use_grow": False},
            "clip": {"use_clip": False},
            "i": {"use_informativeness": False},
            "c": {"use_conciseness": False},
            "r": {"use_readability": False},
        }
        if component not in mapping:
            raise KeyError(f"unknown component {component!r}; known: {sorted(mapping)}")
        return replace(self, **mapping[component])
