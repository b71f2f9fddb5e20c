"""Staged execution engine for the GCED pipeline.

The engine decomposes evidence distillation into pluggable, registered
stages (:mod:`repro.engine.stage`, :mod:`repro.engine.registry`) executed
over a shared :class:`~repro.engine.stage.StageContext`, with batch
scheduling delegated to executors (:mod:`repro.engine.executor`) and
per-stage observability collected in a
:class:`~repro.engine.instrumentation.PipelineProfile`.

The engine layer is deliberately free of GCED specifics: the concrete
stages (ASE, QWS, WSPTC, EFC, OEC) live in :mod:`repro.core.stages` and
plug in through the default registry, so ablations and extensions are
stage substitutions rather than in-body branches.
"""

from repro.engine.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    WarmupReport,
    build_executor,
)
from repro.engine.instrumentation import CacheStats, PipelineProfile, StageTiming
from repro.engine.registry import StageRegistry, default_registry, register_stage
from repro.engine.stage import PipelineResources, Stage, StageContext

__all__ = [
    "CacheStats",
    "Executor",
    "ParallelExecutor",
    "PipelineProfile",
    "PipelineResources",
    "SerialExecutor",
    "Stage",
    "StageContext",
    "StageRegistry",
    "StageTiming",
    "WarmupReport",
    "build_executor",
    "default_registry",
    "register_stage",
]
