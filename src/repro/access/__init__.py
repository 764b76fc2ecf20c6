"""Access models: how an LCA is allowed to touch the instance.

The paper's dichotomy is exactly about access power:

* plain **query access** (:class:`QueryOracle`) — Section 3 proves no
  sublinear LCA exists under it;
* **weighted sampling** (:class:`WeightedSampler`) — Section 4 shows it
  suffices for a ``(1/2, 6eps)``-approximate LCA.

:class:`SeedChain` supplies the shared read-only random seed both models
assume, split into shared-vs-per-run streams per Definition 2.5.

Batch access in either model is *columnar*: :class:`SampleBlock` carries
a whole batch of draws (or point queries) as parallel numpy columns,
charged once per block at one cost unit per row — see
:mod:`repro.access.blocks` and ``docs/performance.md``.
"""

from .blocks import SampleBlock
from .cost import CostMeter, ensure_cost_meter
from .oracle import FunctionInstance, QueryOracle
from .seeds import SeedChain, fresh_nonce
from .transcripts import (
    RecordingOracle,
    Transcript,
    TranscriptEntry,
    transcripts_agree,
)
from .weighted_sampler import AliasTable, CustomSampler, Sample, WeightedSampler

__all__ = [
    "CostMeter",
    "ensure_cost_meter",
    "QueryOracle",
    "FunctionInstance",
    "SeedChain",
    "fresh_nonce",
    "WeightedSampler",
    "CustomSampler",
    "Sample",
    "SampleBlock",
    "AliasTable",
    "Transcript",
    "TranscriptEntry",
    "RecordingOracle",
    "transcripts_agree",
]
