"""Secure Aggregation (Sec. 6; Bonawitz et al., CCS 2017).

A four-round interactive protocol making individual device updates
uninspectable by the server: the server only learns the *sum* of the
devices' (quantized) input vectors, provided at least a threshold ``t`` of
devices survive to the Finalization phase.

Structure is faithful to the paper — AdvertiseKeys / ShareKeys (the
Prepare phase), MaskedInputCollection (Commit), Unmasking (Finalization) —
with double masking (pairwise Diffie–Hellman masks + a self mask), Shamir
secret sharing for dropout recovery, and the quadratic server unmasking
cost that motivates running one SecAgg instance per Aggregator over groups
of size at least ``k``.

Cryptographic primitives are *simulation grade* (smaller DH group,
Philox-based PRG); the protocol logic, message flow, threshold semantics
and cost structure match the real system.
"""

from repro.secagg.field import SHAMIR_PRIME, centered_mod
from repro.secagg.shamir import (
    ShamirShare,
    reconstruct_secret,
    reconstruct_secrets_batch,
    share_secret,
    share_secrets_batch,
)
from repro.secagg.dh import (
    DHKeyPair,
    agree,
    agree_batch,
    agree_pairs_batch,
    generate_keypair,
    generate_keypairs_batch,
)
from repro.secagg.bigmod import FixedBaseTable, powmod_batch
from repro.secagg.prg import prg_expand, prg_expand_batch
from repro.secagg.masking import VectorQuantizer
from repro.secagg.protocol import (
    DropoutSchedule,
    SecAggError,
    SecAggMetrics,
    SecAggTranscript,
    SecureAggregationClient,
    SecureAggregationServer,
    run_secure_aggregation,
    run_secure_aggregation_transcript,
)
from repro.secagg.grouped import (
    grouped_secure_sum,
    grouped_secure_sum_transcripts,
)

__all__ = [
    "FixedBaseTable",
    "powmod_batch",
    "SHAMIR_PRIME",
    "centered_mod",
    "ShamirShare",
    "share_secret",
    "share_secrets_batch",
    "reconstruct_secret",
    "reconstruct_secrets_batch",
    "DHKeyPair",
    "generate_keypair",
    "generate_keypairs_batch",
    "agree",
    "agree_batch",
    "agree_pairs_batch",
    "prg_expand",
    "prg_expand_batch",
    "VectorQuantizer",
    "DropoutSchedule",
    "SecAggError",
    "SecAggMetrics",
    "SecAggTranscript",
    "SecureAggregationClient",
    "SecureAggregationServer",
    "run_secure_aggregation",
    "run_secure_aggregation_transcript",
    "grouped_secure_sum",
    "grouped_secure_sum_transcripts",
]
