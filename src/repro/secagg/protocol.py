"""The four-round Secure Aggregation protocol (Sec. 6).

Rounds (names from Bonawitz et al. 2017; Sec. 6 groups them into phases):

* **Round 0 — AdvertiseKeys** (Prepare): devices publish two DH public
  keys; the server broadcasts the roster ``U1``.
* **Round 1 — ShareKeys** (Prepare): each device Shamir-shares its
  pairwise-mask secret key and its self-mask seed among ``U1`` with
  threshold ``t``, encrypted per recipient; the server forwards them.
  Devices that drop out here ("will not have their updates included").
* **Round 2 — MaskedInputCollection** (Commit): devices upload
  double-masked quantized inputs; the server accumulates the sum.  "All
  devices who complete this round will have their model update included."
* **Round 3 — Unmasking** (Finalization): surviving devices reveal self-
  mask shares of committed peers and key shares of dropped peers; the
  server reconstructs, strips masks, and reveals only the sum.  Only a
  threshold of committed devices needs to survive this round.

Dropouts at every stage are injected via :class:`DropoutSchedule`; server
work is accounted in :class:`SecAggMetrics` — the quadratic unmasking cost
is the reason Sec. 6 caps cohorts at "hundreds of users" per Aggregator.

An instance runs on one of two execution planes, chosen per call by
``plane=``: ``"vectorized"`` (the default, every production caller; see
:mod:`repro.secagg.vectorized`) or ``"scalar"``, the per-device state
machines below, kept as the byte-identical reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.secagg.dh import DHKeyPair, agree, generate_keypair, public_key_of
from repro.secagg.encryption import Ciphertext, decrypt, encrypt
from repro.secagg.field import SECRET_BITS, ring_add, ring_sub
from repro.secagg.masking import VectorQuantizer, apply_masks
from repro.secagg.prg import prg_expand
from repro.secagg.shamir import ShamirShare, reconstruct_secret, share_secret


class SecAggError(RuntimeError):
    """Protocol failure: below threshold, or inconsistent state."""


#: Execution planes for one protocol instance: "vectorized" (the default)
#: runs the whole cohort as stacked matrix arithmetic; "scalar" runs one
#: device state machine at a time and is the reference it must match byte
#: for byte, from the same rng draws.
SECAGG_PLANES = ("vectorized", "scalar")


@dataclass(frozen=True)
class DropoutSchedule:
    """Devices that vanish *after* completing the named round."""

    after_advertise: frozenset[int] = frozenset()   # in U1, never share keys
    after_share: frozenset[int] = frozenset()       # in U2, never commit
    after_mask: frozenset[int] = frozenset()        # in U3, never unmask

    @classmethod
    def none(cls) -> "DropoutSchedule":
        return cls()


@dataclass
class SecAggMetrics:
    """Server-side cost accounting for one protocol instance.

    The phase-seconds fields break the vectorized planes' wall time into
    the three sweeps that dominate a round: pairwise seed derivation
    (round 2), PRG expansion + mask arithmetic (round 2), and dropout
    recovery (round 3, a superset of ``server_seconds``' span).  They are
    populated only when a ``timer`` is injected *and* the instance ran on
    a vectorized plane — the scalar plane leaves them 0.0, so cross-plane
    metrics equality (the contract tests' ``==``) holds whenever no timer
    is injected.  Under the cross-group plane each shared sweep's duration
    is attributed to groups proportionally to their share of the sweep's
    work items.
    """

    cohort_size: int = 0
    committed: int = 0
    dropped_before_commit: int = 0
    dropped_after_commit: int = 0
    key_agreements: int = 0
    prg_expansions: int = 0
    shamir_reconstructions: int = 0
    server_seconds: float = 0.0
    key_agreement_seconds: float = 0.0
    masking_seconds: float = 0.0
    recovery_seconds: float = 0.0
    succeeded: bool = False


@dataclass
class SecAggTranscript:
    """Byte-comparable artifacts of one protocol instance.

    Captured by :func:`run_secure_aggregation_transcript` on either plane
    so tests can assert the planes agree round by round, not just on the
    decoded total: the committed masked vectors (round 2), every share as
    delivered to each committed device (round 1), and the unmasked ring
    sum (round 3).  ``shares[receiver][sender]`` is ``(x, s_y, b_y)``.
    """

    masked: dict[int, np.ndarray]
    shares: dict[int, dict[int, tuple[int, int, int]]]
    ring_sum: np.ndarray


@dataclass(frozen=True)
class AdvertisedKeys:
    user_id: int
    c_public: int
    s_public: int


# Wire format of one share payload: two (x, y) Shamir shares, 17 bytes each
# component: 1-byte index + 16-byte field element.
def _encode_shares(s_share: ShamirShare, b_share: ShamirShare) -> bytes:
    def enc(share: ShamirShare) -> bytes:
        return share.x.to_bytes(2, "little") + share.y.to_bytes(16, "little")

    return enc(s_share) + enc(b_share)


def _decode_shares(blob: bytes) -> tuple[ShamirShare, ShamirShare]:
    def dec(chunk: bytes) -> ShamirShare:
        return ShamirShare(
            x=int.from_bytes(chunk[:2], "little"),
            y=int.from_bytes(chunk[2:18], "little"),
        )

    return dec(blob[:18]), dec(blob[18:36])


class SecureAggregationClient:
    """One device's protocol state machine."""

    def __init__(
        self,
        user_id: int,
        input_vector: np.ndarray,
        quantizer: VectorQuantizer,
        threshold: int,
        rng: np.random.Generator,
    ):
        self.user_id = user_id
        self.input_vector = np.asarray(input_vector, dtype=np.float64)
        self.quantizer = quantizer
        self.threshold = threshold
        self.rng = rng
        self.c_keys: DHKeyPair = generate_keypair(rng)
        self.s_keys: DHKeyPair = generate_keypair(rng)
        self.self_mask_seed: int = int.from_bytes(rng.bytes(SECRET_BITS // 8), "little")
        self.roster: dict[int, AdvertisedKeys] = {}
        self.received_shares: dict[int, tuple[ShamirShare, ShamirShare]] = {}
        self.mask_peers: list[int] = []

    # -- Round 0 -------------------------------------------------------------
    def advertise_keys(self) -> AdvertisedKeys:
        return AdvertisedKeys(
            user_id=self.user_id,
            c_public=self.c_keys.public,
            s_public=self.s_keys.public,
        )

    # -- Round 1 -------------------------------------------------------------
    def share_keys(self, roster: dict[int, AdvertisedKeys]) -> list[Ciphertext]:
        """Shamir-share ``s_sk`` and ``b`` among the roster, encrypted."""
        if len(roster) < self.threshold:
            raise SecAggError(
                f"user {self.user_id}: cohort {len(roster)} below threshold "
                f"{self.threshold}"
            )
        self.roster = dict(roster)
        peer_ids = sorted(roster)
        n = len(peer_ids)
        s_shares = share_secret(self.s_keys.secret, n, self.threshold, self.rng)
        b_shares = share_secret(self.self_mask_seed, n, self.threshold, self.rng)
        out: list[Ciphertext] = []
        for idx, peer_id in enumerate(peer_ids):
            if peer_id == self.user_id:
                # Keep own shares locally (they count toward reconstruction).
                self.received_shares[self.user_id] = (s_shares[idx], b_shares[idx])
                continue
            key = agree(self.c_keys.secret, roster[peer_id].c_public)
            payload = _encode_shares(s_shares[idx], b_shares[idx])
            out.append(encrypt(key, self.user_id, peer_id, payload))
        return out

    # -- Round 2 -------------------------------------------------------------
    def masked_input(
        self, delivered: list[Ciphertext], committed_roster: list[int]
    ) -> np.ndarray:
        """Decrypt received shares, then commit the double-masked vector.

        ``committed_roster`` is U2 — every peer that completed ShareKeys;
        pairwise masks are computed against all of them.
        """
        if len(committed_roster) < self.threshold:
            raise SecAggError(
                f"user {self.user_id}: only {len(committed_roster)} peers "
                f"shared keys, below threshold {self.threshold}"
            )
        for ct in delivered:
            key = agree(self.c_keys.secret, self.roster[ct.sender_id].c_public)
            s_share, b_share = _decode_shares(decrypt(key, ct))
            self.received_shares[ct.sender_id] = (s_share, b_share)
        self.mask_peers = [p for p in committed_roster if p != self.user_id]
        pairwise_seeds = {
            p: agree(self.s_keys.secret, self.roster[p].s_public)
            for p in self.mask_peers
        }
        quantized = self.quantizer.quantize(self.input_vector)
        return apply_masks(
            quantized,
            self.self_mask_seed,
            pairwise_seeds,
            self.user_id,
            self.quantizer.modulus_bits,
        )

    # -- Round 3 -------------------------------------------------------------
    def unmask_shares(
        self, survivors: list[int], dropped: list[int]
    ) -> dict[str, dict[int, ShamirShare]]:
        """Reveal b-shares of survivors and s-shares of dropped peers.

        Refuses to reveal both for the same user — that would let an
        honest-but-curious server unmask an individual update.
        """
        overlap = set(survivors) & set(dropped)
        if overlap:
            raise SecAggError(
                f"user {self.user_id}: refusing to reveal both shares for {overlap}"
            )
        b_out: dict[int, ShamirShare] = {}
        s_out: dict[int, ShamirShare] = {}
        for uid in survivors:
            if uid in self.received_shares:
                b_out[uid] = self.received_shares[uid][1]
        for uid in dropped:
            if uid in self.received_shares:
                s_out[uid] = self.received_shares[uid][0]
        return {"self_mask_shares": b_out, "key_shares": s_out}


class SecureAggregationServer:
    """Server role: collects, thresholds, sums, reconstructs, unmasks."""

    def __init__(
        self,
        quantizer: VectorQuantizer,
        threshold: int,
        timer: Callable[[], float] | None = None,
    ):
        self.quantizer = quantizer
        self.threshold = threshold
        # Caller-injected clock (e.g. repro.tools.perf.wall_timer) for the
        # real crypto cost in metrics.server_seconds; None leaves it 0.0 so
        # protocol code itself never reads wall time.
        self._timer = timer
        self.metrics = SecAggMetrics()
        self.roster: dict[int, AdvertisedKeys] = {}
        self.u2: list[int] = []
        self.u3: list[int] = []
        self._masked_sum: np.ndarray | None = None

    # -- Round 0 -------------------------------------------------------------
    def collect_keys(self, advertised: list[AdvertisedKeys]) -> dict[int, AdvertisedKeys]:
        if len(advertised) < self.threshold:
            raise SecAggError(
                f"only {len(advertised)} devices advertised keys, "
                f"threshold is {self.threshold}"
            )
        self.roster = {a.user_id: a for a in advertised}
        self.metrics.cohort_size = len(self.roster)
        return dict(self.roster)

    # -- Round 1 -------------------------------------------------------------
    def route_shares(
        self, all_ciphertexts: dict[int, list[Ciphertext]]
    ) -> tuple[dict[int, list[Ciphertext]], list[int]]:
        """Forward each ciphertext to its recipient; compute U2."""
        self.u2 = sorted(all_ciphertexts)
        if len(self.u2) < self.threshold:
            raise SecAggError(
                f"only {len(self.u2)} devices shared keys, threshold is "
                f"{self.threshold}"
            )
        inboxes: dict[int, list[Ciphertext]] = {uid: [] for uid in self.roster}
        for cts in all_ciphertexts.values():
            for ct in cts:
                if ct.recipient_id in inboxes:
                    inboxes[ct.recipient_id].append(ct)
        return inboxes, list(self.u2)

    # -- Round 2 -------------------------------------------------------------
    def accumulate_masked(self, masked_inputs: dict[int, np.ndarray]) -> list[int]:
        """Sum committed vectors online, as they arrive (never stored)."""
        self.u3 = sorted(masked_inputs)
        if len(self.u3) < self.threshold:
            raise SecAggError(
                f"only {len(self.u3)} devices committed, threshold is "
                f"{self.threshold}"
            )
        bits = self.quantizer.modulus_bits
        acc: np.ndarray | None = None
        for uid in self.u3:
            vec = masked_inputs[uid]
            acc = vec.copy() if acc is None else ring_add(acc, vec, bits)
        self._masked_sum = acc
        self.metrics.committed = len(self.u3)
        self.metrics.dropped_before_commit = len(self.roster) - len(self.u3)
        return list(self.u3)

    # -- Round 3 -------------------------------------------------------------
    def unmask(
        self, responses: dict[int, dict[str, dict[int, ShamirShare]]]
    ) -> np.ndarray:
        """Reconstruct seeds from shares, strip masks, reveal the sum."""
        if self._masked_sum is None:
            raise SecAggError("no committed sum to unmask")
        if len(responses) < self.threshold:
            raise SecAggError(
                f"only {len(responses)} devices answered unmasking, "
                f"threshold is {self.threshold}"
            )
        # Real (not simulated) crypto cost, reported via metrics —
        # observability only, never fed back into event ordering.
        start = self._timer() if self._timer is not None else None
        bits = self.quantizer.modulus_bits
        n = self._masked_sum.shape[0]
        dropped = [uid for uid in self.u2 if uid not in self.u3]
        result = self._masked_sum.copy()

        # 1. Remove self masks of every committed device.
        for uid in self.u3:
            shares = [
                r["self_mask_shares"][uid]
                for r in responses.values()
                if uid in r["self_mask_shares"]
            ]
            if len(shares) < self.threshold:
                raise SecAggError(
                    f"cannot reconstruct self mask of committed device {uid}"
                )
            b_seed = reconstruct_secret(shares[: self.threshold])
            self.metrics.shamir_reconstructions += 1
            result = ring_sub(result, prg_expand(b_seed, n, bits), bits)
            self.metrics.prg_expansions += 1

        # 2. Remove dangling pairwise masks of devices that shared keys but
        #    never committed.  This is the quadratic part: for each dropped
        #    device we re-derive its pairwise seed with every survivor.
        for uid in dropped:
            shares = [
                r["key_shares"][uid]
                for r in responses.values()
                if uid in r["key_shares"]
            ]
            if len(shares) < self.threshold:
                raise SecAggError(
                    f"cannot reconstruct key of dropped device {uid}"
                )
            s_secret = reconstruct_secret(shares[: self.threshold])
            self.metrics.shamir_reconstructions += 1
            recon_public = public_key_of(s_secret)
            if recon_public != self.roster[uid].s_public:
                raise SecAggError(
                    f"reconstructed key for {uid} does not match advertised key"
                )
            for survivor in self.u3:
                seed = agree(s_secret, self.roster[survivor].s_public)
                self.metrics.key_agreements += 1
                mask = prg_expand(seed, n, bits)
                self.metrics.prg_expansions += 1
                # survivor applied +mask if survivor < uid else -mask;
                # subtract exactly what was applied.
                if survivor < uid:
                    result = ring_sub(result, mask, bits)
                else:
                    result = ring_add(result, mask, bits)

        self.metrics.dropped_after_commit = len(self.u3) - len(responses)
        if start is not None:
            self.metrics.server_seconds += self._timer() - start
        self.metrics.succeeded = True
        return result

    def decode_sum(self, ring_sum: np.ndarray) -> np.ndarray:
        return self.quantizer.dequantize_sum(ring_sum)


def _run_scalar(
    inputs: dict[int, np.ndarray],
    threshold: int,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule,
    timer: Callable[[], float] | None,
    capture: bool,
) -> tuple[np.ndarray, SecAggMetrics, SecAggTranscript | None]:
    """The per-device reference plane: one client object per participant."""
    server = SecureAggregationServer(quantizer, threshold, timer=timer)
    clients = {
        uid: SecureAggregationClient(uid, vec, quantizer, threshold, rng)
        for uid, vec in inputs.items()
    }

    # Round 0: AdvertiseKeys.
    roster = server.collect_keys([c.advertise_keys() for c in clients.values()])
    alive = {uid for uid in clients if uid not in dropouts.after_advertise}

    # Round 1: ShareKeys.
    ciphertexts = {uid: clients[uid].share_keys(roster) for uid in sorted(alive)}
    inboxes, u2 = server.route_shares(ciphertexts)
    alive -= dropouts.after_share

    # Round 2: MaskedInputCollection (Commit).
    masked = {
        uid: clients[uid].masked_input(inboxes[uid], u2) for uid in sorted(alive)
    }
    u3 = server.accumulate_masked(masked)
    alive -= dropouts.after_mask

    # Round 3: Unmasking (Finalization).
    dropped = [uid for uid in u2 if uid not in u3]
    responses = {
        uid: clients[uid].unmask_shares(u3, dropped) for uid in sorted(alive)
    }
    ring_sum = server.unmask(responses)

    transcript = None
    if capture:
        transcript = SecAggTranscript(
            masked={uid: masked[uid] for uid in u3},
            shares={
                uid: {
                    sender: (s.x, s.y, b.y)
                    for sender, (s, b) in clients[uid].received_shares.items()
                }
                for uid in u3
            },
            ring_sum=ring_sum,
        )
    return server.decode_sum(ring_sum), server.metrics, transcript


def _dispatch(
    inputs: dict[int, np.ndarray],
    threshold: int,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule | None,
    plane: str,
    timer: Callable[[], float] | None,
    capture: bool,
) -> tuple[np.ndarray, SecAggMetrics, SecAggTranscript | None]:
    dropouts = dropouts or DropoutSchedule.none()
    lengths = {v.shape for v in inputs.values()}
    if len(lengths) != 1:
        raise ValueError(f"input vectors must share a shape, got {lengths}")
    check_plane(plane)
    if plane == "vectorized":
        # Imported lazily: vectorized.py reuses this module's message and
        # error types.
        from repro.secagg.vectorized import run_vectorized

        return run_vectorized(
            inputs, threshold, quantizer, rng, dropouts, timer=timer,
            capture=capture,
        )
    return _run_scalar(
        inputs, threshold, quantizer, rng, dropouts, timer, capture
    )


def check_plane(plane: str) -> None:
    """Reject an unknown execution-plane name."""
    if plane not in SECAGG_PLANES:
        raise ValueError(
            f"secagg plane must be one of {SECAGG_PLANES}, got {plane!r}"
        )


def run_secure_aggregation(
    inputs: dict[int, np.ndarray],
    threshold: int,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule | None = None,
    plane: str = "vectorized",
    timer: Callable[[], float] | None = None,
) -> tuple[np.ndarray, SecAggMetrics]:
    """Orchestrate one full instance over in-memory participants.

    Returns the decoded float sum over devices that committed (round 2),
    and the server's cost metrics.  Raises :class:`SecAggError` if any
    stage falls below the threshold.  ``plane`` is one of
    :data:`SECAGG_PLANES`; both consume the same rng draws and produce
    byte-identical sums, shares, and metrics.  ``timer`` is the injected
    clock for ``metrics.server_seconds``.
    """
    total, metrics, _ = _dispatch(
        inputs, threshold, quantizer, rng, dropouts, plane, timer, False
    )
    return total, metrics


def run_secure_aggregation_transcript(
    inputs: dict[int, np.ndarray],
    threshold: int,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule | None = None,
    plane: str = "vectorized",
    timer: Callable[[], float] | None = None,
) -> tuple[np.ndarray, SecAggMetrics, SecAggTranscript]:
    """Like :func:`run_secure_aggregation`, also returning the transcript.

    The transcript exists so equivalence tests (and the guarded benchmark's
    identity gate) can compare the planes round by round.
    """
    total, metrics, transcript = _dispatch(
        inputs, threshold, quantizer, rng, dropouts, plane, timer, True
    )
    assert transcript is not None
    return total, metrics, transcript
