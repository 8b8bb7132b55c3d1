"""Tests for repro.serve: wire protocol, secure sessions, the offload
service, the open-loop load generator, and the serve lab."""

import fnmatch
import gc
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.attestation import (
    AttestationDevice,
    AttestationError,
    AttestationVerifier,
)
from repro.core.config import MIB, IceClaveConfig
from repro.core.key_management import derive_kek
from repro.core.runtime import IceClaveRuntime
from repro.flash import FlashChip
from repro.flash.geometry import small_geometry
from repro.ftl import Ftl
from repro.host.library import IceClaveLibrary
from repro.host.nvme import NvmeStatus
from repro.resilience.admission import AdmissionConfig, AdmissionController
from repro.resilience.breaker import BreakerBoard, BreakerConfig
from repro.resilience.degrade import DegradationLadder, DegradeConfig
from repro.serve import (
    ArrivalConfig,
    AttestClient,
    OffloadService,
    Reply,
    Request,
    SealedEnvelope,
    ServerSessionManager,
    SessionError,
    WireStatus,
    generate_arrivals,
    make_tenants,
    retry_after_for,
    run_serve_lab,
    status_for_mode,
    status_for_nvme,
)
from repro.serve.lab import GENUINE_BINARY, TROJANED_BINARY, serve_plan_config
from repro.serve.service import DataPathFault
from repro.serve.session import (
    CHANNEL_C2S,
    CHANNEL_S2C,
    SecureChannel,
    _keystream,
    try_handshake,
)
from repro.serve.wire import RETRYABLE

SECRET = b"test-vendor-secret-0001"


# -- wire protocol -------------------------------------------------------------


class TestWire:
    def test_request_round_trip(self):
        request = Request(op="write", lpas=(3, 17, 255), payload=b"hello")
        assert Request.decode(request.encode()) == request

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request(op="erase", lpas=(1,))
        with pytest.raises(ValueError):
            Request(op="read", lpas=())

    def test_reply_round_trip_preserves_float_hint(self):
        reply = Reply(
            status=WireStatus.THROTTLED,
            retry_after_s=2.0000000000000002e-04,
            payload=b"x",
            mode="degraded_readonly",
        )
        decoded = Reply.decode(reply.encode())
        assert decoded == reply
        assert decoded.retry_after_s == reply.retry_after_s

    def test_truncated_and_trailing_blobs_rejected(self):
        blob = Request(op="read", lpas=(1,)).encode()
        with pytest.raises(ValueError):
            Request.decode(blob[:-2])
        with pytest.raises(ValueError):
            Request.decode(blob + b"\x00")

    def test_retry_hints_only_on_retryable_statuses(self):
        for status in WireStatus:
            hint = retry_after_for(status)
            if status in RETRYABLE:
                assert hint > 0.0
            else:
                assert hint == 0.0

    def test_nvme_and_mode_mappings(self):
        assert status_for_nvme(NvmeStatus.COMMAND_ABORTED) is WireStatus.TIMEOUT
        assert (
            status_for_nvme(NvmeStatus.UNRECOVERED_READ_ERROR)
            is WireStatus.READ_ERROR
        )
        assert status_for_nvme(NvmeStatus.WRITE_FAULT) is WireStatus.WRITE_ERROR
        assert status_for_mode("degraded_readonly") is WireStatus.DEGRADED_READONLY
        assert status_for_mode("failsafe") is WireStatus.FAILSAFE


# -- secure channel ------------------------------------------------------------


class TestSecureChannel:
    def _channel(self):
        return SecureChannel(session_id=9, session_key=b"k" * 16)

    def test_seal_open_round_trip(self):
        channel = self._channel()
        envelope = channel.seal(CHANNEL_C2S, 0, b"plaintext payload")
        assert envelope.ciphertext != b"plaintext payload"
        assert channel.open(envelope, CHANNEL_C2S, 0) == b"plaintext payload"

    def test_tampered_ciphertext_fails_auth(self):
        channel = self._channel()
        envelope = channel.seal(CHANNEL_C2S, 0, b"payload")
        flipped = bytes([envelope.ciphertext[0] ^ 1]) + envelope.ciphertext[1:]
        tampered = SealedEnvelope(
            session_id=envelope.session_id, channel=envelope.channel,
            seq=envelope.seq, ciphertext=flipped, tag=envelope.tag,
        )
        with pytest.raises(SessionError) as err:
            channel.open(tampered, CHANNEL_C2S, 0)
        assert err.value.status is WireStatus.AUTH_FAILED

    def test_replayed_sequence_fails_auth(self):
        channel = self._channel()
        envelope = channel.seal(CHANNEL_C2S, 0, b"payload")
        with pytest.raises(SessionError) as err:
            channel.open(envelope, CHANNEL_C2S, 1)
        assert err.value.status is WireStatus.AUTH_FAILED

    def test_reflected_direction_fails_auth(self):
        channel = self._channel()
        envelope = channel.seal(CHANNEL_C2S, 0, b"payload")
        with pytest.raises(SessionError) as err:
            channel.open(envelope, b"s2c", 0)
        assert err.value.status is WireStatus.AUTH_FAILED

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            SecureChannel(session_id=1, session_key=b"short")

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=32),
        session_id=st.integers(min_value=0, max_value=2**64 - 1),
        seq=st.integers(min_value=0, max_value=2**64 - 1),
        direction=st.sampled_from([CHANNEL_C2S, CHANNEL_S2C]),
        plaintext=st.one_of(
            st.binary(max_size=300),
            st.binary(max_size=299).map(lambda b: b"\x00" + b),
        ),
    )
    def test_seal_matches_bytewise_xor_reference(
        self, key, session_id, seq, direction, plaintext
    ):
        channel = SecureChannel(session_id=session_id, session_key=key)
        envelope = channel.seal(direction, seq, plaintext)
        pad = _keystream(key, session_id, direction, seq, len(plaintext))
        assert envelope.ciphertext == bytes(a ^ b for a, b in zip(plaintext, pad))
        assert channel.open(envelope, direction, seq) == plaintext

    def test_known_answer_vector(self):
        # pins the wire bytes: keystream, XOR, and MAC framing together
        channel = SecureChannel(session_id=42, session_key=bytes(range(32)))
        plaintext = b"\x00\x00IceClave sealed reply"
        envelope = channel.seal(CHANNEL_S2C, 7, plaintext)
        assert envelope.ciphertext.hex() == (
            "3c6c3d3a6fb0896e66e69ea63dc00cdff36e84c8da65b7"
        )
        assert envelope.tag.hex() == "c75d3796b998e629"
        assert channel.open(envelope, CHANNEL_S2C, 7) == plaintext


# -- attestation handshake -----------------------------------------------------


def make_endpoints(binary=GENUINE_BINARY):
    device = AttestationDevice(SECRET)
    responder = ServerSessionManager(device, SECRET, binary)
    verifier = AttestationVerifier(SECRET, device.device_id)
    client = AttestClient(verifier, SECRET, GENUINE_BINARY)
    return client, responder


class TestHandshake:
    def test_genuine_handshake_establishes_and_serves(self):
        client, responder = make_endpoints()
        session = client.handshake(responder, client_id=1, entropy=b"e1")
        assert responder.established == 1
        request = Request(op="read", lpas=(4,))
        opened = responder.open_request(session.seal_request(request))
        assert opened == request

    def test_trojaned_responder_is_refused(self):
        client, responder = make_endpoints(binary=TROJANED_BINARY)
        with pytest.raises(AttestationError):
            client.handshake(responder, client_id=1, entropy=b"e1")
        assert try_handshake(client, responder, 2, b"e2") is None

    def test_skipped_verification_still_yields_mismatched_keys(self):
        # a sloppy client that never calls verify() derives its key from
        # the measurement it EXPECTED — against a trojaned server the key
        # simply doesn't match, and the first envelope fails auth
        client, responder = make_endpoints(binary=TROJANED_BINARY)
        challenge = client.challenge(client_id=1, entropy=b"e1")
        grant = responder.attest(challenge)
        expected_key = derive_kek(
            SECRET, client._expected_measurement, challenge.nonce
        )
        channel = SecureChannel(grant.session_id, expected_key)
        envelope = channel.seal(
            CHANNEL_C2S, 0, Request(op="read", lpas=(1,)).encode()
        )
        with pytest.raises(SessionError) as err:
            responder.open_request(envelope)
        assert err.value.status is WireStatus.AUTH_FAILED

    def test_recorded_envelope_does_not_replay(self):
        client, responder = make_endpoints()
        session = client.handshake(responder, client_id=1, entropy=b"e1")
        envelope = session.seal_request(Request(op="write", lpas=(7,)))
        assert responder.open_request(envelope).op == "write"
        # replaying the recorded envelope must fail, and must not
        # desynchronize the session for the next legitimate request
        with pytest.raises(SessionError) as err:
            responder.open_request(envelope)
        assert err.value.status is WireStatus.AUTH_FAILED
        nxt = session.seal_request(Request(op="read", lpas=(8,)))
        assert responder.open_request(nxt).op == "read"

    def test_unknown_session_is_typed(self):
        client, responder = make_endpoints()
        session = client.handshake(responder, client_id=1, entropy=b"e1")
        envelope = session.seal_request(Request(op="read", lpas=(1,)))
        bogus = SealedEnvelope(
            session_id=envelope.session_id + 99, channel=envelope.channel,
            seq=envelope.seq, ciphertext=envelope.ciphertext, tag=envelope.tag,
        )
        with pytest.raises(SessionError) as err:
            responder.open_request(bogus)
        assert err.value.status is WireStatus.UNKNOWN_SESSION

    def test_undecodable_plaintext_is_bad_request(self):
        client, responder = make_endpoints()
        session = client.handshake(responder, client_id=1, entropy=b"e1")
        server_side = responder.session(session.session_id)
        garbage = server_side.channel.seal(CHANNEL_C2S, 0, b"not a request")
        with pytest.raises(SessionError) as err:
            responder.open_request(garbage)
        assert err.value.status is WireStatus.BAD_REQUEST

    def test_reused_entropy_refused(self):
        client, responder = make_endpoints()
        client.handshake(responder, client_id=1, entropy=b"same")
        with pytest.raises(AttestationError):
            client.handshake(responder, client_id=2, entropy=b"same")


# -- the offload service -------------------------------------------------------


def make_library(ladder=None):
    geo = small_geometry()
    ftl = Ftl(geo, chip=FlashChip(geo))
    for lpa in range(32):
        ftl.write(lpa)
    runtime = IceClaveRuntime(
        ftl,
        config=IceClaveConfig(
            dram_bytes=512 * MIB, protected_region_bytes=8 * MIB,
            secure_region_bytes=8 * MIB, tee_preallocation_bytes=4 * MIB,
        ),
    )
    return IceClaveLibrary(runtime, degradation=ladder)


def make_service(**kwargs):
    client, responder = make_endpoints()
    ladder = kwargs.pop("ladder", None)
    service = OffloadService(
        sessions=responder,
        library=make_library(ladder=ladder),
        ladder=ladder,
        **kwargs,
    )
    session = client.handshake(responder, client_id=1, entropy=b"svc")
    return service, session


def roundtrip(service, session, request, now=0.0):
    """Hand one sealed request to the service at ``now`` and open its response."""
    served = service.handle(session.seal_request(request), now)
    if isinstance(served.response, SealedEnvelope):
        return session.open_reply(served.response)
    return served.response


class TestOffloadService:
    def test_read_write_ok(self):
        service, session = make_service()
        assert roundtrip(service, session, Request(op="read", lpas=(3,))).ok
        assert roundtrip(service, session, Request(op="write", lpas=(3,))).ok

    def test_unauthenticated_envelope_refused_in_plaintext(self):
        service, session = make_service()
        envelope = session.seal_request(Request(op="read", lpas=(1,)))
        bogus = SealedEnvelope(
            session_id=envelope.session_id + 5, channel=envelope.channel,
            seq=envelope.seq, ciphertext=envelope.ciphertext, tag=envelope.tag,
        )
        served = service.handle(bogus, 0.0)
        # no session key to seal under: the refusal is a plaintext Reply
        assert isinstance(served.response, Reply)
        assert served.response.status is WireStatus.UNKNOWN_SESSION

    def test_admission_shed_is_throttled_with_hint(self):
        service, session = make_service(
            admission=AdmissionController(
                AdmissionConfig(rate_per_s=1.0, burst=1.0, max_queued=1)
            ),
        )
        assert roundtrip(service, session, Request(op="read", lpas=(1,))).ok
        reply = roundtrip(service, session, Request(op="read", lpas=(2,)))
        assert reply.status is WireStatus.THROTTLED
        assert reply.retry_after_s > 0.0
        assert service.counters["shed_admission"] == 1

    def test_handle_runs_at_the_callers_time(self):
        # the service keeps no clock: the bucket refills only as the
        # caller's sim-time advances
        service, session = make_service(
            admission=AdmissionController(AdmissionConfig(rate_per_s=1.0, burst=1.0)),
        )
        read = Request(op="read", lpas=(1,))
        assert roundtrip(service, session, read, now=0.0).ok
        assert roundtrip(service, session, read, now=0.0).status is WireStatus.THROTTLED
        assert roundtrip(service, session, read, now=1.0).ok

    def test_degraded_readonly_serving(self):
        # satellite: DEGRADED_READONLY keeps serving reads while writes
        # and offloads come back as typed, retryable rejections
        def run_once():
            ladder = DegradationLadder(
                DegradeConfig(integrity_violations_readonly=1)
            )
            service, session = make_service(ladder=ladder)
            ladder.note_integrity_violation(0.0)
            outcomes = []
            for request in (
                Request(op="write", lpas=(3,)),
                Request(op="read", lpas=(3,)),
                Request(op="offload", lpas=(0,), payload=b"\x90"),
            ):
                reply = roundtrip(service, session, request)
                outcomes.append(
                    (reply.status, repr(reply.retry_after_s), reply.mode)
                )
            return outcomes

        outcomes = run_once()
        write, read, offload = outcomes
        assert write[0] is WireStatus.DEGRADED_READONLY
        assert float(write[1]) > 0.0
        assert write[2] == "degraded_readonly"
        assert read[0] is WireStatus.OK
        assert offload[0] is WireStatus.DEGRADED_READONLY
        # byte-identical across two fresh stacks: degraded-mode serving is
        # deterministic, not a timing accident
        assert outcomes == run_once()

    def test_failsafe_refuses_reads(self):
        ladder = DegradationLadder(
            DegradeConfig(
                integrity_violations_readonly=1, integrity_violations_failsafe=2
            )
        )
        service, session = make_service(ladder=ladder)
        ladder.note_integrity_violation(0.0)
        ladder.note_integrity_violation(1e-6)
        reply = roundtrip(service, session, Request(op="read", lpas=(1,)))
        assert reply.status is WireStatus.FAILSAFE
        assert reply.retry_after_s > 0.0

    def test_data_path_fault_maps_to_wire_status(self):
        def failing_path(op, lpa, channel, now):
            raise DataPathFault(NvmeStatus.UNRECOVERED_READ_ERROR, 1e-3)

        service, session = make_service(data_path=failing_path)
        reply = roundtrip(service, session, Request(op="read", lpas=(1,)))
        assert reply.status is WireStatus.READ_ERROR
        assert reply.retry_after_s == 0.0  # media errors carry no hint
        assert service.counters["data_path.UNRECOVERED_READ_ERROR"] == 1

    def test_open_breaker_reroutes_to_replica(self):
        calls = []

        def primary_dies(op, lpa, channel, now):
            calls.append(channel)
            if channel == 0:
                raise DataPathFault(NvmeStatus.COMMAND_ABORTED, 1e-4)
            return 80e-6

        service, session = make_service(
            channels=4,
            breakers=BreakerBoard(BreakerConfig(failure_threshold=2)),
            data_path=primary_dies,
        )
        # lpa 0 -> primary ch0, replica ch2; two timeouts trip ch0's breaker
        statuses = [
            roundtrip(service, session, Request(op="read", lpas=(0,))).status
            for _ in range(4)
        ]
        assert statuses[:2] == [WireStatus.TIMEOUT, WireStatus.TIMEOUT]
        assert statuses[2:] == [WireStatus.OK, WireStatus.OK]
        assert calls == [0, 0, 2, 2]

    def test_fifo_total_order(self):
        service, session = make_service()
        served = [
            service.handle(session.seal_request(Request(op="read", lpas=(i,))), 0.0)
            for i in range(5)
        ]
        # replies come back sealed in call order: s2c seq 0..4
        assert all(isinstance(s.response, SealedEnvelope) for s in served)
        assert [s.response.seq for s in served] == list(range(5))
        assert all(session.open_reply(s.response).ok for s in served)


# -- the load generator --------------------------------------------------------


class TestLoadgen:
    def test_same_seed_same_schedule(self):
        tenants = make_tenants(50, seed=11)
        a = generate_arrivals(tenants, ArrivalConfig(), 300, seed=11)
        b = generate_arrivals(tenants, ArrivalConfig(), 300, seed=11)
        assert a == b
        c = generate_arrivals(tenants, ArrivalConfig(), 300, seed=12)
        assert a != c

    def test_arrivals_are_open_loop_monotonic(self):
        tenants = make_tenants(20, seed=5)
        arrivals = generate_arrivals(tenants, ArrivalConfig(), 200, seed=5)
        times = [a.at_s for a in arrivals]
        assert times == sorted(times)
        assert all(a.op in ("read", "write") for a in arrivals)

    def test_tampered_count_is_exact(self):
        tenants = make_tenants(200, seed=9, tampered_fraction=0.03)
        assert sum(1 for t in tenants if t.tampered) == 6
        # non-zero fraction always plants at least one
        tiny = make_tenants(10, seed=9, tampered_fraction=0.001)
        assert sum(1 for t in tiny if t.tampered) == 1
        clean = make_tenants(10, seed=9, tampered_fraction=0.0)
        assert not any(t.tampered for t in clean)

    def test_bursty_process_is_deterministic_and_faster_in_bursts(self):
        tenants = make_tenants(20, seed=5)
        config = ArrivalConfig(process="bursty", burst_factor=4.0)
        a = generate_arrivals(tenants, config, 400, seed=5)
        assert a == generate_arrivals(tenants, config, 400, seed=5)
        # the bursty schedule packs the same requests into less time than
        # a flat Poisson at the base rate would on average
        flat = generate_arrivals(tenants, ArrivalConfig(), 400, seed=5)
        assert a[-1].at_s != flat[-1].at_s

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalConfig(process="lognormal")
        with pytest.raises(ValueError):
            ArrivalConfig(rate_per_s=0.0)
        with pytest.raises(ValueError):
            make_tenants(0, seed=1)
        with pytest.raises(ValueError):
            make_tenants(5, seed=1, tampered_fraction=1.0)
        tenants = make_tenants(5, seed=1)
        with pytest.raises(ValueError):
            generate_arrivals(tenants, ArrivalConfig(), 0, seed=1)


# -- the serve lab -------------------------------------------------------------


class TestServeLab:
    # run_serve_lab(seed=7, tenants=50, requests=400).fingerprint(): pins the
    # lab's output across code versions, not just across two runs
    PINNED_FINGERPRINTS = {
        "poisson": "4617b1ceb11383599f49f55f4a0ac76032248a35fa722f9a2bb1ccd2cfc26c7e",
        "bursty": "47689c18b926fd7e86f5343a06d492fd189d24787d26417837d72f6dc420a340",
    }

    @pytest.mark.parametrize("process", sorted(PINNED_FINGERPRINTS))
    def test_fingerprint_pinned(self, process):
        report = run_serve_lab(seed=7, tenants=50, requests=400, process=process)
        assert report.fingerprint() == self.PINNED_FINGERPRINTS[process]

    def test_small_campaign_deterministic_and_policies_win(self):
        first = run_serve_lab(seed=3, tenants=40, requests=160)
        second = run_serve_lab(seed=3, tenants=40, requests=160)
        assert first.fingerprint() == second.fingerprint()
        assert first.attestation_gate_held()
        assert first.policy_win
        assert first.attested.availability > first.baseline.availability

    def test_no_chaos_is_clean(self):
        report = run_serve_lab(seed=3, tenants=30, requests=120, chaos=False)
        assert report.plan_summary == {}
        assert report.attested.availability == 1.0
        assert report.attestation_gate_held()

    def test_plan_scales_with_campaign_length(self):
        full = serve_plan_config(4000)
        quarter = serve_plan_config(1000)
        assert full.read_bursts == 8
        assert quarter.read_bursts == 2
        # every kind keeps a floor of one event
        assert serve_plan_config(100).power_losses == 1

    def test_json_schema_and_csv_shape(self):
        report = run_serve_lab(seed=3, tenants=30, requests=120)
        blob = report.to_json()
        assert blob["schema"] == "serve-lab-report/v1"
        for key in (
            "seed", "tenants", "requests", "channels", "process", "chaos",
            "tampered", "attestation_gate_held", "policy_win", "plan", "arms",
        ):
            assert key in blob
        assert [arm["policies"] for arm in blob["arms"]] == ["off", "on"]
        rows = report.csv_rows()
        assert rows[0][0] == "seed"
        assert len(rows) == 3
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_cli_smoke(self, tmp_path):
        from repro.cli import main

        csv_path = tmp_path / "serve.csv"
        json_path = tmp_path / "serve.json"
        code = main([
            "serve-lab", "--seed", "3", "--tenants", "40", "--requests",
            "160", "--csv", str(csv_path), "--json", str(json_path),
        ])
        assert code == 0
        assert csv_path.read_text().startswith("seed,")
        assert '"schema": "serve-lab-report/v1"' in json_path.read_text()

    SMALL_CLI = ["serve-lab", "--seed", "3", "--tenants", "40", "--requests", "160"]

    def test_cli_attestation_gate_failure(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.serve.lab import ServeLabReport

        monkeypatch.setattr(
            ServeLabReport, "attestation_gate_held", lambda self: False
        )
        assert main(self.SMALL_CLI) == 1
        err = capsys.readouterr().err.splitlines()
        assert (
            "FAIL: attestation gate leaked — tampered handshakes were not all "
            "refused (or none were exercised)"
        ) in err

    def test_cli_policy_win_failure(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.serve.lab import ServeLabReport

        monkeypatch.setattr(
            ServeLabReport, "policy_win", property(lambda self: False)
        )
        assert main(self.SMALL_CLI) == 1
        err = capsys.readouterr().err.splitlines()
        assert "FAIL: policies-on did not strictly beat policies-off" in err

    def test_cli_policy_win_exempt_without_chaos(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.serve.lab import ServeLabReport

        monkeypatch.setattr(
            ServeLabReport, "policy_win", property(lambda self: False)
        )
        assert main(self.SMALL_CLI + ["--no-chaos"]) == 0
        assert capsys.readouterr().err == ""

    def test_cli_rejects_tiny_campaigns(self):
        from repro.cli import main

        assert main(["serve-lab", "--requests", "5"]) == 2

    def test_campaign_leaves_no_cyclic_garbage(self):
        # each arm and everything it built is freed by reference counting
        # when run() returns, not held until a full collection
        gc.collect()
        gc.disable()
        try:
            run_serve_lab(seed=7, tenants=50, requests=400)
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.mark.parametrize(
    "code, forbidden",
    [
        ("import repro.serve, repro.fleet", "asyncio"),
        # perfbench's setup_s probe: the start-up every `python -m repro` pays
        ("import repro.cli\nfrom repro.platform import PlatformConfig\nPlatformConfig()",
         "numpy"),
        ("import repro.serve, repro.fleet, repro.resilience, repro.faults", "numpy"),
        # subcommands import their packages inside cmd_*
        ("import repro.cli", "repro.*"),
    ],
    ids=["serve-fleet-asyncio", "setup-probe-numpy", "labs-numpy", "cli-repro"],
)
def test_import_does_not_load(code, forbidden):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    # the two modules `import repro.cli` loads by design
    loaded = set(out.stdout.split()) - {"repro", "repro.cli"}
    assert fnmatch.filter(loaded, forbidden) == []
