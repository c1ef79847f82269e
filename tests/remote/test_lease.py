"""Lease protocol: acquire, renew, expiry, takeover, and journal fencing.

Every test drives expiry through an injectable fake clock -- no
sleeping -- which is exactly how the protocol is meant to be exercised:
the lease file's semantics depend only on the timestamps it records,
never on wall time observed in passing.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.store import Journal
from repro.errors import LeaseError, LeaseExpiredError, StaleWriterError
from repro.remote.lease import Lease, LeaseFile


class FakeClock:
    """A settable clock: ``clock()`` returns whatever the test put there."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def lease_file(tmp_path, clock):
    return LeaseFile(tmp_path / "wave.json", clock=clock)


def test_acquire_grants_epoch_one_and_persists(lease_file):
    lease = lease_file.acquire("ex-1", ttl=5.0)
    assert lease.holder == "ex-1"
    assert lease.epoch == 1
    assert lease.ttl == 5.0
    on_disk = lease_file.read()
    assert on_disk == lease


def test_acquire_rejects_nonpositive_ttl(lease_file):
    with pytest.raises(LeaseError, match="ttl must be positive"):
        lease_file.acquire("ex-1", ttl=0.0)


def test_live_foreign_lease_cannot_be_acquired(lease_file):
    lease_file.acquire("ex-1", ttl=5.0)
    with pytest.raises(LeaseError, match="held by 'ex-1'"):
        lease_file.acquire("ex-2", ttl=5.0)


def test_expired_lease_is_taken_over_with_epoch_bump(lease_file, clock):
    first = lease_file.acquire("ex-1", ttl=5.0)
    clock.advance(5.0)  # exactly at the deadline: takeover allowed
    second = lease_file.acquire("ex-2", ttl=5.0)
    assert second.holder == "ex-2"
    assert second.epoch == first.epoch + 1


def test_reacquire_by_same_holder_bumps_epoch(lease_file):
    first = lease_file.acquire("ex-1", ttl=5.0)
    again = lease_file.acquire("ex-1", ttl=5.0)
    assert again.epoch == first.epoch + 1
    # the old grant is now fenced out even though the holder matches
    with pytest.raises(StaleWriterError):
        lease_file.check(first)


def test_renew_extends_from_now(lease_file, clock):
    lease = lease_file.acquire("ex-1", ttl=5.0)
    clock.advance(3.0)
    renewed = lease_file.renew(lease)
    assert renewed.epoch == lease.epoch  # renewal is not a new grant
    assert renewed.expires_at == clock.now + 5.0
    lease_file.check(renewed)  # still live


def test_renew_after_expiry_raises_expired(lease_file, clock):
    lease = lease_file.acquire("ex-1", ttl=5.0)
    clock.advance(6.0)
    with pytest.raises(LeaseExpiredError):
        lease_file.renew(lease)


def test_renew_after_takeover_raises_stale(lease_file, clock):
    lease = lease_file.acquire("ex-1", ttl=5.0)
    clock.advance(6.0)
    lease_file.acquire("ex-2", ttl=5.0)
    with pytest.raises(StaleWriterError):
        lease_file.renew(lease)


def test_check_distinguishes_expired_from_superseded(lease_file, clock):
    lease = lease_file.acquire("ex-1", ttl=5.0)
    clock.advance(6.0)
    # lapsed but not taken over: expired
    with pytest.raises(LeaseExpiredError):
        lease_file.check(lease)
    lease_file.acquire("ex-2", ttl=5.0)
    # taken over: stale, regardless of timing
    with pytest.raises(StaleWriterError):
        lease_file.check(lease)


def test_torn_lease_file_reads_as_free(lease_file, clock, tmp_path):
    lease_file.acquire("ex-1", ttl=5.0)
    (tmp_path / "wave.json").write_text("{not json", encoding="utf-8")
    assert lease_file.read() is None
    fresh = lease_file.acquire("ex-2", ttl=5.0)
    assert fresh.epoch == 1  # history was lost with the torn file


def test_huge_integer_lease_file_reads_as_free(lease_file, clock, tmp_path):
    # An integer past json's 4,300-digit limit raises a plain ValueError.
    lease_file.acquire("ex-1", ttl=5.0)
    (tmp_path / "wave.json").write_text('{"epoch": ' + "9" * 5000 + "}",
                                        encoding="utf-8")
    assert lease_file.read() is None
    assert lease_file.acquire("ex-2", ttl=5.0).epoch == 1


def test_lease_roundtrips_through_json():
    lease = Lease(name="w", holder="ex-1", epoch=3, granted_at=10.0, ttl=5.0)
    assert Lease.from_dict(json.loads(json.dumps(lease.to_dict()))) == lease


def test_malformed_lease_payload_raises():
    with pytest.raises(LeaseError, match="malformed"):
        Lease.from_dict({"holder": "ex-1"})


# -- satellite: the stale-writer guard on Journal.append -----------------


def test_fenced_journal_append_succeeds_while_lease_live(lease_file, tmp_path):
    lease = lease_file.acquire("ex-1", ttl=5.0)
    journal = Journal(tmp_path / "seg.jsonl", fence=lease_file.guard(lease))
    journal.append({"row": 1})
    assert journal.entries() == [{"row": 1}]


def test_expired_holder_append_raises_and_writes_nothing(
        lease_file, clock, tmp_path):
    lease = lease_file.acquire("ex-1", ttl=5.0)
    journal = Journal(tmp_path / "seg.jsonl", fence=lease_file.guard(lease))
    journal.append({"row": 1})
    clock.advance(6.0)
    with pytest.raises(LeaseExpiredError):
        journal.append({"row": 2})
    assert journal.entries() == [{"row": 1}]  # the fenced write never landed


def test_superseded_holder_append_raises_stale_writer(
        lease_file, clock, tmp_path):
    lease = lease_file.acquire("ex-1", ttl=5.0)
    journal = Journal(tmp_path / "seg.jsonl", fence=lease_file.guard(lease))
    clock.advance(6.0)
    takeover = lease_file.acquire("ex-2", ttl=5.0)
    with pytest.raises(StaleWriterError):
        journal.append({"row": 1})
    assert journal.entries() == []
    # the new holder's fenced journal writes fine
    journal2 = Journal(tmp_path / "seg.jsonl",
                       fence=lease_file.guard(takeover))
    journal2.append({"row": "new"})
    assert journal2.entries() == [{"row": "new"}]
