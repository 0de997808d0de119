"""Retry-safe round accounting (the off-by-one bugfix).

``RETRY_SAFE_ROUNDS`` means what it says: the number of end-to-end
*resends* on top of one initial send, so the RPC layer is asked
``1 + RETRY_SAFE_ROUNDS`` times, and every failed attempt — including
the final one — is followed by exactly one backoff sleep. Historically
the round count silently meant "total attempts" and the last failure
consumed no sleep, so an ambiguous timeout surfaced before in-flight
applies had a chance to land.
"""

import pytest

from repro.cluster import GroupServiceCluster
from repro.directory import client as directory_client
from repro.directory.operations import AppendRow
from repro.errors import RpcError


def resends(monkeypatch, rounds):
    monkeypatch.setattr(directory_client, "RETRY_SAFE_ROUNDS", rounds)


def make_cluster(seed=7):
    cluster = GroupServiceCluster(n_servers=1, name="acct", seed=seed)
    cluster.start()
    cluster.wait_operational()
    return cluster


def instrument(client, calls, sleeps, fail=True):
    """Count RPC sends and backoff sleeps; optionally fail every send."""

    def counting_trans(port, op, **kwargs):
        calls.append(op)
        if fail:
            raise RpcError("synthetic transport failure")
        return iter(())  # unused when fail=False in these tests

    real_backoff = client.sim_sleep_backoff

    def counting_backoff(round_no):
        sleeps.append(round_no)
        return real_backoff(round_no)

    client.rpc.trans = counting_trans
    client.sim_sleep_backoff = counting_backoff


class TestRoundAccounting:
    @pytest.mark.parametrize("rounds", [0, 1, 3])
    def test_attempts_are_one_plus_rounds(self, rounds, monkeypatch):
        resends(monkeypatch, rounds)
        cluster = make_cluster()
        client = cluster.add_client("c", retry_safe=True)
        calls, sleeps = [], []
        instrument(client, calls, sleeps)
        op = AppendRow(cluster.root_capability, "x", (cluster.root_capability,))

        with pytest.raises(RpcError) as err:
            cluster.run_process(client.request(op))

        assert len(calls) == 1 + rounds  # one initial send + the resends
        assert client.resends == rounds
        assert f"{1 + rounds} attempts" in str(err.value)
        assert f"{rounds} resends" in str(err.value)

    def test_every_failure_backs_off_including_the_last(self, monkeypatch):
        """The final round's failure must still sleep once before the
        ambiguous error surfaces — the window in which a may-have-
        committed apply lands (see _request_retry_safe)."""
        resends(monkeypatch, 2)
        cluster = make_cluster()
        client = cluster.add_client("c", retry_safe=True)
        calls, sleeps = [], []
        instrument(client, calls, sleeps)
        op = AppendRow(cluster.root_capability, "x", (cluster.root_capability,))

        start = cluster.sim.now
        with pytest.raises(RpcError):
            cluster.run_process(client.request(op))

        assert sleeps == [1, 2, 3]  # one per failure, rounds numbered from 1
        assert cluster.sim.now > start  # the sleeps were really taken

    def test_success_uses_no_resends_and_no_backoff(self, monkeypatch):
        resends(monkeypatch, 3)
        cluster = make_cluster()
        client = cluster.add_client("c", retry_safe=True)
        sleeps = []
        real_backoff = client.sim_sleep_backoff
        client.sim_sleep_backoff = lambda n: sleeps.append(n) or real_backoff(n)

        ok = cluster.run_process(
            client.append_row(
                cluster.root_capability, "row", (cluster.root_capability,)
            )
        )

        assert ok is True
        assert client.resends == 0
        assert sleeps == []

    def test_session_stamp_is_stable_across_resends(self, monkeypatch):
        """Every resend must reuse the same (client_id, seqno) stamp —
        that identity is what lets a server answer a duplicate from
        its reply cache instead of applying twice."""
        resends(monkeypatch, 2)
        cluster = make_cluster()
        client = cluster.add_client("c", retry_safe=True)
        calls, sleeps = [], []
        instrument(client, calls, sleeps)
        op = AppendRow(cluster.root_capability, "x", (cluster.root_capability,))

        with pytest.raises(RpcError):
            cluster.run_process(client.request(op))

        stamps = {(w.client_id, w.session_seqno) for w in calls}
        assert len(stamps) == 1
