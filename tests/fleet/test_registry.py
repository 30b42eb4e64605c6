"""Job registry: the lifecycle state machine and its persistence."""

import pytest

from repro.fleet import (
    ACTIVE_STATES,
    ADMITTED,
    CANCELLED,
    COMPLETED,
    FAILED,
    PENDING,
    RUNNING,
    TERMINAL_STATES,
    TRANSITIONS,
    InvalidTransitionError,
    JobRecord,
    JobRegistry,
    UnknownJobError,
    new_job_id,
)
from repro.kvstore import MemoryStore


def make_registry():
    store = MemoryStore()
    registry = JobRegistry(store)
    return store, registry


def register_one(registry, tenant="t", **kwargs) -> JobRecord:
    record = JobRecord(job_id=new_job_id(), tenant=tenant, **kwargs)
    registry.register(record)
    return record


class TestStateMachine:
    def test_happy_path(self):
        _, registry = make_registry()
        record = register_one(registry)
        assert record.state == PENDING
        registry.transition(record.job_id, ADMITTED)
        registry.transition(record.job_id, RUNNING)
        final = registry.transition(
            record.job_id, COMPLETED, result={"results": 3}
        )
        assert final.state == COMPLETED
        assert final.result == {"results": 3}
        assert [t["state"] for t in final.transitions] == [
            PENDING, ADMITTED, RUNNING, COMPLETED,
        ]

    def test_cancel_reachable_from_every_active_state(self):
        for start in sorted(ACTIVE_STATES):
            assert CANCELLED in TRANSITIONS[start]

    def test_terminal_states_are_dead_ends(self):
        for state in sorted(TERMINAL_STATES):
            assert TRANSITIONS[state] == frozenset()

    def test_illegal_transition_rejected(self):
        _, registry = make_registry()
        record = register_one(registry)
        with pytest.raises(InvalidTransitionError, match="PENDING -> COMPLETED"):
            registry.transition(record.job_id, COMPLETED)

    def test_terminal_is_final(self):
        _, registry = make_registry()
        record = register_one(registry)
        registry.transition(record.job_id, CANCELLED, reason="user asked")
        with pytest.raises(InvalidTransitionError):
            registry.transition(record.job_id, ADMITTED)
        assert registry.get(record.job_id).reason == "user asked"

    def test_unknown_state_and_job_rejected(self):
        _, registry = make_registry()
        record = register_one(registry)
        with pytest.raises(InvalidTransitionError, match="unknown job state"):
            registry.transition(record.job_id, "LIMBO")
        with pytest.raises(UnknownJobError):
            registry.transition("job-nope", ADMITTED)
        with pytest.raises(UnknownJobError):
            registry.get("job-nope")

    def test_duplicate_registration_rejected(self):
        _, registry = make_registry()
        record = register_one(registry)
        with pytest.raises(InvalidTransitionError, match="already registered"):
            registry.register(record)


class TestPersistence:
    def test_every_transition_is_persisted(self):
        store, registry = make_registry()
        record = register_one(registry)
        registry.transition(record.job_id, ADMITTED)
        stored = store.get(f"fleet/jobs/{record.job_id}")
        assert stored["state"] == ADMITTED
        assert len(stored["transitions"]) == 2

    def test_rehydration_round_trips_terminal_jobs(self):
        store, registry = make_registry()
        record = register_one(registry)
        registry.transition(record.job_id, ADMITTED)
        registry.transition(record.job_id, RUNNING)
        registry.transition(record.job_id, COMPLETED, result={"results": 7})

        reborn = JobRegistry(store)
        assert reborn.load() == 1
        loaded = reborn.get(record.job_id)
        assert loaded.state == COMPLETED
        assert loaded.result == {"results": 7}

    def test_rehydration_fails_orphaned_active_jobs(self):
        store, registry = make_registry()
        running = register_one(registry, tenant="a")
        registry.transition(running.job_id, ADMITTED)
        registry.transition(running.job_id, RUNNING)
        pending = register_one(registry, tenant="b")

        reborn = JobRegistry(store)
        reborn.load()
        for job_id in (running.job_id, pending.job_id):
            record = reborn.get(job_id)
            assert record.state == FAILED
            assert "restarted" in record.reason
        # the orphan-marking itself is persisted, so a third load is clean
        third = JobRegistry(store)
        third.load()
        assert third.get(running.job_id).state == FAILED


class TestQueries:
    def test_list_filters_and_orders_newest_first(self):
        _, registry = make_registry()
        a = register_one(registry, tenant="a", created=1.0)
        b = register_one(registry, tenant="b", created=2.0)
        c = register_one(registry, tenant="a", created=3.0)
        assert [r.job_id for r in registry.list()] == [c.job_id, b.job_id, a.job_id]
        assert [r.job_id for r in registry.list(tenant="a")] == [c.job_id, a.job_id]
        registry.transition(b.job_id, CANCELLED)
        assert [r.job_id for r in registry.list(state=CANCELLED)] == [b.job_id]

    def test_active_and_counts(self):
        _, registry = make_registry()
        a = register_one(registry, tenant="a")
        register_one(registry, tenant="a")
        registry.transition(a.job_id, CANCELLED)
        assert len(registry.active(tenant="a")) == 1
        counts = registry.counts()
        assert counts[PENDING] == 1
        assert counts[CANCELLED] == 1
        assert counts[RUNNING] == 0
        assert len(registry) == 2

    def test_active_reads_only_active_records(self):
        """Admission asks for a tenant's active jobs on every submit; with
        2 000 finished records beside them it must not read one of them."""
        reads = []

        class Watched(JobRecord):
            def __getattribute__(self, name):
                reads.append(object.__getattribute__(self, "job_id"))
                return object.__getattribute__(self, name)

        _, registry = make_registry()
        for _ in range(2_000):
            done = Watched(job_id=new_job_id(), tenant="a")
            registry.register(done)
            registry.transition(done.job_id, CANCELLED)
        live = {}
        for tenant in ("a", "a", "b"):
            record = Watched(job_id=new_job_id(), tenant=tenant)
            live[registry.register(record).job_id] = tenant
        registry.transition(next(iter(live)), ADMITTED)
        reads.clear()
        active = registry.active(tenant="a")
        assert {r.job_id for r in active} == {j for j, t in live.items() if t == "a"}
        assert set(reads) <= set(live)
        assert len(registry.active()) == 3

    def test_a_loaded_registry_indexes_no_orphan(self):
        store, registry = make_registry()
        running = register_one(registry, tenant="a")
        registry.transition(running.job_id, ADMITTED)
        reborn = JobRegistry(store)
        reborn.load()
        assert reborn.active() == []
        fresh = register_one(reborn, tenant="a")
        assert [r.job_id for r in reborn.active("a")] == [fresh.job_id]
        reborn.transition(fresh.job_id, FAILED)
        assert reborn.active() == []

    def test_record_dict_round_trip(self):
        record = JobRecord(
            job_id="job-x", tenant="t", deploy={"plan": True},
            workload={"layers": 3}, parallelism=2,
        )
        assert JobRecord.from_dict(record.to_dict()).to_dict() == record.to_dict()
