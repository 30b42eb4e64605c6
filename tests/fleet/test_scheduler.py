"""Fair-share scheduling and elastic bound lending."""

from repro.fleet import FleetConfig, FleetScheduler, JobLease, fair_shares


class TestFairShares:
    def test_empty(self):
        assert fair_shares(8, {}) == {}

    def test_even_split(self):
        assert fair_shares(8, {"a": 8, "b": 8}) == {"a": 4, "b": 4}

    def test_uneven_split_stays_maximally_even(self):
        assert fair_shares(8, {"a": 8, "b": 8, "c": 8}) == {"a": 3, "b": 3, "c": 2}

    def test_caps_respected_and_leftover_reoffered(self):
        # a can only use 1; its unused share flows to the others
        assert fair_shares(8, {"a": 1, "b": 8, "c": 8}) == {"a": 1, "b": 4, "c": 3}

    def test_budget_surplus_stops_at_caps(self):
        assert fair_shares(100, {"a": 2, "b": 3}) == {"a": 2, "b": 3}

    def test_oversubscribed_floor_guarantee(self):
        # 2 replicas across 4 jobs: everyone still gets the floor
        shares = fair_shares(2, {c: 4 for c in "abcd"})
        assert all(s == 1 for s in shares.values())

    def test_deterministic_by_job_id(self):
        assert fair_shares(5, {"b": 9, "a": 9}) == fair_shares(5, {"a": 9, "b": 9})
        assert fair_shares(5, {"a": 9, "b": 9}) == {"a": 3, "b": 2}


class FakeController:
    def __init__(self):
        self.bounds = None

    def set_bounds(self, min_p, max_p):
        self.bounds = (min_p, max_p)


class TestJobLease:
    def test_lend_forwards_bounds_to_controller(self):
        controller = FakeController()
        lease = JobLease("j", cap=6, floor=1, controller_fn=lambda: controller)
        lease.lend(4)
        assert controller.bounds == (1, 4)
        assert lease.granted == 4

    def test_lend_clamps_to_cap_and_floor(self):
        controller = FakeController()
        lease = JobLease("j", cap=3, floor=2, controller_fn=lambda: controller)
        lease.lend(10)
        assert controller.bounds == (2, 3)
        lease.lend(1)
        assert controller.bounds == (2, 2)

    def test_lend_dedupes_repeated_grants(self):
        calls = []

        class Recording(FakeController):
            def set_bounds(self, lo, hi):
                calls.append((lo, hi))

        controller = Recording()
        lease = JobLease("j", cap=4, controller_fn=lambda: controller)
        lease.lend(3)
        lease.lend(3)
        assert calls == [(1, 3)]

    def test_tolerates_missing_controller(self):
        lease = JobLease("j", cap=4, controller_fn=lambda: None)
        lease.lend(2)  # no crash while the job is still deploying
        assert lease.granted == 2


class TestFleetScheduler:
    def make(self, **cfg):
        cfg.setdefault("worker_budget", 8)
        return FleetScheduler(FleetConfig(**cfg))

    def test_single_elastic_job_gets_whole_budget(self):
        sched = self.make()
        controller = FakeController()
        sched.attach(JobLease("j1", cap=8, controller_fn=lambda: controller))
        assert sched.shares() == {"j1": 8}
        assert controller.bounds == (1, 8)

    def test_second_job_shrinks_the_first(self):
        sched = self.make()
        c1, c2 = FakeController(), FakeController()
        sched.attach(JobLease("j1", cap=8, controller_fn=lambda: c1))
        sched.attach(JobLease("j2", cap=8, controller_fn=lambda: c2))
        assert sched.shares() == {"j1": 4, "j2": 4}
        assert c1.bounds == (1, 4)
        sched.detach("j2")
        assert sched.shares() == {"j1": 8}
        assert c1.bounds == (1, 8)

    def test_share_granted_before_the_controller_exists_is_lent_later(self):
        sched = self.make()
        c1, c2 = FakeController(), FakeController()
        live = {}
        sched.attach(JobLease("j1", cap=8, controller_fn=lambda: c1))
        sched.attach(JobLease("j2", cap=8, controller_fn=lambda: live.get("c2")))
        live["c2"] = c2  # j2's deployment comes up after the attach-time grant
        sched.tick()
        assert c1.bounds == (1, 4)
        assert c2.bounds == (1, 4)

    def test_static_jobs_hold_their_parallelism(self):
        sched = self.make()
        elastic = FakeController()
        sched.attach(JobLease("static", cap=5, elastic=False))
        sched.attach(JobLease("flex", cap=8, controller_fn=lambda: elastic))
        shares = sched.shares()
        assert shares["static"] == 5
        assert shares["flex"] == 3  # 8 - 5 static

    def test_oversubscription_keeps_min_share(self):
        sched = self.make(worker_budget=2, max_jobs_per_tenant=8)
        controllers = {name: FakeController() for name in "abcd"}
        for name, controller in controllers.items():
            sched.attach(
                JobLease(name, cap=4, controller_fn=lambda c=controller: c)
            )
        assert all(s >= 1 for s in sched.shares().values())

    def test_background_thread_lifecycle(self):
        sched = self.make(tick_s=0.01)
        sched.start()
        sched.start()  # idempotent
        controller = FakeController()
        sched.attach(JobLease("j", cap=8, controller_fn=lambda: controller))
        sched.stop()
        assert controller.bounds == (1, 8)
