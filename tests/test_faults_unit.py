"""Unit coverage for :mod:`repro.netsim.faults` edge cases.

The chaos harness leans on the FaultPlan for every network-level fault
op, so its corner semantics — unknown hosts under a partition,
overlapping groups, drop_next interacting with partitions, and what
``clear()`` does and does not reset — are pinned here.
"""

from repro.netsim.faults import FaultPlan


def test_partition_isolates_unknown_hosts():
    # A host in no group is isolated from everyone (Sec. 4.3's abrupt
    # failures: absence from the partition map means unreachable).
    plan = FaultPlan()
    plan.partition({"a", "b"}, {"c"})
    assert plan.blocks("ghost", "a")
    assert plan.blocks("ghost", "c")
    # ...but reachable hosts inside one group still talk.
    assert not plan.blocks("a", "b")
    assert plan.blocks("a", "c")


def test_partition_with_overlapping_groups_uses_first_match():
    # "b" appears in both groups; the first group containing the source
    # decides, so b->a flows and b->c does not.
    plan = FaultPlan()
    plan.partition({"a", "b"}, {"b", "c"})
    assert not plan.blocks("b", "a")
    assert plan.blocks("b", "c")
    assert plan.blocks("c", "a")
    assert not plan.blocks("c", "b")


def test_drop_next_budget_not_consumed_by_partition_blocks():
    # A datagram the partition already blocks must not burn the
    # unconditional drop budget: blocks() short-circuits should_drop.
    plan = FaultPlan()
    plan.partition({"a"}, {"b"})
    plan.drop_next(2)
    assert plan.should_drop("a", "b")          # partition block
    assert plan.pending_drops == 2             # budget untouched
    plan.heal_partition()
    assert plan.should_drop("a", "b")          # burns one
    assert plan.should_drop("a", "b")          # burns the other
    assert plan.pending_drops == 0
    assert not plan.should_drop("a", "b")
    assert plan.dropped == 3


def test_sever_is_bidirectional_and_heals():
    plan = FaultPlan()
    plan.sever("a", "b")
    assert plan.blocks("a", "b")
    assert plan.blocks("b", "a")
    plan.heal("b", "a")                        # order-insensitive key
    assert not plan.blocks("a", "b")


def test_heal_of_unsevered_pair_is_a_noop():
    plan = FaultPlan()
    plan.heal("a", "b")
    assert not plan.blocks("a", "b")


def test_clear_resets_configuration_but_keeps_statistics():
    # clear() removes every *configured* fault, including the armed
    # drop_next budget; the ``dropped`` tally is an observation and
    # survives, so chaos windows can be diffed after cleanup.
    plan = FaultPlan()
    plan.drop_probability = 1.0
    plan.drop_next(5)
    plan.sever("a", "b")
    plan.partition({"a"}, {"b", "c"})
    assert plan.should_drop("a", "b")
    assert plan.dropped == 1
    plan.clear()
    assert plan.pending_drops == 0
    assert plan.drop_probability == 0.0
    assert not plan.blocks("a", "b")
    assert not plan.should_drop("a", "b")
    assert plan.dropped == 1


def test_probabilistic_drops_are_seed_deterministic():
    outcomes = []
    for _ in range(2):
        plan = FaultPlan(seed=42)
        plan.drop_probability = 0.5
        outcomes.append([plan.should_drop("a", "b") for _ in range(32)])
    assert outcomes[0] == outcomes[1]
    assert any(outcomes[0]) and not all(outcomes[0])


def test_fault_free_frames_draw_nothing_from_the_rng():
    # Every frame on the wire consults the plan, so its fault-free case
    # must leave the RNG alone: a plan that saw 1,000 clean frames and
    # then arms probabilistic loss decides exactly like a fresh plan.
    used = FaultPlan(seed=7)
    assert not any(used.should_drop("a", "b") for _ in range(1000))
    assert used.dropped == 0
    fresh = FaultPlan(seed=7)
    for plan in (used, fresh):
        plan.drop_probability = 0.3
    assert ([used.should_drop("a", "b") for _ in range(200)]
            == [fresh.should_drop("a", "b") for _ in range(200)])
    assert used.dropped == fresh.dropped > 0


def test_faults_set_mid_run_apply_to_the_very_next_frame():
    plan = FaultPlan()
    for _ in range(10):
        assert not plan.should_drop("a", "b")
    plan.sever("a", "b")
    assert plan.should_drop("b", "a")
    plan.heal("a", "b")
    assert not plan.should_drop("a", "b")
    plan.partition({"a"}, {"b"})
    assert plan.should_drop("a", "b")
    plan.heal_partition()
    assert not plan.should_drop("a", "b")
    plan.drop_next(1)
    assert plan.should_drop("a", "b")
    assert not plan.should_drop("a", "b")
    assert plan.dropped == 3
