//! Offer rounds allocate nothing when they assign nothing, and a small
//! bounded amount per assignment when they do: the allocator's own count
//! around warm `resource_offers` calls. One `#[test]` in its own binary,
//! so no other test thread allocates while a count is open.

use std::alloc::System;
use std::collections::BTreeSet;

use ssr::prelude::*;
use ssr::simcore::dist::constant;
use stats_alloc::{Region, StatsAlloc};

#[global_allocator]
static GLOBAL: StatsAlloc<System> = StatsAlloc::system();

/// A 16-slot cluster saturated by a three-phase foreground job and a
/// backlog of background tasks.
fn saturated(policy: &PolicyConfig, order: &OrderConfig) -> TaskScheduler {
    let mut s = TaskScheduler::new(
        ClusterSpec::new(4, 4).unwrap(),
        LocalityModel::paper_simulation(),
        policy.build(),
        order.build(),
    );
    let fg = JobSpecBuilder::new("fg")
        .priority(Priority::new(10))
        .stage("a", 8, constant(1.0))
        .stage("b", 8, constant(1.0))
        .stage("c", 8, constant(1.0))
        .chain()
        .build()
        .unwrap();
    s.submit(fg, SimTime::ZERO);
    for i in 0..6 {
        let bg =
            JobSpecBuilder::new(format!("bg{i}")).stage("map", 16, constant(1.0)).build().unwrap();
        s.submit(bg, SimTime::ZERO);
    }
    s
}

/// What warm offer rounds allocated: `(idle rounds, their allocations,
/// assignments, allocations of the rounds that made them)`.
type Counts = (usize, usize, usize, usize);

/// Drives `s` through task finishes, reservation expiries and locality
/// unlocks until no work is left. Partition 0 of every phase straggles,
/// so reserved slots see copy races. Every event is followed by an offer
/// round and a repeat round at the same instant, which finds the cluster
/// saturated; rounds in the first `warm_up` simulated seconds are not
/// counted.
fn drive(s: &mut TaskScheduler, warm_up: SimTime) -> Counts {
    let mut counts: Counts = (0, 0, 0, 0);
    let mut running: BTreeSet<(SimTime, SlotId)> = BTreeSet::new();
    let mut now = SimTime::ZERO;
    loop {
        for repeat in [false, true] {
            let region = Region::new(&GLOBAL);
            let round = s.resource_offers(now);
            let allocs = region.change().allocations;
            assert!(!repeat || round.is_empty(), "a repeat round at {now:?} assigned {round:?}");
            if now >= warm_up && round.is_empty() {
                counts.0 += 1;
                counts.1 += allocs;
            } else if now >= warm_up {
                counts.2 += round.len();
                counts.3 += allocs;
            }
            for a in round {
                let secs = match a.instance.task.partition {
                    0 => 6.0,
                    _ => 1.0 + 0.25 * f64::from(a.slot.as_u32() % 4),
                };
                running.insert((now + SimDuration::from_secs_f64(secs), a.slot));
            }
        }
        let next_finish = running.first().map(|&(t, _)| t);
        let next = [next_finish, s.next_reservation_expiry(), s.next_locality_unlock(now)];
        let Some(next) = next.into_iter().flatten().min() else { return counts };
        now = next;
        s.expire_reservations(now);
        while let Some(&(t, slot)) = running.first().filter(|&&(t, _)| t <= now) {
            running.remove(&(t, slot));
            for killed in s.task_finished(slot, now).killed {
                running.retain(|&(_, s)| s != killed);
            }
        }
    }
}

#[test]
fn warm_offer_rounds_allocate_only_for_assignments() {
    let policies = [
        PolicyConfig::ssr_strict_with_stragglers(),
        PolicyConfig::WorkConserving,
        PolicyConfig::Timeout(SimDuration::from_secs(3)),
        PolicyConfig::Static { count: 4, class: Priority::new(10) },
    ];
    for policy in &policies {
        for order in [OrderConfig::FifoPriority, OrderConfig::Fair] {
            let mut s = saturated(policy, &order);
            let (idle_rounds, idle_allocs, assignments, assigning_allocs) =
                drive(&mut s, SimTime::from_secs(2));
            let cell = format!(
                "{} / {order:?}: {idle_rounds} idle rounds allocated {idle_allocs}, \
                 {assignments} assignments {assigning_allocs}",
                s.policy_name()
            );
            assert!(idle_rounds > 0 && assignments > 0, "{cell}");
            // A round that places nothing reuses the scheduler's scratch
            // buffers and returns an unallocated `Vec`.
            assert_eq!(idle_allocs, 0, "{cell}");
            // A placing round allocates its returned `Vec` (one block and
            // its doublings) and churns B-tree nodes as slots leave the
            // pool's free and reserved sets: about 1.4 per assignment on
            // this workload. Three leaves room for the tree shapes of
            // other runs, not for a per-candidate or per-slot allocation.
            assert!(assigning_allocs <= 3 * assignments, "{cell}");
        }
    }
}
