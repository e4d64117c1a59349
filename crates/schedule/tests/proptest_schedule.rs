//! Property-based tests for rewrite-schedule serialisation and indexing.

use janus_schedule::{RewriteRule, RewriteSchedule, RuleId, RULE_DATA_WORDS};
use proptest::prelude::*;

fn arb_rule_id() -> impl Strategy<Value = RuleId> {
    (0usize..RuleId::ALL.len()).prop_map(|i| RuleId::ALL[i])
}

fn arb_rule() -> impl Strategy<Value = RewriteRule> {
    (
        any::<u32>(),
        arb_rule_id(),
        proptest::array::uniform6(any::<i64>()),
    )
        .prop_map(|(addr, id, data)| {
            let mut rule = RewriteRule::new(u64::from(addr), id);
            for (i, d) in data.iter().enumerate().take(RULE_DATA_WORDS) {
                rule = rule.with_data(i, *d);
            }
            rule
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn schedules_round_trip_through_bytes(
        name in "[ -~]{0,24}",
        threads in any::<u32>(),
        rules in proptest::collection::vec(arb_rule(), 0..64),
    ) {
        let mut schedule = RewriteSchedule::new(name);
        schedule.threads = threads;
        for r in &rules {
            schedule.push(*r);
        }
        let bytes = schedule.to_bytes();
        let back = RewriteSchedule::from_bytes(&bytes).expect("deserialises");
        prop_assert_eq!(back, schedule);
    }

    #[test]
    fn truncated_schedules_never_panic(
        rules in proptest::collection::vec(arb_rule(), 1..16),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut schedule = RewriteSchedule::new("t");
        for r in &rules {
            schedule.push(*r);
        }
        let bytes = schedule.to_bytes();
        let cut = cut.index(bytes.len());
        // Either an error or (for cuts beyond the rule array) a valid prefix;
        // never a panic.
        let _ = RewriteSchedule::from_bytes(&bytes[..cut]);
    }

    #[test]
    fn index_preserves_rule_order_and_membership(
        rules in proptest::collection::vec(arb_rule(), 0..64),
        // A slot space in the shape of a text section: `base + k * step`.
        base in any::<u32>(),
        step_log2 in 0u32..8,
        num_slots in 0usize..4096,
    ) {
        let mut schedule = RewriteSchedule::new("t");
        for r in &rules {
            // Fold the random addresses towards the section so that most
            // rules land in it, some misaligned, some outside.
            let mut r = *r;
            r.addr = u64::from(base) + r.addr % ((num_slots as u64 + 8) << step_log2);
            schedule.push(r);
        }
        let slot_of = |addr: u64| {
            let off = addr.checked_sub(u64::from(base))?;
            (off % (1 << step_log2) == 0).then_some((off >> step_log2) as usize)
        };
        let table = schedule.lower(num_slots, slot_of);

        let mut kept = 0;
        for r in schedule.rules() {
            match slot_of(r.addr).filter(|&slot| slot < num_slots) {
                Some(slot) => {
                    kept += 1;
                    // Schedule order is preserved within one slot, and a slot
                    // holds exactly the rules of its address.
                    let expected: Vec<_> =
                        schedule.rules().iter().filter(|x| x.addr == r.addr).copied().collect();
                    prop_assert_eq!(table.at(slot), expected.as_slice());
                }
                // A rule no instruction address maps to is not in the table.
                None => prop_assert!(
                    (0..num_slots).all(|slot| table.at(slot).iter().all(|x| x.addr != r.addr))
                ),
            }
        }
        let total: usize = (0..num_slots).map(|slot| table.at(slot).len()).sum();
        prop_assert_eq!(total, kept);
        prop_assert!(table.at(num_slots).is_empty());
    }
}
