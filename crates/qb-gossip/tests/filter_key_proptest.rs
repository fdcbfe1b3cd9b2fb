//! Property tests for the memoized filter-key path: a holdings filter built
//! through a [`FilterKeyMemo`] must be bit-identical to
//! [`ShardFilter::build`], and every probe through the memo must answer
//! exactly what [`ShardFilter::contains`] answers — including after a
//! term's version changed, so the memo can never serve the old version's
//! key.

use proptest::prelude::*;
use qb_gossip::{needs_fill, needs_fill_with, FilterKey, FilterKeyMemo, ShardFilter};
use std::collections::BTreeMap;

/// A term every case holds, and bumps, so each case crosses a version
/// change of a memoized key.
const BUMPED: u8 = 200;

fn holdings_vec(map: &BTreeMap<u8, u64>) -> Vec<(String, u64)> {
    map.iter().map(|(t, v)| (format!("t{t}"), *v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn memo_keyed_filters_match_the_direct_path(
        first in proptest::collection::btree_map(0u8..40, 1u64..6, 0..32),
        bumps in proptest::collection::btree_map(0u8..40, 1u64..4, 0..8),
        absent in proptest::collection::vec((0u8..60, 1u64..10), 0..24),
        bits in 1usize..12,
    ) {
        let mut first = first;
        first.insert(BUMPED, 1);
        let mut second = first.clone();
        for (t, d) in bumps.iter().chain([(&BUMPED, &1)]) {
            *second.entry(*t).or_insert(0) += d;
        }
        let (hot1, hot2) = (holdings_vec(&first), holdings_vec(&second));

        let mut memo = FilterKeyMemo::new();
        let via_memo = ShardFilter::build_with(&hot1, bits, |t, v| memo.key(t, v));
        prop_assert_eq!(&via_memo, &ShardFilter::build(&hot1, bits));
        prop_assert_eq!(memo.derivations(), hot1.len() as u64);

        // The second build re-derives exactly the changed and new keys,
        // replacing entries in place: one memo entry per distinct term.
        let changed = hot2.iter().filter(|e| !hot1.contains(e)).count() as u64;
        let via_memo = ShardFilter::build_with(&hot2, bits, |t, v| memo.key(t, v));
        let direct = ShardFilter::build(&hot2, bits);
        prop_assert_eq!(&via_memo, &direct);
        prop_assert_eq!(memo.derivations(), hot1.len() as u64 + changed);
        prop_assert_eq!(memo.len(), second.len());

        // Present keys, superseded versions and absent keys all probe the
        // same through the memo as through `contains`.
        let absent: Vec<(String, u64)> =
            absent.iter().map(|(t, v)| (format!("t{t}"), *v)).collect();
        for (term, version) in hot2.iter().chain(&hot1).chain(&absent) {
            let key = memo.key(term, *version);
            prop_assert_eq!(key, FilterKey::derive(term, *version));
            prop_assert_eq!(direct.contains_key(key), direct.contains(term, *version));
            let believed = Some(*version);
            prop_assert_eq!(
                needs_fill_with(term, *version, believed, &direct, |t, v| memo.key(t, v)),
                needs_fill(term, *version, believed, &direct)
            );
        }
        for (term, version) in &hot2 {
            prop_assert!(direct.contains_key(memo.key(term, *version)));
        }
    }
}
