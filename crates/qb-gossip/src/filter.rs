//! A compact membership filter over a cache's `(term, version)` holdings.
//!
//! Delta digests only ship the hot-set entries that *changed* since the last
//! exchange with a peer; the receiver reconstructs the sender's holdings
//! from its accumulated per-peer view. That reconstruction is exact for
//! everything the sender ever advertised — but it cannot see *evictions*:
//! a term the sender dropped under cache pressure would stay in the
//! receiver's view forever and wrongly suppress future fills. The filter
//! closes that gap: every compressed digest carries a bloom-style summary
//! of the sender's *current* shard holdings, and an accumulated belief only
//! suppresses a fill while the filter still confirms it.
//!
//! The decision rule is deliberately asymmetric in what an error can cost:
//!
//! * a filter **false negative is impossible** (every inserted key always
//!   tests positive), so a fill is never triggered for an entry the peer
//!   provably advertised and still holds — no wasted fill from the filter;
//! * a filter **false positive** can only keep a stale belief alive for an
//!   entry the peer *evicted*; the fill is retried once the periodic
//!   full-digest anti-entropy round rebuilds the exact view. Beliefs
//!   themselves come from explicit advertisements, never from the filter,
//!   so the filter alone can never invent a "peer has it" outcome.
//!
//! Probing is split in two. A [`FilterKey`] is the expensive half: one
//! SHA-256 over `(term, version)`, cut into three 64-bit words. A probe
//! position is the cheap half, `word % nbits`, so one key serves filters of
//! every size. [`FilterKeyMemo`] keeps each term's key across rounds, so a
//! steady gossip round hashes only the keys whose version changed.
//! [`ShardFilter::build`] and [`ShardFilter::contains`] derive the key on
//! the spot through the same path, and produce the same bits. A frontend
//! reuses its last holdings filter while its shard tier's generation and
//! alive-holdings count are unchanged (see `Frontend::holdings_filter`).

use qb_common::Hash256;
use std::collections::HashMap;

/// Number of hash probes per key. Three probes at the default 8 bits per
/// entry give a ~3% false-positive rate, which only delays (never loses)
/// fills for concurrently evicted entries.
const PROBES: usize = 3;

/// The hashed form of one `(term, version)` filter key: the first three
/// 64-bit words of its SHA-256 digest, one per probe. Independent of any
/// filter's size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterKey([u64; PROBES]);

impl FilterKey {
    /// Derive the key of `(term, version)` (one SHA-256).
    pub fn derive(term: &str, version: u64) -> FilterKey {
        let digest =
            Hash256::digest_parts(&[b"qb-gossip/filter", term.as_bytes(), &version.to_be_bytes()]);
        let bytes = digest.as_bytes();
        let mut words = [0u64; PROBES];
        for (i, word) in words.iter_mut().enumerate() {
            let mut be = [0u8; 8];
            be.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            *word = u64::from_be_bytes(be);
        }
        FilterKey(words)
    }
}

/// Derived [`FilterKey`]s, one per distinct term: asking for a term at a
/// different version than the stored one replaces its entry. The memo is
/// therefore bounded by the number of distinct terms it is asked about,
/// and it can never answer with another version's key.
#[derive(Debug, Default)]
pub struct FilterKeyMemo {
    keys: HashMap<String, (u64, FilterKey)>,
    derivations: u64,
}

impl FilterKeyMemo {
    /// An empty memo.
    pub fn new() -> FilterKeyMemo {
        FilterKeyMemo::default()
    }

    /// The key of `(term, version)`, derived only when the memo holds no
    /// key for `term` at exactly `version`.
    pub fn key(&mut self, term: &str, version: u64) -> FilterKey {
        if let Some((memo_version, key)) = self.keys.get_mut(term) {
            if *memo_version != version {
                *memo_version = version;
                *key = FilterKey::derive(term, version);
                self.derivations += 1;
            }
            return *key;
        }
        let key = FilterKey::derive(term, version);
        self.derivations += 1;
        self.keys.insert(term.to_string(), (version, key));
        key
    }

    /// SHA-256 key derivations performed so far (memo misses).
    pub fn derivations(&self) -> u64 {
        self.derivations
    }

    /// Number of terms with a memoized key.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no key is memoized.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// A bloom-style filter over `(term, version)` pairs, built on the
/// workspace's [`Hash256`] hashing (one digest per key, split into probe
/// indexes — no external hash crates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFilter {
    bits: Vec<u8>,
    entries: usize,
}

impl ShardFilter {
    /// Build a filter sized at `bits_per_entry` bits per entry (minimum 64
    /// bits total, rounded up to whole bytes) over the given holdings.
    pub fn build(holdings: &[(String, u64)], bits_per_entry: usize) -> ShardFilter {
        ShardFilter::build_with(holdings, bits_per_entry, FilterKey::derive)
    }

    /// [`ShardFilter::build`] with the keys supplied by `key_of` — a
    /// [`FilterKeyMemo`] lookup on the gossip path. Any `key_of` that
    /// returns [`FilterKey::derive`]'s key yields the identical filter.
    pub fn build_with(
        holdings: &[(String, u64)],
        bits_per_entry: usize,
        mut key_of: impl FnMut(&str, u64) -> FilterKey,
    ) -> ShardFilter {
        let bits = (holdings.len() * bits_per_entry.max(1)).max(64);
        let mut filter = ShardFilter {
            bits: vec![0u8; bits.div_ceil(8)],
            entries: holdings.len(),
        };
        for (term, version) in holdings {
            for pos in filter.positions(key_of(term, *version)) {
                filter.bits[pos / 8] |= 1 << (pos % 8);
            }
        }
        filter
    }

    /// An empty filter (answers `false` for every key).
    pub fn empty() -> ShardFilter {
        ShardFilter {
            bits: vec![0u8; 8],
            entries: 0,
        }
    }

    fn positions(&self, key: FilterKey) -> [usize; PROBES] {
        let nbits = (self.bits.len() * 8) as u64;
        key.0.map(|word| (word % nbits) as usize)
    }

    /// Does the filter (possibly) contain `(term, version)`? `true` is
    /// approximate ("maybe holds"), `false` is exact ("definitely does not
    /// hold") — inserted keys never test negative.
    pub fn contains(&self, term: &str, version: u64) -> bool {
        self.contains_key(FilterKey::derive(term, version))
    }

    /// [`ShardFilter::contains`] for an already derived key.
    pub fn contains_key(&self, key: FilterKey) -> bool {
        self.positions(key)
            .into_iter()
            .all(|pos| self.bits[pos / 8] & (1 << (pos % 8)) != 0)
    }

    /// Number of entries the filter was built over.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when built over no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Bytes this filter occupies on the wire (bit array + a small header
    /// carrying the bit count).
    pub fn wire_bytes(&self) -> usize {
        4 + self.bits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holdings(n: usize) -> Vec<(String, u64)> {
        (0..n)
            .map(|i| (format!("term{i}"), (i % 9 + 1) as u64))
            .collect()
    }

    #[test]
    fn no_false_negatives() {
        let h = holdings(200);
        let f = ShardFilter::build(&h, 8);
        for (t, v) in &h {
            assert!(
                f.contains(t, *v),
                "inserted key ({t}, {v}) must test positive"
            );
        }
    }

    #[test]
    fn version_is_part_of_the_key() {
        let f = ShardFilter::build(&[("honey".into(), 3)], 8);
        assert!(f.contains("honey", 3));
        // A different version of the same term is a different key; it may
        // collide in principle but not for this tiny filter.
        assert!(!f.contains("honey", 4));
        assert!(!f.contains("nectar", 3));
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = ShardFilter::empty();
        assert!(f.is_empty());
        assert!(!f.contains("anything", 1));
        assert!(f.wire_bytes() >= 8);
    }

    #[test]
    fn false_positive_rate_is_low_at_default_sizing() {
        let h = holdings(512);
        let f = ShardFilter::build(&h, 8);
        let mut false_positives = 0;
        let trials = 2_000;
        for i in 0..trials {
            if f.contains(&format!("absent{i}"), 1) {
                false_positives += 1;
            }
        }
        let rate = false_positives as f64 / trials as f64;
        assert!(rate < 0.08, "false-positive rate too high: {rate}");
    }

    #[test]
    fn wire_bytes_scale_with_entries() {
        let small = ShardFilter::build(&holdings(8), 8);
        let large = ShardFilter::build(&holdings(256), 8);
        assert!(large.wire_bytes() > small.wire_bytes());
        // ~1 byte per entry at the default sizing: an order of magnitude
        // under the ~17 bytes a full digest entry costs.
        assert_eq!(large.wire_bytes(), 4 + 256);
    }
}
