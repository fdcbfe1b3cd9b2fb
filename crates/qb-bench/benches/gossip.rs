//! Criterion benchmark: the qb-gossip overlay — digest extraction, full
//! gossip rounds over a warmed fleet, delta vs full digest encodings, the
//! holdings filter, churn (join with bootstrap anti-entropy) and
//! warm-start snapshot round-trips.

use criterion::{criterion_group, criterion_main, Criterion};
use qb_cache::CacheConfig;
use qb_common::SimInstant;
use qb_gossip::{DigestMode, GossipConfig, GossipFleet, ShardFilter};
use qb_index::{ShardEntry, ShardPosting};
use qb_simnet::{NetConfig, SimNet};

fn sample_shard(term: &str, docs: usize) -> ShardEntry {
    let mut s = ShardEntry::empty(term);
    s.version = 1;
    for i in 0..docs as u64 {
        s.upsert(ShardPosting {
            doc_id: i * 31 + 7,
            term_freq: (i % 7) as u32 + 1,
            doc_len: 80,
            name: format!("page/{term}/{i}"),
            version: 1,
            creator: i % 50,
        });
    }
    s
}

/// A fleet where frontend 0 holds `terms` hot shards and everyone else is
/// cold — the worst case a gossip round has to propagate.
fn warmed_fleet(frontends: usize, terms: usize) -> (GossipFleet, SimNet) {
    let net = SimNet::new(frontends + 8, NetConfig::lan(), 42);
    let mut fleet = GossipFleet::new(
        GossipConfig::enabled(frontends),
        &CacheConfig::enabled(),
        42,
    );
    let now = SimInstant::ZERO;
    for t in 0..terms {
        let shard = sample_shard(&format!("term{t}"), 16);
        fleet.cache_mut(0).store_shard(&shard, now);
        fleet.observe(0, &shard.term, shard.version);
    }
    (fleet, net)
}

fn bench_digest(c: &mut Criterion) {
    let (fleet, _net) = warmed_fleet(2, 256);
    c.bench_function("gossip/hot_set_digest_256_shards", |b| {
        b.iter(|| fleet.frontend(0).cache().shard_digest(64, SimInstant::ZERO))
    });
}

fn bench_round(c: &mut Criterion) {
    for frontends in [4usize, 8] {
        let now = SimInstant::ZERO;
        // Cold fleet: setup dominates less than the 64-shard fan-out.
        c.bench_function(
            &format!("gossip/round_cold_fleet/{frontends}_frontends"),
            |b| {
                b.iter(|| {
                    let (mut fleet, mut net) = warmed_fleet(frontends, 64);
                    fleet.run_round(&mut net, now, false);
                    fleet.stats().shards_accepted
                })
            },
        );
        // Steady state: everyone already warm, rounds move only digests.
        let (mut fleet, mut net) = warmed_fleet(frontends, 64);
        fleet.run_round(&mut net, now, true);
        c.bench_function(
            &format!("gossip/round_warm_fleet/{frontends}_frontends"),
            |b| b.iter(|| fleet.run_round(&mut net, now, false)),
        );
    }
}

/// Steady-state round cost per digest encoding: the fleet is converged, so
/// full digests keep re-shipping the hot set while deltas collapse to the
/// holdings filter.
fn bench_digest_modes(c: &mut Criterion) {
    for mode in [DigestMode::Full, DigestMode::Delta] {
        let label = match mode {
            DigestMode::Full => "full",
            DigestMode::Delta => "delta",
        };
        let now = SimInstant::ZERO;
        let net = SimNet::new(16, NetConfig::lan(), 42);
        let mut config = GossipConfig::enabled(8);
        config.digest_mode = mode;
        let mut fleet = GossipFleet::new(config, &CacheConfig::enabled(), 42);
        for t in 0..64 {
            let shard = sample_shard(&format!("term{t}"), 16);
            fleet.cache_mut(0).store_shard(&shard, now);
            fleet.observe(0, &shard.term, shard.version);
        }
        let mut net = net;
        for _ in 0..4 {
            fleet.run_round(&mut net, now, false);
        }
        c.bench_function(&format!("gossip/steady_round_{label}_digests"), |b| {
            b.iter(|| {
                fleet.run_round(&mut net, now, false);
                fleet.stats().digest_bytes
            })
        });
    }
}

fn bench_filter(c: &mut Criterion) {
    let holdings: Vec<(String, u64)> = (0..256)
        .map(|i| (format!("term{i}"), (i % 7 + 1) as u64))
        .collect();
    c.bench_function("gossip/filter_build_256_holdings", |b| {
        b.iter(|| ShardFilter::build(&holdings, 8))
    });
    let filter = ShardFilter::build(&holdings, 8);
    c.bench_function("gossip/filter_probe", |b| {
        b.iter(|| filter.contains("term128", 4))
    });
}

/// Filter reuse across exchanges: a converged fleet's steady round with the
/// per-frontend filter cache (filters reused while the shard tier's
/// generation and alive-holdings count are unchanged) vs the same round with the cache defeated by a holdings mutation before
/// every measurement — the per-exchange rebuild cost the cache removes.
fn bench_filter_reuse(c: &mut Criterion) {
    let now = SimInstant::ZERO;
    let converged = || {
        let (mut fleet, mut net) = warmed_fleet(8, 256);
        for _ in 0..4 {
            fleet.run_round(&mut net, now, false);
        }
        (fleet, net)
    };
    // Steady round: holdings unchanged, every exchange reuses the filter.
    let (mut fleet, mut net) = converged();
    c.bench_function("gossip/steady_round_filter_cached/8_frontends", |b| {
        b.iter(|| {
            fleet.run_round(&mut net, now, false);
            fleet.stats().filter_reuses
        })
    });
    // Same round, but a mutation on every frontend invalidates the cached
    // filters first: every exchange pays the rebuild.
    let (mut fleet, mut net) = converged();
    c.bench_function("gossip/steady_round_filter_rebuilt/8_frontends", |b| {
        b.iter(|| {
            for i in 0..8 {
                let shard = sample_shard("churnterm", 4);
                fleet.cache_mut(i).store_shard(&shard, now);
            }
            fleet.run_round(&mut net, now, false);
            fleet.stats().filter_builds
        })
    });
}

/// Churn: a frontend joining a warmed fleet, including the bootstrap
/// anti-entropy exchange that fills its cache from a live neighbour.
fn bench_join(c: &mut Criterion) {
    let now = SimInstant::ZERO;
    c.bench_function("gossip/join_with_bootstrap_64_shards", |b| {
        b.iter(|| {
            let (mut fleet, mut net) = warmed_fleet(4, 64);
            fleet.run_round(&mut net, now, false);
            let peer = net.add_peer();
            fleet.join(&mut net, peer, now).expect("join")
        })
    });
}

fn bench_warm_start(c: &mut Criterion) {
    let (fleet, _net) = warmed_fleet(2, 128);
    let now = SimInstant::ZERO;
    c.bench_function("gossip/warm_start_export_128_shards", |b| {
        b.iter(|| fleet.export_hot_set(0, 128, now))
    });
    let snapshot = fleet.export_hot_set(0, 128, now);
    c.bench_function("gossip/warm_start_import_128_shards", |b| {
        b.iter(|| {
            let (mut fleet, _net) = warmed_fleet(2, 0);
            fleet.import_hot_set(1, &snapshot, now).expect("import")
        })
    });
}

criterion_group!(
    benches,
    bench_digest,
    bench_round,
    bench_digest_modes,
    bench_filter,
    bench_filter_reuse,
    bench_join,
    bench_warm_start
);
criterion_main!(benches);
