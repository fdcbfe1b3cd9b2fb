//! The traced run, the per-layer probes and the knee study.
//!
//! The traced run builds the workload twice from the same seed and replays
//! the measured phase on both in lock-step: one deployment untraced, the
//! other through `replay_traced`, alternating which goes first. Their
//! reports must be identical (tracing never perturbs the simulation), the
//! host-time ratio of the two is the tracing overhead, and the sim-clock
//! span trees of the traced one give the critical-path attribution. After
//! the phase, each layer's public functions are timed directly on the
//! warmed untraced deployment, with the workload's own terms and queries.

use std::collections::BTreeMap;
use std::time::Duration;

use qb_cache::QueryCache;
use qb_common::{Cid, DhtKey, Hash256, SimDuration};
use qb_gossip::ShardFilter;
use qb_index::{Analyzer, DistributedIndex, IndexStats, ShardEntry};
use qb_queenbee::query::executor::intersect_and_score;
use qb_queenbee::{Freshness, PipelineConfig, RoutingPolicy, SearchRequest};
use qb_storage::BlockStore;
use qb_trace::{attribution, Trace};

use crate::deploy::{Deployment, Tally};
use crate::host::{median, ns_per_call, CpuTimer, Spans};
use crate::report::{
    gate_phase, hit_pct, instance_seed, measured_phase, percent, recall_counts, tier_delta, Output,
    Snapshot,
};
use crate::workload::{Spec, FRONTENDS, TOP_K, WINDOW_SIZE};

/// Measured slices per rung of the knee ladder.
const KNEE_SLICES: u64 = 60;

/// Record tag of a DHT shard record pointing into content storage.
const SHARD_POINTER_TAG: u8 = 2;

/// Offered-rate ladder: for each rate, the shed share after warm-up.
pub fn knee_study(base: &Spec, seed: u64, rates: &[f64]) {
    println!("rate_qps  offered  shed_%  degraded_%  failed  sim_p50_ms  sim_p99_ms  host_s");
    for &rate in rates {
        let spec = Spec {
            rate_qps: rate,
            measured_slices: KNEE_SLICES,
            ..base.clone()
        };
        let mut spans = Spans::new(false);
        let t = CpuTimer::start();
        let mut d = Deployment::build(&spec, seed, &mut spans);
        d.warm_up(&mut spans);
        let tally = measured_phase(&mut d, &mut spans);
        let offered = tally.offered.max(1) as f64;
        println!(
            "KNEE {rate:>8.1}  {:>7}  {:>6.2}  {:>10.2}  {:>6}  {:>10.3}  {:>10.3}  {:>6.1}",
            tally.offered,
            100.0 * tally.shed as f64 / offered,
            100.0 * tally.degraded as f64 / offered,
            tally.failed,
            tally.sojourn.p50().as_millis_f64(),
            tally.sojourn.p99().as_millis_f64(),
            t.elapsed().as_secs_f64()
        );
    }
}

/// Critical-path shares of the slowest 1% of queries (and of shard reads,
/// whose DHT hops the rebuilt per-query trees do not carry).
#[derive(Default)]
struct Attribution {
    /// (sojourn µs, stage → µs) per completed query.
    queries: Vec<(u64, BTreeMap<&'static str, u64>)>,
    /// (duration µs, stage → µs) per window-level shard read.
    reads: Vec<(u64, BTreeMap<&'static str, u64>)>,
}

impl Attribution {
    fn add(&mut self, trace: &Trace) {
        for root in trace.named("query") {
            let stages = attribution(trace, root.id)
                .into_iter()
                .map(|(k, v)| (k, v.as_micros()))
                .collect();
            self.queries.push((root.duration().as_micros(), stages));
        }
        for read in trace.named("fetch") {
            let under_query = read
                .parent
                .and_then(|p| trace.get(p))
                .is_some_and(|p| p.name == "query");
            if under_query {
                continue;
            }
            // Time inside the read's DHT walk (its `dht.lookup` child); the
            // rest is the storage transfer. The walk and the transfer can
            // overlap by a hop, which pushes the walk off the strict
            // critical path, so this takes the walk's own duration.
            let walk: u64 = trace
                .children(read.id)
                .filter(|c| c.name == "dht.lookup")
                .map(|c| c.duration().as_micros())
                .sum::<u64>()
                .min(read.duration().as_micros());
            self.reads.push((
                read.duration().as_micros(),
                BTreeMap::from([("dht.lookup", walk)]),
            ));
        }
    }

    /// Percent of the slowest 1% of `rows`' total time spent in `stages`.
    fn tail_share(rows: &mut [(u64, BTreeMap<&'static str, u64>)], stages: &[&str]) -> f64 {
        if rows.is_empty() {
            return 0.0;
        }
        rows.sort_by_key(|(d, _)| std::cmp::Reverse(*d));
        let tail = &rows[..rows.len().div_ceil(100)];
        let total: u64 = tail.iter().map(|(d, _)| d).sum();
        let part: u64 = tail
            .iter()
            .map(|(_, m)| stages.iter().filter_map(|s| m.get(s)).sum::<u64>())
            .sum();
        100.0 * part as f64 / total.max(1) as f64
    }
}

/// What the direct calls into each layer measured.
#[derive(Default)]
struct LayerProbes {
    async_op_ns: f64,
    get_record_us: f64,
    msgs_per_lookup: f64,
    hops_per_lookup: f64,
    read_shard_us: f64,
    decode_us: f64,
    shard_kib: f64,
    get_object_us: f64,
    chunks_per_fetch: f64,
    max_chunks: f64,
    intersect_us: f64,
    candidates_per_query: f64,
    search_us_per_query: f64,
    route_ns: f64,
    cache_lookup_ns: f64,
    gossip_round_us: f64,
    filter_probe_ns: f64,
    compact_ms: f64,
}

/// Distinct analyzed terms of the first `n` pool queries, in first-seen
/// order.
fn pool_terms(d: &Deployment, n: usize) -> (Vec<String>, Vec<Vec<String>>) {
    let analyzer = Analyzer::new();
    let mut terms: Vec<String> = Vec::new();
    let mut per_query = Vec::new();
    for q in d.trace.pool.iter().take(n) {
        let qt = analyzer.analyze(q);
        for t in &qt {
            if !terms.contains(t) {
                terms.push(t.clone());
            }
        }
        per_query.push(qt);
    }
    (terms, per_query)
}

/// The `n` terms with the largest document frequency in the corpus: the
/// largest shards, which span the most storage chunks.
fn head_terms(d: &Deployment, n: usize) -> Vec<String> {
    let analyzer = Analyzer::new();
    let mut df: BTreeMap<String, usize> = BTreeMap::new();
    for page in &d.corpus.pages {
        let mut terms = analyzer.analyze(&page.text());
        terms.sort();
        terms.dedup();
        for t in terms {
            *df.entry(t).or_insert(0) += 1;
        }
    }
    let mut by_df: Vec<(usize, String)> = df.into_iter().map(|(t, n)| (n, t)).collect();
    by_df.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    by_df.into_iter().take(n).map(|(_, t)| t).collect()
}

/// Time direct calls into each layer's public functions on the warmed
/// deployment. Runs after the measured phase: it moves the simulated
/// clock and the counters, never the measured numbers.
fn probe_layers(d: &mut Deployment, spans: &mut Spans) -> LayerProbes {
    let mut p = LayerProbes::default();
    let spec = d.spec.clone();
    let (mut terms, queries) = pool_terms(d, 64);
    for t in head_terms(d, 8) {
        if !terms.contains(&t) {
            terms.push(t);
        }
    }
    let frontend_peer = 0u64;
    let index = DistributedIndex {
        inline_threshold: d.qb.config().shard_inline_threshold,
    };

    // qb-dht: versioned record lookups of the workload's term keys.
    let id = spans.enter("probe.dht");
    let (mut msgs, mut hops, mut found) = (0u64, 0usize, 0u64);
    let mut records: Vec<(String, Vec<u8>)> = Vec::new();
    let t = CpuTimer::start();
    for term in &terms {
        let qb = &mut d.qb;
        if let Ok(out) =
            qb.dht
                .get_record_fresh(&mut qb.net, frontend_peer, DhtKey::for_term(term), 0)
        {
            msgs += out.messages;
            hops += out.hops;
            found += 1;
            records.push((term.clone(), out.record.value));
        }
    }
    p.get_record_us = t.elapsed().as_secs_f64() * 1e6 / terms.len().max(1) as f64;
    p.msgs_per_lookup = msgs as f64 / found.max(1) as f64;
    p.hops_per_lookup = hops as f64 / found.max(1) as f64;
    spans.exit(id);

    // qb-index: whole shard reads, then decoding alone.
    let id = spans.enter("probe.index");
    let mut shards: BTreeMap<String, ShardEntry> = BTreeMap::new();
    let t = CpuTimer::start();
    for term in &terms {
        let qb = &mut d.qb;
        if let Ok((shard, _)) = index.read_shard_fresh(
            &mut qb.net,
            &mut qb.dht,
            &mut qb.storage,
            frontend_peer,
            term,
            0,
        ) {
            shards.insert(term.clone(), shard);
        }
    }
    p.read_shard_us = t.elapsed().as_secs_f64() * 1e6 / terms.len().max(1) as f64;
    let encoded: Vec<Vec<u8>> = shards.values().map(|s| s.encode()).collect();
    p.shard_kib = encoded.iter().map(|e| e.len()).sum::<usize>() as f64
        / 1024.0
        / encoded.len().max(1) as f64;
    p.decode_us = ns_per_call(5, encoded.len().max(1), |i| {
        if let Some(e) = encoded.get(i % encoded.len().max(1)) {
            std::hint::black_box(ShardEntry::decode(e).ok());
        }
    }) / 1e3;
    spans.exit(id);

    // qb-storage: shard objects behind pointer records, each fetched by a
    // user device that holds no copy yet.
    let id = spans.enter("probe.storage");
    let roots: Vec<Cid> = records
        .iter()
        .filter(|(_, v)| v.len() == 33 && v[0] == SHARD_POINTER_TAG)
        .map(|(_, v)| {
            let mut arr = [0u8; 32];
            arr.copy_from_slice(&v[1..33]);
            Cid(Hash256::from_bytes(arr))
        })
        .collect();
    let users = (FRONTENDS as u64)..((spec.num_peers - spec.num_bees) as u64);
    let (mut fetched, mut chunks) = (0u64, 0usize);
    let mut fetch_time = Duration::ZERO;
    let mut next_user = users.start;
    for root in &roots {
        let holders = d.qb.storage.pinned_holders(root);
        if let Some(manifest) = holders.first().and_then(|h| {
            d.qb.storage
                .pinned_store(*h)
                .get(root)
                .and_then(|b| qb_storage::Manifest::decode(b.data()).ok())
        }) {
            chunks += manifest.chunk_count();
            p.max_chunks = p.max_chunks.max(manifest.chunk_count() as f64);
        }
        // The next user device, cyclically, that does not pin the object.
        let span = users.end - users.start;
        next_user = (0..span)
            .map(|k| users.start + (next_user - users.start + k) % span)
            .find(|peer| !holders.contains(peer))
            .unwrap_or(next_user);
        let qb = &mut d.qb;
        let t = CpuTimer::start();
        let ok = qb
            .storage
            .get_object(&mut qb.net, &mut qb.dht, next_user, *root)
            .is_ok();
        fetch_time += t.elapsed();
        fetched += ok as u64;
        next_user += 1;
    }
    p.get_object_us = fetch_time.as_secs_f64() * 1e6 / fetched.max(1) as f64;
    p.chunks_per_fetch = chunks as f64 / roots.len().max(1) as f64;
    spans.exit(id);

    // qb-queenbee::query: intersect + score each pool query over its
    // shards, as the executor does.
    let id = spans.enter("probe.score");
    let stats: IndexStats = {
        let qb = &mut d.qb;
        index
            .read_stats(&mut qb.net, &mut qb.dht, frontend_peer)
            .map(|(s, _)| s)
            .unwrap_or_default()
    };
    let inputs: Vec<Vec<ShardEntry>> = queries
        .iter()
        .map(|q| q.iter().filter_map(|t| shards.get(t).cloned()).collect())
        .filter(|s: &Vec<ShardEntry>| !s.is_empty())
        .collect();
    let rank_weight = d.qb.config().rank_weight;
    let mut candidates = 0usize;
    p.intersect_us = ns_per_call(5, inputs.len().max(1), |i| {
        if let Some(s) = inputs.get(i % inputs.len().max(1)) {
            let (docs, n) = intersect_and_score(s, &stats, |_| 0.0, rank_weight);
            std::hint::black_box(docs);
            candidates += n;
        }
    }) / 1e3;
    p.candidates_per_query = candidates as f64 / (5 * inputs.len()).max(1) as f64;
    spans.exit(id);

    // The pipelined engine on a batch of Fresh pool queries.
    let id = spans.enter("probe.pipeline");
    let batch: Vec<SearchRequest> = d
        .trace
        .pool
        .iter()
        .take(4 * WINDOW_SIZE)
        .enumerate()
        .map(|(i, q)| {
            SearchRequest::new(q.clone())
                .top_k(TOP_K)
                .freshness(Freshness::Fresh)
                .route(RoutingPolicy::Direct(i % FRONTENDS))
        })
        .collect();
    let n = batch.len().max(1);
    let config = PipelineConfig {
        window_size: WINDOW_SIZE,
        max_windows_in_flight: 2,
        ..PipelineConfig::default()
    };
    let qb = &mut d.qb;
    let t = CpuTimer::start();
    let _ = qb.search_pipelined(batch, config);
    p.search_us_per_query = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    spans.exit(id);

    // Routing: rendezvous hashing + two choices over live membership.
    let id = spans.enter("probe.route");
    let qb = &d.qb;
    p.route_ns = ns_per_call(5, 2_000, |i| {
        std::hint::black_box(qb.route_frontend(&RoutingPolicy::HashPeer(i as u64)).ok());
    });
    spans.exit(id);

    // qb-cache: shard lookups on a copy of frontend 0's hot set.
    let id = spans.enter("probe.cache");
    let now = d.qb.net.now();
    let mut cache = QueryCache::new(d.qb.config().cache.clone());
    if let Some(hot) = d.qb.export_hot_set(0, 4_096) {
        let _ = cache.import_hot_set(&hot, now);
    }
    for shard in shards.values() {
        cache.store_shard(shard, now);
    }
    let keys: Vec<(String, u64)> = shards
        .values()
        .map(|s| (s.term.clone(), s.version))
        .collect();
    p.cache_lookup_ns = ns_per_call(5, keys.len().max(1) * 20, |i| {
        if let Some((term, version)) = keys.get(i % keys.len().max(1)) {
            std::hint::black_box(cache.lookup_shard(term, now, *version));
        }
    });
    spans.exit(id);

    // qb-gossip: the bloom filter frontends advertise, then whole rounds.
    let id = spans.enter("probe.gossip");
    let filter = ShardFilter::build(&keys, d.qb.config().gossip.filter_bits_per_entry.max(1));
    p.filter_probe_ns = ns_per_call(5, keys.len().max(1) * 20, |i| {
        if let Some((term, version)) = keys.get(i % keys.len().max(1)) {
            std::hint::black_box(filter.contains(term, *version));
        }
    });
    if spec.gossip {
        let qb = &mut d.qb;
        let rounds: Vec<f64> = (0..20)
            .map(|_| {
                qb.advance_time(SimDuration::from_millis(200));
                let t = CpuTimer::start();
                qb.run_gossip_round(false);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        p.gossip_round_us = median(&rounds);
    }
    spans.exit(id);

    // qb-simnet: async ops issued onto a link whose in-flight limit is
    // already full, so each one queues.
    let id = spans.enter("probe.simnet");
    let cap = d.qb.config().net.max_in_flight_per_link.max(1);
    let net = &mut d.qb.net;
    let at = net.now();
    let fillers: Vec<_> = (0..cap)
        .filter_map(|i| net.send_async_at(1, 2 + i as u64, 64, 64, at, None).ok())
        .collect();
    let far = at + SimDuration::from_secs(3_600);
    p.async_op_ns = ns_per_call(5, 2_000, |i| {
        if let Ok(h) = net.send_async_at(1, 2 + (i % cap) as u64, 64, 64, at, None) {
            std::hint::black_box(net.poll_complete(h, far));
        }
    });
    for h in fillers {
        net.poll_complete(h, far);
    }
    spans.exit(id);

    // qb-segment: one forced writer compaction.
    if spec.segments {
        let qb = &mut d.qb;
        let (_, took) = spans.time("qb.compact_segments", || qb.compact_segments());
        p.compact_ms = took.as_secs_f64() * 1e3;
    }
    p
}

/// `--trace 1`: the lock-step traced replay plus the layer probes.
pub fn traced_run(spec: &Spec, seed: u64, out_dir: &str) -> Output {
    // The same deployment and share of the slices as the first instance of
    // an end-to-end run at this seed.
    let spec = &Spec {
        measured_slices: spec.measured_slices.div_ceil(spec.instances as u64),
        ..spec.clone()
    };
    let instance = instance_seed(seed, 0);
    let mut spans = Spans::new(true);
    let build = |spans: &mut Spans| {
        let id = spans.enter("setup");
        let mut d = Deployment::build(spec, instance, spans);
        d.warm_up(spans);
        spans.exit(id);
        d
    };
    let mut plain = build(&mut spans);
    let mut traced = build(&mut spans);

    let before = Snapshot::take(&plain);
    let mut tally = Tally::default();
    let mut traced_host = Duration::ZERO;
    let mut attr = Attribution::default();
    let mut out = Output::default();
    let phase = spans.enter("measured");
    for i in 0..spec.measured_slices {
        let (a, b) = if i % 2 == 0 {
            let a = plain.run_slice(false, &mut spans);
            (a, traced.run_slice(true, &mut spans))
        } else {
            let b = traced.run_slice(true, &mut spans);
            (plain.run_slice(false, &mut spans), b)
        };
        out.check(
            a.report == b.report && a.error == b.error,
            format!("slice {i}: the traced replay diverged from the untraced one"),
        );
        traced_host += b.replay_host;
        if let Some(trace) = &b.spans {
            attr.add(trace);
        }
        tally.add(&a);
        spans.calibrate();
    }
    spans.exit(phase);
    let after = Snapshot::take(&plain);
    let (hit, wanted) = recall_counts(&mut plain, &mut spans);
    let recall = percent(hit as u64, wanted as u64, 100.0);
    let id = spans.enter("probes");
    let probes = probe_layers(&mut plain, &mut spans);
    spans.exit(id);

    let completed = tally.completed.max(1) as f64;
    let replay_s = tally.replay_host.as_secs_f64().max(1e-9);
    let cache = &after.cache;
    let shard = tier_delta(&cache.shard, &before.cache.shard);
    let result = tier_delta(&cache.result, &before.cache.result);
    let invalidations = tier_delta(&cache.negative, &before.cache.negative).invalidations
        + shard.invalidations
        + result.invalidations;
    let net = |f: fn(&qb_simnet::NetStats) -> u64| (f(&after.net) - f(&before.net)) as f64;
    let gossip_rounds = (after.gossip.rounds - before.gossip.rounds) as f64;
    let gossip_bytes = |g: &qb_gossip::GossipStats| {
        g.digest_bytes + g.fill_bytes + g.membership_bytes + g.segment_advert_bytes
    };
    let write_s = (after.write_host - before.write_host).as_secs_f64();
    let per_call_ms = |name: &str| {
        let (ns, n) = spans.total(name);
        ns as f64 / 1e6 / n.max(1) as f64
    };
    let indexed_total = plain.pages_indexed + traced.pages_indexed;
    let (events_ns, _) = spans.total("qb.process_publish_events");

    // Host times at the reference machine speed (see `host::Calibration`).
    let speed = spans.speed();
    let host = |v: f64| v * speed;
    out.metric("simnet.async_op_ns", host(probes.async_op_ns), "ns");
    out.metric(
        "simnet.async_ops_per_query",
        net(|n| n.async_ops) / completed,
        "count",
    );
    out.metric(
        "simnet.queue_ms_per_query",
        net(|n| n.async_queue_delay_us) / 1e3 / completed,
        "ms",
    );
    out.metric("dht.get_record_us", host(probes.get_record_us), "us");
    out.metric("dht.msgs_per_lookup", probes.msgs_per_lookup, "count");
    out.metric("dht.hops_per_lookup", probes.hops_per_lookup, "count");
    out.metric("dht.hedges_fired", net(|n| n.hedges_fired), "count");
    out.metric("dht.hedges_won", net(|n| n.hedges_won), "count");
    out.metric("storage.get_object_us", host(probes.get_object_us), "us");
    out.metric("storage.chunks_per_fetch", probes.chunks_per_fetch, "count");
    out.metric("storage.max_chunks", probes.max_chunks, "count");
    out.metric("index.read_shard_us", host(probes.read_shard_us), "us");
    out.metric("index.decode_us", host(probes.decode_us), "us");
    out.metric("index.shard_kib", probes.shard_kib, "KiB");
    out.metric("score.intersect_us", host(probes.intersect_us), "us");
    out.metric(
        "score.candidates_per_query",
        probes.candidates_per_query,
        "count",
    );
    out.metric(
        "pipeline.search_us_per_query",
        host(probes.search_us_per_query),
        "us",
    );
    out.metric("route.resolve_ns", host(probes.route_ns), "ns");
    out.metric("admission.shed", tally.shed as f64, "count");
    out.metric("admission.degraded", tally.degraded as f64, "count");
    out.metric(
        "admission.queue_wait_p99_ms",
        tally.queue_wait.p99().as_millis_f64(),
        "ms",
    );
    out.metric("cache.result_hit_pct", hit_pct(&result), "%");
    out.metric("cache.shard_hit_pct", hit_pct(&shard), "%");
    out.metric("cache.invalidations", invalidations as f64, "count");
    out.metric("cache.lookup_ns", host(probes.cache_lookup_ns), "ns");
    out.metric("gossip.round_us", host(probes.gossip_round_us), "us");
    out.metric("gossip.rounds", gossip_rounds, "count");
    out.metric("gossip.filter_probe_ns", host(probes.filter_probe_ns), "ns");
    out.metric(
        "gossip.kib_per_round",
        (gossip_bytes(&after.gossip) - gossip_bytes(&before.gossip)) as f64
            / 1024.0
            / gossip_rounds.max(1.0),
        "KiB",
    );
    out.metric(
        "gossip.host_share_pct",
        100.0 * gossip_rounds * probes.gossip_round_us / 1e6 / replay_s,
        "%",
    );
    out.metric("publish.page_ms", host(per_call_ms("qb.publish")), "ms");
    out.metric(
        "index.events_ms",
        host(events_ns as f64 / 1e6 / indexed_total.max(1) as f64),
        "ms",
    );
    out.metric("chain.seal_us", host(per_call_ms("qb.seal") * 1e3), "us");
    out.metric(
        "writer.host_share_pct",
        100.0 * write_s / (write_s + replay_s),
        "%",
    );
    out.metric(
        "segment.compactions",
        (after.segment.compactions - before.segment.compactions) as f64,
        "count",
    );
    out.metric(
        "segment.publish_kib",
        (after.segment.publish_bytes - before.segment.publish_bytes) as f64 / 1024.0,
        "KiB",
    );
    out.metric("segment.compact_ms", host(probes.compact_ms), "ms");
    out.metric("host.speed_ratio", speed, "ratio");
    out.metric(
        "load.trace_gen_ms",
        host(per_call_ms("load.trace_gen")),
        "ms",
    );
    out.metric(
        "trace.overhead_pct",
        100.0 * (traced_host.as_secs_f64() / replay_s - 1.0),
        "%",
    );
    out.metric(
        "sim.queue_wait_pct",
        Attribution::tail_share(&mut attr.queries, &["queue_wait"]),
        "%",
    );
    out.metric(
        "sim.fetch_pct",
        Attribution::tail_share(
            &mut attr.queries,
            &["fetch", "stats", "plan", "cache_serve"],
        ),
        "%",
    );
    out.metric(
        "sim.net_queue_pct",
        Attribution::tail_share(&mut attr.queries, &["net_queue"]),
        "%",
    );
    out.metric(
        "sim.score_pct",
        Attribution::tail_share(&mut attr.queries, &["score"]),
        "%",
    );
    out.metric(
        "sim.dht_hop_pct",
        Attribution::tail_share(&mut attr.reads, &["dht.lookup"]),
        "%",
    );

    println!("host self time by span (ms, calls):");
    for (name, ns, n) in spans.self_times() {
        println!("  {name:<32} {:>12.3} {n:>8}", ns as f64 / 1e6);
    }
    let path = format!("{out_dir}/spans-{}-{seed}.json", spec.name);
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|_| std::fs::write(&path, spans.to_json()))
    {
        eprintln!("qb-perfbench: could not write {path}: {e}");
    } else {
        println!("host spans written to {path}");
    }

    out.attempted = tally.offered;
    out.failed = tally.failed;
    gate_phase(&mut out, spec, &tally, after.stale - before.stale, recall);
    out.finish();
    out
}
