//! The end-to-end run, the correctness gate, and the result line.

use std::time::Duration;

use qb_baseline::{CentralizedConfig, CentralizedEngine};
use qb_cache::TierMetrics;
use qb_gossip::GossipStats;
use qb_queenbee::{CacheMetrics, Freshness, RoutingPolicy, SearchRequest, SegmentStats};
use qb_simnet::NetStats;

use crate::deploy::{Deployment, Tally};
use crate::host::{median, peak_rss_mib, CpuTimer, Spans};
use crate::workload::{Spec, FRONTENDS, QUEUE_CAPACITY, RECALL_FLOOR_PCT, RECALL_QUERIES, TOP_K};

#[cfg(test)]
/// The end-to-end metrics read off the simulated clock and counters: two
/// runs at one seed must print them byte-identically.
pub const SIM_METRICS: [&str; 7] = [
    "sim_mean_ms",
    "sim_p99_ms",
    "ok_pct",
    "slo_pct",
    "net_kib_per_query",
    "fresh_pct",
    "recall_pct",
];

/// The result of one run: the gate's verdict and the metrics to print.
#[derive(Debug, Default)]
pub struct Output {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Checks that failed, for the log.
    pub violations: Vec<String>,
}

impl Output {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a gate check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.violations.push(what.into());
        }
    }

    /// Print the metric table, then the result object as the last line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<32} {value:>16.6} {unit}");
        }
        for v in &self.violations {
            println!("GATE FAILED: {v}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }

    /// Close the gate: the run is correct when no check failed and every
    /// metric is a finite number.
    pub fn finish(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect();
        for name in bad {
            self.violations
                .push(format!("{name} is not a finite number"));
        }
        self.correct = self.violations.is_empty();
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Counters read off the engine at one instant; deltas of two snapshots
/// bracket a phase.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub net: NetStats,
    pub fresh: u64,
    pub stale: u64,
    pub cache: CacheMetrics,
    pub gossip: GossipStats,
    pub segment: SegmentStats,
    pub pages_indexed: u64,
    pub write_host: Duration,
}

impl Snapshot {
    pub fn take(d: &Deployment) -> Snapshot {
        Snapshot {
            net: d.qb.net.stats().clone(),
            fresh: d.qb.freshness.fresh_results,
            stale: d.qb.freshness.stale_results,
            cache: d.qb.cache_metrics().unwrap_or_default(),
            gossip: d.qb.gossip_stats().unwrap_or_default(),
            segment: d.qb.segment_stats(),
            pages_indexed: d.pages_indexed,
            write_host: d.write_host,
        }
    }
}

/// `later - earlier` of one cache tier's counters.
pub fn tier_delta(later: &TierMetrics, earlier: &TierMetrics) -> TierMetrics {
    TierMetrics {
        hits: later.hits - earlier.hits,
        misses: later.misses - earlier.misses,
        insertions: later.insertions - earlier.insertions,
        evictions: later.evictions - earlier.evictions,
        expirations: later.expirations - earlier.expirations,
        invalidations: later.invalidations - earlier.invalidations,
        admission_rejections: later.admission_rejections - earlier.admission_rejections,
    }
}

/// Hit share of a tier's lookups, in percent (0 without lookups).
pub fn hit_pct(t: &TierMetrics) -> f64 {
    percent(t.hits, t.hits + t.misses, 0.0)
}

/// Replay the measured phase on `d`, printing one line per slice so an
/// unfinished warm-up shows.
pub fn measured_phase(d: &mut Deployment, spans: &mut Spans) -> Tally {
    let mut tally = Tally::default();
    println!("slice  offered  completed  shed  failed  shard_hit_%  sim_p50_ms");
    for i in 0..d.spec.measured_slices {
        let before = Snapshot::take(d);
        let outcome = d.run_slice(false, spans);
        let shard = tier_delta(&Snapshot::take(d).cache.shard, &before.cache.shard);
        let (completed, shed, p50) = outcome.report.as_ref().map_or((0, 0, 0.0), |r| {
            (r.completed, r.shed, r.p50().as_millis_f64())
        });
        println!(
            "{i:>5}  {:>7}  {completed:>9}  {shed:>4}  {:>6}  {:>11.1}  {p50:>10.3}{}",
            outcome.offered,
            if outcome.error.is_some() {
                outcome.offered
            } else {
                0
            },
            hit_pct(&shard),
            outcome
                .error
                .as_ref()
                .map_or(String::new(), |e| format!("  error: {e}"))
        );
        tally.add(&outcome);
        spans.calibrate();
    }
    tally
}

/// Top-k overlap with an oracle indexed from the corpus at its current
/// versions, over the first `RECALL_QUERIES` pool queries, issued as
/// `Fresh` searches after the measured phase: (oracle results found,
/// oracle results).
pub fn recall_counts(d: &mut Deployment, spans: &mut Spans) -> (usize, usize) {
    let mut oracle = CentralizedEngine::new(CentralizedConfig {
        top_k: TOP_K,
        ..CentralizedConfig::default()
    });
    let now = d.qb.net.now();
    oracle.crawl(&d.oracle_docs(), now);
    let queries: Vec<String> = d.trace.pool.iter().take(RECALL_QUERIES).cloned().collect();
    let (mut hit, mut wanted) = (0usize, 0usize);
    for (i, q) in queries.iter().enumerate() {
        let Ok((expected, _)) = oracle.search(q, 0.0, now) else {
            continue;
        };
        if expected.is_empty() {
            continue;
        }
        let request = SearchRequest::new(q.clone())
            .top_k(TOP_K)
            .freshness(Freshness::Fresh)
            .route(RoutingPolicy::Direct(i % FRONTENDS));
        let qb = &mut d.qb;
        let (response, _) = spans.time("qb.search_request", || qb.search_request(request));
        let got: Vec<String> = response
            .map(|r| r.hits.into_iter().map(|h| h.name).collect())
            .unwrap_or_default();
        wanted += expected.len();
        hit += expected.iter().filter(|e| got.contains(&e.name)).count();
    }
    (hit, wanted)
}

/// The gate checks every run makes on its measured phase.
pub fn gate_phase(out: &mut Output, spec: &Spec, tally: &Tally, stale: u64, recall: f64) {
    out.check(
        tally.offered == tally.completed + tally.shed + tally.failed
            && tally.unbalanced_slices == 0,
        format!(
            "offered {} != completed {} + shed {} + failed {} (unbalanced slices {})",
            tally.offered, tally.completed, tally.shed, tally.failed, tally.unbalanced_slices
        ),
    );
    out.check(
        tally.peak_queue_depth <= QUEUE_CAPACITY,
        format!(
            "peak queue depth {} exceeds capacity {}",
            tally.peak_queue_depth, QUEUE_CAPACITY
        ),
    );
    out.check(
        recall >= RECALL_FLOOR_PCT,
        format!("recall {recall:.1}% below its floor {RECALL_FLOOR_PCT}%"),
    );
    if spec.update_gap.is_none() {
        out.check(
            stale == 0,
            format!("{stale} stale results served on a read-only workload"),
        );
    }
    out.check(tally.completed > 0, "no query completed");
}

/// The seed of instance `i` of a run at `seed`.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Counters of the measured phases, summed over a run's instances.
#[derive(Debug, Default)]
struct Totals {
    tally: Tally,
    net_bytes: u64,
    fresh: u64,
    stale: u64,
    /// Replay host seconds at the reference machine speed.
    replay_secs: f64,
    /// Pages indexed and writer host seconds at the reference machine
    /// speed: in the measured phases when the workload updates pages, else
    /// at set-up (a read-only workload writes only its corpus).
    writes: (u64, f64),
    /// Per-instance `host_qps`, for the log.
    instance_qps: Vec<f64>,
    recall: (usize, usize),
}

/// `--trace 0`: build `spec.instances` independent deployments of the workload
/// from seeds derived from `seed`, one after the other; warm each up, then
/// replay its share of the measured slices. Everything but `setup_s` pools
/// the instances, each counting by its work, so one unlucky corpus or query
/// pool moves a run's figures a third or a fifth as much. `setup_s` is the
/// median over the instances, so the first one's cold allocator does not
/// skew it.
pub fn end_to_end_run(spec: &Spec, seed: u64) -> Output {
    let mut spans = Spans::new(false);
    let per_instance = Spec {
        measured_slices: spec.measured_slices.div_ceil(spec.instances as u64),
        ..spec.clone()
    };
    let mut setup_secs = Vec::with_capacity(spec.instances);
    let mut sum = Totals::default();
    for i in 0..spec.instances {
        // Host times of each stretch are scaled by the machine speed
        // sampled during that stretch; the kernel's own time is left out.
        let mark = spans.mark();
        let t = CpuTimer::start();
        let mut d = Deployment::build(&per_instance, instance_seed(seed, i), &mut spans);
        d.warm_up(&mut spans);
        let setup_cpu = t.elapsed().saturating_sub(spans.kernel_time_since(mark));
        let speed = spans.speed_since(mark);
        setup_secs.push(setup_cpu.as_secs_f64() * speed);
        if spec.update_gap.is_none() {
            sum.writes.0 += d.pages_indexed;
            sum.writes.1 += d.write_host.as_secs_f64() * speed;
        }

        let mark = spans.mark();
        let before = Snapshot::take(&d);
        let tally = measured_phase(&mut d, &mut spans);
        let after = Snapshot::take(&d);
        let speed = spans.speed_since(mark);
        let replay_secs = tally.replay_host.as_secs_f64() * speed;
        sum.replay_secs += replay_secs;
        sum.instance_qps
            .push(tally.completed as f64 / replay_secs.max(1e-9));
        if spec.update_gap.is_some() {
            sum.writes.0 += after.pages_indexed - before.pages_indexed;
            sum.writes.1 += (after.write_host - before.write_host).as_secs_f64() * speed;
        }
        let (hit, wanted) = recall_counts(&mut d, &mut spans);
        sum.tally.merge(&tally);
        sum.net_bytes += after.net.bytes - before.net.bytes;
        sum.fresh += after.fresh - before.fresh;
        sum.stale += after.stale - before.stale;
        sum.recall.0 += hit;
        sum.recall.1 += wanted;
        // `d` drops here, before the next instance is built, so peak RSS
        // is one deployment's worth.
    }
    let tally = &sum.tally;
    let recall = percent(sum.recall.0 as u64, sum.recall.1 as u64, 100.0);

    let mut out = Output {
        attempted: tally.offered,
        failed: tally.failed,
        ..Output::default()
    };
    let completed = tally.completed.max(1) as f64;
    out.metric("sim_mean_ms", tally.sojourn.mean().as_millis_f64(), "ms");
    out.metric("sim_p99_ms", tally.sojourn.p99().as_millis_f64(), "ms");
    out.metric("ok_pct", percent(tally.completed, tally.offered, 0.0), "%");
    out.metric(
        "slo_pct",
        percent(
            tally.completed_within(spec.latency_limit),
            tally.offered,
            0.0,
        ),
        "%",
    );
    out.metric(
        "net_kib_per_query",
        sum.net_bytes as f64 / 1024.0 / completed,
        "KiB",
    );
    out.metric(
        "fresh_pct",
        percent(sum.fresh, sum.fresh + sum.stale, 100.0),
        "%",
    );
    out.metric("recall_pct", recall, "%");
    out.metric(
        "host_qps",
        tally.completed as f64 / sum.replay_secs.max(1e-9),
        "1/s",
    );
    out.metric(
        "host_ups",
        sum.writes.0 as f64 / sum.writes.1.max(1e-9),
        "1/s",
    );
    out.metric("setup_s", median(&setup_secs), "s");
    out.metric("peak_rss_mb", peak_rss_mib().unwrap_or(0.0), "MiB");

    println!(
        "measured: {} instances x {} slices, offered {}, completed {}, shed {}, \
         degraded {}, failed {} {:?}; sim p50 {} ms, {} completed beyond p99; machine speed \
         {:.3} of the reference; per instance host_qps {:.1?}, set-up {:.3?} s",
        spec.instances,
        per_instance.measured_slices,
        tally.offered,
        tally.completed,
        tally.shed,
        tally.degraded,
        tally.failed,
        tally.errors,
        tally.sojourn.p50().as_millis_f64(),
        tally.completed - tally.completed * 99 / 100,
        spans.speed(),
        sum.instance_qps,
        setup_secs
    );
    gate_phase(&mut out, spec, tally, sum.stale, recall);
    out.finish();
    out
}

/// `100 * part / whole`, or `empty` when `whole` is zero.
pub fn percent(part: u64, whole: u64, empty: f64) -> f64 {
    if whole == 0 {
        empty
    } else {
        100.0 * part as f64 / whole as f64
    }
}
