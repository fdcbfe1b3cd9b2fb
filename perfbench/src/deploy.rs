//! A built deployment and the slice-by-slice open-loop driver.
//!
//! The arrival trace is generated once for warm-up plus measured phase and
//! cut into one-second slices; each slice is replayed through
//! `qb_load::replay` (or `replay_traced`). Between slices, page updates that
//! fell due are published and indexed. A slice whose replay returns `Err`
//! counts every one of its arrivals as failed; the run goes on.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use qb_chain::AccountId;
use qb_common::{DetRng, LatencyHistogram, QbError, SimDuration, SimInstant};
use qb_dweb::WebPage;
use qb_load::{replay, replay_traced, ArrivalTrace, ReplayConfig};
use qb_queenbee::{LoadReport, QueenBee};
use qb_workload::{mutate_page, Corpus, UpdateEvent, UpdateStream};

use crate::host::Spans;
use crate::workload::{Spec, FRONTENDS, TOP_K};

/// Corpus pages published per block at set-up; the machine speed is
/// sampled after each batch is indexed.
const PUBLISH_BATCH: usize = 32;

/// One workload's deployment, warmed or not, plus its remaining inputs.
pub struct Deployment {
    pub spec: Spec,
    seed: u64,
    pub qb: QueenBee,
    pub corpus: Corpus,
    pub trace: ArrivalTrace,
    /// Current version and text of every updated page (the oracle's view).
    current: HashMap<String, (u64, String)>,
    current_pages: HashMap<String, WebPage>,
    updates: Vec<UpdateEvent>,
    next_update: usize,
    update_rng: DetRng,
    /// Index of the next slice to replay.
    next_slice: u64,
    /// Simulated instant slice 0 starts at.
    origin: SimInstant,
    /// Pages published and indexed, and the host time it took
    /// (publish + seal + process_publish_events).
    pub pages_indexed: u64,
    pub write_host: Duration,
}

/// What one slice did.
#[derive(Debug, Default)]
pub struct SliceOutcome {
    pub offered: u64,
    /// `Ok` replays only.
    pub report: Option<LoadReport>,
    /// Error kind of a failed replay.
    pub error: Option<String>,
    pub replay_host: Duration,
    /// Sim-clock span trees of a traced replay.
    pub spans: Option<qb_trace::Trace>,
}

/// The short name of an error's kind (its variant), for failure tallies.
pub fn error_kind(e: &QbError) -> String {
    let debug = format!("{e:?}");
    debug
        .split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap_or("Unknown")
        .to_string()
}

impl Deployment {
    /// Generate the inputs from `seed`, build the engine and publish the
    /// corpus. Nothing is replayed yet.
    pub fn build(spec: &Spec, seed: u64, spans: &mut Spans) -> Deployment {
        let (corpus, _) = spans.time("workload.corpus", || spec.corpus(seed));
        let (trace, _) = spans.time("load.trace_gen", || spec.trace(&corpus, seed));
        let horizon = SimDuration::from_secs(spec.warm_slices + spec.measured_slices);
        let mut update_rng = DetRng::new(seed ^ 0x0_DA7E);
        let updates = match spec.update_gap {
            Some(gap) => UpdateStream::new(&corpus, gap).generate(
                &mut update_rng,
                SimInstant::ZERO,
                SimInstant::ZERO + horizon,
            ),
            None => Vec::new(),
        };
        let (qb, _) = spans.time("engine.new", || {
            QueenBee::new(spec.engine_config(seed)).expect("workload configurations are valid")
        });
        let current_pages = corpus
            .pages
            .iter()
            .map(|p| (p.name.clone(), p.clone()))
            .collect();
        let mut d = Deployment {
            spec: spec.clone(),
            seed,
            qb,
            corpus,
            trace,
            current: HashMap::new(),
            current_pages,
            updates,
            next_update: 0,
            update_rng,
            next_slice: 0,
            origin: SimInstant::ZERO,
            pages_indexed: 0,
            write_host: Duration::ZERO,
        };
        d.publish_corpus(spans);
        d.origin = d.qb.net.now();
        d
    }

    /// Publish the corpus in batches, each sealed and indexed before the
    /// next, as bees would index a stream of publish events.
    fn publish_corpus(&mut self, spans: &mut Spans) {
        let storage_peers = (self.spec.num_peers - self.spec.num_bees) as u64;
        for i in 0..self.corpus.pages.len() {
            // Frontends sit on the lowest peers; publish from the others.
            let peer = FRONTENDS as u64 + i as u64 % (storage_peers - FRONTENDS as u64);
            let creator = AccountId(self.corpus.creators[i]);
            let page = &self.corpus.pages[i];
            let qb = &mut self.qb;
            let (report, took) = spans.time("qb.publish", || qb.publish(peer, creator, page));
            self.write_host += took;
            report.expect("publishing a generated page");
            if (i + 1) % PUBLISH_BATCH == 0 || i + 1 == self.corpus.pages.len() {
                self.index_published(spans)
                    .expect("indexing the published corpus");
                spans.calibrate();
            }
        }
    }

    /// Seal the pending publishes into a block and let the bees index them.
    fn index_published(&mut self, spans: &mut Spans) -> qb_common::QbResult<()> {
        let qb = &mut self.qb;
        let (_, took) = spans.time("qb.seal", || qb.seal());
        self.write_host += took;
        let (n, took) = spans.time("qb.process_publish_events", || qb.process_publish_events());
        self.write_host += took;
        self.pages_indexed += n? as u64;
        Ok(())
    }

    /// Publish and index every update due by the start of the next slice.
    /// Returns how many were applied.
    fn apply_due_updates(&mut self, until: SimInstant, spans: &mut Spans) -> u64 {
        let mut applied = 0u64;
        while let Some(update) = self.updates.get(self.next_update) {
            if update.at > until {
                break;
            }
            let update = update.clone();
            self.next_update += 1;
            let name = self.corpus.pages[update.page_index].name.clone();
            let page = mutate_page(&self.current_pages[&name], update.seq, &mut self.update_rng);
            let creator = AccountId(self.corpus.creators[update.page_index]);
            let peer = FRONTENDS as u64
                + (update.page_index as u64
                    % (self.spec.num_peers - self.spec.num_bees - FRONTENDS) as u64);
            let qb = &mut self.qb;
            let (report, took) = spans.time("qb.publish", || qb.publish(peer, creator, &page));
            self.write_host += took;
            if report.is_ok_and(|r| r.accepted) {
                let version = self
                    .qb
                    .chain
                    .publish_registry()
                    .get(&name)
                    .map_or(1, |r| r.version);
                self.current.insert(name.clone(), (version, page.text()));
                self.current_pages.insert(name, page);
                applied += 1;
            }
        }
        if applied > 0 {
            // A failed indexing pass leaves those updates unindexed: the
            // freshness and recall metrics show it.
            let _ = self.index_published(spans);
        }
        applied
    }

    /// The arrivals of one slice, re-based to the slice start.
    fn slice_trace(&self, slice: u64) -> ArrivalTrace {
        let lo = SimDuration::from_secs(slice);
        let hi = SimDuration::from_secs(slice + 1);
        let arrivals = &self.trace.arrivals;
        let first = arrivals.partition_point(|a| a.offset < lo);
        let end = arrivals.partition_point(|a| a.offset < hi);
        let arrivals = arrivals[first..end]
            .iter()
            .map(|a| qb_load::Arrival {
                offset: SimDuration::from_micros(a.offset.as_micros() - lo.as_micros()),
                query: a.query.clone(),
            })
            .collect();
        ArrivalTrace {
            arrivals,
            pool: Vec::new(),
            config: self.trace.config.clone(),
        }
    }

    /// Replay the next one-second slice (after publishing due updates).
    pub fn run_slice(&mut self, traced: bool, spans: &mut Spans) -> SliceOutcome {
        let slice = self.next_slice;
        self.next_slice += 1;
        let start = self.origin + SimDuration::from_secs(slice);
        let qb = &mut self.qb;
        spans.time("qb.advance_time_to", || qb.advance_time_to(start));
        self.apply_due_updates(start, spans);
        let trace = self.slice_trace(slice);
        let config = ReplayConfig {
            seed: self.seed ^ slice.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            fresh_fraction: self.spec.fresh_fraction,
            top_k: TOP_K,
            ..ReplayConfig::default()
        };
        let qb = &mut self.qb;
        let (result, replay_host) = if traced {
            spans.time("qb_load.replay_traced", || {
                replay_traced(qb, &trace, &config).map(|(r, t)| (r, Some(t)))
            })
        } else {
            spans.time("qb_load.replay", || {
                replay(qb, &trace, &config).map(|r| (r, None))
            })
        };
        let mut outcome = SliceOutcome {
            offered: trace.len() as u64,
            replay_host,
            ..SliceOutcome::default()
        };
        match result {
            Ok((report, trace_spans)) => {
                outcome.report = Some(report);
                outcome.spans = trace_spans;
            }
            Err(e) => outcome.error = Some(error_kind(&e)),
        }
        outcome
    }

    /// Run the warm-up slices (part of set-up, outside the measured phase).
    pub fn warm_up(&mut self, spans: &mut Spans) {
        for _ in 0..self.spec.warm_slices {
            self.run_slice(false, spans);
            spans.calibrate();
        }
    }

    /// The corpus as the oracle sees it: every page at its current version.
    pub fn oracle_docs(&self) -> Vec<qb_baseline::CrawlDoc> {
        qb_bench::crawl_docs(&self.corpus, &self.current)
    }
}

/// Accumulated end-to-end accounting of the measured phase.
#[derive(Debug, Default)]
pub struct Tally {
    pub offered: u64,
    pub completed: u64,
    pub shed: u64,
    pub failed: u64,
    pub degraded: u64,
    pub peak_queue_depth: usize,
    pub sojourn: LatencyHistogram,
    pub queue_wait: LatencyHistogram,
    pub errors: BTreeMap<String, u64>,
    pub replay_host: Duration,
    /// Slices whose `completed + shed` did not match their arrivals.
    pub unbalanced_slices: u64,
}

impl Tally {
    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.offered += other.offered;
        self.completed += other.completed;
        self.shed += other.shed;
        self.failed += other.failed;
        self.degraded += other.degraded;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.sojourn.merge(&other.sojourn);
        self.queue_wait.merge(&other.queue_wait);
        for (kind, n) in &other.errors {
            *self.errors.entry(kind.clone()).or_insert(0) += n;
        }
        self.replay_host += other.replay_host;
        self.unbalanced_slices += other.unbalanced_slices;
    }

    pub fn add(&mut self, slice: &SliceOutcome) {
        self.offered += slice.offered;
        self.replay_host += slice.replay_host;
        match (&slice.report, &slice.error) {
            (Some(r), _) => {
                self.completed += r.completed;
                self.shed += r.shed;
                self.degraded += r.degraded;
                self.peak_queue_depth = self.peak_queue_depth.max(r.peak_queue_depth);
                self.sojourn.merge(&r.sojourn);
                self.queue_wait.merge(&r.queue_wait);
                if r.offered != slice.offered || r.completed + r.shed != r.offered {
                    self.unbalanced_slices += 1;
                }
            }
            (None, error) => {
                self.failed += slice.offered;
                let kind = error.clone().unwrap_or_else(|| "Unknown".into());
                *self.errors.entry(kind).or_insert(0) += slice.offered;
            }
        }
    }

    /// Completed queries whose sojourn is within `limit`, at the
    /// histogram's bucket resolution (≤3.1% relative).
    pub fn completed_within(&self, limit: SimDuration) -> u64 {
        let total = self.sojourn.count();
        // value_at_quantile is monotone in the rank; find the last rank
        // whose value is within the limit.
        let value_at_rank = |r: u64| {
            self.sojourn
                .value_at_quantile((r as f64 - 0.5) / total as f64)
        };
        let (mut lo, mut hi) = (0u64, total);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if value_at_rank(mid) <= limit {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}
