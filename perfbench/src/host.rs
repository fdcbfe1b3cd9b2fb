//! Host-clock instruments: in-memory spans around the public calls the
//! benchmark makes, peak RSS, and small order statistics.
//!
//! Host durations are CPU time of the calling thread, not wall time: the
//! benchmark is single-threaded, and CPU time leaves out the intervals a
//! shared machine spends running other processes. CPU time still stretches
//! when neighbours compete for caches and cores, by ±20% between runs of
//! identical work on a shared 2-vCPU Xeon VM; so every reported host time
//! is also scaled to a reference machine speed measured in the same run by
//! [`calibration_kernel`] (see `perfbench/STUDY.md`).

use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time this thread has used so far.
fn thread_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is a
    // constant the kernel accepts for the calling thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A stopwatch on the thread's CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer(Duration);

impl CpuTimer {
    pub fn start() -> CpuTimer {
        CpuTimer(thread_cpu_time())
    }

    pub fn elapsed(&self) -> Duration {
        thread_cpu_time().saturating_sub(self.0)
    }
}

/// One closed host span.
#[derive(Debug, Clone)]
pub struct HostSpan {
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Times every call the benchmark makes into the program. Durations are
/// always measured (the end-to-end host metrics need them); spans are kept
/// only when recording is on, so an untraced run allocates nothing here.
#[derive(Debug)]
pub struct Spans {
    record: bool,
    epoch: Instant,
    spans: Vec<HostSpan>,
    open: Vec<(usize, CpuTimer)>,
    calibration: Calibration,
}

impl Spans {
    pub fn new(record: bool) -> Spans {
        Spans {
            record,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            calibration: Calibration::default(),
        }
    }

    /// Sample the machine's current speed. Call between timed calls only.
    pub fn calibrate(&mut self) {
        self.calibration.sample();
    }

    /// The calibration so far, to measure a stretch of the run against.
    pub fn mark(&self) -> Calibration {
        self.calibration
    }

    /// Reference kernel time over the mean kernel time of the samples
    /// taken since `mark` (1.0 without samples; above 1.0 while the machine
    /// runs faster than the reference).
    pub fn speed_since(&self, mark: Calibration) -> f64 {
        self.calibration.since(mark).speed()
    }

    /// CPU time the kernel itself took since `mark`.
    pub fn kernel_time_since(&self, mark: Calibration) -> Duration {
        self.calibration.since(mark).total
    }

    /// Speed over the whole run so far.
    pub fn speed(&self) -> f64 {
        self.calibration.speed()
    }

    /// Run `f` inside a span called `name`; returns its result and the
    /// host time it took.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Open a span; close it with [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        if self.record {
            let parent = self.open.last().map(|(p, _)| *p);
            self.spans.push(HostSpan {
                name,
                parent,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                dur_ns: 0,
            });
        }
        self.open.push((id, CpuTimer::start()));
        id
    }

    /// Close the innermost open span and return its duration.
    pub fn exit(&mut self, id: usize) -> Duration {
        let (open_id, started) = self.open.pop().expect("exit without a matching enter");
        assert_eq!(open_id, id, "host spans must close innermost first");
        let dur = started.elapsed();
        if self.record {
            self.spans[id].dur_ns = dur.as_nanos() as u64;
        }
        dur
    }

    /// Total nanoseconds and count of the recorded spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns, n + 1))
    }

    /// Self time per span name: duration minus the time direct children
    /// cover, in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.dur_ns.saturating_sub(child_ns[i]);
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += own;
                    row.2 += 1;
                }
                None => out.push((s.name, own, 1)),
            }
        }
        out
    }

    /// The spans as one JSON document (Chrome trace-event format, so the
    /// file opens in `chrome://tracing` or Perfetto).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Time `reps` calls of `f` and return CPU nanoseconds per call, taking the
/// median over `rounds` rounds so one descheduling does not skew it.
pub fn ns_per_call(rounds: usize, reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|r| {
            let t = CpuTimer::start();
            for i in 0..reps {
                f(r * reps + i);
            }
            t.elapsed().as_nanos() as f64 / reps.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// A fixed CPU kernel, independent of the repository's code, whose CPU
/// time tracks how fast this machine runs right now. The benchmark runs it
/// between slices and scales host times by its speed, so a neighbour
/// slowing the shared machine down does not read as the program getting
/// slower. It mixes ordered-map updates, sorting, hashing arithmetic and
/// small allocations, like the simulation itself.
pub fn calibration_kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = std::collections::BTreeMap::new();
    for _ in 0..2_048 {
        let k = next() % 8_192;
        *map.entry(k).or_insert(0u64) += 1;
    }
    let mut v: Vec<u64> = (0..4_096).map(|_| next()).collect();
    v.sort_unstable();
    let words: Vec<String> = v
        .iter()
        .take(512)
        .map(|n| format!("w{}", n % 1_000))
        .collect();
    let mut acc = map.values().sum::<u64>() ^ v[v.len() / 2];
    for w in &words {
        for b in w.bytes() {
            acc = acc.rotate_left(5) ^ u64::from(b).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    acc
}

/// [`calibration_kernel`]'s CPU time on the reference machine (a shared
/// 2-vCPU Intel Xeon VM) at its usual load.
pub const REFERENCE_KERNEL: Duration = Duration::from_micros(450);

/// Accumulates calibration-kernel CPU time over a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Calibration {
    total: Duration,
    calls: u32,
}

impl Calibration {
    /// Run the kernel once and add its CPU time.
    pub fn sample(&mut self) {
        let t = CpuTimer::start();
        std::hint::black_box(calibration_kernel(0x5EED ^ u64::from(self.calls)));
        self.total += t.elapsed();
        self.calls += 1;
    }

    /// The samples taken after `earlier`.
    fn since(&self, earlier: Calibration) -> Calibration {
        Calibration {
            total: self.total.saturating_sub(earlier.total),
            calls: self.calls - earlier.calls,
        }
    }

    /// [`REFERENCE_KERNEL`] over the mean kernel time so far (1.0 before
    /// any sample).
    pub fn speed(&self) -> f64 {
        if self.calls == 0 {
            return 1.0;
        }
        let mean = self.total.as_secs_f64() / f64::from(self.calls);
        REFERENCE_KERNEL.as_secs_f64() / mean.max(1e-9)
    }
}
