//! Load generation and summary statistics: seeded arrival schedules, open-
//! and closed-loop load loops over any front end, percentiles, and ok-share
//! accounting. Nothing here knows about PathWeaver, so the load loops can be
//! tested against fake servers.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// SplitMix64: a small seeded generator, so schedules depend on nothing but
/// the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}

/// Poisson arrivals at `rate_hz` over `duration_s`, as offsets in seconds
/// from the start of the phase.
pub fn poisson_schedule(seed: u64, rate_hz: f64, duration_s: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate_hz * duration_s * 1.1) as usize + 16);
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate_hz;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

/// Minimum number of samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` in `(0, 1)` of ascending `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above it — a tail estimated
/// from a handful of samples is not reported.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts a sample set ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample set.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest of p50/p90/p99/p99.9 that the sample supports, as
/// `(label, value)`; `None` when not even the median is supported.
pub fn highest_supported(sorted: &[f64]) -> Option<(&'static str, f64)> {
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9), ("p50", 0.5)]
        .into_iter()
        .find_map(|(label, q)| percentile(sorted, q).map(|v| (label, v)))
}

/// Operations attempted and failed. Sheds, errors, failed checks and failed
/// writes all count as failed; the first few reasons are kept for the log.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason.into());
        }
    }

    /// Operations answered correctly ÷ operations attempted.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// A front end the load loops can use: `submit` must not block on the work
/// itself (an open loop keeps sending while earlier requests run), `wait`
/// blocks until the answer is ready.
pub trait Frontend: Sync {
    type Ticket: Send;
    type Answer: Send;
    /// Sends operation `op`; `Err` is a refusal (e.g. a full queue).
    fn submit(&self, op: usize) -> Result<Self::Ticket, String>;
    /// Waits for a sent operation's answer.
    fn wait(&self, ticket: Self::Ticket) -> Result<Self::Answer, String>;
}

/// Samples `probe()` on a background thread every `period` until stopped,
/// so a phase can be cut into windows and summarised by their median — a
/// stall of the shared host then spoils one window, not the whole phase.
pub struct Sampler {
    stop: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<Vec<(Instant, f64)>>,
}

impl Sampler {
    pub fn start(period: Duration, probe: fn() -> f64) -> Self {
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let mut samples = vec![(Instant::now(), probe())];
            while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(period) {
                samples.push((Instant::now(), probe()));
            }
            samples.push((Instant::now(), probe()));
            samples
        });
        Self { stop, handle }
    }

    pub fn stop(self) -> Vec<(Instant, f64)> {
        let _ = self.stop.send(());
        self.handle.join().expect("sampler thread panicked")
    }
}

/// One window between consecutive samples.
#[derive(Debug, Clone)]
pub struct Window {
    /// Events (e.g. answers) that fell inside the window.
    pub events: usize,
    /// The events' latencies, ascending.
    pub latencies: Vec<f64>,
    /// Change of the sampled value across the window.
    pub delta: f64,
    pub secs: f64,
}

/// Cuts sampled time into windows and gathers the `(time, latency)` events
/// of each. Windows shorter than half the longest (the tail at stop) are
/// dropped.
pub fn windows(samples: &[(Instant, f64)], events: &[(Instant, f64)]) -> Vec<Window> {
    let all: Vec<Window> = samples
        .windows(2)
        .map(|w| {
            let latencies: Vec<f64> = events
                .iter()
                .filter(|&&(e, _)| e > w[0].0 && e <= w[1].0)
                .map(|&(_, l)| l)
                .collect();
            Window {
                events: latencies.len(),
                latencies: sorted(latencies),
                delta: w[1].1 - w[0].1,
                secs: w[1].0.saturating_duration_since(w[0].0).as_secs_f64(),
            }
        })
        .collect();
    let longest = all.iter().map(|w| w.secs).fold(0.0, f64::max);
    all.into_iter().filter(|w| w.secs >= longest / 2.0 && w.events > 0).collect()
}

/// Percentile `q` as the median over windows of each window's percentile.
/// A window too sparse to support it (a stall answers few requests) counts
/// as worse than every other; when that leaves no finite median, the
/// percentile is taken over all events at once.
pub fn windowed_percentile(windows: &[Window], all: &[f64], q: f64) -> Option<f64> {
    let per: Vec<f64> =
        windows.iter().map(|w| percentile(&w.latencies, q).unwrap_or(f64::INFINITY)).collect();
    match per.is_empty() {
        false if median(&per).is_finite() => Some(median(&per)),
        _ => percentile(all, q),
    }
}

/// One operation sent by a load loop.
#[derive(Debug)]
pub struct Sent<A> {
    pub op: usize,
    /// When the operation's `submit` started.
    pub sent_at: Instant,
    /// When its answer (or refusal) arrived.
    pub done_at: Instant,
    /// How long `submit` itself took.
    pub submit_s: f64,
    /// How late the generator sent it (0 for closed loops).
    pub late_s: f64,
    /// From the due time (open loop) or send time (closed loop) to the
    /// answer; `None` when the operation was refused.
    pub latency_s: Option<f64>,
    pub answer: Result<A, String>,
}

/// Everything a load loop saw in one phase.
#[derive(Debug)]
pub struct Phase<A> {
    pub ops: Vec<Sent<A>>,
}

impl<A> Phase<A> {
    /// Latencies of answered operations, ascending.
    pub fn latencies(&self) -> Vec<f64> {
        sorted(self.ops.iter().filter(|s| s.answer.is_ok()).filter_map(|s| s.latency_s).collect())
    }

    pub fn max_late_s(&self) -> f64 {
        self.ops.iter().map(|s| s.late_s).fold(0.0, f64::max)
    }

    pub fn answered(&self) -> usize {
        self.ops.iter().filter(|s| s.answer.is_ok()).count()
    }

    /// `(answer time, latency)` of each answered operation.
    pub fn answers(&self) -> Vec<(Instant, f64)> {
        self.ops
            .iter()
            .filter(|s| s.answer.is_ok())
            .filter_map(|s| s.latency_s.map(|l| (s.done_at, l)))
            .collect()
    }
}

/// Open loop: one generator thread sends operation `i` at `start +
/// schedule[i]` whatever the state of earlier requests, and the calling
/// thread collects answers in send order. Latency runs from the *due* time,
/// so a stall — of the server or of the generator itself — is charged to
/// every request that was due during it (no coordinated omission).
pub fn open_loop<F: Frontend>(fe: &F, start: Instant, schedule: &[f64]) -> Phase<F::Answer> {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, f64, Result<F::Ticket, String>)>();
    let mut ops = Vec::with_capacity(schedule.len());
    std::thread::scope(|s| {
        s.spawn(move || {
            for (i, &offset) in schedule.iter().enumerate() {
                let due = start + Duration::from_secs_f64(offset);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent_at = Instant::now();
                let ticket = fe.submit(i);
                let submit_s = sent_at.elapsed().as_secs_f64();
                if tx.send((i, due, sent_at, submit_s, ticket)).is_err() {
                    return;
                }
            }
        });
        for (op, due, sent_at, submit_s, ticket) in rx {
            let late_s = sent_at.saturating_duration_since(due).as_secs_f64();
            let (latency_s, answer) = match ticket {
                Ok(t) => {
                    let answer = fe.wait(t);
                    (Some(Instant::now().saturating_duration_since(due).as_secs_f64()), answer)
                }
                Err(e) => (None, Err(e)),
            };
            let done_at = Instant::now();
            ops.push(Sent { op, sent_at, done_at, submit_s, late_s, latency_s, answer });
        }
    });
    Phase { ops }
}

/// Closed loop: one client keeps `outstanding` operations in flight until
/// `start + duration_s`, then drains. Operation ids continue from
/// `first_op`. Latency runs from each operation's send time.
pub fn closed_loop<F: Frontend>(
    fe: &F,
    start: Instant,
    duration_s: f64,
    outstanding: usize,
    first_op: usize,
) -> Phase<F::Answer> {
    let end = start + Duration::from_secs_f64(duration_s);
    let mut ops = Vec::new();
    let mut in_flight: VecDeque<(usize, Instant, f64, F::Ticket)> = VecDeque::new();
    let mut next = first_op;
    let send = |in_flight: &mut VecDeque<_>, ops: &mut Vec<Sent<F::Answer>>, op: usize| {
        let sent_at = Instant::now();
        let ticket = fe.submit(op);
        let submit_s = sent_at.elapsed().as_secs_f64();
        match ticket {
            Ok(t) => in_flight.push_back((op, sent_at, submit_s, t)),
            Err(e) => ops.push(Sent {
                op,
                sent_at,
                done_at: Instant::now(),
                submit_s,
                late_s: 0.0,
                latency_s: None,
                answer: Err(e),
            }),
        }
    };
    while in_flight.len() < outstanding.max(1) && Instant::now() < end {
        send(&mut in_flight, &mut ops, next);
        next += 1;
    }
    while let Some((op, sent_at, submit_s, t)) = in_flight.pop_front() {
        let answer = fe.wait(t);
        let last = Instant::now();
        let latency_s = Some(last.saturating_duration_since(sent_at).as_secs_f64());
        ops.push(Sent { op, sent_at, done_at: last, submit_s, late_s: 0.0, latency_s, answer });
        if last < end {
            send(&mut in_flight, &mut ops, next);
            next += 1;
        }
    }
    Phase { ops }
}

/// One synchronous operation of a paced generator (e.g. a writer).
#[derive(Debug)]
pub struct Done<R> {
    pub op: usize,
    /// From the due time to the return.
    pub latency_s: f64,
    /// The call alone, without generator lateness.
    pub service_s: f64,
    pub late_s: f64,
    pub returned_at: Instant,
    pub result: R,
}

/// Runs `op(i)` synchronously at `start + schedule[i]` on the calling
/// thread; an operation that runs late delays the next, and the delay is
/// charged from each operation's due time.
pub fn paced_loop<R>(
    start: Instant,
    schedule: &[f64],
    mut op: impl FnMut(usize) -> R,
) -> Vec<Done<R>> {
    let mut out = Vec::with_capacity(schedule.len());
    for (i, &offset) in schedule.iter().enumerate() {
        let due = start + Duration::from_secs_f64(offset);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let began = Instant::now();
        let result = op(i);
        let returned_at = Instant::now();
        out.push(Done {
            op: i,
            latency_s: returned_at.saturating_duration_since(due).as_secs_f64(),
            service_s: returned_at.saturating_duration_since(began).as_secs_f64(),
            late_s: began.saturating_duration_since(due).as_secs_f64(),
            returned_at,
            result,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        // p99 of 100 samples has one sample beyond it: not reported.
        assert_eq!(percentile(&s, 0.99), None);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        assert_eq!(percentile(&s, 0.999), None);
        // The median of 20 samples has exactly ten beyond it.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(10.0));
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_supported(&s), Some(("p99", 990.0)));
    }

    #[test]
    fn poisson_schedule_repeats_per_seed() {
        let a = poisson_schedule(7, 1000.0, 2.0);
        let b = poisson_schedule(7, 1000.0, 2.0);
        let c = poisson_schedule(8, 1000.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Roughly rate × duration arrivals, increasing, inside the window.
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
    }

    #[test]
    fn ok_share_counts_every_failure_against_attempts() {
        let mut t = Tally::default();
        for _ in 0..7 {
            t.ok();
        }
        t.fail("shed: queue full");
        t.fail("write failed");
        t.fail("hits unsorted");
        assert_eq!(t.attempted, 10);
        assert_eq!(t.failed, 3);
        assert!((t.ok_share() - 0.7).abs() < 1e-12);
        assert_eq!(t.reasons.len(), 3);
        assert_eq!(Tally::default().ok_share(), 0.0);
    }

    /// A server that answers nothing until `stall_until`, then everything.
    struct StalledServer {
        stall_until: Instant,
    }

    impl Frontend for StalledServer {
        type Ticket = ();
        type Answer = ();
        fn submit(&self, _op: usize) -> Result<(), String> {
            Ok(())
        }
        fn wait(&self, _t: ()) -> Result<(), String> {
            let now = Instant::now();
            if self.stall_until > now {
                std::thread::sleep(self.stall_until - now);
            }
            Ok(())
        }
    }

    #[test]
    fn open_loop_charges_a_server_stall_to_every_queued_request() {
        let start = Instant::now() + Duration::from_millis(5);
        let fe = StalledServer { stall_until: start + Duration::from_millis(100) };
        let schedule: Vec<f64> = (0..10).map(|i| i as f64 * 0.01).collect();
        let phase = open_loop(&fe, start, &schedule);
        assert_eq!(phase.ops.len(), 10);
        for s in &phase.ops {
            // Due at 10·op ms, answered at ≥ 100 ms: the whole remaining
            // stall is charged, not just the time since the send.
            let floor = 0.1 - schedule[s.op];
            let lat = s.latency_s.expect("answered");
            assert!(lat >= floor - 1e-4, "op {}: {lat} < {floor}", s.op);
        }
    }

    /// A server whose admission blocks for the first request, stalling the
    /// generator itself.
    struct StalledAdmission {
        first: Mutex<bool>,
    }

    impl Frontend for StalledAdmission {
        type Ticket = ();
        type Answer = ();
        fn submit(&self, _op: usize) -> Result<(), String> {
            let mut first = self.first.lock().expect("test mutex");
            if *first {
                *first = false;
                std::thread::sleep(Duration::from_millis(80));
            }
            Ok(())
        }
        fn wait(&self, _t: ()) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn open_loop_charges_generator_lateness_from_due_time() {
        let fe = StalledAdmission { first: Mutex::new(true) };
        let start = Instant::now();
        let schedule: Vec<f64> = (0..5).map(|i| i as f64 * 0.01).collect();
        let phase = open_loop(&fe, start, &schedule);
        for s in &phase.ops[1..] {
            // Requests due at 10–40 ms could not be sent before 80 ms.
            let floor = 0.08 - schedule[s.op];
            assert!(s.late_s >= floor - 1e-3, "op {} late {}", s.op, s.late_s);
            assert!(s.latency_s.expect("answered") >= floor - 1e-3);
        }
        assert!(phase.max_late_s() >= 0.069);
    }

    struct Refuses;

    impl Frontend for Refuses {
        type Ticket = ();
        type Answer = ();
        fn submit(&self, op: usize) -> Result<(), String> {
            if op.is_multiple_of(2) {
                Ok(())
            } else {
                Err("queue full".into())
            }
        }
        fn wait(&self, _t: ()) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn refusals_have_no_latency_and_closed_loop_drains() {
        let phase = open_loop(&Refuses, Instant::now(), &[0.0, 0.001, 0.002, 0.003]);
        assert_eq!(phase.answered(), 2);
        assert_eq!(phase.latencies().len(), 2);
        let phase =
            closed_loop(&StalledServer { stall_until: Instant::now() }, Instant::now(), 0.02, 4, 0);
        assert!(phase.answered() >= 4);
        let mut ids: Vec<usize> = phase.ops.iter().map(|s| s.op).collect();
        ids.sort_unstable();
        assert!(ids.windows(2).all(|w| w[0] + 1 == w[1]), "operation ids are contiguous");
    }

    #[test]
    fn paced_loop_measures_from_due_time() {
        let start = Instant::now();
        let done = paced_loop(start, &[0.0, 0.001, 0.002], |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            i
        });
        assert_eq!(done.len(), 3);
        assert!(done[1].late_s >= 0.028 && done[1].latency_s >= done[1].late_s);
        assert!(done[0].service_s >= 0.03);
    }

    #[test]
    fn windows_split_events_and_take_the_median_percentile() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let samples = [(at(0), 0.0), (at(100), 1.0), (at(200), 3.0), (at(230), 3.5)];
        // 40 events per full window; the short tail window is dropped.
        let events: Vec<(Instant, f64)> = (0..80)
            .map(|i: u64| if i < 40 { (at(1 + 2 * i), 1.0) } else { (at(21 + 2 * i), 3.0) })
            .chain([(at(220), 100.0)])
            .collect();
        let w = windows(&samples, &events);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].events, w[1].events), (40, 40));
        assert_eq!((w[0].delta, w[1].delta), (1.0, 2.0));
        // Each window's p50 is its own level; the median of the two is
        // their midpoint, and the outlier in the dropped tail is ignored.
        let all = sorted(events.iter().map(|e| e.1).collect());
        assert_eq!(windowed_percentile(&w, &all, 0.5), Some(2.0));
        // p90 of 40 samples has 4 beyond it: fall back to all events.
        assert_eq!(windowed_percentile(&w, &all, 0.9), percentile(&all, 0.9));
        // A window too sparse for its p50 (a stall) ranks worst of three.
        let window = |latencies: Vec<f64>| Window {
            events: latencies.len(),
            latencies,
            delta: 0.0,
            secs: 0.5,
        };
        let w = [window(vec![1.0; 40]), window(vec![3.0; 40]), window(vec![9.0; 5])];
        assert_eq!(windowed_percentile(&w, &all, 0.5), Some(3.0));
    }
}
