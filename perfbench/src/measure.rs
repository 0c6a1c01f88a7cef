//! Closed-loop load generation and the statistics the report needs.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed operation as a client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall time of the call, in milliseconds.
    pub ms: f64,
    /// User bytes the operation moved (sent for a put, served for a get).
    pub bytes: usize,
    /// Whether the operation succeeded.
    pub ok: bool,
    /// When it returned, in seconds since its phase started (set by
    /// [`closed_loop`]).
    pub end_s: f32,
}

impl Sample {
    /// A success that moved `bytes` user bytes in `ms`.
    pub fn ok(bytes: usize, ms: f64) -> Sample {
        Sample {
            ms,
            bytes,
            ok: true,
            end_s: 0.0,
        }
    }

    /// A failure or refusal after `ms`: counted against the run, never
    /// dropped.
    pub fn failed(ms: f64) -> Sample {
        Sample {
            ms,
            bytes: 0,
            ok: false,
            end_s: 0.0,
        }
    }
}

/// Shared abort state: the first wrong byte stops every client.
#[derive(Default)]
pub struct Abort {
    flag: AtomicBool,
    why: Mutex<Option<String>>,
}

impl Abort {
    /// Record a correctness failure and stop the run.
    pub fn fail(&self, why: String) {
        let mut slot = self.why.lock().expect("abort lock");
        slot.get_or_insert(why);
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has any client seen a wrong answer?
    pub fn tripped(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// The first recorded failure.
    pub fn reason(&self) -> Option<String> {
        self.why.lock().expect("abort lock").clone()
    }
}

/// Fewest operations a part of a phase holds when a figure is the
/// median over parts: a short burst of interference from outside the
/// program then moves one part rather than the figure.
const PART_OPS: usize = 1000;

/// The samples of one phase and its wall time.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every operation issued, failed ones included, one list per
    /// client (kept apart so that collecting them allocates nothing).
    pub per_client: Vec<Vec<Sample>>,
    /// Wall time from the phase start to the last client's last reply.
    pub secs: f64,
}

impl Phase {
    /// Every sample, client by client.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.per_client.iter().flatten()
    }

    /// Operations issued.
    pub fn len(&self) -> usize {
        self.per_client.iter().map(Vec::len).sum()
    }

    /// Operations that succeeded.
    pub fn ok(&self) -> usize {
        self.samples().filter(|s| s.ok).count()
    }

    /// Operations that failed.
    pub fn failed(&self) -> usize {
        self.len() - self.ok()
    }

    /// User bytes moved by successful operations.
    pub fn bytes(&self) -> usize {
        self.samples().filter(|s| s.ok).map(|s| s.bytes).sum()
    }

    /// Successful operations per second: over the whole phase, or, for
    /// a phase of at least three parts of [`PART_OPS`] operations, the
    /// median over equal time slices of that many operations on average.
    pub fn ops_per_s(&self) -> f64 {
        self.rate(|s| if s.ok { 1.0 } else { 0.0 })
    }

    /// User megabytes (10^6 bytes) per second, as [`Phase::ops_per_s`].
    pub fn mb_per_s(&self) -> f64 {
        self.rate(|s| if s.ok { s.bytes as f64 / 1e6 } else { 0.0 })
    }

    fn rate(&self, amount: impl Fn(&Sample) -> f64) -> f64 {
        let slices = (self.len() / PART_OPS).min(20);
        if slices < 3 {
            return self.samples().map(amount).sum::<f64>() / self.secs.max(1e-9);
        }
        let width = self.secs / slices as f64;
        let mut per_slice = vec![0.0; slices];
        for s in self.samples() {
            let i = (f64::from(s.end_s) / width) as usize;
            per_slice[i.min(slices - 1)] += amount(s);
        }
        let rates: Vec<f64> = per_slice.iter().map(|x| x / width).collect();
        median(&rates)
    }

    /// Mean latency of the successful operations, in ms.
    pub fn mean_ms(&self) -> f64 {
        let (sum, n) = self
            .samples()
            .filter(|s| s.ok)
            .fold((0.0, 0usize), |(sum, n), s| (sum + s.ms, n + 1));
        sum / n.max(1) as f64
    }

    /// Latency percentile `p` (0..100) in ms, nearest rank. A failed
    /// operation counts as slower than every success (it missed any
    /// latency limit); if the percentile lands on one, `timeout_ms` is
    /// reported.
    ///
    /// For a long phase, the figure is the median, over consecutive
    /// windows of a client's samples, of each window's percentile (when
    /// there are at least three windows). A window holds [`PART_OPS`]
    /// samples, or more where it needs them to have 10 beyond `p`.
    pub fn percentile_ms(&self, p: f64, timeout_ms: f64) -> f64 {
        let mut lat: Vec<f64> = self
            .samples()
            .map(|s| if s.ok { s.ms } else { f64::INFINITY })
            .collect();
        if lat.is_empty() {
            return 0.0;
        }
        // Samples a window needs for 10 beyond `p` (infinite at p = 100).
        let window = (10.0 / (1.0 - p / 100.0)).ceil().max(PART_OPS as f64);
        let x = if lat.len() as f64 >= 3.0 * window {
            let per_window: Vec<f64> = lat
                .chunks_exact_mut(window as usize)
                .map(|w| lepton_bench::percentile(w, p))
                .collect();
            median(&per_window)
        } else {
            lepton_bench::percentile(&mut lat, p)
        };
        if x.is_finite() {
            x
        } else {
            timeout_ms
        }
    }

    /// Append another phase's samples as if it had started when this one
    /// ended (wall times add; the other phase's return times move by
    /// this one's wall time, so that rates slice the joined phase).
    pub fn absorb(&mut self, other: &Phase) {
        let offset = self.secs as f32;
        self.per_client.extend(other.per_client.iter().map(|v| {
            v.iter()
                .map(|s| Sample {
                    end_s: s.end_s + offset,
                    ..*s
                })
                .collect()
        }));
        self.secs += other.secs;
    }
}

/// How long a closed loop runs.
#[derive(Clone, Copy)]
pub enum Until {
    /// Until this much wall time has passed (the last op in flight
    /// completes).
    Elapsed(Duration),
    /// Until `n` items of a shared work list are done.
    Items(usize),
}

/// Run `clients` closed-loop clients: each sends its next request only
/// when the previous one has returned. `op(client, n)` performs the
/// client's `n`-th operation and times the call it makes (for
/// [`Until::Items`], `n` is the index of the shared work item it took).
///
/// Each client records into a list allocated up front for `capacity`
/// samples, so the loop allocates nothing more for its records unless
/// a client issues more operations than that.
pub fn closed_loop(
    clients: usize,
    capacity: usize,
    until: Until,
    abort: &Abort,
    op: impl Fn(usize, usize) -> Sample + Sync,
) -> Phase {
    let next_item = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let op = &op;
                let next_item = &next_item;
                s.spawn(move || {
                    let mut out = Vec::with_capacity(capacity);
                    let mut n = 0usize;
                    while !abort.tripped() {
                        let idx = match until {
                            Until::Elapsed(d) => {
                                if t0.elapsed() >= d {
                                    break;
                                }
                                n += 1;
                                n - 1
                            }
                            Until::Items(total) => {
                                let i = next_item.fetch_add(1, Ordering::SeqCst);
                                if i >= total {
                                    break;
                                }
                                i
                            }
                        };
                        let mut sample = op(c, idx);
                        sample.end_s = t0.elapsed().as_secs_f32();
                        out.push(sample);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Phase {
        per_client,
        secs: t0.elapsed().as_secs_f64(),
    }
}

/// Median of a slice (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Process CPU time (user + system, all threads), in seconds, from
/// `/proc/self/stat` (clock ticks at the Linux default of 100 Hz).
pub fn cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|x| x.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// The host's CPU time stolen by the hypervisor and its total CPU time,
/// in clock ticks since boot (the `steal` column and the sum of all
/// columns of the `cpu` line of `/proc/stat`); zeros where unreadable.
pub fn host_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let cols: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map_or(Vec::new(), |l| {
            l.split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect()
        });
    (cols.get(7).copied().unwrap_or(0), cols.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(ms: &[f64], failed: usize) -> Phase {
        let mut samples: Vec<Sample> = ms.iter().map(|&ms| Sample::ok(10, ms)).collect();
        samples.extend((0..failed).map(|_| Sample::failed(1.0)));
        Phase {
            per_client: vec![samples],
            secs: 2.0,
        }
    }

    #[test]
    fn failures_count_as_slowest_and_never_vanish() {
        let p = phase(&[1.0, 2.0, 3.0, 4.0], 1);
        assert_eq!(p.failed(), 1);
        assert_eq!(p.percentile_ms(50.0, 999.0), 3.0);
        assert_eq!(p.percentile_ms(100.0, 999.0), 999.0);
        assert_eq!(p.ops_per_s(), 2.0);
        assert_eq!(p.bytes(), 40);
    }

    #[test]
    fn long_phases_take_the_median_window_tail() {
        // 3000 samples: windows of 1000 for p99. One window has a burst
        // of slow ops; the reported p99 is that of the other windows.
        let mut ms: Vec<f64> = (0..3000)
            .map(|i| 1.0 + (i % 1000) as f64 / 1000.0)
            .collect();
        for x in &mut ms[..100] {
            *x = 50.0;
        }
        let p = phase(&ms, 0);
        assert!((p.percentile_ms(99.0, 999.0) - 1.99).abs() < 0.011);
        // Too few samples for three windows: the plain percentile.
        let short = phase(&ms[..1500], 0);
        assert_eq!(short.percentile_ms(99.0, 999.0), 50.0);
    }

    #[test]
    fn long_phases_take_the_median_slice_rate() {
        // 10 s, 4000 ops: 1200 in each of the first three 2.5 s slices,
        // and a stall in the last. The whole phase averages 400/s.
        let samples = (0..4000)
            .map(|i| Sample {
                end_s: (i / 1200).min(3) as f32 * 2.5 + 1.0,
                ..Sample::ok(1_000_000, 1.0)
            })
            .collect();
        let p = Phase {
            per_client: vec![samples],
            secs: 10.0,
        };
        assert_eq!(p.ops_per_s(), 480.0);
        assert_eq!(p.mb_per_s(), 480.0);
        // Too few operations for three slices: the whole phase.
        let short = phase(&[1.0; 2999], 0);
        assert_eq!(short.ops_per_s(), 2999.0 / 2.0);
    }

    #[test]
    fn absorbed_phases_follow_one_another() {
        // A 5 s phase of 4000 ops, then one of 2000: joined, the second
        // one's ops land in the second five seconds.
        let part = |n: usize| Phase {
            per_client: vec![(0..n)
                .map(|i| Sample {
                    end_s: 5.0 * (i as f32 + 0.5) / n as f32,
                    ..Sample::ok(1, 1.0)
                })
                .collect()],
            secs: 5.0,
        };
        let mut joined = Phase::default();
        joined.absorb(&part(4000));
        joined.absorb(&part(2000));
        assert_eq!(joined.secs, 10.0);
        assert_eq!(joined.len(), 6000);
        assert!(joined.samples().take(4000).all(|s| s.end_s < 5.0));
        assert!(joined
            .samples()
            .skip(4000)
            .all(|s| s.end_s > 5.0 && s.end_s < 10.0));
    }

    #[test]
    fn closed_loop_runs_each_item_once() {
        let abort = Abort::default();
        let seen = Mutex::new(Vec::new());
        let p = closed_loop(2, 0, Until::Items(10), &abort, |_, i| {
            seen.lock().unwrap().push(i);
            Sample::ok(1, 0.1)
        });
        let mut v = seen.into_inner().unwrap();
        v.sort_unstable();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
        assert_eq!(p.ok(), 10);
    }

    #[test]
    fn sample_lists_are_allocated_up_front() {
        let abort = Abort::default();
        let p = closed_loop(2, 64, Until::Items(10), &abort, |_, _| Sample::ok(1, 0.1));
        assert!(p.per_client.iter().all(|v| v.capacity() == 64));
        assert_eq!(p.len(), 10);
    }

    #[test]
    fn abort_stops_every_client() {
        let abort = Abort::default();
        let p = closed_loop(
            2,
            0,
            Until::Elapsed(Duration::from_secs(30)),
            &abort,
            |_, n| {
                if n == 3 {
                    abort.fail("wrong byte".into());
                }
                Sample::ok(1, 0.1)
            },
        );
        assert!(p.len() < 100);
        assert_eq!(abort.reason().as_deref(), Some("wrong byte"));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
