//! Open- and closed-loop load generation over one connection.
//!
//! Open loop: frames are due on a fixed schedule whatever the service does,
//! and each is timed **from its due time**, so a stall is charged to every
//! frame that queued behind it (no coordinated omission). How late the
//! generator itself woke is reported next to the latencies. Closed loop: the
//! next frame is sent when the previous reply is in.
//!
//! Pacing sleeps; it never spins. The generator shares two cores with the
//! server under test, and a spinning client would take one of them.

use std::time::{Duration, Instant};

use zoomer_graph::Query;
use zoomer_serving::{ResponseRow, WireClient, WireError};

use crate::check::{RowChecker, Tally};
use crate::gen::FrameGen;
use crate::stats::{highest_supported_percentile, percentile, sorted};
use crate::trace::Tracer;

/// Anything that answers a frame; the wire client in runs, a stub in tests.
pub trait FrameService {
    fn call(&mut self, frame: &[Query]) -> Result<Vec<ResponseRow>, WireError>;
}

impl FrameService for WireClient {
    fn call(&mut self, frame: &[Query]) -> Result<Vec<ResponseRow>, WireError> {
        self.retrieve(frame, 0)
    }
}

/// One connection's share of an open-loop schedule: frame `k` is due at
/// `start + first_due + k · interval`.
#[derive(Clone, Copy, Debug)]
pub struct OpenSchedule {
    pub start: Instant,
    pub first_due: Duration,
    pub interval: Duration,
    pub frames: u64,
    /// Past this point (since `start`) unsent frames are abandoned and
    /// counted as failed: a backlog that large is no longer an open loop.
    pub give_up: Duration,
}

impl OpenSchedule {
    /// Split `fps` frames per second over `duration` evenly across `conns`
    /// connections; connection `conn` takes frames `conn, conn + conns, …`.
    pub fn for_connection(
        start: Instant,
        fps: f64,
        duration: Duration,
        conn: usize,
        conns: usize,
    ) -> Self {
        let gap = 1.0 / fps;
        let total = (duration.as_secs_f64() * fps).floor() as u64;
        let frames = (total + (conns - 1 - conn) as u64) / conns as u64;
        Self {
            start,
            first_due: Duration::from_secs_f64(gap * conn as f64),
            interval: Duration::from_secs_f64(gap * conns as f64),
            frames,
            give_up: duration * 2,
        }
    }
}

#[derive(Default)]
pub struct OpenResult {
    /// Reply time minus due time, per sent frame, µs.
    pub from_due_us: Vec<f64>,
    /// Reply time minus send time, per sent frame, µs.
    pub from_send_us: Vec<f64>,
    /// How late the generator itself ran, per sent frame, µs: how long after
    /// the due time it woke when it had slept until then. 0 when the
    /// previous reply came in after the due time — that wait is the
    /// service's doing and is charged to `from_due_us`, not to the generator.
    pub generator_late_us: Vec<f64>,
    pub tally: Tally,
    /// When the last reply arrived, since the schedule's start.
    pub finished: Duration,
}

pub fn open_loop(
    svc: &mut impl FrameService,
    gen: &mut FrameGen,
    checker: &mut RowChecker,
    schedule: &OpenSchedule,
) -> OpenResult {
    let mut out = OpenResult::default();
    for k in 0..schedule.frames {
        let due = schedule.start + schedule.first_due + schedule.interval.mul_f64(k as f64);
        let frame = gen.next_frame();
        let mut now = Instant::now();
        let mut generator_late = Duration::ZERO;
        if now < due {
            std::thread::sleep(due - now);
            now = Instant::now();
            generator_late = now.saturating_duration_since(due);
        }
        if now.duration_since(schedule.start) > schedule.give_up {
            out.tally.fail_unsent(frame.len() as u64 * (schedule.frames - k));
            break;
        }
        let reply = svc.call(&frame);
        let done = Instant::now();
        out.from_due_us.push(micros(done.saturating_duration_since(due)));
        out.from_send_us.push(micros(done - now));
        out.generator_late_us.push(micros(generator_late));
        checker.check(&frame, &reply, &mut out.tally);
        out.finished = done.duration_since(schedule.start);
    }
    out
}

/// Open-phase numbers of all connections together; the samples ascending.
pub struct OpenSummary {
    pub from_due_us: Vec<f64>,
    pub from_send_us: Vec<f64>,
    pub generator_late_us: Vec<f64>,
    pub offered_fps: f64,
    pub achieved_fps: f64,
}

impl OpenSummary {
    /// `fps` frames per second were offered for `open` over `connections`.
    pub fn of(connections: &[&OpenResult], fps: f64, open: Duration) -> Self {
        let gather = |f: fn(&OpenResult) -> &Vec<f64>| -> Vec<f64> {
            sorted(connections.iter().flat_map(|c| f(c).iter().copied()).collect())
        };
        let from_due_us = gather(|o| &o.from_due_us);
        // A schedule that finished late was not served at the offered rate.
        let finished = connections.iter().map(|c| c.finished).max().unwrap_or_default().max(open);
        Self {
            achieved_fps: from_due_us.len() as f64 / finished.as_secs_f64(),
            offered_fps: (open.as_secs_f64() * fps).floor() / open.as_secs_f64(),
            from_due_us,
            from_send_us: gather(|o| &o.from_send_us),
            generator_late_us: gather(|o| &o.generator_late_us),
        }
    }

    /// Percentile `p` of the frame latency from due time, over every frame
    /// of the phase, in milliseconds.
    pub fn latency_ms(&self, p: f64) -> f64 {
        percentile(&self.from_due_us, p) / 1e3
    }

    /// The run is invalid when the generator could not hold its schedule:
    /// the latencies would no longer be those of the stated offered load.
    /// The bounded percentiles are p50 and p90, so the generator must have
    /// been on time for nine frames in ten; `loadgen.lateness_p99_ms` reports
    /// the rest. (Lateness can never flatter a run: latency counts from the
    /// due time, so a late send is inside every number it touches.)
    pub fn invalid(&self) -> Option<String> {
        if self.achieved_fps < 0.99 * self.offered_fps {
            return Some(format!(
                "open loop under-offered: {:.1} of {:.1} frames/s",
                self.achieved_fps, self.offered_fps
            ));
        }
        let late = percentile(&self.generator_late_us, 0.9) / 1e3;
        (late > 1.0).then(|| format!("load generator ran late: lateness p90 {late:.3} ms"))
    }

    /// What every run says about its open phase on stderr: the sample count,
    /// the percentiles up to the highest the sample supports, and how late
    /// the generator ran.
    pub fn log(&self, name: &str) {
        let n = self.from_due_us.len();
        eprintln!(
            "{name}: open {n} frames at {:.0}/s (achieved {:.1}); from due p50 {:.4} p90 {:.4} p99 {:.4} ms; generator lateness p50 {:.3} p90 {:.3} p99 {:.3} ms",
            self.offered_fps,
            self.achieved_fps,
            self.latency_ms(0.5),
            self.latency_ms(0.9),
            self.latency_ms(0.99),
            percentile(&self.generator_late_us, 0.5) / 1e3,
            percentile(&self.generator_late_us, 0.9) / 1e3,
            percentile(&self.generator_late_us, 0.99) / 1e3,
        );
        if let Some(p) = highest_supported_percentile(n) {
            eprintln!(
                "{name}: highest percentile with >= 10 samples beyond it: p{} = {:.4} ms",
                p * 100.0,
                self.latency_ms(p)
            );
        }
    }
}

#[derive(Default)]
pub struct ClosedResult {
    pub frames: u64,
    /// Ok rows whose reply was in before the phase ended; the last frame is
    /// sent inside the phase and may be answered after it.
    pub ok_in_time: u64,
    pub tally: Tally,
}

/// Back-to-back frames for `duration`. With a tracer, every round trip is
/// also recorded as a `frontdoor.roundtrip` span (frame ids from
/// `first_frame_id` up).
pub fn closed_loop(
    svc: &mut impl FrameService,
    gen: &mut FrameGen,
    checker: &mut RowChecker,
    duration: Duration,
    mut tracer: Option<(&mut Tracer, u64)>,
) -> ClosedResult {
    let mut out = ClosedResult::default();
    let start = Instant::now();
    let mut sent = Instant::now();
    while sent.duration_since(start) < duration {
        let frame = gen.next_frame();
        let reply = svc.call(&frame);
        let done = Instant::now();
        if let Some((tracer, first_frame_id)) = tracer.as_mut() {
            tracer.record("frontdoor.roundtrip", sent, done, *first_frame_id + out.frames);
        }
        let ok_before = out.tally.ok;
        checker.check(&frame, &reply, &mut out.tally);
        out.frames += 1;
        if done - start < duration {
            out.ok_in_time += out.tally.ok - ok_before;
        }
        sent = Instant::now();
    }
    out
}

/// Ok rows per second of a closed phase, all connections together: every
/// row answered inside the phase over the phase's whole length, so every
/// stall, however rare, is paid for.
pub fn closed_rps<'a>(
    connections: impl Iterator<Item = &'a ClosedResult>,
    duration: Duration,
) -> f64 {
    connections.map(|c| c.ok_in_time).sum::<u64>() as f64 / duration.as_secs_f64()
}

pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Popularity, SessionSet};
    use zoomer_graph::Retrieval;
    use zoomer_serving::ResponseStatus;

    /// Answers instantly, except for the calls `when` picks, which stall.
    struct Stalls {
        calls: usize,
        when: fn(usize) -> bool,
        stall: Duration,
    }

    impl FrameService for Stalls {
        fn call(&mut self, frame: &[Query]) -> Result<Vec<ResponseRow>, WireError> {
            if (self.when)(self.calls) {
                std::thread::sleep(self.stall);
            }
            self.calls += 1;
            Ok(frame
                .iter()
                .map(|_| ResponseRow {
                    status: ResponseStatus::Ok,
                    retrieval: Retrieval::new(vec![2, 3]),
                })
                .collect())
        }
    }

    fn fixture() -> (FrameGen, RowChecker) {
        let set = SessionSet::new(&[(0, 1)], Popularity::Uniform, 1);
        (FrameGen::new(&set, 1, 1, "t"), RowChecker::new(2, 4, 2))
    }

    #[test]
    fn open_loop_charges_a_stall_from_the_due_time() {
        let (mut gen, mut checker) = fixture();
        let mut svc = Stalls { calls: 0, when: |k| k == 2, stall: Duration::from_millis(50) };
        let schedule = OpenSchedule::for_connection(
            Instant::now(),
            200.0, // one frame every 5 ms
            Duration::from_millis(150),
            0,
            1,
        );
        assert_eq!(schedule.frames, 30);
        let r = open_loop(&mut svc, &mut gen, &mut checker, &schedule);
        assert_eq!(r.tally, Tally { attempted: 30, ok: 30, failed: 0, degraded: 0 });
        // Frame 2 stalls 50 ms; frames 3..=11 were due during the stall.
        // Timed from send they look instant; timed from due they waited.
        let queued: Vec<usize> = (0..30).filter(|&k| r.from_due_us[k] >= 10_000.0).collect();
        assert!(queued.len() >= 8, "frames charged for the stall: {queued:?}");
        assert!(queued.contains(&2) && queued.contains(&3) && queued.contains(&8));
        for &k in queued.iter().filter(|&&k| k != 2) {
            assert!(r.from_send_us[k] < 5_000.0, "frame {k} itself was fast");
        }
        // They were overdue when the reply before them came in: the generator
        // sent them at once and is not to blame for their wait.
        assert!((3..=11).all(|k| r.generator_late_us[k] == 0.0), "{:?}", r.generator_late_us);
        assert!(r.from_due_us[3] >= 40_000.0, "the first queued frame waited ~45 ms");
        // Once the backlog drains, frames are on time again.
        assert!(r.from_due_us[29] < 5_000.0);
    }

    /// A stall the service causes now and then — an eviction sweep, a
    /// refresher burst, a lock convoy — must move the numbers a run is
    /// judged by, not average out of them.
    #[test]
    fn a_stall_on_every_fifth_call_moves_p90_and_the_closed_rate() {
        let stall = Duration::from_millis(3);
        let every_fifth: fn(usize) -> bool = |k| k % 5 == 4;

        let (mut gen, mut checker) = fixture();
        let mut svc = Stalls { calls: 0, when: every_fifth, stall };
        let open = Duration::from_millis(300);
        let schedule = OpenSchedule::for_connection(Instant::now(), 200.0, open, 0, 1);
        let r = open_loop(&mut svc, &mut gen, &mut checker, &schedule);
        let summary = OpenSummary::of(&[&r], 200.0, open);
        // 12 of the 60 frames stalled: the 90th percentile is one of them.
        assert_eq!(summary.from_due_us.len(), 60);
        assert!(summary.latency_ms(0.9) >= 3.0, "p90 {} ms", summary.latency_ms(0.9));

        let mut svc = Stalls { calls: 0, when: every_fifth, stall };
        let closed = Duration::from_millis(120);
        let r = closed_loop(&mut svc, &mut gen, &mut checker, closed, None);
        // Every five frames hold a 3 ms stall, so at most 5 · 40 + 4 frames
        // fit into 120 ms (1 700 rows/s) where the stub alone answers
        // hundreds of thousands.
        let rps = closed_rps([&r].into_iter(), closed);
        assert!(rps > 0.0 && rps <= 1_700.0, "{rps} rows/s");
    }

    #[test]
    fn open_loop_abandons_a_hopeless_backlog_as_failures() {
        let (mut gen, mut checker) = fixture();
        let mut svc = Stalls { calls: 0, when: |k| k == 0, stall: Duration::from_millis(80) };
        let open = Duration::from_millis(20);
        let schedule = OpenSchedule::for_connection(Instant::now(), 1000.0, open, 0, 1);
        let r = open_loop(&mut svc, &mut gen, &mut checker, &schedule);
        // Frame 0 stalls past 2 × 20 ms; the other 19 are never sent.
        assert_eq!(r.tally, Tally { attempted: 20, ok: 1, failed: 19, degraded: 0 });
        // A run like that did not offer its load and is invalid.
        let invalid = OpenSummary::of(&[&r], 1000.0, open).invalid();
        assert!(invalid.is_some_and(|why| why.contains("under-offered")));
    }

    #[test]
    fn schedule_splits_frames_across_connections() {
        let start = Instant::now();
        let d = Duration::from_secs(1);
        let a = OpenSchedule::for_connection(start, 5.0, d, 0, 2);
        let b = OpenSchedule::for_connection(start, 5.0, d, 1, 2);
        assert_eq!((a.frames, b.frames), (3, 2));
        assert_eq!(a.first_due, Duration::ZERO);
        assert_eq!(b.first_due, Duration::from_millis(200));
        assert_eq!(a.interval, Duration::from_millis(400));
    }

    #[test]
    fn closed_loop_runs_back_to_back_and_traces() {
        let (mut gen, mut checker) = fixture();
        let mut svc = Stalls { calls: 0, when: |_| false, stall: Duration::ZERO };
        let mut tracer = Tracer::new(Instant::now());
        let r = closed_loop(
            &mut svc,
            &mut gen,
            &mut checker,
            Duration::from_millis(20),
            Some((&mut tracer, 100)),
        );
        assert!(r.frames >= 2 && r.tally.failed == 0);
        assert_eq!(r.tally.ok, r.frames, "one Ok row per frame");
        // A frame is sent only while the phase lasts, and only after the
        // reply before it: every reply but the last is in before the end.
        assert!(r.ok_in_time == r.frames || r.ok_in_time == r.frames - 1);
        // One span per frame, ids counting up from the first, back to back.
        let spans = tracer.spans();
        let ids: Vec<u64> = spans.iter().map(|s| s.frame).collect();
        assert_eq!(ids, (100..100 + r.frames).collect::<Vec<_>>());
        assert!(spans.iter().all(|s| s.name == "frontdoor.roundtrip"));
        assert!(spans.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));
    }
}
