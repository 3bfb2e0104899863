//! The piecewise-constant throughput trace and its integration primitives.

use abr_video::Fnv;

/// Errors constructing a [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// No segments were supplied.
    Empty,
    /// A segment had non-positive or non-finite duration.
    BadDuration,
    /// A segment had negative or non-finite throughput.
    BadThroughput,
    /// Every segment has zero throughput, so no data can ever be delivered.
    AllZero,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            TraceError::Empty => "trace must contain at least one segment",
            TraceError::BadDuration => "segment durations must be positive and finite",
            TraceError::BadThroughput => "segment throughput must be non-negative and finite",
            TraceError::AllZero => "trace delivers zero throughput everywhere",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for TraceError {}

/// A piecewise-constant network-throughput signal `C_t`.
///
/// The trace is a sequence of `(duration_secs, kbps)` segments starting at
/// `t = 0`. Beyond its end the trace **wraps around cyclically** — the paper
/// concatenates measurement sets "to match the length of the video", and
/// rebuffering can stretch wall-clock time past any fixed trace length, so
/// cyclic extension keeps every experiment well defined without special
/// cases.
///
/// ```
/// use abr_trace::Trace;
///
/// // 10 s at 1 Mbps, then 10 s at 2 Mbps.
/// let trace = Trace::new(vec![(10.0, 1000.0), (10.0, 2000.0)]).unwrap();
/// assert_eq!(trace.kbps_at(12.0), 2000.0);
/// // Downloading 15,000 kbits from t = 0: 10 s at 1000 then 2.5 s at 2000.
/// assert!((trace.time_to_download(15_000.0, 0.0) - 12.5).abs() < 1e-9);
/// assert_eq!(trace.mean_kbps(), 1500.0);
/// ```
///
/// Segments may have zero throughput (outages); construction only fails if
/// *all* segments are zero, because then no download could ever finish.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Segment durations in seconds (all positive).
    durations: Vec<f64>,
    /// Segment throughputs in kbps (all non-negative, at least one positive).
    kbps: Vec<f64>,
    /// Cached total duration of one cycle.
    total_secs: f64,
    /// Construction-time scan index (see [`TraceIndex`]).
    index: TraceIndex,
}

/// Construction-time index over a trace's segments: the left-to-right
/// running duration sums (`prefix_secs[i] = d_0 + … + d_i`, bit-for-bit the
/// `pos` values the naive scans accumulate) and the one-cycle volume
/// (`cycle_kbits = Σ d_i·c_i`, summed in segment order — the exact value
/// the naive scans recompute on every call).
///
/// The prefix array turns the "walk segments from position 0 until the
/// request window begins" part of [`Trace::integrate_kbits`] and
/// [`Trace::time_to_download`] into a binary search, and a [`TraceCursor`]
/// into an amortized O(1) pointer bump; because the partial sums carry the
/// same bits a naive walk would, the indexed kernels return byte-identical
/// results (proven by the differential property tests below against the
/// preserved pre-index scans, `Trace::naive_integrate_kbits` and
/// `Trace::naive_time_to_download`, which exist only in test builds).
///
/// It also holds the trace's content digest ([`Trace::digest`]).
#[derive(Debug, Clone, PartialEq, Default)]
struct TraceIndex {
    prefix_secs: Vec<f64>,
    cycle_kbits: f64,
    digest: u128,
}

impl TraceIndex {
    fn build(durations: &[f64], kbps: &[f64]) -> Self {
        let mut prefix_secs = Vec::with_capacity(durations.len());
        let mut acc = 0.0_f64;
        for d in durations {
            acc += d;
            prefix_secs.push(acc);
        }
        let cycle_kbits = durations.iter().zip(kbps).map(|(d, c)| d * c).sum();
        let mut h = Fnv::new();
        h.len(durations.len());
        for (&d, &c) in durations.iter().zip(kbps) {
            h.f64(d);
            h.f64(c);
        }
        Self {
            prefix_secs,
            cycle_kbits,
            digest: h.finish(),
        }
    }
}

/// A monotone scan cursor for the indexed trace kernels.
///
/// Streaming sessions advance a wall clock that only moves forward, so the
/// in-cycle start position of consecutive [`Trace::integrate_kbits_at`] /
/// [`Trace::time_to_download_at`] calls usually advances too (wrapping at
/// each cycle boundary). The cursor remembers the last located segment and
/// resumes the search there: forward motion is an amortized O(1) pointer
/// bump, a backward jump (cycle wrap, or reuse against a different start
/// time) falls back to the O(log n) binary search. Results are bit-identical
/// to the cursor-less calls for any query order.
///
/// A cursor is tied to the trace it last scanned only by its segment
/// position; [`reset`](TraceCursor::reset) it (or just use a fresh one —
/// construction is allocation-free) when switching traces.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCursor {
    /// Partition point of `last_rem` in the prefix array.
    seg: usize,
    /// The in-cycle position the cursor is parked at.
    last_rem: f64,
}

impl TraceCursor {
    /// A cursor parked at the cycle start.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-parks the cursor at the cycle start (for reuse across traces).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// First segment index whose running end-position lies strictly past
    /// `rem` — the same answer `prefix.partition_point(|&p| p <= rem)`
    /// gives, reached by bumping forward from the previous location when
    /// the query moved forward.
    fn locate(&mut self, prefix: &[f64], rem: f64) -> usize {
        if rem < self.last_rem || self.seg > prefix.len() {
            // Backward jump (cycle wrap or cursor reuse): re-search.
            self.seg = prefix.partition_point(|&p| p <= rem);
        } else {
            while self.seg < prefix.len() && prefix[self.seg] <= rem {
                self.seg += 1;
            }
        }
        self.last_rem = rem;
        self.seg
    }
}

impl Trace {
    /// Builds a trace from `(duration_secs, kbps)` segments.
    pub fn new(segments: Vec<(f64, f64)>) -> Result<Self, TraceError> {
        if segments.is_empty() {
            return Err(TraceError::Empty);
        }
        let mut durations = Vec::with_capacity(segments.len());
        let mut kbps = Vec::with_capacity(segments.len());
        for (d, c) in segments {
            if !(d > 0.0 && d.is_finite()) {
                return Err(TraceError::BadDuration);
            }
            if !(c >= 0.0 && c.is_finite()) {
                return Err(TraceError::BadThroughput);
            }
            durations.push(d);
            kbps.push(c);
        }
        if kbps.iter().all(|&c| c == 0.0) {
            return Err(TraceError::AllZero);
        }
        let total_secs = durations.iter().sum();
        let index = TraceIndex::build(&durations, &kbps);
        Ok(Self {
            durations,
            kbps,
            total_secs,
            index,
        })
    }

    /// Builds a trace of uniformly spaced samples (e.g. the HSDPA dataset's
    /// 1 s samples or the FCC dataset's 5 s averages).
    pub fn from_samples(sample_secs: f64, samples_kbps: &[f64]) -> Result<Self, TraceError> {
        Self::new(samples_kbps.iter().map(|&c| (sample_secs, c)).collect())
    }

    /// A constant-rate trace — handy for tests and analytic checks.
    pub fn constant(kbps: f64, duration_secs: f64) -> Result<Self, TraceError> {
        Self::new(vec![(duration_secs, kbps)])
    }

    /// Duration of one trace cycle in seconds.
    #[inline]
    pub fn cycle_secs(&self) -> f64 {
        self.total_secs
    }

    /// Number of segments in one cycle.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.durations.len()
    }

    /// A content digest of the trace: the FNV-1a-128 stream
    /// ([`abr_video::Fnv`]) over the segment count and every segment's
    /// duration and throughput bits, taken once when the trace is built.
    /// Equal traces have equal digests, and a cache keyed on a trace hashes
    /// these 16 bytes instead of every segment.
    #[inline]
    pub fn digest(&self) -> u128 {
        self.index.digest
    }

    /// `(duration_secs, kbps)` of segment `i` within one cycle.
    pub fn segment(&self, i: usize) -> (f64, f64) {
        (self.durations[i], self.kbps[i])
    }

    /// Instantaneous throughput `C_t` at time `t >= 0` (cyclic).
    pub fn kbps_at(&self, t: f64) -> f64 {
        assert!(t >= 0.0 && t.is_finite(), "time must be non-negative");
        let mut rem = t % self.total_secs;
        for (d, c) in self.durations.iter().zip(&self.kbps) {
            if rem < *d {
                return *c;
            }
            rem -= d;
        }
        // Floating point can leave `rem` microscopically >= the final
        // boundary; that instant belongs to the start of the next cycle.
        self.kbps[0]
    }

    /// Kilobits deliverable over the window `[t0, t1]` (cyclic integration
    /// of `C_t`). O(log n) via the construction-time index; bit-identical
    /// to the pre-index scan that the tests keep as an oracle.
    pub fn integrate_kbits(&self, t0: f64, t1: f64) -> f64 {
        let mut cursor = TraceCursor::new();
        self.integrate_kbits_at(&mut cursor, t0, t1)
    }

    /// [`integrate_kbits`](Self::integrate_kbits) resuming the segment
    /// search from `cursor` — amortized O(1) when consecutive `t0`s move
    /// forward, as a session's wall clock does. `cursor` must only have
    /// been used with this trace (or be fresh / reset).
    pub fn integrate_kbits_at(&self, cursor: &mut TraceCursor, t0: f64, t1: f64) -> f64 {
        assert!(t0 >= 0.0 && t1 >= t0, "invalid window [{t0}, {t1}]");
        let full_cycles = ((t1 - t0) / self.total_secs).floor();
        let kbits = full_cycles * self.index.cycle_kbits;
        let rem_start = t0 % self.total_secs;
        let rem = (t1 - t0) - full_cycles * self.total_secs;
        let start = cursor.locate(&self.index.prefix_secs, rem_start);
        self.integrate_from(start, rem_start, kbits, rem)
    }

    /// The tail of the integration walk, entered at segment `start` (the
    /// first whose running end-position exceeds `rem_start`). From there it
    /// is the naive loop verbatim — same position arithmetic, same bits.
    fn integrate_from(&self, start: usize, rem_start: f64, mut kbits: f64, mut rem: f64) -> f64 {
        let prefix = &self.index.prefix_secs;
        let nseg = self.durations.len();
        // The naive walk reaches segment `start` carrying `pos` equal to the
        // running sum of the skipped durations — exactly `prefix[start-1]`.
        let mut pos = if start == 0 { 0.0 } else { prefix[start - 1] };
        let mut cursor = rem_start;
        let mut i = if start == nseg { 0 } else { start };
        while rem > 1e-12 {
            let d = self.durations[i];
            let c = self.kbps[i];
            i += 1;
            if i == nseg {
                i = 0;
            }
            let seg_end = pos + d;
            if cursor < seg_end {
                let take = (seg_end - cursor).min(rem);
                kbits += take * c;
                rem -= take;
                cursor += take;
            }
            pos = seg_end;
        }
        kbits
    }

    /// Time in seconds to deliver `kbits` kilobits starting at time `t0`
    /// (inverse of [`integrate_kbits`](Self::integrate_kbits)).
    ///
    /// O(log n) via the construction-time index; bit-identical to the
    /// pre-index scan that the tests keep as an oracle.
    ///
    /// Returns `f64::INFINITY` only in the impossible-by-invariant case of an
    /// all-zero trace; zero-rate segments simply stall the transfer until the
    /// next non-zero segment.
    pub fn time_to_download(&self, kbits: f64, t0: f64) -> f64 {
        let mut cursor = TraceCursor::new();
        self.time_to_download_at(&mut cursor, kbits, t0)
    }

    /// [`time_to_download`](Self::time_to_download) resuming the segment
    /// search from `cursor` — amortized O(1) along a forward-moving clock.
    /// `cursor` must only have been used with this trace (or be fresh /
    /// reset).
    pub fn time_to_download_at(&self, cursor: &mut TraceCursor, kbits: f64, t0: f64) -> f64 {
        assert!(kbits >= 0.0 && kbits.is_finite(), "invalid volume {kbits}");
        assert!(t0 >= 0.0 && t0.is_finite(), "invalid start time {t0}");
        if kbits == 0.0 {
            return 0.0;
        }
        let cycle_kbits = self.index.cycle_kbits;
        if cycle_kbits <= 0.0 {
            return f64::INFINITY;
        }
        // Skip whole cycles first so huge transfers stay O(segments).
        let full_cycles = (kbits / cycle_kbits).floor();
        let remaining = kbits - full_cycles * cycle_kbits;
        let elapsed = full_cycles * self.total_secs;
        let rem_start = t0 % self.total_secs;
        let start = cursor.locate(&self.index.prefix_secs, rem_start);
        self.time_to_download_from(start, rem_start, remaining, elapsed)
    }

    /// The tail of the download-time walk, entered at segment `start`. The
    /// iteration budget deducts the skipped segments so it matches the
    /// naive scan's `.take(2 * nseg + 2)` cap exactly.
    fn time_to_download_from(
        &self,
        start: usize,
        rem_start: f64,
        mut remaining: f64,
        mut elapsed: f64,
    ) -> f64 {
        let prefix = &self.index.prefix_secs;
        let nseg = self.durations.len();
        let mut pos = if start == 0 { 0.0 } else { prefix[start - 1] };
        let mut cursor = rem_start;
        let mut i = if start == nseg { 0 } else { start };
        let mut budget = 2 * nseg + 2 - start;
        while budget > 0 && remaining > 1e-12 {
            budget -= 1;
            let d = self.durations[i];
            let c = self.kbps[i];
            i += 1;
            if i == nseg {
                i = 0;
            }
            let seg_end = pos + d;
            if cursor < seg_end {
                let avail_secs = seg_end - cursor;
                let seg_kbits = avail_secs * c;
                if seg_kbits >= remaining && c > 0.0 {
                    elapsed += remaining / c;
                    remaining = 0.0;
                    break;
                }
                remaining -= seg_kbits;
                elapsed += avail_secs;
                cursor = seg_end;
            }
            pos = seg_end;
        }
        if remaining > 1e-12 {
            // Only reachable when every remaining segment in the cycle is
            // zero-rate but the cycle as a whole is not (cannot happen: we
            // scanned two full cycles above). Defensive fallback.
            return f64::INFINITY;
        }
        elapsed
    }

    /// The pre-index integration scan, retained verbatim as the differential
    /// oracle for [`integrate_kbits`](Self::integrate_kbits): it re-sums the
    /// cycle volume and walks segments from position 0 on every call.
    #[cfg(test)]
    fn naive_integrate_kbits(&self, t0: f64, t1: f64) -> f64 {
        assert!(t0 >= 0.0 && t1 >= t0, "invalid window [{t0}, {t1}]");
        let full_cycles = ((t1 - t0) / self.total_secs).floor();
        let cycle_kbits: f64 = self
            .durations
            .iter()
            .zip(&self.kbps)
            .map(|(d, c)| d * c)
            .sum();
        let mut kbits = full_cycles * cycle_kbits;
        let rem_start = t0 % self.total_secs;
        let mut rem = (t1 - t0) - full_cycles * self.total_secs;
        let mut pos = 0.0;
        let mut cursor = rem_start;
        for (d, c) in self.durations.iter().cycle().zip(self.kbps.iter().cycle()) {
            if rem <= 1e-12 {
                break;
            }
            let seg_end = pos + d;
            if cursor < seg_end {
                let take = (seg_end - cursor).min(rem);
                kbits += take * c;
                rem -= take;
                cursor += take;
            }
            pos = seg_end;
        }
        kbits
    }

    /// The pre-index download-time scan, retained verbatim as the
    /// differential oracle for [`time_to_download`](Self::time_to_download).
    #[cfg(test)]
    fn naive_time_to_download(&self, kbits: f64, t0: f64) -> f64 {
        assert!(kbits >= 0.0 && kbits.is_finite(), "invalid volume {kbits}");
        assert!(t0 >= 0.0 && t0.is_finite(), "invalid start time {t0}");
        if kbits == 0.0 {
            return 0.0;
        }
        let cycle_kbits: f64 = self
            .durations
            .iter()
            .zip(&self.kbps)
            .map(|(d, c)| d * c)
            .sum();
        if cycle_kbits <= 0.0 {
            return f64::INFINITY;
        }
        // Skip whole cycles first so huge transfers stay O(segments).
        let full_cycles = (kbits / cycle_kbits).floor();
        let mut remaining = kbits - full_cycles * cycle_kbits;
        let mut elapsed = full_cycles * self.total_secs;
        let mut cursor = t0 % self.total_secs;
        let mut pos = 0.0;
        // At most two passes over the segments are needed for the remainder.
        for (d, c) in self
            .durations
            .iter()
            .cycle()
            .zip(self.kbps.iter().cycle())
            .take(2 * self.durations.len() + 2)
        {
            if remaining <= 1e-12 {
                break;
            }
            let seg_end = pos + d;
            if cursor < seg_end {
                let avail_secs = seg_end - cursor;
                let seg_kbits = avail_secs * c;
                if seg_kbits >= remaining && *c > 0.0 {
                    elapsed += remaining / c;
                    remaining = 0.0;
                    break;
                }
                remaining -= seg_kbits;
                elapsed += avail_secs;
                cursor = seg_end;
            }
            pos = seg_end;
        }
        if remaining > 1e-12 {
            return f64::INFINITY;
        }
        elapsed
    }

    /// Download times for several volumes starting at the same instant, in
    /// one pass over the trace: `times_to_download(&sizes, t0)[i]` equals
    /// `time_to_download(sizes[i], t0)`. `sizes` must be ascending. This is
    /// the hot primitive of the offline dynamic program, which evaluates
    /// every candidate bitrate from a common state.
    pub fn times_to_download(&self, kbits_ascending: &[f64], t0: f64) -> Vec<f64> {
        let mut out = Vec::new();
        self.times_to_download_with(kbits_ascending, t0, &mut out);
        out
    }

    /// Allocation-free core of [`times_to_download`](Self::times_to_download):
    /// results are written to `out` (which is cleared first), one per
    /// target; a target a zero-volume cycle can never deliver takes
    /// `INFINITY`. The cycle volume and segment prefix sums come from the
    /// trace's construction-time index.
    pub fn times_to_download_with(&self, kbits_ascending: &[f64], t0: f64, out: &mut Vec<f64>) {
        out.clear();
        assert!(t0 >= 0.0 && t0.is_finite(), "invalid start time {t0}");
        debug_assert!(
            kbits_ascending.windows(2).all(|w| w[1] >= w[0]),
            "sizes must be ascending"
        );
        // Serve zero-size requests immediately.
        let mut served = 0;
        while served < kbits_ascending.len() && kbits_ascending[served] == 0.0 {
            out.push(0.0);
            served += 1;
        }
        let cycle_kbits = self.index.cycle_kbits;
        if served == kbits_ascending.len() || cycle_kbits <= 0.0 {
            // A zero-volume cycle never delivers what is left.
            out.resize(kbits_ascending.len(), f64::INFINITY);
            return;
        }
        // Whole-cycle fast-forward shared by all targets (based on the
        // smallest unserved one; larger targets just keep cycling).
        let base_cycles = (kbits_ascending[served] / cycle_kbits).floor();
        let mut delivered = base_cycles * cycle_kbits;
        let mut elapsed = base_cycles * self.total_secs;
        let cursor_start = t0 % self.total_secs;
        // First segment whose end lies past the cursor. A plain scan would
        // walk `pos = ((0 + d_0) + d_1) + …` past every earlier segment;
        // `prefix_secs` holds exactly those partial sums, so the binary
        // search lands on the same segment with the same `pos` bits.
        let start = self.index.prefix_secs.partition_point(|&p| p <= cursor_start);
        let mut cursor = cursor_start;
        let mut pos = if start == 0 {
            0.0
        } else {
            self.index.prefix_secs[start - 1]
        };
        let nseg = self.durations.len();
        let mut i = if start == nseg { 0 } else { start };
        while served < kbits_ascending.len() {
            let d = self.durations[i];
            let c = self.kbps[i];
            i += 1;
            if i == nseg {
                i = 0;
            }
            let seg_end = pos + d;
            if cursor < seg_end {
                let avail_secs = seg_end - cursor;
                let seg_kbits = avail_secs * c;
                // Emit every target this segment satisfies.
                while served < kbits_ascending.len() {
                    let need = kbits_ascending[served] - delivered;
                    if need <= seg_kbits + 1e-12 && c > 0.0 {
                        out.push(elapsed + (need.max(0.0)) / c);
                        served += 1;
                    } else if need <= 1e-12 {
                        out.push(elapsed);
                        served += 1;
                    } else {
                        break;
                    }
                }
                delivered += seg_kbits;
                elapsed += avail_secs;
                cursor = seg_end;
            }
            pos = seg_end;
        }
    }

    /// The next instant strictly after `t` at which the (cyclic) trace
    /// changes rate — a segment boundary or the cycle wrap. Event-driven
    /// consumers (the multi-player bottleneck) advance in these steps so
    /// rate is constant between events.
    pub fn next_boundary_after(&self, t: f64) -> f64 {
        assert!(t >= 0.0 && t.is_finite(), "invalid time {t}");
        let cycle_idx = (t / self.total_secs).floor();
        let pos = t - cycle_idx * self.total_secs;
        let mut acc = 0.0;
        for d in &self.durations {
            acc += d;
            if acc > pos + 1e-12 {
                let b = cycle_idx * self.total_secs + acc;
                // "Strictly after" must survive rounding: when `t` sits
                // exactly on a boundary whose recomputed position collapses
                // onto `t` (floor() picked the previous cycle and `pos`
                // landed within the tolerance of the cycle end), returning
                // `b == t` would stall event-driven callers that advance
                // with `now = next_boundary_after(now)`. Skip to the next
                // boundary instead.
                if b > t {
                    return b;
                }
            }
        }
        let wrap = (cycle_idx + 1.0) * self.total_secs;
        if wrap > t {
            return wrap;
        }
        // Same rounding collapse at the cycle wrap itself: `t` is at (or
        // has absorbed) the cycle end, so the answer is the first boundary
        // of the following cycle.
        let mut acc = 0.0;
        for d in &self.durations {
            acc += d;
            let b = wrap + acc;
            if b > t {
                return b;
            }
        }
        wrap + self.total_secs
    }

    /// Average throughput over one cycle, kbps (time-weighted).
    pub fn mean_kbps(&self) -> f64 {
        self.durations
            .iter()
            .zip(&self.kbps)
            .map(|(d, c)| d * c)
            .sum::<f64>()
            / self.total_secs
    }

    /// Time-weighted standard deviation of throughput over one cycle, kbps.
    pub fn std_kbps(&self) -> f64 {
        let mean = self.mean_kbps();
        let var = self
            .durations
            .iter()
            .zip(&self.kbps)
            .map(|(d, c)| d * (c - mean) * (c - mean))
            .sum::<f64>()
            / self.total_secs;
        var.sqrt()
    }

    /// Minimum segment throughput in kbps.
    pub fn min_kbps(&self) -> f64 {
        self.kbps.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum segment throughput in kbps.
    pub fn max_kbps(&self) -> f64 {
        self.kbps.iter().copied().fold(0.0, f64::max)
    }

    /// Returns a new trace with every throughput multiplied by `factor > 0`.
    pub fn scaled(&self, factor: f64) -> Trace {
        assert!(factor > 0.0 && factor.is_finite(), "bad scale {factor}");
        let kbps: Vec<f64> = self.kbps.iter().map(|c| c * factor).collect();
        let index = TraceIndex::build(&self.durations, &kbps);
        Trace {
            durations: self.durations.clone(),
            kbps,
            // Durations are untouched, so the cached cycle length carries
            // over bit-for-bit (and matches the rebuilt prefix sums).
            total_secs: self.total_secs,
            index,
        }
    }

    /// Concatenates `other` after `self` (the FCC-style trace-stitching
    /// operation).
    pub fn concat(&self, other: &Trace) -> Trace {
        let mut durations = self.durations.clone();
        let mut kbps = self.kbps.clone();
        durations.extend_from_slice(&other.durations);
        kbps.extend_from_slice(&other.kbps);
        let index = TraceIndex::build(&durations, &kbps);
        Trace {
            // Keep the historical `a.total + b.total` association rather
            // than re-summing all durations: the two can differ in the last
            // bit, and every existing scan keys off this cached value.
            total_secs: self.total_secs + other.total_secs,
            durations,
            kbps,
            index,
        }
    }

    /// The sub-trace covering `[t0, t0 + len_secs)` of one cycle, clamped to
    /// the cycle end. Panics if the window is empty after clamping.
    pub fn window(&self, t0: f64, len_secs: f64) -> Trace {
        assert!(t0 >= 0.0 && t0 < self.total_secs, "window start out of range");
        let t1 = (t0 + len_secs).min(self.total_secs);
        let mut segs = Vec::new();
        let mut pos = 0.0;
        for (d, c) in self.durations.iter().zip(&self.kbps) {
            let seg_start = pos;
            let seg_end = pos + d;
            let lo = seg_start.max(t0);
            let hi = seg_end.min(t1);
            if hi > lo {
                segs.push((hi - lo, *c));
            }
            pos = seg_end;
            if pos >= t1 {
                break;
            }
        }
        Trace::new(segs).expect("non-empty window of a valid trace")
    }

    /// Per-segment samples as `(start_secs, duration_secs, kbps)` tuples.
    pub fn segments(&self) -> Vec<(f64, f64, f64)> {
        let mut out = Vec::with_capacity(self.durations.len());
        let mut pos = 0.0;
        for (d, c) in self.durations.iter().zip(&self.kbps) {
            out.push((pos, *d, *c));
            pos += d;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_par::{check, SplitMix64};

    fn steps() -> Trace {
        // 10s at 1000, 10s at 2000, 10s at 500.
        Trace::new(vec![(10.0, 1000.0), (10.0, 2000.0), (10.0, 500.0)]).unwrap()
    }

    /// The digest is the fresh stream over the segments, for a trace built
    /// by any constructor, and any segment bit moves it.
    #[test]
    fn digest_is_the_fresh_stream_over_the_segments() {
        let stream = |t: &Trace| {
            let mut h = Fnv::new();
            h.len(t.num_segments());
            for i in 0..t.num_segments() {
                let (d, c) = t.segment(i);
                h.f64(d);
                h.f64(c);
            }
            h.finish()
        };
        let t = steps();
        let derived = [
            t.clone(),
            t.scaled(1.5),
            t.concat(&Trace::constant(700.0, 4.0).unwrap()),
            t.window(5.0, 12.0),
            Trace::from_samples(1.0, &[300.0, 0.0, 900.0]).unwrap(),
        ];
        for trace in &derived {
            assert_eq!(trace.digest(), stream(trace));
        }
        assert_eq!(t.clone().digest(), t.digest(), "a clone keeps it");
        let bumped = Trace::new(vec![
            (10.0, 1000.0),
            (10.0, f64::from_bits(2000.0f64.to_bits() + 1)),
            (10.0, 500.0),
        ])
        .unwrap();
        assert_ne!(bumped.digest(), t.digest());
    }

    #[test]
    fn construction_validation() {
        assert_eq!(Trace::new(vec![]).unwrap_err(), TraceError::Empty);
        assert_eq!(
            Trace::new(vec![(0.0, 100.0)]).unwrap_err(),
            TraceError::BadDuration
        );
        assert_eq!(
            Trace::new(vec![(1.0, -5.0)]).unwrap_err(),
            TraceError::BadThroughput
        );
        assert_eq!(
            Trace::new(vec![(1.0, 0.0), (2.0, 0.0)]).unwrap_err(),
            TraceError::AllZero
        );
        assert!(Trace::new(vec![(1.0, 0.0), (2.0, 10.0)]).is_ok());
    }

    #[test]
    fn kbps_at_segments_and_wrap() {
        let t = steps();
        assert_eq!(t.kbps_at(0.0), 1000.0);
        assert_eq!(t.kbps_at(9.999), 1000.0);
        assert_eq!(t.kbps_at(10.0), 2000.0);
        assert_eq!(t.kbps_at(25.0), 500.0);
        // Cyclic wrap.
        assert_eq!(t.kbps_at(30.0), 1000.0);
        assert_eq!(t.kbps_at(45.0), 2000.0);
    }

    #[test]
    fn integrate_matches_hand_math() {
        let t = steps();
        assert!((t.integrate_kbits(0.0, 10.0) - 10_000.0).abs() < 1e-6);
        assert!((t.integrate_kbits(5.0, 15.0) - (5_000.0 + 10_000.0)).abs() < 1e-6);
        // One full cycle = 35,000 kbits.
        assert!((t.integrate_kbits(0.0, 30.0) - 35_000.0).abs() < 1e-6);
        // Two cycles + half of first segment.
        assert!((t.integrate_kbits(0.0, 65.0) - (70_000.0 + 5_000.0)).abs() < 1e-6);
        // Window starting mid-cycle and wrapping.
        assert!((t.integrate_kbits(25.0, 35.0) - (2_500.0 + 5_000.0)).abs() < 1e-6);
    }

    #[test]
    fn time_to_download_basic() {
        let t = steps();
        // 5,000 kbits at 1000 kbps from t=0 -> 5s.
        assert!((t.time_to_download(5_000.0, 0.0) - 5.0).abs() < 1e-9);
        // 15,000 kbits from t=0: 10s @1000 (10k) + 2.5s @2000 (5k) = 12.5s.
        assert!((t.time_to_download(15_000.0, 0.0) - 12.5).abs() < 1e-9);
        // Starting at t=28 (rate 500): 1000 kbits -> 2s @500, wrap to 1000.
        assert!((t.time_to_download(1_000.0, 28.0) - 2.0).abs() < 1e-9);
        assert!((t.time_to_download(2_000.0, 28.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn time_to_download_zero_volume() {
        assert_eq!(steps().time_to_download(0.0, 7.0), 0.0);
    }

    #[test]
    fn time_to_download_through_outage() {
        // 5s outage between two live segments.
        let t = Trace::new(vec![(5.0, 1000.0), (5.0, 0.0), (5.0, 1000.0)]).unwrap();
        // From t=0: 6,000 kbits = 5s @1000 + 5s stall + 1s @1000 = 11s.
        assert!((t.time_to_download(6_000.0, 0.0) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn time_to_download_many_cycles() {
        let t = steps();
        // 100 cycles worth of data: 3,500,000 kbits -> exactly 3000s.
        let secs = t.time_to_download(3_500_000.0, 0.0);
        assert!((secs - 3000.0).abs() < 1e-6, "{secs}");
    }

    #[test]
    fn next_boundary_steps_through_segments() {
        let t = steps(); // boundaries at 10, 20, 30 (cycle), 40, ...
        assert!((t.next_boundary_after(0.0) - 10.0).abs() < 1e-9);
        assert!((t.next_boundary_after(9.999) - 10.0).abs() < 1e-9);
        assert!((t.next_boundary_after(10.0) - 20.0).abs() < 1e-9);
        assert!((t.next_boundary_after(25.0) - 30.0).abs() < 1e-9);
        // Wraps cyclically.
        assert!((t.next_boundary_after(30.0) - 40.0).abs() < 1e-9);
        assert!((t.next_boundary_after(95.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn next_boundary_is_strictly_after_at_rounded_cycle_ends() {
        // Regression: with this duration, fl(2T + T) lands on a float where
        // floor(t/T) still picks cycle 2 and the fallback wrap boundary
        // recomputes to exactly t — the pre-fix code returned t itself,
        // livelocking event loops that advance with
        // `now = next_boundary_after(now)` (found by the multiplayer
        // differential harness). Every boundary must be strictly after t.
        let t = Trace::new(vec![(22.512273293823903, 5198.980754919422)]).unwrap();
        let mut now = 0.0_f64;
        for _ in 0..1_000 {
            let b = t.next_boundary_after(now);
            assert!(b > now, "boundary {b} does not advance past {now}");
            now = b;
        }
        // Multi-segment traces too: walk a bumpy cycle for many wraps.
        let t = Trace::new(vec![(7.1000000000000005, 900.0), (11.3, 2400.0)]).unwrap();
        let mut now = 0.0_f64;
        for _ in 0..1_000 {
            let b = t.next_boundary_after(now);
            assert!(b > now, "boundary {b} does not advance past {now}");
            now = b;
        }
    }

    #[test]
    fn mean_and_std() {
        let t = steps();
        let mean = (1000.0 + 2000.0 + 500.0) / 3.0;
        assert!((t.mean_kbps() - mean).abs() < 1e-9);
        let var = ((1000.0f64 - mean).powi(2) + (2000.0 - mean).powi(2) + (500.0 - mean).powi(2))
            / 3.0;
        assert!((t.std_kbps() - var.sqrt()).abs() < 1e-9);
        assert_eq!(t.min_kbps(), 500.0);
        assert_eq!(t.max_kbps(), 2000.0);
    }

    #[test]
    fn constant_trace_roundtrip() {
        let t = Trace::constant(1500.0, 60.0).unwrap();
        assert!((t.time_to_download(1500.0, 13.0) - 1.0).abs() < 1e-9);
        assert_eq!(t.mean_kbps(), 1500.0);
        assert_eq!(t.std_kbps(), 0.0);
    }

    #[test]
    fn scaled_doubles_rate() {
        let t = steps().scaled(2.0);
        assert_eq!(t.kbps_at(0.0), 2000.0);
        assert!((t.time_to_download(10_000.0, 0.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn concat_joins_in_order() {
        let a = Trace::constant(100.0, 5.0).unwrap();
        let b = Trace::constant(200.0, 5.0).unwrap();
        let c = a.concat(&b);
        assert_eq!(c.cycle_secs(), 10.0);
        assert_eq!(c.kbps_at(2.0), 100.0);
        assert_eq!(c.kbps_at(7.0), 200.0);
    }

    #[test]
    fn window_extracts_and_clamps() {
        let t = steps();
        let w = t.window(5.0, 10.0);
        assert_eq!(w.cycle_secs(), 10.0);
        assert_eq!(w.kbps_at(0.0), 1000.0);
        assert_eq!(w.kbps_at(6.0), 2000.0);
        // Clamped at cycle end.
        let w2 = t.window(25.0, 100.0);
        assert_eq!(w2.cycle_secs(), 5.0);
        assert_eq!(w2.kbps_at(0.0), 500.0);
    }

    #[test]
    fn from_samples_uniform_spacing() {
        let t = Trace::from_samples(5.0, &[100.0, 200.0, 300.0]).unwrap();
        assert_eq!(t.cycle_secs(), 15.0);
        assert_eq!(t.kbps_at(11.0), 300.0);
    }

    #[test]
    fn cursor_reuse_matches_fresh_cursor() {
        let t = steps();
        let mut cur = TraceCursor::new();
        // Forward-moving, wrapping, then backward-jumping starts.
        let starts = [0.0, 3.0, 9.5, 10.0, 22.0, 29.99, 31.0, 2.0, 58.0, 58.0];
        for &t0 in &starts {
            let a = t.integrate_kbits_at(&mut cur, t0, t0 + 7.3);
            let b = t.integrate_kbits(t0, t0 + 7.3);
            assert_eq!(a.to_bits(), b.to_bits(), "integrate t0={t0}");
            let a = t.time_to_download_at(&mut cur, 4_321.0, t0);
            let b = t.time_to_download(4_321.0, t0);
            assert_eq!(a.to_bits(), b.to_bits(), "ttd t0={t0}");
        }
    }

    #[test]
    fn cursor_reset_allows_switching_traces() {
        let a = steps();
        let b = Trace::new(vec![(3.0, 250.0), (7.0, 4_000.0)]).unwrap();
        let mut cur = TraceCursor::new();
        let _ = a.time_to_download_at(&mut cur, 9_000.0, 25.0);
        cur.reset();
        let got = b.time_to_download_at(&mut cur, 2_000.0, 4.0);
        assert_eq!(got.to_bits(), b.time_to_download(2_000.0, 4.0).to_bits());
    }

    #[test]
    fn scaled_and_concat_rebuild_index() {
        let a = steps();
        let s = a.scaled(1.7);
        assert_eq!(
            s.time_to_download(9_999.0, 13.0).to_bits(),
            s.naive_time_to_download(9_999.0, 13.0).to_bits()
        );
        let b = Trace::new(vec![(2.5, 0.0), (4.5, 800.0)]).unwrap();
        let c = a.concat(&b);
        assert_eq!(
            c.integrate_kbits(11.0, 52.0).to_bits(),
            c.naive_integrate_kbits(11.0, 52.0).to_bits()
        );
        assert_eq!(
            c.time_to_download(31_000.0, 36.9).to_bits(),
            c.naive_time_to_download(31_000.0, 36.9).to_bits()
        );
    }

    /// Random segments `(secs, kbps)`, some with zero rate allowed, at
    /// least one positive (the only traces [`Trace::new`] accepts).
    fn random_segments(rng: &mut SplitMix64, max: usize) -> Vec<(f64, f64)> {
        loop {
            let segs = rng.vec(1..max, |r| (r.range(0.1..8.0), r.range(0.0..5_000.0)));
            if segs.iter().any(|&(_, c)| c > 0.0) {
                return segs;
            }
        }
    }

    /// Sizes in `[0, hi)`, sorted ascending.
    fn sorted_sizes(rng: &mut SplitMix64, len: std::ops::Range<usize>, hi: f64) -> Vec<f64> {
        let mut sizes = rng.vec(len, |r| r.range(0.0..hi));
        sizes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sizes
    }

    /// Indexed `integrate_kbits` is bit-identical to the retained naive
    /// scan on random traces (including zero-rate outage segments),
    /// random start times and multi-cycle windows.
    #[test]
    fn indexed_integrate_matches_naive_bits() {
        check(256, |rng| {
            let t = Trace::new(random_segments(rng, 12)).unwrap();
            let t0 = rng.range(0.0..200.0);
            let len = rng.range(0.0..300.0);
            let a = t.integrate_kbits(t0, t0 + len);
            let b = t.naive_integrate_kbits(t0, t0 + len);
            assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
        });
    }

    /// Indexed `time_to_download` is bit-identical to the retained naive
    /// scan, including volumes spanning many cycles and volumes a
    /// zero-heavy cycle stalls on.
    #[test]
    fn indexed_download_time_matches_naive_bits() {
        check(256, |rng| {
            let t = Trace::new(random_segments(rng, 12)).unwrap();
            let t0 = rng.range(0.0..200.0);
            let kbits = rng.range(0.0..500_000.0);
            let a = t.time_to_download(kbits, t0);
            let b = t.naive_time_to_download(kbits, t0);
            assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
        });
    }

    /// A single cursor reused across an arbitrary (not necessarily
    /// monotone) query sequence returns exactly what fresh cursors do.
    #[test]
    fn cursor_sequence_matches_fresh_bits() {
        check(256, |rng| {
            let t = Trace::new(random_segments(rng, 12)).unwrap();
            let queries = rng.vec(1..25, |r| (r.range(0.0..120.0), r.range(0.0..60_000.0)));
            let mut cur = TraceCursor::new();
            for &(t0, kbits) in &queries {
                let a = t.time_to_download_at(&mut cur, kbits, t0);
                let b = t.naive_time_to_download(kbits, t0);
                assert_eq!(a.to_bits(), b.to_bits());
                let a = t.integrate_kbits_at(&mut cur, t0, t0 + kbits / 1_000.0);
                let b = t.naive_integrate_kbits(t0, t0 + kbits / 1_000.0);
                assert_eq!(a.to_bits(), b.to_bits());
            }
        });
    }

    /// Integration over [a,b] + [b,c] equals integration over [a,c].
    #[test]
    fn integrate_additive() {
        check(256, |rng| {
            let t = steps();
            let a = rng.range(0.0..100.0);
            let b = a + rng.range(0.0..50.0);
            let c = b + rng.range(0.0..50.0);
            let lhs = t.integrate_kbits(a, b) + t.integrate_kbits(b, c);
            let rhs = t.integrate_kbits(a, c);
            assert!((lhs - rhs).abs() < 1e-6 * (1.0 + rhs.abs()));
        });
    }

    /// time_to_download is the inverse of integrate_kbits.
    #[test]
    fn download_time_inverts_integration() {
        check(256, |rng| {
            let t = steps();
            let t0 = rng.range(0.0..30.0);
            let kbits = rng.range(1.0..200_000.0);
            let secs = t.time_to_download(kbits, t0);
            let got = t.integrate_kbits(t0, t0 + secs);
            assert!((got - kbits).abs() < 1e-6 * (1.0 + kbits), "{got} vs {kbits}");
        });
    }

    /// Download time is monotone in volume.
    #[test]
    fn download_time_monotone() {
        check(256, |rng| {
            let t = steps();
            let t0 = rng.range(0.0..30.0);
            let k1 = rng.range(1.0..100_000.0);
            let extra = rng.range(0.0..100_000.0);
            assert!(t.time_to_download(k1 + extra, t0) >= t.time_to_download(k1, t0) - 1e-9);
        });
    }

    /// Average over one full cycle equals mean_kbps regardless of phase.
    #[test]
    fn cycle_average_phase_invariant() {
        check(256, |rng| {
            let t = steps();
            let t0 = rng.range(0.0..30.0);
            let avg = t.integrate_kbits(t0, t0 + t.cycle_secs()) / t.cycle_secs();
            assert!((avg - t.mean_kbps()).abs() < 1e-6);
        });
    }

    /// The batched download-time helper agrees with the scalar one.
    #[test]
    fn times_to_download_matches_scalar() {
        check(256, |rng| {
            let t = steps();
            let t0 = rng.range(0.0..30.0);
            let sizes = sorted_sizes(rng, 1..12, 100_000.0);
            let batch = t.times_to_download(&sizes, t0);
            assert_eq!(batch.len(), sizes.len());
            for (i, &s) in sizes.iter().enumerate() {
                let scalar = t.time_to_download(s, t0);
                assert!(
                    (batch[i] - scalar).abs() < 1e-6 * (1.0 + scalar),
                    "size {} at t0 {}: batch {} vs scalar {}", s, t0, batch[i], scalar
                );
            }
        });
    }

    /// The allocation-free scan into a reused buffer is bit-identical to
    /// the allocating one on random traces, start times and target lists.
    #[test]
    fn reused_buffer_scan_is_bit_identical() {
        check(256, |rng| {
            let t = Trace::new(random_segments(rng, 10)).unwrap();
            let t0 = rng.range(0.0..60.0) % (2.0 * t.cycle_secs());
            let sizes = sorted_sizes(rng, 0..10, 150_000.0);
            let plain = t.times_to_download(&sizes, t0);
            let mut out = vec![0.0; 3]; // stale contents must be cleared
            t.times_to_download_with(&sizes, t0, &mut out);
            assert_eq!(plain.len(), out.len());
            for (a, b) in plain.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        });
    }
}
