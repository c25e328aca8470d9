//! Stream prefetcher in the style of the IBM POWER4 (paper Table 1:
//! "Stream: 32 streams, distance 32", per \[57\]/\[61\]).
//!
//! Each stream tracker watches a region of the miss stream. Two misses to
//! adjacent lines establish a direction; once confirmed, the tracker runs
//! ahead of the demand stream, issuing prefetches up to `distance` lines
//! ahead, `degree` lines at a time (degree is controlled externally by
//! FDP).

use emc_types::LineAddr;

#[derive(Debug, Clone, Copy)]
struct Stream {
    /// Last demand miss absorbed by this stream.
    last: u64,
    /// Learned stride in lines (signed) once confirmed.
    stride: i64,
    /// Lines prefetched up to (exclusive frontier), signed arithmetic.
    frontier: i64,
    confirmed: bool,
    lru: u64,
}

/// A per-core stream prefetcher.
///
/// # Example
///
/// ```
/// use emc_prefetch::StreamPrefetcher;
/// use emc_types::LineAddr;
///
/// let mut pf = StreamPrefetcher::new(32, 32);
/// pf.train(LineAddr(100));
/// pf.train(LineAddr(101)); // direction confirmed
/// let mut reqs = Vec::new();
/// pf.drain_into(4, &mut reqs);
/// assert_eq!(reqs[0], LineAddr(102));
/// ```
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    streams: Vec<Stream>,
    max_streams: usize,
    distance: u64,
    tick: u64,
    /// The last drain found every confirmed stream at its distance
    /// limit; only `train` can give one room again.
    run_out: bool,
}

impl StreamPrefetcher {
    /// Create a prefetcher tracking up to `max_streams` streams, running
    /// at most `distance` lines ahead of demand.
    pub fn new(max_streams: usize, distance: u64) -> Self {
        StreamPrefetcher {
            streams: Vec::new(),
            max_streams,
            distance,
            tick: 0,
            run_out: false,
        }
    }

    /// Train on a demand miss.
    pub fn train(&mut self, line: LineAddr) {
        self.tick += 1;
        self.run_out = false;
        let l = line.0 as i64;
        // Find a stream this miss belongs to: within 2 lines of `last` in
        // training, or within the run-ahead window once confirmed.
        let mut found = None;
        for (i, s) in self.streams.iter().enumerate() {
            let delta = l - s.last as i64;
            let matches = if s.confirmed {
                delta * s.stride > 0 && delta.abs() <= self.distance as i64
            } else {
                delta != 0 && delta.abs() <= 2
            };
            if matches {
                found = Some(i);
                break;
            }
        }
        match found {
            Some(i) => {
                let s = &mut self.streams[i];
                let delta = l - s.last as i64;
                s.lru = self.tick;
                if !s.confirmed {
                    s.stride = if delta > 0 { 1 } else { -1 };
                    s.confirmed = true;
                    s.frontier = l + s.stride;
                }
                s.last = line.0;
            }
            None => {
                let entry = Stream {
                    last: line.0,
                    stride: 0,
                    frontier: l,
                    confirmed: false,
                    lru: self.tick,
                };
                if self.streams.len() < self.max_streams {
                    self.streams.push(entry);
                } else if let Some(victim) = self.streams.iter_mut().min_by_key(|s| s.lru) {
                    *victim = entry;
                }
            }
        }
    }

    /// Whether `s` may prefetch its frontier line: it is confirmed and
    /// the frontier is no more than `distance` lines past its last
    /// demand miss.
    fn can_advance(&self, s: &Stream) -> bool {
        let ahead = (s.frontier - s.last as i64) * s.stride;
        s.confirmed && ahead <= self.distance as i64 && s.frontier >= 0
    }

    /// Whether a drain could find a candidate: false once one has found
    /// every stream run out, until the next `train`.
    pub fn has_pending(&self) -> bool {
        !self.run_out
    }

    /// Move up to `degree` prefetch candidates across confirmed streams
    /// to the back of `out`, advancing each stream's frontier but never
    /// beyond `distance` lines past the last demand miss.
    pub fn drain_into(&mut self, degree: usize, out: &mut Vec<LineAddr>) {
        if self.run_out {
            return;
        }
        let end = out.len() + degree;
        for i in 0..self.streams.len() {
            while out.len() < end && self.can_advance(&self.streams[i]) {
                let s = &mut self.streams[i];
                out.push(LineAddr(s.frontier as u64));
                s.frontier += s.stride;
            }
            if out.len() >= end {
                return;
            }
        }
        self.run_out = true;
    }

    /// [`drain_into`](Self::drain_into) a fresh `Vec`.
    #[cfg(test)]
    fn take_requests(&mut self, degree: usize) -> Vec<LineAddr> {
        let mut out = Vec::new();
        self.drain_into(degree, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_stream_detected() {
        let mut pf = StreamPrefetcher::new(4, 32);
        pf.train(LineAddr(10));
        assert!(
            pf.take_requests(8).is_empty(),
            "unconfirmed stream is silent"
        );
        pf.train(LineAddr(11));
        let reqs = pf.take_requests(4);
        assert_eq!(
            reqs,
            vec![LineAddr(12), LineAddr(13), LineAddr(14), LineAddr(15)]
        );
    }

    #[test]
    fn descending_stream_detected() {
        let mut pf = StreamPrefetcher::new(4, 32);
        pf.train(LineAddr(100));
        pf.train(LineAddr(99));
        let reqs = pf.take_requests(3);
        assert_eq!(reqs, vec![LineAddr(98), LineAddr(97), LineAddr(96)]);
    }

    #[test]
    fn distance_caps_runahead() {
        let mut pf = StreamPrefetcher::new(4, 4);
        pf.train(LineAddr(10));
        pf.train(LineAddr(11));
        let reqs = pf.take_requests(100);
        // Frontier can run at most 4 lines past the last miss (line 11).
        assert_eq!(reqs.len(), 4);
        assert_eq!(*reqs.last().unwrap(), LineAddr(15));
        assert!(!pf.has_pending(), "the drain came up short of its degree");
        assert!(pf.take_requests(100).is_empty(), "window exhausted");
        // A new demand miss re-opens the window.
        pf.train(LineAddr(12));
        assert!(pf.has_pending());
        assert!(!pf.take_requests(100).is_empty());
    }

    #[test]
    fn random_misses_do_not_confirm() {
        let mut pf = StreamPrefetcher::new(8, 32);
        for l in [5u64, 1000, 77, 123456, 9999] {
            pf.train(LineAddr(l));
        }
        assert!(pf.take_requests(16).is_empty());
    }

    #[test]
    fn lru_replacement_bounds_streams() {
        let mut pf = StreamPrefetcher::new(2, 32);
        for l in [10u64, 1000, 2000, 3000] {
            pf.train(LineAddr(l));
        }
        assert_eq!(pf.streams.len(), 2);
    }

    #[test]
    fn degree_limits_batch() {
        let mut pf = StreamPrefetcher::new(4, 32);
        pf.train(LineAddr(0));
        pf.train(LineAddr(1));
        assert_eq!(pf.take_requests(2).len(), 2);
        assert_eq!(pf.take_requests(2).len(), 2, "continues from frontier");
    }
}
