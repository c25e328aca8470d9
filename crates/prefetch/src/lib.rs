//! Hardware prefetchers evaluated in the paper: an IBM POWER4-style
//! stream prefetcher, a Global History Buffer G/DC prefetcher, and a
//! Markov correlation prefetcher, all throttled by Feedback-Directed
//! Prefetching (Table 1 of the paper).
//!
//! [`PrefetchEngine`] bundles the configured prefetcher(s) with an FDP
//! throttle per core: the simulator trains it on the core's LLC-miss
//! stream and drains degree-limited candidates each cycle. Per §5, the
//! Markov configuration always runs together with the stream prefetcher.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fdp;
pub mod ghb;
pub mod markov;
pub mod stream;

pub use fdp::FdpThrottle;
pub use ghb::GhbPrefetcher;
pub use markov::MarkovPrefetcher;
pub use stream::StreamPrefetcher;

use emc_types::{Cycle, LineAddr, PrefetchConfig, PrefetcherKind};

/// One core's prefetching machinery: the configured prefetcher(s) plus an
/// FDP throttle.
///
/// # Example
///
/// ```
/// use emc_prefetch::PrefetchEngine;
/// use emc_types::{LineAddr, PrefetchConfig, PrefetcherKind};
///
/// let mut e = PrefetchEngine::new(PrefetcherKind::Stream, &PrefetchConfig::default());
/// e.train(LineAddr(5), 0x40);
/// e.train(LineAddr(6), 0x40);
/// assert!(!e.take_requests().is_empty());
/// ```
#[derive(Debug)]
pub struct PrefetchEngine {
    stream: Option<StreamPrefetcher>,
    ghb: Option<GhbPrefetcher>,
    markov: Option<MarkovPrefetcher>,
    fdp: FdpThrottle,
}

impl PrefetchEngine {
    /// Build the engine for a prefetcher configuration.
    pub fn new(kind: PrefetcherKind, cfg: &PrefetchConfig) -> Self {
        let stream = matches!(kind, PrefetcherKind::Stream | PrefetcherKind::MarkovStream)
            .then(|| StreamPrefetcher::new(cfg.stream_count, cfg.stream_distance));
        let ghb = matches!(kind, PrefetcherKind::Ghb)
            .then(|| GhbPrefetcher::new(cfg.ghb_entries, cfg.ghb_index_entries));
        let markov = matches!(kind, PrefetcherKind::MarkovStream)
            .then(|| MarkovPrefetcher::new(cfg.markov_entries, cfg.markov_fanout));
        PrefetchEngine {
            stream,
            ghb,
            markov,
            fdp: FdpThrottle::new(cfg),
        }
    }

    /// Train all active prefetchers on a demand LLC miss of `line` by the
    /// load at `pc`. No configured prefetcher reads `pc`: every one of
    /// them trains on the line stream alone.
    pub fn train(&mut self, line: LineAddr, _pc: u64) {
        self.fdp.on_train();
        if let Some(s) = &mut self.stream {
            s.train(line);
        }
        if let Some(g) = &mut self.ghb {
            g.train(line);
        }
        if let Some(m) = &mut self.markov {
            m.train(line);
        }
    }

    /// `now` if [`drain_into`](Self::drain_into) would find anything to
    /// drain, else `Cycle::MAX`: until training gives it candidates the
    /// engine may be left undrained.
    #[inline]
    pub fn next_wake(&self, now: Cycle) -> Cycle {
        let pending = self.stream.as_ref().is_some_and(|s| s.has_pending())
            || self.ghb.as_ref().is_some_and(|g| g.has_pending())
            || self.markov.as_ref().is_some_and(|m| m.has_pending());
        if pending {
            now
        } else {
            Cycle::MAX
        }
    }

    /// Replace `out`'s contents with this cycle's prefetch candidates,
    /// limited by the current FDP degree. What the pattern tables drain
    /// beyond that limit, or while FDP has the engine switched off, is
    /// discarded.
    pub fn drain_into(&mut self, out: &mut Vec<LineAddr>) {
        out.clear();
        // Switched off, every table is emptied.
        let off = self.fdp.is_off();
        let degree = if off {
            usize::MAX >> 1
        } else {
            self.fdp.degree()
        };
        // Each table after the first gets what the degree has left, and
        // at least one.
        if let Some(s) = &mut self.stream {
            s.drain_into(degree, out);
        }
        if let Some(g) = &mut self.ghb {
            g.drain_into(degree.saturating_sub(out.len()).max(1), out);
        }
        if let Some(m) = &mut self.markov {
            m.drain_into(degree.saturating_sub(out.len()).max(1), out);
        }
        if off {
            out.clear();
            return;
        }
        out.truncate(degree.max(1));
        out.dedup();
    }

    /// [`drain_into`](Self::drain_into) a fresh `Vec`.
    pub fn take_requests(&mut self) -> Vec<LineAddr> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Report a useful prefetch (demand hit consumed a prefetched line).
    pub fn on_useful(&mut self) {
        self.fdp.on_useful();
    }

    /// Report a useless prefetch (line evicted without being demanded).
    pub fn on_useless(&mut self) {
        self.fdp.on_useless();
    }

    /// Train the stream component on a demand hit to a prefetched line,
    /// so streams keep advancing once they successfully cover the demand
    /// stream (without this, coverage starves the miss-based training).
    pub fn train_on_prefetch_hit(&mut self, line: LineAddr) {
        if let Some(s) = &mut self.stream {
            s.train(line);
        }
        if let Some(g) = &mut self.ghb {
            g.train(line);
        }
    }

    /// Current FDP degree (for stats).
    pub fn degree(&self) -> usize {
        self.fdp.degree()
    }

    /// Whether FDP judges this prefetcher low-confidence right now
    /// (minimum degree or off) — the simulator inserts its fills at LRU
    /// so useless prefetches cannot pollute the LLC.
    pub fn low_confidence(&self) -> bool {
        self.fdp.is_off() || self.fdp.degree() <= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PrefetchConfig {
        PrefetchConfig::default()
    }

    #[test]
    fn none_kind_never_prefetches() {
        let mut e = PrefetchEngine::new(PrefetcherKind::None, &cfg());
        for l in 0..100u64 {
            e.train(LineAddr(l), 0);
        }
        assert!(e.take_requests().is_empty());
    }

    #[test]
    fn markov_stream_combines_both() {
        let mut e = PrefetchEngine::new(PrefetcherKind::MarkovStream, &cfg());
        // Stream pattern trains the stream side.
        e.train(LineAddr(10), 0);
        e.train(LineAddr(11), 0);
        let reqs = e.take_requests();
        assert!(reqs.contains(&LineAddr(12)), "stream active: {reqs:?}");
        // Correlated pair trains the Markov side.
        let mut e = PrefetchEngine::new(PrefetcherKind::MarkovStream, &cfg());
        for &l in &[500u64, 9000, 500] {
            e.train(LineAddr(l), 0);
        }
        let reqs = e.take_requests();
        assert!(reqs.contains(&LineAddr(9000)), "markov active: {reqs:?}");
    }

    #[test]
    fn degree_limits_total_candidates() {
        let mut e = PrefetchEngine::new(PrefetcherKind::Stream, &cfg());
        e.train(LineAddr(0), 0);
        e.train(LineAddr(1), 0);
        let reqs = e.take_requests();
        assert!(reqs.len() <= e.degree().max(1));
    }

    #[test]
    fn ghb_engine_works_end_to_end() {
        let mut e = PrefetchEngine::new(PrefetcherKind::Ghb, &cfg());
        for l in 50..60u64 {
            e.train(LineAddr(l), 0);
        }
        assert!(!e.take_requests().is_empty());
    }

    #[test]
    fn useful_feedback_reaches_fdp() {
        let mut e = PrefetchEngine::new(PrefetcherKind::Stream, &cfg());
        let d0 = e.degree();
        // Make it issue a lot with zero usefulness: degree must not rise.
        for round in 0..200u64 {
            e.train(LineAddr(round * 1000), 0);
            e.train(LineAddr(round * 1000 + 1), 0);
            let _ = e.take_requests();
        }
        assert!(e.degree() <= d0, "useless prefetching must not ramp degree");
    }
}
