//! DDR3 DRAM device timing model.
//!
//! Models the DRAM organization of Table 1 in the paper: multiple channels,
//! each with ranks of 8 banks, 8 KB row buffers, CAS 13.75 ns, an 800 MHz
//! data bus, bank conflicts and data-bus serialization. An open-page policy
//! keeps rows open until a conflicting activation, which is what makes the
//! row-buffer statistics of Figure 16 meaningful.
//!
//! The model is *command-level*: the memory controller (`emc-memctrl`)
//! decides *which* request to service and *when*; [`Channel::issue`] then
//! computes the precise data return time from the bank and bus state
//! machines.
//!
//! # Example
//!
//! ```
//! use emc_dram::{Channel, Location, RowOutcome};
//! use emc_types::DramConfig;
//!
//! let cfg = DramConfig::default();
//! let mut ch = Channel::new(&cfg);
//! let loc = Location { channel: 0, rank: 0, bank: 0, row: 7 };
//! let first = ch.issue(loc, false, 0);
//! assert_eq!(first.outcome, RowOutcome::Empty);
//! let second = ch.issue(loc, false, first.data_at);
//! assert_eq!(second.outcome, RowOutcome::Hit);
//! assert!(second.data_at > first.data_at);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mapping;

pub use mapping::{map_line, Location};

use emc_types::{Cycle, DramConfig};

/// The row-buffer outcome of a DRAM access (Figure 16 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowOutcome {
    /// The addressed row was already open: column access only.
    Hit,
    /// The bank was precharged: activate + column access.
    Empty,
    /// A different row was open: precharge + activate + column access.
    Conflict,
}

/// Result of issuing one DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issue {
    /// Cycle the data burst completes (data available at the MC).
    pub data_at: Cycle,
    /// Row-buffer outcome.
    pub outcome: RowOutcome,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Bank busy until this cycle (cannot accept another command).
    free_at: Cycle,
    /// Earliest cycle the open row may be precharged (tRAS).
    ras_done_at: Cycle,
}

/// One DDR3 channel: a set of banks sharing a command/data bus.
///
/// Banks operate independently (bank-level parallelism); the data bus
/// serializes 64-byte bursts.
#[derive(Debug, Clone)]
pub struct Channel {
    banks: Vec<Bank>,
    bus_free_at: Cycle,
    cfg: DramConfig,
}

impl Channel {
    /// Create a channel with `ranks_per_channel * banks_per_rank` banks.
    pub fn new(cfg: &DramConfig) -> Self {
        Channel {
            banks: vec![Bank::default(); cfg.ranks_per_channel * cfg.banks_per_rank],
            bus_free_at: 0,
            cfg: *cfg,
        }
    }

    /// Flat bank index within this channel for a location.
    pub fn bank_index(&self, loc: Location) -> usize {
        loc.rank * self.cfg.banks_per_rank + loc.bank
    }

    /// Whether the bank addressed by `loc` can accept a command at `now`.
    /// The memory controller gates scheduling on this, which is what makes
    /// queueing delay (and hence the EMC's contention savings) real.
    pub fn can_issue(&self, loc: Location, now: Cycle) -> bool {
        self.ready_at(loc) <= now
    }

    /// The first cycle at which [`can_issue`](Self::can_issue) holds for
    /// `loc`. It moves only when this channel issues, so a scheduler can
    /// keep it beside a blocked request instead of asking every cycle.
    pub fn ready_at(&self, loc: Location) -> Cycle {
        let b = &self.banks[self.bank_index(loc)];
        // Don't run the bus arbitrarily far ahead: a command issued now
        // will want the bus around now + tRCD + tCAS at the latest.
        let bus_slack = self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas;
        b.free_at.max(self.bus_free_at.saturating_sub(bus_slack))
    }

    /// The row currently open in the bank addressed by `loc`, if any.
    /// The PAR-BS scheduler uses this for its row-hit-first rule.
    pub fn open_row(&self, loc: Location) -> Option<u64> {
        self.banks[self.bank_index(loc)].open_row
    }

    /// Issue an access (read or write) to `loc` at cycle `now`, advancing
    /// the bank and bus state machines, and return when the data burst
    /// completes plus the row-buffer outcome.
    ///
    /// Timing, with `start = max(now, bank_free)`:
    /// - row hit: `data = bus_slot(start + tCAS) + tBURST`
    /// - row empty: activate at `start`, data after `tRCD + tCAS + tBURST`
    /// - row conflict: precharge at `max(start, ras_done)`, then
    ///   `tRP + tRCD + tCAS + tBURST`
    pub fn issue(&mut self, loc: Location, _is_write: bool, now: Cycle) -> Issue {
        let idx = self.bank_index(loc);
        let cfg = self.cfg;
        let b = &mut self.banks[idx];
        let start = now.max(b.free_at);
        let (outcome, cas_start) = match b.open_row {
            Some(r) if r == loc.row => (RowOutcome::Hit, start),
            Some(_) => {
                let pre_start = start.max(b.ras_done_at);
                let act_start = pre_start + cfg.t_rp;
                b.ras_done_at = act_start + cfg.t_ras;
                b.open_row = Some(loc.row);
                (RowOutcome::Conflict, act_start + cfg.t_rcd)
            }
            None => {
                b.ras_done_at = start + cfg.t_ras;
                b.open_row = Some(loc.row);
                (RowOutcome::Empty, start + cfg.t_rcd)
            }
        };
        // Column access completes tCAS later, then the burst needs the
        // shared data bus.
        let data_start = (cas_start + cfg.t_cas).max(self.bus_free_at);
        self.bus_free_at = data_start + cfg.t_burst;
        // Column accesses pipeline: the bank can accept the next column
        // command one burst (tCCD = 4 bus clocks = t_burst) after this
        // one, so row-hit streams run at bus rate.
        b.free_at = cas_start + cfg.t_burst;
        Issue {
            data_at: data_start + cfg.t_burst,
            outcome,
        }
    }

    /// Number of banks currently holding a row open.
    pub fn open_bank_count(&self) -> usize {
        self.banks.iter().filter(|b| b.open_row.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig::default()
    }

    fn loc(bank: usize, row: u64) -> Location {
        Location {
            channel: 0,
            rank: 0,
            bank,
            row,
        }
    }

    #[test]
    fn first_access_is_row_empty() {
        let mut ch = Channel::new(&cfg());
        let i = ch.issue(loc(0, 5), false, 100);
        assert_eq!(i.outcome, RowOutcome::Empty);
        let c = cfg();
        assert_eq!(i.data_at, 100 + c.t_rcd + c.t_cas + c.t_burst);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let c = cfg();
        let mut ch = Channel::new(&c);
        let t0 = ch.issue(loc(0, 5), false, 0).data_at;
        let hit = ch.issue(loc(0, 5), false, t0);
        assert_eq!(hit.outcome, RowOutcome::Hit);
        let hit_lat = hit.data_at - t0;

        let mut ch2 = Channel::new(&c);
        let t0 = ch2.issue(loc(0, 5), false, 0).data_at;
        // Wait out tRAS so the conflict pays exactly tRP + tRCD extra.
        let later = t0 + c.t_ras;
        let conf = ch2.issue(loc(0, 9), false, later);
        assert_eq!(conf.outcome, RowOutcome::Conflict);
        let conf_lat = conf.data_at - later;
        assert!(
            conf_lat > hit_lat,
            "conflict {conf_lat} must exceed hit {hit_lat}"
        );
        assert_eq!(conf_lat - hit_lat, c.t_rp + c.t_rcd);
    }

    #[test]
    fn tras_delays_early_precharge() {
        let c = cfg();
        let mut ch = Channel::new(&c);
        ch.issue(loc(0, 1), false, 0);
        // Conflict immediately: the precharge must wait for tRAS (from the
        // activate at cycle 0).
        let i = ch.issue(loc(0, 2), false, 0);
        assert_eq!(i.outcome, RowOutcome::Conflict);
        assert!(i.data_at >= c.t_ras + c.t_rp + c.t_rcd + c.t_cas + c.t_burst);
    }

    #[test]
    fn different_banks_overlap_but_share_bus() {
        let c = cfg();
        let mut ch = Channel::new(&c);
        let a = ch.issue(loc(0, 1), false, 0);
        let b = ch.issue(loc(1, 1), false, 0);
        // Bank work overlaps: b is delayed only by the bus, one burst after a.
        assert_eq!(b.data_at, a.data_at + c.t_burst);
    }

    #[test]
    fn same_bank_serializes() {
        let c = cfg();
        let mut ch = Channel::new(&c);
        let a = ch.issue(loc(0, 1), false, 0);
        let b = ch.issue(loc(0, 1), false, 0);
        assert!(b.data_at >= a.data_at + c.t_burst);
        assert_eq!(b.outcome, RowOutcome::Hit);
    }

    #[test]
    fn can_issue_respects_bank_busy() {
        let c = cfg();
        let mut ch = Channel::new(&c);
        assert!(ch.can_issue(loc(0, 1), 0));
        let i = ch.issue(loc(0, 1), false, 0);
        assert!(!ch.can_issue(loc(0, 1), 1));
        assert!(ch.can_issue(loc(0, 1), i.data_at));
        // A different bank is still available immediately.
        assert!(ch.can_issue(loc(1, 1), 1));
    }

    #[test]
    fn open_row_tracking() {
        let mut ch = Channel::new(&cfg());
        assert_eq!(ch.open_row(loc(0, 3)), None);
        ch.issue(loc(0, 3), false, 0);
        assert_eq!(ch.open_row(loc(0, 3)), Some(3));
        ch.issue(loc(0, 8), false, 10_000);
        assert_eq!(ch.open_row(loc(0, 3)), Some(8));
    }

    #[test]
    fn open_bank_count_counts_open_rows() {
        let mut ch = Channel::new(&cfg());
        assert_eq!(ch.open_bank_count(), 0);
        ch.issue(loc(0, 3), false, 0);
        ch.issue(loc(1, 5), false, 0);
        assert_eq!(ch.open_bank_count(), 2);
        assert_eq!(ch.open_row(loc(0, 3)), Some(3));
        assert_eq!(ch.open_row(loc(1, 5)), Some(5));
    }

    #[test]
    fn bank_indexing_covers_ranks() {
        let mut c = cfg();
        c.ranks_per_channel = 2;
        let ch = Channel::new(&c);
        assert_eq!(ch.banks.len(), 16);
        assert_eq!(
            ch.bank_index(Location {
                channel: 0,
                rank: 1,
                bank: 3,
                row: 0
            }),
            11
        );
    }
}
