//! Property-based tests: DRAM protocol legality under random command
//! streams.

use emc_dram::{map_line, Channel, Location, RowOutcome};
use emc_types::rng::for_each_case;
use emc_types::{DramConfig, LineAddr};

/// Data return times are causal and the data bus never double-books:
/// burst windows across all commands are disjoint.
#[test]
fn bus_never_double_booked() {
    for_each_case(0x5eed_d001, 256, |rng| {
        let cfg = DramConfig::default();
        let mut ch = Channel::new(&cfg);
        let mut now = 0u64;
        let mut bursts: Vec<(u64, u64)> = Vec::new();
        for _ in 0..rng.gen_range(1..200) {
            let loc = Location {
                channel: 0,
                rank: rng.gen_range(0..cfg.ranks_per_channel as u64) as usize,
                bank: rng.gen_range(0..cfg.banks_per_rank as u64) as usize,
                row: rng.gen_range(0..64),
            };
            now += rng.gen_range(0..2000);
            let issue = ch.issue(loc, false, now);
            // Causality: data cannot return before the minimum service time.
            assert!(issue.data_at >= now + cfg.t_cas + cfg.t_burst);
            bursts.push((issue.data_at - cfg.t_burst, issue.data_at));
        }
        bursts.sort();
        for w in bursts.windows(2) {
            assert!(w[0].1 <= w[1].0, "burst overlap: {w:?}");
        }
    });
}

/// Issuing the same row twice in a row is never a conflict, and
/// issuing a different row to the same bank is never a hit.
#[test]
fn row_outcome_consistency() {
    for_each_case(0x5eed_d002, 256, |rng| {
        let cfg = DramConfig::default();
        let mut ch = Channel::new(&cfg);
        let mut last: Option<u64> = None;
        let mut now = 0;
        for _ in 0..rng.gen_range(2..100) {
            let row = rng.gen_range(0..8);
            let loc = Location {
                channel: 0,
                rank: 0,
                bank: 0,
                row,
            };
            let i = ch.issue(loc, false, now);
            match last {
                None => assert_eq!(i.outcome, RowOutcome::Empty),
                Some(r) if r == row => assert_eq!(i.outcome, RowOutcome::Hit),
                Some(_) => assert_eq!(i.outcome, RowOutcome::Conflict),
            }
            last = Some(row);
            now = i.data_at;
        }
    });
}

/// The address mapping is a bijection between line addresses and
/// (channel, location, column) tuples over any window.
#[test]
fn mapping_decodes_within_bounds() {
    for_each_case(0x5eed_d003, 256, |rng| {
        let cfg = DramConfig {
            channels: rng.gen_range(1..5) as usize,
            ranks_per_channel: rng.gen_range(1..5) as usize,
            ..Default::default()
        };
        let m = map_line(LineAddr(rng.gen_range(0..1_000_000_000)), &cfg);
        assert!(m.channel < cfg.channels);
        assert!(m.rank < cfg.ranks_per_channel);
        assert!(m.bank < cfg.banks_per_rank);
    });
}

/// Monotonic issue times yield monotonically reasonable completions:
/// a later-issued command to an idle bank never completes before an
/// earlier command's issue time.
#[test]
fn completions_are_causal() {
    for_each_case(0x5eed_d004, 256, |rng| {
        let cfg = DramConfig::default();
        let mut ch = Channel::new(&cfg);
        let mut now = 0;
        for bank in 0..rng.gen_range(1..100) as usize {
            now += rng.gen_range(0..500);
            let loc = Location {
                channel: 0,
                rank: 0,
                bank: bank % 8,
                row: 3,
            };
            let i = ch.issue(loc, false, now);
            assert!(i.data_at > now);
        }
    });
}
