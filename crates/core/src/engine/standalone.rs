//! An [`EmcEngine`] with its own counters, for driving it outside a
//! `System`.

use super::{EmcEngine, EmcEvent};
use crate::chain::Chain;
use emc_types::{Cycle, EmcConfig, EmcStats};

/// An [`EmcEngine`] driven on its own, outside a `System`, with the
/// counters it writes kept beside it; every other call goes to the engine.
pub struct Emc {
    engine: EmcEngine,
    /// What the engine counted.
    pub stats: EmcStats,
}

impl Emc {
    /// Build an EMC for `cores` home cores, its counters at zero.
    pub fn new(cfg: &EmcConfig, cores: usize) -> Self {
        let (engine, stats) = (EmcEngine::new(cfg, cores), EmcStats::default());
        Emc { engine, stats }
    }

    /// [`EmcEngine::start_chain`], counted in [`stats`](Emc::stats).
    pub fn start_chain(&mut self, chain: Chain, active_at: Cycle) -> Result<usize, Chain> {
        self.engine.start_chain(chain, active_at, &mut self.stats)
    }

    /// [`EmcEngine::tick`], counted in [`stats`](Emc::stats).
    pub fn tick(&mut self, now: Cycle) -> Vec<EmcEvent> {
        self.engine.tick(now, &mut self.stats)
    }
}

impl std::ops::Deref for Emc {
    type Target = EmcEngine;

    fn deref(&self) -> &EmcEngine {
        &self.engine
    }
}

impl std::ops::DerefMut for Emc {
    fn deref_mut(&mut self) -> &mut EmcEngine {
        &mut self.engine
    }
}
