//! Building a cell allocates its workloads' memory images once.
//!
//! `emc_sim::build_system` generates one workload per core and hands
//! them to `System::new`, which moves each program and memory image
//! into its core. A copy there would allocate, zero, fault in and free
//! every image a second time per cell: ≈ 21 MB on H4.
//! This file holds one test so that no other test allocates while the
//! process-wide counters are read.
//!
//! Measured on H4 at the default quad-core config: the images hold
//! 20 840 448 bytes (5 088 pages). Building the cell allocates
//! 23 640 926 bytes (1.13× the images) when the images move, and
//! allocated 44 645 926 bytes (2.14×) when `System::new` cloned each
//! program and image into its core.

use emc_bench::alloc::{counters, CountingAlloc};
use emc_types::rng::substream;
use emc_types::{SystemConfig, PAGE_BYTES};
use emc_workloads::{build, mix_by_name, DEFAULT_ITERATIONS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Everything a cell allocates besides its images: cache arrays, queues,
/// programs and the images' page tables (≈ 2.8 MB on H4).
const ALLOWANCE: u64 = 4 << 20;

#[test]
fn build_system_allocates_each_image_once() {
    let cfg = SystemConfig::quad_core();
    let mix = mix_by_name("H4").expect("H4 is a paper mix");
    let image_bytes: u64 = mix
        .iter()
        .enumerate()
        .map(|(i, &b)| build(b, substream(cfg.seed, i as u64), DEFAULT_ITERATIONS))
        .map(|w| w.memory.resident_pages() as u64 * PAGE_BYTES)
        .sum();

    let before = counters();
    emc_sim::build_system(cfg, &mix).expect("H4 builds");
    let allocated = counters().since(before).bytes;

    assert!(
        allocated <= image_bytes * 5 / 4 + ALLOWANCE,
        "building H4 allocated {allocated} bytes for {image_bytes} bytes of \
         memory images ({:.2}×): an image is copied on the way into its core",
        allocated as f64 / image_bytes as f64
    );
}
