//! Pinned level-partition output: the balanced K-means + capacity
//! assignment the flow runs on its first level, hashed bit for bit.
//!
//! Any change to the clustering (seeding, Lloyd, the overflow-repair
//! assignment, its tie-breaks) moves this fingerprint; an exact
//! optimisation of the assignment solver must leave it untouched.

use sllt::design::suite::DesignSpec;
use sllt::geom::Point;
use sllt::obs::{fnv1a64, Registry};
use sllt::partition::{balanced_kmeans_grid_sharded, balanced_kmeans_restarts, Partition};
use sllt_rng::prelude::*;

/// `HierarchicalCts::default().seed`, the flow's level-0 partition seed.
const FLOW_SEED: u64 = 0x0511_7C75;

fn push_partition(bytes: &mut Vec<u8>, part: &Partition) {
    for &a in &part.assignment {
        bytes.extend_from_slice(&(a as u64).to_le_bytes());
    }
    for c in &part.centers {
        bytes.extend_from_slice(&c.x.to_bits().to_le_bytes());
        bytes.extend_from_slice(&c.y.to_bits().to_le_bytes());
    }
}

/// A register-bank placement: dense banks of snapped points, so ties
/// between centres are common and capacity binds inside every bank.
fn clustered(seed: u64, n: usize) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let banks: Vec<Point> = (0..4)
        .map(|_| Point::new(rng.random_range(0.0..400.0), rng.random_range(0.0..400.0)))
        .collect();
    (0..n)
        .map(|i| {
            let b = banks[i % banks.len()];
            Point::new(
                b.x + (rng.random_range(0.0..30.0f64)).round(),
                b.y + (rng.random_range(0.0..12.0f64)).round(),
            )
        })
        .collect()
}

#[test]
fn partition_fingerprint_is_pinned() {
    let mut bytes = Vec::new();
    for name in ["s38584", "s38417", "s35932"] {
        let design = DesignSpec::by_name(name)
            .expect("suite design")
            .instantiate();
        let pts: Vec<Point> = design.sinks.iter().map(|s| s.pos).collect();
        let target_k = pts.len().div_ceil(32);
        let serial = balanced_kmeans_grid_sharded(&pts, target_k, 32, 300, FLOW_SEED, 1, &|| false)
            .expect("never stopped");
        let sharded =
            balanced_kmeans_grid_sharded(&pts, target_k, 32, 300, FLOW_SEED, 2, &|| false)
                .expect("never stopped");
        assert_eq!(
            serial, sharded,
            "{name}: worker count changed the partition"
        );
        push_partition(&mut bytes, &serial);
    }
    // The clustered cell must actually overflow, or the fingerprint
    // would not cover the capacity repair.
    let pts = clustered(7, 560);
    let registry = Registry::new();
    let part = {
        let _scope = registry.install("fingerprint");
        balanced_kmeans_restarts(&pts, pts.len().div_ceil(32) + 2, 32, FLOW_SEED, 3)
    };
    let augmentations = registry
        .snapshot()
        .metrics
        .counter("partition.mcf.augmentations");
    assert!(augmentations > 0, "the clustered cell never overflowed");
    push_partition(&mut bytes, &part);
    let fingerprint = fnv1a64(&bytes);
    assert_eq!(
        fingerprint, 0x5ab8_bc76_bfa9_020b,
        "partition output changed: fingerprint {fingerprint:#018x}"
    );
}
