//! Cross-crate integration: the CBS pipeline against every anchor
//! algorithm, end to end.

use sllt::core::analysis::analyze;
use sllt::core::cbs::{cbs, step1_initial_bst, CbsConfig};
use sllt::design::NetGenerator;
use sllt::geom::Point;
use sllt::obs::fnv1a64;
use sllt::route::{salt::salt, skew_of, DelayModel, TopologyScheme};
use sllt::timing::Technology;
use sllt::tree::{codec::encode_tree, ClockNet, Sink};
use sllt_rng::prelude::*;

fn random_net(seed: u64, n: usize) -> ClockNet {
    let mut rng = StdRng::seed_from_u64(seed);
    ClockNet::new(
        Point::new(rng.random_range(0.0..75.0), rng.random_range(0.0..75.0)),
        (0..n)
            .map(|_| {
                Sink::new(
                    Point::new(rng.random_range(0.0..75.0), rng.random_range(0.0..75.0)),
                    0.8,
                )
            })
            .collect(),
    )
}

/// Paper Table 3's headline, as a regression gate: CBS is clearly lighter
/// than its own initial BST at every paper skew level.
#[test]
fn cbs_dominates_bst_at_paper_skew_levels() {
    let tech = Technology::n28();
    for bound in [80.0, 10.0, 5.0] {
        let (mut cbs_wl, mut bst_wl) = (0.0, 0.0);
        for seed in 0..40 {
            let net = random_net(seed, 10 + (seed as usize * 7) % 31);
            let cfg = CbsConfig {
                skew_bound: bound,
                model: DelayModel::Elmore(tech),
                ..CbsConfig::default()
            };
            cbs_wl += cbs(&net, &cfg).wirelength();
            bst_wl += step1_initial_bst(&net, &cfg).wirelength();
        }
        assert!(
            cbs_wl < bst_wl * 0.95,
            "bound {bound} ps: CBS {cbs_wl:.0} vs BST {bst_wl:.0}"
        );
    }
}

/// Paper Table 2's relaxed-skew headline: CBS at 80 ps undercuts R-SALT.
#[test]
fn cbs_beats_salt_at_relaxed_skew() {
    let tech = Technology::n28();
    let (mut cbs_wl, mut salt_wl) = (0.0, 0.0);
    for seed in 100..140 {
        let net = random_net(seed, 25);
        let cfg = CbsConfig {
            skew_bound: 80.0,
            model: DelayModel::Elmore(tech),
            ..CbsConfig::default()
        };
        cbs_wl += cbs(&net, &cfg).wirelength();
        salt_wl += salt(&net, cfg.eps).wirelength();
    }
    assert!(
        cbs_wl < salt_wl * 1.01,
        "CBS {cbs_wl:.0} should match/beat R-SALT {salt_wl:.0} at 80 ps"
    );
}

/// Every scheme × every bound × both delay models: the bound always holds
/// and every sink is covered.
#[test]
fn cbs_bounds_hold_across_the_matrix() {
    let tech = Technology::n28();
    for (seed, scheme) in TopologyScheme::ALL.iter().enumerate() {
        let net = random_net(seed as u64 + 500, 20);
        for (bound, model) in [
            (15.0, DelayModel::PathLength),
            (60.0, DelayModel::PathLength),
            (2.0, DelayModel::Elmore(tech)),
            (10.0, DelayModel::Elmore(tech)),
        ] {
            let cfg = CbsConfig {
                scheme: *scheme,
                skew_bound: bound,
                eps: 0.2,
                model,
            };
            let tree = cbs(&net, &cfg);
            tree.validate()
                .expect("CBS output must be structurally sound");
            assert_eq!(tree.sinks().len(), 20);
            let skew = skew_of(&tree, &model);
            assert!(skew <= bound + 1e-6, "{scheme}: skew {skew} > {bound}");
        }
    }
}

/// The SLLT report is internally consistent with the tree it describes.
#[test]
fn analysis_is_consistent_with_the_tree() {
    let net = random_net(42, 30);
    let tree = cbs(&net, &CbsConfig::default());
    let r = analyze(&net, &tree);
    assert!((r.metrics.wirelength - tree.wirelength()).abs() < 1e-9);
    assert!(r.metrics.shallowness >= 1.0);
    assert!(r.metrics.skewness >= 1.0);
    assert!(r.metrics.lightness > 0.9, "lightness vs an RSMT reference");
    assert!(r.skew_um <= CbsConfig::default().skew_bound + 1e-6);
}

/// Golden output: FNV-1a 64 over the binary encodings of CBS trees on the
/// paper's random nets, at the paper's three Elmore skew levels plus one
/// path-length bound. Any change to the trees CBS builds — arena order,
/// node positions, routed lengths — moves this constant, so kernel
/// rewrites that promise identical output are held to it.
#[test]
fn cbs_output_fingerprint_is_pinned() {
    let tech = Technology::n28();
    let configs = [
        (80.0, DelayModel::Elmore(tech)),
        (10.0, DelayModel::Elmore(tech)),
        (5.0, DelayModel::Elmore(tech)),
        (15.0, DelayModel::PathLength),
    ];
    let gen = NetGenerator::paper();
    let mut bytes = Vec::new();
    for i in 0..320u64 {
        let (skew_bound, model) = configs[i as usize % configs.len()];
        let cfg = CbsConfig {
            skew_bound,
            model,
            ..CbsConfig::default()
        };
        bytes.extend_from_slice(&encode_tree(&cbs(&gen.net(i), &cfg)));
    }
    let fingerprint = fnv1a64(&bytes);
    assert_eq!(
        fingerprint, 0xe37a_bc69_340b_1e2d,
        "CBS output changed: fingerprint {fingerprint:#018x}"
    );
}
