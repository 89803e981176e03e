//! The full hierarchical CTS flow on a benchmark design, compared against
//! the two baseline flows — a one-design slice of paper Table 6.
//!
//! ```text
//! cargo run --release --example hierarchical_flow [-- <design-name>]
//! ```

use sllt::cts::{
    baseline, constraints::CtsConstraints, eval::evaluate, flow::HierarchicalCts,
    CollectingObserver, NullSink,
};
use sllt::design::design_by_name;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "s38584".to_string());
    let design = design_by_name(&name).unwrap_or_else(|e| panic!("{e}"));
    println!(
        "{}: {} instances, {} FFs, die {:.0}×{:.0} µm",
        design.name,
        design.num_instances,
        design.num_ffs(),
        design.die.width(),
        design.die.height()
    );

    let ours = HierarchicalCts::default();
    let com = baseline::commercial_like();

    // Watch the hierarchical engine level by level while it runs.
    let mut obs = CollectingObserver::new();
    let ours_tree = ours
        .run_with_telemetry(&design, &mut obs, &NullSink)
        .expect("flow failed");
    println!("\nper-level engine report (ours):\n{}", obs.render());

    let flows: Vec<(&str, sllt::tree::ClockTree)> = vec![
        ("ours (CBS)", ours_tree),
        ("commercial-like", com.run(&design).expect("flow failed")),
        (
            "openroad-like",
            baseline::open_road_like(&design, &CtsConstraints::paper(), &ours.tech, &ours.lib),
        ),
    ];

    println!(
        "\n{:>16}  {:>9} {:>8} {:>6} {:>10} {:>9} {:>10}",
        "flow", "lat(ps)", "skew(ps)", "#buf", "area(µm²)", "cap(fF)", "WL(µm)"
    );
    for (name, tree) in &flows {
        tree.validate().expect("flow produced a malformed tree");
        let r = evaluate(tree, &ours.tech, &ours.lib);
        println!(
            "{:>16}  {:>9.1} {:>8.1} {:>6} {:>10.0} {:>9.0} {:>10.0}",
            name,
            r.max_latency_ps,
            r.skew_ps,
            r.num_buffers,
            r.buffer_area_um2,
            r.clock_cap_ff,
            r.clock_wl_um
        );
    }
    println!("\nconstraints: {:?}", ours.constraints);
}
