//! The declarative-API contract tests:
//!
//! 1. **Name stability** — the registry's string keys are public API (they
//!    appear in checked-in spec files and experiment tables); this file
//!    pins the exact set.
//! 2. **Serde round-trips** — every `ScenarioSpec`/`SweepSpec`, including
//!    the example spec files checked in under `examples/specs/`, survives
//!    JSON serialization losslessly.

use wireless_sync::prelude::*;

#[test]
fn registry_names_are_stable() {
    assert_eq!(
        wireless_sync::sync::registry::probe_names(),
        vec![
            "checker".to_string(),
            "fault-counters".to_string(),
            "metrics".to_string(),
            "trace".to_string(),
        ]
    );
    assert_eq!(
        wireless_sync::sync::registry::fault_names(),
        vec![
            "capture".to_string(),
            "churn".to_string(),
            "drop".to_string(),
            "partition".to_string(),
        ]
    );
    // These strings are serialized into spec files; changing one is a
    // breaking API change and must be deliberate (update this test AND
    // provide a migration note in README.md).
    assert_eq!(
        wireless_sync::sync::registry::protocol_names(),
        vec![
            "good-samaritan".to_string(),
            "round-robin".to_string(),
            "single-frequency".to_string(),
            "trapdoor".to_string(),
            "wakeup".to_string(),
        ]
    );
    assert_eq!(
        wireless_sync::sync::registry::adversary_names(),
        vec![
            "adaptive-greedy".to_string(),
            "bursty".to_string(),
            "fixed-band".to_string(),
            "none".to_string(),
            "oblivious-random".to_string(),
            "random".to_string(),
            "sweep".to_string(),
            "top-weight".to_string(),
        ]
    );
}

#[test]
fn checked_in_example_specs_parse_and_round_trip() {
    let mut paths: Vec<_> = std::fs::read_dir("examples/specs")
        .expect("examples/specs is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no spec files under examples/specs");
    for file in &paths {
        let path = file.display();
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{path}: {e}"));
        let spec_file = wireless_sync::experiments::SpecFile::parse(&text)
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        match spec_file {
            wireless_sync::experiments::SpecFile::Scenario(spec) => {
                let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
                assert_eq!(back, spec, "{path} round trip");
                Sim::from_spec(&spec).unwrap_or_else(|e| panic!("{path}: {e}"));
            }
            wireless_sync::experiments::SpecFile::Sweep(sweep) => {
                let back = SweepSpec::from_json(&sweep.to_json()).unwrap();
                assert_eq!(back, sweep, "{path} round trip");
                let points = sweep.expand().unwrap_or_else(|e| panic!("{path}: {e}"));
                assert!(!points.is_empty());
                for point in &points {
                    Sim::from_spec(&point.spec).unwrap_or_else(|e| panic!("{path}: {e}"));
                }
            }
        }
    }
}

#[test]
fn scenario_spec_round_trips_with_every_component_shape() {
    let spec = ScenarioSpec::new("good-samaritan", 10, 16, 5)
        .with_adversary(
            ComponentSpec::named("bursty")
                .with("period", 16u64)
                .with("burst_len", 4u64),
        )
        .with_activation(ActivationSchedule::Explicit(vec![0, 3, 9, 9]))
        .with_upper_bound(32)
        .with_max_rounds(123_456)
        .with_extra_rounds_after_sync(3)
        .with_protocol_param("epoch_constant", 5.5)
        .with_protocol_param("threshold_shift", 4u64);
    let text = spec.to_json();
    let back = ScenarioSpec::from_json(&text).expect("round trip");
    assert_eq!(back, spec);
    // serialization is canonical: serialize → parse → serialize is stable
    assert_eq!(back.to_json(), text);
}

#[test]
fn sweep_spec_grid_runs_match_individual_spec_runs() {
    let base = ScenarioSpec::new("trapdoor", 8, 8, 1).with_adversary("random");
    let sweep = SweepSpec::new(base.clone(), 0..3)
        .with_axis("disruption_bound", vec![1u64.into(), 3u64.into()]);
    let points: Vec<(String, ScenarioSpec)> = sweep
        .expand()
        .unwrap()
        .into_iter()
        .map(|point| (point.label, point.spec))
        .collect();
    let mut outcomes: Vec<Vec<SyncOutcome>> = vec![Vec::new(); points.len()];
    let report = SweepRunner::with_runner(BatchRunner::serial())
        .run_points_each(points, 0..3, |point, outcome| {
            outcomes[point].push(outcome.clone())
        })
        .unwrap();
    assert_eq!(report.points.len(), 2);
    for (point, outcomes) in report.points.iter().zip(&outcomes) {
        let t: u32 = point
            .label
            .strip_prefix("disruption_bound=")
            .unwrap()
            .parse()
            .unwrap();
        let mut manual = base.clone();
        manual.disruption_bound = t;
        let expected: Vec<SyncOutcome> = (0..3)
            .map(|seed| Sim::from_spec(&manual).unwrap().run_one(seed))
            .collect();
        assert_eq!(outcomes, &expected);
    }
}
