//! The declarative-API contract tests:
//!
//! 1. **Name stability** — the registry's string keys, and the parameter
//!    keys each component and the stop rule accept, are public API (they
//!    appear in checked-in spec files and experiment tables); this file
//!    pins the exact sets.
//! 2. **Serde round-trips** — every `ScenarioSpec`/`SweepSpec`, including
//!    the example spec files checked in under `examples/specs/`, survives
//!    JSON serialization losslessly.

use wireless_sync::prelude::*;
use wireless_sync::sync::json;
use wireless_sync::sync::registry;

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
fn catalogue_parameters_are_stable() {
    // Every key a component accepts; a component not listed accepts none.
    const TRAPDOOR_FAMILY: &[&str] = &["epoch_constant", "final_epoch_constant", "frequency_limit"];
    let accepted: &[(&str, &[&str])] = &[
        ("round-robin", TRAPDOOR_FAMILY),
        ("single-frequency", TRAPDOOR_FAMILY),
        ("trapdoor", TRAPDOOR_FAMILY),
        ("bursty", &["period", "burst_len"]),
        ("oblivious-random", &["t_actual"]),
        ("trace", &["max_rounds"]),
        ("capture", &["miss_rate"]),
        ("churn", &["churn_rate", "downtime"]),
        ("drop", &["drop_rate"]),
        ("partition", &["groups", "heal_at"]),
    ];
    let keys = |name: &str| -> &[&str] {
        accepted
            .iter()
            .find(|(listed, _)| *listed == name)
            .map_or(&[], |(_, keys)| keys)
    };

    // A "bogus" key makes a builder list the keys it accepts. Adversary
    // keys are all required, so they get a valid value.
    let with_bogus = |name: &str, required: &[&str]| {
        let mut component = ComponentSpec::named(name).with("bogus", 1u64);
        for key in required {
            component.params.set(*key, 2u64);
        }
        component
    };
    let base = || ScenarioSpec::new("trapdoor", 4, 8, 2);
    let mut specs = Vec::new();
    for name in registry::protocol_names() {
        let mut spec = base();
        spec.protocol = with_bogus(&name, &[]);
        specs.push((name, spec));
    }
    for name in registry::adversary_names() {
        let spec = base().with_adversary(with_bogus(&name, keys(&name)));
        specs.push((name, spec));
    }
    for name in registry::probe_names() {
        specs.push((name.clone(), base().with_probe(with_bogus(&name, &[]))));
    }
    for name in registry::fault_names() {
        specs.push((name.clone(), base().with_fault(with_bogus(&name, &[]))));
    }
    let mut component_params = 0;
    for (name, spec) in &specs {
        match Sim::from_spec(spec).err() {
            Some(SpecError::UnknownParam { param, allowed, .. }) if param == "bogus" => {
                assert_eq!(allowed, keys(name), "{name}");
            }
            other => panic!("{name}: expected UnknownParam for \"bogus\", got {other:?}"),
        }
        component_params += keys(name).len();
    }

    // The stop rule names its six keys the same way.
    let stop = json::parse(r#"{"metric": "sync_rate", "half_width": 0.1, "bogus": 1}"#).unwrap();
    let message = StoppingRule::from_value(&stop).unwrap_err().to_string();
    assert!(
        message
            .ends_with("accepted keys: metric, half_width, relative, min_seeds, max_seeds, batch"),
        "{message}"
    );

    // 19 component parameters plus the stop rule's 6 keys.
    assert_eq!(component_params + 6, 25);
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
    let spec = ScenarioSpec::new("trapdoor", 10, 16, 5)
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
        .with_protocol_param("frequency_limit", 4u64);
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
