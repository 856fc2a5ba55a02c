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

    // The stop rule names its five keys the same way.
    let stop = json::parse(r#"{"metric": "sync_rate", "half_width": 0.1, "bogus": 1}"#).unwrap();
    let message = StoppingRule::from_value(&stop).unwrap_err().to_string();
    assert!(
        message.ends_with("accepted keys: metric, half_width, relative, min_seeds, batch"),
        "{message}"
    );

    // 19 component parameters plus the stop rule's 5 keys.
    assert_eq!(component_params + 5, 24);
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

/// Every point of every checked-in spec file, as its store digest and the
/// seed range it may consume (`effective_seeds`; a bare scenario runs over
/// the CLI's smoke default, `0..2`). Recorded before the spec decoders
/// moved onto one field reader: a decoder change that alters what a file
/// means shifts a digest or a range here.
#[test]
fn example_specs_decode_to_pinned_digests_and_seed_ranges() {
    const PINNED: &[&str] = &[
        "adaptive_sweep.json [disruption_bound=4] 4f85afff54a5cf6d 0..64",
        "adaptive_sweep.json [disruption_bound=8] f0fa7bf47b6401f1 0..64",
        "adaptive_sweep.json [disruption_bound=12] 9494bbf83cd8da3c 0..64",
        "faulty_run.json [] 325e52e156484a35 0..2",
        "jamming_sweep.json [disruption_bound=0] 05449528891a1e99 0..8",
        "jamming_sweep.json [disruption_bound=4] 4f85afff54a5cf6d 0..8",
        "jamming_sweep.json [disruption_bound=8] f0fa7bf47b6401f1 0..8",
        "jamming_sweep.json [disruption_bound=12] 9494bbf83cd8da3c 0..8",
        "probed_run.json [] 8f910864828ee061 0..2",
        "quickstart.json [] bde71537cd836447 0..2",
        "resumable_sweep.json [disruption_bound=4, num_nodes=16] 4f85afff54a5cf6d 0..48",
        "resumable_sweep.json [disruption_bound=4, num_nodes=32] 4b2bd800ab28ff7f 0..48",
        "resumable_sweep.json [disruption_bound=8, num_nodes=16] f0fa7bf47b6401f1 0..48",
        "resumable_sweep.json [disruption_bound=8, num_nodes=32] 40310c295dd542ab 0..48",
        "resumable_sweep.json [disruption_bound=12, num_nodes=16] 9494bbf83cd8da3c 0..48",
        "resumable_sweep.json [disruption_bound=12, num_nodes=32] fba1e21a599ca61a 0..48",
        "samaritan_crossover.json [adversary.t_actual=1] 4ad8c55fce1b6235 0..6",
        "samaritan_crossover.json [adversary.t_actual=2] 00c03295af4aa0f0 0..6",
        "samaritan_crossover.json [adversary.t_actual=4] 87c6161f45994fb2 0..6",
        "samaritan_crossover.json [adversary.t_actual=8] 183de2292e2505f6 0..6",
    ];
    let mut paths: Vec<_> = std::fs::read_dir("examples/specs")
        .expect("examples/specs is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut decoded = Vec::new();
    for file in &paths {
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(file).unwrap();
        let sweep = wireless_sync::experiments::SpecFile::parse(&text)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .into_sweep(0..2);
        let seeds = sweep.effective_seeds().unwrap();
        for point in sweep.expand().unwrap() {
            decoded.push(format!(
                "{name} [{}] {:016x} {}..{}",
                point.label,
                wireless_sync::sync::store::spec_digest(&point.spec),
                seeds.start,
                seeds.end
            ));
        }
    }
    assert_eq!(decoded, PINNED, "\n{}", decoded.join("\n"));
}
