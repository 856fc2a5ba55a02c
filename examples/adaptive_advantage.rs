//! The Good Samaritan Protocol's adaptive advantage (Theorem 18): when the
//! network is provisioned for heavy interference (`t` large) but the actual
//! interference `t′` is small, the optimistic protocol finishes far sooner
//! than the worst-case Trapdoor Protocol. This example sweeps `t′` with a
//! declarative `SweepSpec` — the same machinery behind
//! `run_experiments --spec` — and prints both protocols' completion times
//! side by side.
//!
//! ```text
//! cargo run --release --example adaptive_advantage
//! ```

use wireless_sync::prelude::*;

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    let num_devices = 8;
    let num_frequencies = 16;
    let worst_case_t = 8;
    let seeds_per_point = 5u64;

    println!("== Adaptive advantage of the Good Samaritan Protocol ==");
    println!(
        "{} devices, F = {}, provisioned for t = {} disrupted channels; sweeping the\n\
         actual disruption t' with an oblivious jammer and simultaneous wake-up.\n",
        num_devices, num_frequencies, worst_case_t
    );
    println!(
        "{:>4}  {:>22}  {:>18}  {:>10}",
        "t'", "good samaritan (mean)", "trapdoor (mean)", "GS wins?"
    );

    // The same t' sweep, once per protocol.
    let sweep = |protocol: &str| {
        let base = ScenarioSpec::new(protocol, num_devices, num_frequencies, worst_case_t)
            .with_adversary(ComponentSpec::named("oblivious-random").with("t_actual", 1u64))
            .with_activation(ActivationSchedule::Simultaneous);
        SweepSpec::new(base, 0..seeds_per_point).with_axis(
            "adversary.t_actual",
            vec![1u64.into(), 2u64.into(), 4u64.into(), 8u64.into()],
        )
    };
    let runner = SweepRunner::new();
    let good_samaritan = runner.run(&sweep("good-samaritan"))?;
    let trapdoor = runner.run(&sweep("trapdoor"))?;

    for (gs, td) in good_samaritan.points.iter().zip(&trapdoor.points) {
        let gs_mean = gs.stats.completion_rounds.mean;
        let td_mean = td.stats.completion_rounds.mean;
        let t_actual = gs
            .label
            .strip_prefix("adversary.t_actual=")
            .unwrap_or(&gs.label);
        println!(
            "{:>4}  {:>22.1}  {:>18.1}  {:>10}",
            t_actual,
            gs_mean,
            td_mean,
            if gs_mean < td_mean { "yes" } else { "no" }
        );
    }

    println!(
        "\nThe Good Samaritan Protocol's completion time tracks the *actual* interference\n\
         level (O(t'·log³N)), while the Trapdoor Protocol always pays for the worst case\n\
         it was configured for (O(F/(F−t)·log²N + Ft/(F−t)·logN))."
    );
    Ok(())
}
