//! The "malcontent with a signal jammer in a café" scenario from the
//! paper's introduction: a Wi-Fi-sized band, an *adaptive* jammer that
//! targets whatever frequencies were busiest, and laptops that join over
//! time. Compares the Trapdoor Protocol against the wake-up-style and
//! single-frequency baselines under the worst jamming level the model
//! allows — all three protocols addressed by registry name over one shared
//! scenario spec.
//!
//! ```text
//! cargo run --release --example jammed_cafe
//! ```

use wireless_sync::prelude::*;

fn main() -> std::result::Result<(), SpecError> {
    // Roughly the 2.4 GHz band as 802.11 divides it.
    let num_frequencies = 12;
    // A determined jammer that can blanket almost half the band.
    let disruption_bound = 5;
    let num_devices = 10;

    let base = ScenarioSpec::new("trapdoor", num_devices, num_frequencies, disruption_bound)
        .with_adversary("adaptive-greedy")
        .with_activation(ActivationSchedule::UniformWindow { window: 60 })
        .with_max_rounds(100_000);

    println!("== Jammed café: adaptive jammer on a Wi-Fi-sized band ==");
    println!(
        "{} laptops, {} channels, adaptive jammer hitting {} channels per round\n",
        num_devices, num_frequencies, disruption_bound
    );

    let trapdoor = Sim::from_spec(&base)?.run_one(99);
    println!("Trapdoor Protocol:");
    describe(&trapdoor);

    // The same scenario, different protocol: swap the registry name.
    let wakeup_spec = ScenarioSpec {
        protocol: "wakeup".into(),
        ..base.clone()
    };
    let wakeup = Sim::from_spec(&wakeup_spec)?.run_one(99);
    println!("\nWake-up-style baseline (fixed deadline, whole band):");
    describe(&wakeup);

    let single_spec = ScenarioSpec {
        protocol: "single-frequency".into(),
        ..base.clone()
    };
    let single = Sim::from_spec(&single_spec)?.run_one(99);
    println!("\nSingle-frequency baseline (everything on channel 1):");
    describe(&single);

    println!(
        "\nThe single-frequency baseline either starves or splits into several\n\
         self-declared leaders as soon as the jammer notices channel 1; the paper's\n\
         protocol keeps a single consistent round numbering because contenders hop\n\
         over min(F, 2t) = {} channels and the jammer can only cover {} of them.",
        trapdoor_f_prime(&base),
        disruption_bound
    );
    Ok(())
}

fn trapdoor_f_prime(spec: &ScenarioSpec) -> u32 {
    wireless_sync::sync::trapdoor::TrapdoorConfig::new(
        spec.upper_bound(),
        spec.num_frequencies,
        spec.disruption_bound,
    )
    .f_prime()
}

fn describe(outcome: &SyncOutcome) {
    println!(
        "  synchronized everyone: {:5} | leaders: {} | safety violations: {} | completion round: {:?}",
        outcome.result.all_synchronized,
        outcome.leaders,
        outcome.properties.total_violations,
        outcome.completion_round()
    );
}
