//! Deterministic randomness for reproducible executions.
//!
//! Every execution of the simulator is a pure function of the
//! configuration and a single master seed. Each randomness consumer
//! (every node, the adversary, the activation schedule) gets its own
//! independent stream derived from the master seed and a stream identifier
//! via a SplitMix64 mix, so that adding or removing one consumer never
//! perturbs the random choices of the others.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A deterministic random number generator used throughout the simulator.
///
/// `SimRng` wraps [`rand::rngs::StdRng`] and therefore implements
/// [`RngCore`]; all the usual [`rand::Rng`] extension methods are available.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

/// Identifies an independent random stream derived from the master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamId {
    /// The stream for the node with the given index.
    Node(u32),
    /// The stream used by the adversary.
    Adversary,
    /// The stream used by the activation schedule.
    Activation,
    /// The stream used to draw unique identifiers for nodes.
    Identifiers,
    /// A caller-defined auxiliary stream.
    Custom(u64),
    /// The stream used by the fault layer with the given stack index.
    Fault(u32),
}

impl StreamId {
    fn tag(self) -> u64 {
        match self {
            StreamId::Node(i) => 0x1000_0000_0000_0000 | u64::from(i),
            StreamId::Adversary => 0x2000_0000_0000_0000,
            StreamId::Activation => 0x3000_0000_0000_0000,
            StreamId::Identifiers => 0x4000_0000_0000_0000,
            StreamId::Custom(c) => 0x5000_0000_0000_0000 ^ c,
            StreamId::Fault(i) => 0x6000_0000_0000_0000 | u64::from(i),
        }
    }
}

/// SplitMix64 finalizer; used to decorrelate derived seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SimRng {
    /// Creates a generator directly from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(splitmix64(seed)),
        }
    }

    /// Derives the generator for stream `stream` of the execution seeded by
    /// `master_seed`.
    pub fn derive(master_seed: u64, stream: StreamId) -> Self {
        let mixed = splitmix64(master_seed ^ splitmix64(stream.tag()));
        SimRng {
            inner: StdRng::seed_from_u64(mixed),
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream_is_deterministic() {
        let mut a = SimRng::derive(12345, StreamId::Node(7));
        let mut b = SimRng::derive(12345, StreamId::Node(7));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_are_decorrelated() {
        let mut a = SimRng::derive(12345, StreamId::Node(0));
        let mut b = SimRng::derive(12345, StreamId::Node(1));
        let mut c = SimRng::derive(12345, StreamId::Adversary);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_ne!(xs, ys);
        assert_ne!(xs, zs);
        assert_ne!(ys, zs);
    }

    #[test]
    fn different_master_seeds_differ() {
        let mut a = SimRng::derive(1, StreamId::Adversary);
        let mut b = SimRng::derive(2, StreamId::Adversary);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn gen_range_usable_through_rng_trait() {
        let mut rng = SimRng::from_seed(0);
        for _ in 0..100 {
            let x: u32 = rng.gen_range(1..=6);
            assert!((1..=6).contains(&x));
        }
        let p: f64 = rng.gen();
        assert!((0.0..1.0).contains(&p));
    }

    #[test]
    fn custom_streams_distinct() {
        let mut a = SimRng::derive(5, StreamId::Custom(1));
        let mut b = SimRng::derive(5, StreamId::Custom(2));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn splitmix_is_not_identity() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), 1);
        assert_ne!(splitmix64(0), splitmix64(1));
    }
}
