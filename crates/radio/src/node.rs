//! Node identities and activation information.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies one of the `N` potential participants of an execution.
///
/// The simulator indexes nodes `0..N`. Note that this identity is a
/// *simulation* handle: the protocols themselves do not learn it. Protocols
/// that need identifiers (the paper's timestamps use a `uid` drawn from
/// `[1..cN²]`) draw them at random when activated, exactly as the paper
/// prescribes (Section 6.1, footnote 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identity from its 0-based index.
    pub fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The 0-based index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Information handed to a protocol instance when its node is activated.
///
/// Per the model (Section 2), an activated node knows the bound `N` on the
/// number of participants, the number of frequencies `F`, and the disruption
/// bound `t` — but *not* the global round number, the actual number of
/// participants, or when other nodes were or will be activated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivationInfo {
    /// Upper bound `N ≥ n` on the number of participating nodes.
    pub upper_bound_n: u64,
    /// Number of available frequencies `F`.
    pub num_frequencies: u32,
    /// Known upper bound `t < F` on the number of frequencies the adversary
    /// can disrupt per round.
    pub disruption_bound: u32,
}

impl ActivationInfo {
    /// Creates activation information.
    pub fn new(upper_bound_n: u64, num_frequencies: u32, disruption_bound: u32) -> Self {
        ActivationInfo {
            upper_bound_n,
            num_frequencies,
            disruption_bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(5);
        assert_eq!(id.index(), 5);
        assert_eq!(format!("{id}"), "node5");
    }

    #[test]
    fn node_id_ordering() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(3), NodeId::new(3));
    }

    #[test]
    fn activation_info_fields() {
        let info = ActivationInfo::new(1024, 16, 4);
        assert_eq!(info.upper_bound_n, 1024);
        assert_eq!(info.num_frequencies, 16);
        assert_eq!(info.disruption_bound, 4);
    }
}
