//! Cluster topology: racks contain nodes, nodes host compute slots.

use std::cmp::Ordering;
use std::fmt;

/// A compute-slot identifier, dense in `0..ClusterSpec::total_slots()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(u32);

impl SlotId {
    /// Creates a slot id from a raw index.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub const fn new(raw: u32) -> Self {
        SlotId(raw)
    }

    /// The raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The index as `usize`, for slice addressing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot-{}", self.0)
    }
}

impl PartialOrd for SlotId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SlotId {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// A machine identifier, dense in `0..ClusterSpec::nodes()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

impl PartialOrd for NodeId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NodeId {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// A rack identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RackId(u32);

impl RackId {
    /// Creates a rack id from a raw index.
    pub const fn new(raw: u32) -> Self {
        RackId(raw)
    }

    /// The raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack-{}", self.0)
    }
}

impl PartialOrd for RackId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RackId {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// Error produced when a cluster specification is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// The cluster must contain at least one node.
    NoNodes,
    /// Every node must host at least one slot.
    NoSlotsPerNode,
    /// Racks must contain at least one node.
    NoNodesPerRack,
    /// The slot count (`nodes * slots_per_node`) must fit a `u32`.
    TooManySlots,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoNodes => write!(f, "cluster requires at least one node"),
            TopologyError::NoSlotsPerNode => write!(f, "nodes require at least one slot"),
            TopologyError::NoNodesPerRack => write!(f, "racks require at least one node"),
            TopologyError::TooManySlots => write!(f, "slot count overflows u32"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Heterogeneous slot sizing: every `large_every`-th slot has `large`
/// resource units, the rest have `small` (§III-C: frameworks like Tez run
/// tasks with differing resource demands across phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSizing {
    /// Size of ordinary slots (resource units).
    pub small: u32,
    /// Size of the large slots.
    pub large: u32,
    /// Every `large_every`-th slot (by index) is large; must be ≥ 1.
    pub large_every: u32,
}

/// An immutable description of a homogeneous (or §III-C heterogeneous)
/// cluster: `nodes` machines, each hosting `slots_per_node` compute
/// slots, grouped into racks of `nodes_per_rack` machines.
///
/// The paper's deployments map to `ClusterSpec::new(50, 2)` (EC2, two
/// Spark executors per m4.large) and `ClusterSpec::new(1000, 4)` (the
/// simulated 4000-slot cluster).
///
/// # Example
///
/// ```
/// use ssr_cluster::{ClusterSpec, SlotId};
///
/// let spec = ClusterSpec::with_racks(4, 2, 2)?;
/// assert_eq!(spec.total_slots(), 8);
/// assert_eq!(spec.racks(), 2);
/// let slot = SlotId::new(5);
/// let node = spec.node_of(slot);
/// assert_eq!(node.as_u32(), 2);
/// assert_eq!(spec.rack_of(node).as_u32(), 1);
///
/// // Heterogeneous: every 4th slot is large (4 units).
/// let het = ClusterSpec::new(4, 2)?.with_slot_sizing(1, 4, 4);
/// assert_eq!(het.slot_size(SlotId::new(0)), 4);
/// assert_eq!(het.slot_size(SlotId::new(1)), 1);
/// assert_eq!(het.max_slot_size(), 4);
/// # Ok::<(), ssr_cluster::TopologyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    nodes: u32,
    slots_per_node: u32,
    nodes_per_rack: u32,
    sizing: Option<SlotSizing>,
}

impl ClusterSpec {
    /// Creates a single-rack cluster of `nodes` machines with
    /// `slots_per_node` slots each.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if either argument is zero or the slot
    /// count overflows `u32`.
    pub fn new(nodes: u32, slots_per_node: u32) -> Result<Self, TopologyError> {
        ClusterSpec::with_racks(nodes, slots_per_node, nodes.max(1))
    }

    /// Creates a cluster grouped into racks of `nodes_per_rack` machines
    /// (the final rack may be partial).
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if any argument is zero or the slot
    /// count overflows `u32`.
    pub fn with_racks(
        nodes: u32,
        slots_per_node: u32,
        nodes_per_rack: u32,
    ) -> Result<Self, TopologyError> {
        if nodes == 0 {
            return Err(TopologyError::NoNodes);
        }
        if slots_per_node == 0 {
            return Err(TopologyError::NoSlotsPerNode);
        }
        if nodes_per_rack == 0 {
            return Err(TopologyError::NoNodesPerRack);
        }
        if nodes.checked_mul(slots_per_node).is_none() {
            return Err(TopologyError::TooManySlots);
        }
        Ok(ClusterSpec { nodes, slots_per_node, nodes_per_rack, sizing: None })
    }

    /// Makes the cluster heterogeneous (§III-C, Tez-style): every
    /// `large_every`-th slot has `large` resource units, the rest `small`.
    /// Tasks declare a demand ([`StageSpec::demand`]) and only fit slots
    /// of at least that size.
    ///
    /// [`StageSpec::demand`]: https://docs.rs/ssr-dag
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= small <= large` and `large_every >= 1`.
    pub fn with_slot_sizing(mut self, small: u32, large: u32, large_every: u32) -> Self {
        assert!(
            small >= 1 && large >= small && large_every >= 1,
            "slot sizing requires 1 <= small <= large and large_every >= 1"
        );
        self.sizing = Some(SlotSizing { small, large, large_every });
        self
    }

    /// The resource size of `slot` (1 for a homogeneous cluster).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range for this cluster.
    pub fn slot_size(&self, slot: SlotId) -> u32 {
        assert!(slot.as_u32() < self.total_slots(), "{slot} out of range");
        match self.sizing {
            Some(s) if slot.as_u32().is_multiple_of(s.large_every) => s.large,
            Some(s) => s.small,
            None => 1,
        }
    }

    /// The largest slot size in the cluster.
    pub fn max_slot_size(&self) -> u32 {
        match self.sizing {
            Some(s) => s.large,
            None => 1,
        }
    }

    /// Number of machines.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Slots hosted by each machine.
    pub fn slots_per_node(&self) -> u32 {
        self.slots_per_node
    }

    /// Machines per rack (the last rack may hold fewer).
    pub fn nodes_per_rack(&self) -> u32 {
        self.nodes_per_rack
    }

    /// Total compute slots in the cluster.
    pub fn total_slots(&self) -> u32 {
        self.nodes * self.slots_per_node
    }

    /// Number of racks (ceiling division).
    pub fn racks(&self) -> u32 {
        self.nodes.div_ceil(self.nodes_per_rack)
    }

    /// The machine hosting `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range for this cluster.
    pub fn node_of(&self, slot: SlotId) -> NodeId {
        assert!(slot.as_u32() < self.total_slots(), "{slot} out of range");
        NodeId::new(slot.as_u32() / self.slots_per_node)
    }

    /// The rack containing `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this cluster.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        assert!(node.as_u32() < self.nodes, "{node} out of range");
        RackId::new(node.as_u32() / self.nodes_per_rack)
    }

    /// The slots hosted by `node`, ascending: its contiguous id range.
    /// None for a node outside the cluster.
    pub fn slots_of(&self, node: NodeId) -> impl Iterator<Item = SlotId> {
        let ids = if node.as_u32() < self.nodes {
            let start = node.as_u32() * self.slots_per_node;
            start..start + self.slots_per_node
        } else {
            0..0
        };
        ids.map(SlotId::new)
    }

    /// Iterator over all slot ids.
    pub fn iter_slots(&self) -> impl Iterator<Item = SlotId> {
        (0..self.total_slots()).map(SlotId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert_eq!(ClusterSpec::new(0, 2), Err(TopologyError::NoNodes));
        assert_eq!(ClusterSpec::new(2, 0), Err(TopologyError::NoSlotsPerNode));
        assert_eq!(ClusterSpec::with_racks(2, 2, 0), Err(TopologyError::NoNodesPerRack));
        assert!(ClusterSpec::new(1, 1).is_ok());
    }

    #[test]
    fn slot_count_must_fit_u32() {
        assert_eq!(ClusterSpec::new(100_000, 100_000), Err(TopologyError::TooManySlots));
        assert_eq!(ClusterSpec::with_racks(1 << 16, 1 << 16, 4), Err(TopologyError::TooManySlots));
        let widest = ClusterSpec::new(1 << 16, (1 << 16) - 1).expect("fits u32");
        assert_eq!(widest.total_slots(), u32::MAX - (1 << 16) + 1);
    }

    #[test]
    fn slot_to_node_mapping() {
        let spec = ClusterSpec::new(3, 4).unwrap();
        assert_eq!(spec.total_slots(), 12);
        assert_eq!(spec.node_of(SlotId::new(0)), NodeId::new(0));
        assert_eq!(spec.node_of(SlotId::new(3)), NodeId::new(0));
        assert_eq!(spec.node_of(SlotId::new(4)), NodeId::new(1));
        assert_eq!(spec.node_of(SlotId::new(11)), NodeId::new(2));
    }

    #[test]
    fn node_to_rack_mapping() {
        let spec = ClusterSpec::with_racks(5, 1, 2).unwrap();
        assert_eq!(spec.racks(), 3);
        assert_eq!(spec.rack_of(NodeId::new(0)), RackId::new(0));
        assert_eq!(spec.rack_of(NodeId::new(1)), RackId::new(0));
        assert_eq!(spec.rack_of(NodeId::new(4)), RackId::new(2));
    }

    #[test]
    fn slots_of_node_round_trip() {
        let spec = ClusterSpec::new(4, 3).unwrap();
        for node in 0..4 {
            for slot in spec.slots_of(NodeId::new(node)) {
                assert_eq!(spec.node_of(slot), NodeId::new(node));
            }
        }
        assert_eq!(spec.iter_slots().count(), 12);
        assert_eq!(spec.slots_of(NodeId::new(4)).count(), 0, "past the cluster: no slots");
        assert_eq!(spec.slots_of(NodeId::new(u32::MAX)).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slot_panics() {
        ClusterSpec::new(1, 1).unwrap().node_of(SlotId::new(1));
    }

    #[test]
    fn single_rack_default() {
        let spec = ClusterSpec::new(50, 2).unwrap();
        assert_eq!(spec.racks(), 1);
        assert_eq!(spec.total_slots(), 100);
    }

    #[test]
    fn homogeneous_slots_have_unit_size() {
        let spec = ClusterSpec::new(2, 2).unwrap();
        for slot in spec.iter_slots() {
            assert_eq!(spec.slot_size(slot), 1);
        }
        assert_eq!(spec.max_slot_size(), 1);
    }

    #[test]
    fn heterogeneous_sizing_pattern() {
        let spec = ClusterSpec::new(2, 3).unwrap().with_slot_sizing(1, 4, 3);
        let sizes: Vec<u32> = spec.iter_slots().map(|s| spec.slot_size(s)).collect();
        assert_eq!(sizes, vec![4, 1, 1, 4, 1, 1]);
        assert_eq!(spec.max_slot_size(), 4);
    }

    #[test]
    #[should_panic(expected = "slot sizing requires")]
    fn invalid_sizing_panics() {
        let _ = ClusterSpec::new(1, 1).unwrap().with_slot_sizing(4, 2, 1);
    }

    #[test]
    fn displays() {
        assert_eq!(format!("{}", SlotId::new(3)), "slot-3");
        assert_eq!(format!("{}", NodeId::new(1)), "node-1");
        assert_eq!(format!("{}", RackId::new(0)), "rack-0");
        assert!(format!("{}", TopologyError::NoNodes).contains("node"));
    }
}
