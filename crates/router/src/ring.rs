//! Consistent-hash ring over fleet members (`DESIGN.md` §11.1).
//!
//! Each member owns [`HashRing::DEFAULT_REPLICAS`] pseudo-random points
//! on a 64-bit ring; a job id routes to the member owning the first
//! point at or clockwise after the id's own ring position. Consistent
//! hashing gives fleet mode its rebalancing property: adding or
//! removing a member moves only the hash ranges adjacent to that
//! member's points — every other id keeps its owner (asserted by the
//! tests below). [`HashRing::candidates`] returns the full distinct
//! member order for an id, so a dead first choice fails over to the
//! next live member deterministically.
//!
//! Ring positions are the journal's FNV-1a digest ([`id_digest`]) passed
//! through a splitmix64-style finalizer: raw FNV-1a of short,
//! near-identical keys (`a#0` … `a#63`, `job-17`) clusters badly in
//! the high bits that dominate ring ordering — measured on 3 members ×
//! 64 replicas it gave one member a 3× keyspace share — while the
//! finalizer's avalanche spreads members to within ~20% of even.

use std::collections::BTreeMap;

use qpdo_core::journal::id_digest;

/// splitmix64's finalizer: full-avalanche mixing of a 64-bit value.
fn spread(digest: u64) -> u64 {
    let mut z = digest.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A job id's position on the ring.
fn ring_position(id: &str) -> u64 {
    spread(id_digest(id))
}

/// A consistent-hash ring mapping job ids to member names.
#[derive(Clone, Debug, Default)]
pub struct HashRing {
    replicas: usize,
    points: BTreeMap<u64, String>,
}

impl HashRing {
    /// Default virtual points per member: enough that three members
    /// split the keyspace within a few percent of evenly.
    pub const DEFAULT_REPLICAS: usize = 64;

    /// An empty ring with `replicas` virtual points per member.
    #[must_use]
    pub fn new(replicas: usize) -> Self {
        HashRing {
            replicas: replicas.max(1),
            points: BTreeMap::new(),
        }
    }

    /// Adds a member's points. Re-inserting an existing member is a
    /// no-op; a (vanishingly unlikely) 64-bit point collision with
    /// another member keeps the incumbent, so insertion is idempotent.
    pub fn insert(&mut self, name: &str) {
        for replica in 0..self.replicas {
            let point = ring_position(&format!("{name}#{replica}"));
            self.points.entry(point).or_insert_with(|| name.to_owned());
        }
    }

    /// Removes a member's points (only the points it owns).
    pub fn remove(&mut self, name: &str) {
        self.points.retain(|_, owner| owner != name);
    }

    /// Whether the ring has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The first member clockwise from the id's digest, if any.
    #[must_use]
    pub fn route(&self, id: &str) -> Option<&str> {
        let digest = ring_position(id);
        self.points
            .range(digest..)
            .chain(self.points.range(..digest))
            .map(|(_, owner)| owner.as_str())
            .next()
    }

    /// Every member in clockwise order from the id's digest, distinct,
    /// first entry the primary owner. The failover order: a dead
    /// primary's range falls to `candidates(id)[1]`, and so on.
    #[must_use]
    pub fn candidates(&self, id: &str) -> Vec<String> {
        let digest = ring_position(id);
        let mut order: Vec<String> = Vec::new();
        for (_, owner) in self
            .points
            .range(digest..)
            .chain(self.points.range(..digest))
        {
            if !order.iter().any(|seen| seen == owner) {
                order.push(owner.clone());
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("job-{i}")).collect()
    }

    fn owners(ring: &HashRing, keys: &[String]) -> Vec<String> {
        keys.iter()
            .map(|k| ring.route(k).expect("non-empty ring routes").to_owned())
            .collect()
    }

    #[test]
    fn single_member_owns_everything() {
        let mut ring = HashRing::new(HashRing::DEFAULT_REPLICAS);
        ring.insert("solo");
        for key in keys(50) {
            assert_eq!(ring.route(&key), Some("solo"));
            assert_eq!(ring.candidates(&key), vec!["solo".to_owned()]);
        }
    }

    #[test]
    fn routing_is_deterministic_and_spread() {
        let mut ring = HashRing::new(HashRing::DEFAULT_REPLICAS);
        for name in ["a", "b", "c"] {
            ring.insert(name);
        }
        let keys = keys(600);
        let first = owners(&ring, &keys);
        let second = owners(&ring, &keys);
        assert_eq!(first, second, "routing must be a pure function");
        for name in ["a", "b", "c"] {
            let share = first.iter().filter(|o| o.as_str() == name).count();
            assert!(
                share > 100,
                "member {name} owns only {share}/600 keys: the ring is badly skewed"
            );
        }
    }

    #[test]
    fn removal_moves_only_the_removed_members_ranges() {
        let mut ring = HashRing::new(HashRing::DEFAULT_REPLICAS);
        for name in ["a", "b", "c"] {
            ring.insert(name);
        }
        let keys = keys(600);
        let before = owners(&ring, &keys);
        ring.remove("b");
        let after = owners(&ring, &keys);
        for (key, (old, new)) in keys.iter().zip(before.iter().zip(after.iter())) {
            if old != "b" {
                assert_eq!(old, new, "{key} moved although its owner never left");
            } else {
                assert_ne!(new, "b", "{key} still routes to the removed member");
            }
        }
    }

    #[test]
    fn addition_moves_ranges_only_to_the_new_member() {
        let mut ring = HashRing::new(HashRing::DEFAULT_REPLICAS);
        for name in ["a", "b", "c"] {
            ring.insert(name);
        }
        let keys = keys(600);
        let before = owners(&ring, &keys);
        ring.insert("d");
        let after = owners(&ring, &keys);
        let mut moved = 0;
        for (key, (old, new)) in keys.iter().zip(before.iter().zip(after.iter())) {
            if old != new {
                assert_eq!(new, "d", "{key} moved to {new}, not the new member");
                moved += 1;
            }
        }
        assert!(moved > 0, "the new member took no range at all");
        assert!(
            moved < keys.len() / 2,
            "joining one member of four moved {moved}/600 keys"
        );
    }

    #[test]
    fn candidates_cover_all_members_distinctly() {
        let mut ring = HashRing::new(HashRing::DEFAULT_REPLICAS);
        for name in ["a", "b", "c"] {
            ring.insert(name);
        }
        for key in keys(50) {
            let order = ring.candidates(&key);
            assert_eq!(order.len(), 3, "{key} candidates: {order:?}");
            assert_eq!(order[0], ring.route(&key).unwrap());
            let mut sorted = order.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "{key} candidates repeat: {order:?}");
        }
    }

    #[test]
    fn rejoin_under_the_same_name_moves_nothing() {
        let mut ring = HashRing::new(HashRing::DEFAULT_REPLICAS);
        for name in ["a", "b", "c"] {
            ring.insert(name);
        }
        let keys = keys(200);
        let before = owners(&ring, &keys);
        // A member restarting on a new address rejoins under its name:
        // the ring is keyed by name, so nothing moves.
        ring.insert("b");
        assert_eq!(before, owners(&ring, &keys));
    }
}
