//! Match-action tables with capacity and memory accounting.
//!
//! The prototype's lookups (stream index, meeting/egress configuration,
//! feedback filters) are exact-match tables whose indices the control
//! plane manages collision-free (§6.2: "the control plane provides a
//! unique, collision-free hash-based index for each new stream … allowing
//! up to 65,536 concurrent streams"). The model therefore provides an
//! exact table with a hard capacity, entry-size accounting for the
//! Table 3 SRAM report, and install/delete semantics that reject
//! over-subscription instead of silently degrading.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// A table's write version. Every table write anywhere in the process
/// draws a fresh one from one counter ([`WriteVersion::next`]), so no two
/// writes share a version: equal versions mean equal contents, even
/// across a table cloned, or swapped in whole through a `pub` field. A
/// clone keeps its original's version, which is right — it holds the
/// same entries until one of the two is written. The data plane's flow
/// table (`crate::flows`) is valid while the PRE's and the egress
/// table's versions stand still.
///
/// The number is the process's draw order, not table state, so `Debug`
/// does not show it: two tables built by the same history print alike.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct WriteVersion(u64);

impl WriteVersion {
    /// A version no table has had.
    pub(crate) fn next() -> WriteVersion {
        // `Relaxed`: a version publishes no other data, and uniqueness
        // needs only the increment to be atomic. 0 is never drawn.
        static NEXT: AtomicU64 = AtomicU64::new(1);
        WriteVersion(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl std::fmt::Debug for WriteVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("WriteVersion").finish_non_exhaustive()
    }
}

/// The one hasher under the per-packet maps ([`ExactTable`] and the PRE's
/// groups and L2 XID sets): rotate, xor, multiply by 2⁶⁴/φ per word — a
/// few cycles where `std`'s SipHash-1-3 costs tens, and fixed, so a map's
/// iteration order depends on its history alone, not on the process.
///
/// HashDoS does not apply: every *inserted* key is an id the switch
/// agent allocates lowest-first (ports, MGIDs, RIDs, XIDs), so no outside
/// party chooses what a bucket holds; wire-supplied values (`dst.port`)
/// only ever *probe*, and a probe costs the same whatever it collides
/// with. Do not use it for a map whose keys arrive from the wire.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

/// A `HashMap` under [`IdHasher`] (`IdMap::default()` builds one).
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.mix(u64::from(b)));
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// Error installing a table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// The table is at capacity.
    Full,
    /// The key is already present (the control plane must delete first).
    Duplicate,
}

/// An exact-match match-action table.
#[derive(Debug, Clone)]
pub struct ExactTable<K, V> {
    name: &'static str,
    capacity: usize,
    entry_bits: usize,
    map: IdMap<K, V>,
    /// Redrawn by every call to a mutator.
    version: WriteVersion,
    /// Lookup counters (hit/miss), exported for utilization reports.
    pub hits: u64,
    /// Miss counter.
    pub misses: u64,
}

impl<K: Eq + Hash + Clone, V> ExactTable<K, V> {
    /// Create a table. `entry_bits` is the SRAM footprint of one entry
    /// (key + action data), used by the resource report.
    pub fn new(name: &'static str, capacity: usize, entry_bits: usize) -> Self {
        ExactTable {
            name,
            capacity,
            entry_bits,
            map: IdMap::default(),
            version: WriteVersion::next(),
            hits: 0,
            misses: 0,
        }
    }

    /// Write version: changes with every call to a mutator (`insert`,
    /// `upsert`, `remove`, `get_mut`, `clear`), whether or not it changed
    /// an entry.
    pub(crate) fn version(&self) -> WriteVersion {
        self.version
    }

    /// Table name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Occupancy in `[0,1]`.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.map.len() as f64 / self.capacity as f64
        }
    }

    /// SRAM bits consumed by installed entries.
    pub fn sram_bits_used(&self) -> usize {
        self.map.len() * self.entry_bits
    }

    /// SRAM bits provisioned (capacity × entry size).
    pub fn sram_bits_provisioned(&self) -> usize {
        self.capacity * self.entry_bits
    }

    /// Install an entry. Fails on duplicate key or full table.
    pub fn insert(&mut self, key: K, value: V) -> Result<(), TableError> {
        self.version = WriteVersion::next();
        let full = self.map.len() >= self.capacity;
        match self.map.entry(key) {
            Entry::Occupied(_) => Err(TableError::Duplicate),
            Entry::Vacant(_) if full => Err(TableError::Full),
            Entry::Vacant(slot) => {
                slot.insert(value);
                Ok(())
            }
        }
    }

    /// Replace-or-install (control-plane modify). Below capacity every
    /// write fits, so the key is hashed once; only a full table has to
    /// tell a new key from an existing one.
    pub fn upsert(&mut self, key: K, value: V) -> Result<(), TableError> {
        self.version = WriteVersion::next();
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            return Err(TableError::Full);
        }
        self.map.insert(key, value);
        Ok(())
    }

    /// Remove an entry, returning it.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.version = WriteVersion::next();
        self.map.remove(key)
    }

    /// Data-plane lookup (counts hit/miss).
    pub fn lookup(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key) {
            Some(v) => {
                self.hits += 1;
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Mutable lookup without counting (control-plane access).
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.version = WriteVersion::next();
        self.map.get_mut(key)
    }

    /// Read-only lookup without counting (control-plane access).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// Iterate entries (control-plane sweep).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter()
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.version = WriteVersion::next();
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_enforced() {
        let mut t: ExactTable<u16, u32> = ExactTable::new("t", 2, 64);
        t.insert(1, 10).unwrap();
        t.insert(2, 20).unwrap();
        assert_eq!(t.insert(3, 30), Err(TableError::Full));
        assert_eq!(t.len(), 2);
        assert_eq!(t.occupancy(), 1.0);
    }

    #[test]
    fn duplicate_rejected_upsert_allowed() {
        let mut t: ExactTable<u16, u32> = ExactTable::new("t", 4, 64);
        t.insert(1, 10).unwrap();
        assert_eq!(t.insert(1, 11), Err(TableError::Duplicate));
        t.upsert(1, 11).unwrap();
        assert_eq!(t.peek(&1), Some(&11));
    }

    #[test]
    fn upsert_respects_capacity_for_new_keys() {
        let mut t: ExactTable<u16, u32> = ExactTable::new("t", 1, 64);
        t.upsert(1, 10).unwrap();
        assert_eq!(t.upsert(2, 20), Err(TableError::Full));
        t.upsert(1, 99).unwrap(); // existing key always fine
    }

    #[test]
    fn lookup_counts() {
        let mut t: ExactTable<u16, u32> = ExactTable::new("t", 4, 64);
        t.insert(1, 10).unwrap();
        assert_eq!(t.lookup(&1), Some(&10));
        assert_eq!(t.lookup(&9), None);
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 1);
    }

    #[test]
    fn sram_accounting() {
        let mut t: ExactTable<u16, u32> = ExactTable::new("t", 100, 128);
        for k in 0..10 {
            t.insert(k, 0).unwrap();
        }
        assert_eq!(t.sram_bits_used(), 1280);
        assert_eq!(t.sram_bits_provisioned(), 12_800);
        t.remove(&0);
        assert_eq!(t.sram_bits_used(), 1152);
    }

    fn hash_u16(k: u16) -> u64 {
        let mut h = IdHasher::default();
        k.hash(&mut h);
        h.finish()
    }

    /// Ids are allocated lowest-first, so consecutive keys are the load
    /// the hasher must spread over hashbrown's two views of a hash: the
    /// low bits pick the bucket, the top seven are the control byte. One
    /// `u16` is one odd multiply, which permutes the low bits exactly;
    /// the bounds leave room for a different mix, not for a weak one.
    #[test]
    fn hasher_spreads_lowest_first_ids() {
        let all: std::collections::HashSet<u64> = (0..=u16::MAX).map(hash_u16).collect();
        assert_eq!(all.len(), 65_536, "no two u16 keys share a hash");
        for base in [0u16, 10_000, 0xF000] {
            let mut buckets = [0u8; 4096];
            let mut control = std::collections::HashSet::new();
            for k in base..=base + 4095 {
                let h = hash_u16(k);
                buckets[(h & 0xFFF) as usize] += 1;
                control.insert(h >> 57);
            }
            assert!(buckets.iter().all(|&n| n <= 4), "bucket pile-up at {base}");
            assert!(control.len() >= 64, "{} control bytes", control.len());
        }
    }

    /// The hasher is fixed, so iteration order is a function of the
    /// table's history, not of the process.
    #[test]
    fn same_history_iterates_in_the_same_order() {
        let build = || {
            let mut t: ExactTable<u16, u32> = ExactTable::new("t", 4096, 64);
            for k in 0..3000u16 {
                t.insert(k.wrapping_mul(7), u32::from(k)).unwrap();
            }
            for k in (0..3000u16).step_by(3) {
                t.remove(&k.wrapping_mul(7));
            }
            for k in 0..500u16 {
                t.upsert(40_000 + k, 0).unwrap();
            }
            t
        };
        let (a, b) = (build(), build());
        assert!(a.iter().eq(b.iter()));
        assert_eq!(a.len(), 2500);
    }

    #[test]
    fn clear_empties() {
        let mut t: ExactTable<u16, u32> = ExactTable::new("t", 4, 1);
        t.insert(1, 1).unwrap();
        t.clear();
        assert!(t.is_empty());
        t.insert(1, 1).unwrap();
    }
}
