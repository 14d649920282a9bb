//! The result store: one size-bounded map from a 64-bit key to the record
//! of an answered design point, behind which every sweep decides whether
//! a point has been answered before.
//!
//! A sweep files each answered, untruncated point under up to two keys
//! (see [`crate::sweep::SweepConfig::baseline`]):
//!
//! * the *inputs key* hashes the model, the [`hilp_core::config_key`], the
//!   workload, the constraints and the SoC, without encoding anything, so
//!   a repeated question costs one hash;
//! * the *instance key*, in memoizing HILP and Gables sweeps, hashes the
//!   same model, config key, workload and constraints with the point's
//!   [`hilp_core::ModeTable`] (labels excluded), from which every
//!   refinement level's instance is discretized, so distinct SoCs that
//!   present the solver with the same instances share one answer.
//!
//! Keys only hold within one store: each store hashes with keys of its
//! own, drawn at random, over derived `Debug` renderings, which no format
//! promises to keep stable, and over a table's key words.

use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::fmt::{self, Debug};
use std::hash::{BuildHasher, Hasher};
use std::sync::{Mutex, PoisonError};

use crate::sweep::PointRecord;

/// A size-bounded, thread-safe map from a key to the record of an
/// answered design point. Sweeps share one through
/// [`crate::sweep::SweepConfig::baseline`]; [`crate::evaluate_space_recorded`]
/// returns a fresh one.
///
/// Forgetting a record never changes a result, only what a later sweep
/// must recompute, so the bound is kept the simplest way: an insert that
/// would exceed [`ResultStore::CAPACITY`] empties the store first.
pub struct ResultStore {
    records: Mutex<HashMap<u64, PointRecord>>,
    /// Seeds every key filed here. Drawn at random per store, so that a
    /// client cannot craft two inputs whose keys collide and have one
    /// answered with the other's result.
    keys: RandomState,
}

impl ResultStore {
    /// The most keys a store holds (a few megabytes of records).
    pub const CAPACITY: usize = 1 << 16;

    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        ResultStore {
            records: Mutex::new(HashMap::new()),
            keys: RandomState::new(),
        }
    }

    /// Number of keys filed (a point answered once may hold two).
    #[must_use]
    pub fn len(&self) -> usize {
        self.records().len()
    }

    /// Whether nothing is filed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A fresh hash for keys into this store.
    pub(crate) fn key_hasher(&self) -> KeyHasher {
        KeyHasher(self.keys.build_hasher())
    }

    /// The record filed under `key`, if any.
    pub(crate) fn get(&self, key: u64) -> Option<PointRecord> {
        self.records().get(&key).cloned()
    }

    /// Files `record` under every key in `keys`. Two sweeps may race on a
    /// key; their records are identical (the pipeline is deterministic),
    /// so the last write wins.
    pub(crate) fn insert(&self, keys: impl IntoIterator<Item = u64>, record: &PointRecord) {
        let mut records = self.records();
        for key in keys {
            if records.len() >= Self::CAPACITY && !records.contains_key(&key) {
                records.clear();
            }
            records.insert(key, record.clone());
        }
    }

    /// The map. No code panics while holding the lock, and every insert
    /// leaves the map whole, so a poisoned lock is still a valid store.
    fn records(&self) -> std::sync::MutexGuard<'_, HashMap<u64, PointRecord>> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Default for ResultStore {
    fn default() -> Self {
        ResultStore::new()
    }
}

impl Debug for ResultStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultStore")
            .field("len", &self.len())
            .finish()
    }
}

/// A store's keyed hash over the derived `Debug` rendering of values,
/// written through [`fmt::Write`] so that hashing allocates nothing, and
/// over raw 64-bit words. Derived `Debug` prints every field, and prints
/// floats so that they round-trip exactly, so equal renderings mean equal
/// inputs. The hash reads renderings and words as one byte stream,
/// however `fmt` splits it.
#[derive(Debug, Clone)]
pub(crate) struct KeyHasher(DefaultHasher);

impl KeyHasher {
    /// Continues the hash with `value`'s rendering. Callers hash a tuple
    /// when they need several values, so that the rendering delimits them.
    pub(crate) fn eat(mut self, value: &impl Debug) -> Self {
        // `write_str` below never fails.
        let _ = fmt::Write::write_fmt(&mut self, format_args!("{value:?}"));
        self
    }

    /// Continues the hash with one raw word, for values that hash
    /// themselves word by word ([`hilp_core::ModeTable::key_words`]):
    /// formatting their floats would cost more than hashing their bits.
    pub(crate) fn word(&mut self, word: u64) {
        self.0.write_u64(word);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0.finish()
    }
}

impl fmt::Write for KeyHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}
