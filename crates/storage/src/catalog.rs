//! The root catalog: named root records with a name index.
//!
//! A [`crate::StoreFile`] and every [`crate::Generation`] hold their
//! roots in one [`Catalog`]. The entries keep insertion order — the
//! serialization order, and what [`Catalog::entries`] returns. Beside
//! them sits a name index: the entry slots sorted by name, 4 bytes per
//! distinct name, searched by binary search. It is deterministic (no
//! hashing). A catalog assembled from a plain entry list (decode,
//! compaction) builds it at once; a catalog filled by pushes builds it
//! at its first lookup, so filling costs O(n) and not n index shifts.
//! From then on pushes and [`Catalog::append`] keep it current. An
//! append batch looks its k roots up with [`Catalog::slot_from`], a
//! finger search that gallops forward from the previous hit: the
//! ingestion front end seals batches in name order, so a batch costs
//! O(k log(n/k)) comparisons near the last hit rather than k cold
//! binary searches over n entries.
//!
//! A name may occur more than once in the entry list (the file format
//! does not forbid it). The **first occurrence wins**: only the lowest
//! slot of each name is indexed, which is the entry a front-to-back
//! scan of the list would find.
//!
//! The file format caps a catalog at `u32::MAX` entries (the entry
//! count is a `u32`); slots past that cap could never be serialized and
//! are not indexed.

use crate::checked::idx_usize;
use crate::store_file::RootRecord;
use std::cmp::Ordering;
use std::sync::OnceLock;

/// Named root records in insertion order plus a name index (see the
/// module docs).
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    entries: Vec<(String, RootRecord)>,
    /// Slots into `entries`, sorted by name; one per distinct name, the
    /// first occurrence. Unset only while nothing has looked a name up
    /// since the entries were last pushed without it.
    by_name: OnceLock<Vec<u32>>,
}

/// Catalogs are equal when their entries are: the index is derived.
impl PartialEq for Catalog {
    fn eq(&self, other: &Catalog) -> bool {
        self.entries == other.entries
    }
}

impl Catalog {
    /// An empty catalog.
    #[must_use]
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Index an entry list, keeping its order. O(n log n).
    #[must_use]
    pub fn from_entries(entries: Vec<(String, RootRecord)>) -> Catalog {
        let by_name = OnceLock::from(index_of(&entries));
        Catalog { entries, by_name }
    }

    /// The entries, in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[(String, RootRecord)] {
        &self.entries
    }

    /// Number of entries (duplicates included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether some name occurs in more than one entry. O(1) once the
    /// name index is built.
    #[must_use]
    pub fn has_duplicates(&self) -> bool {
        self.index().len() < self.entries.len()
    }

    /// Whether the catalog has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The slot of the first entry named `name`. O(log n).
    #[must_use]
    pub fn slot(&self, name: &str) -> Option<usize> {
        let at = self.locate(name).ok()?;
        self.index().get(at).map(|&slot| idx_usize(slot))
    }

    /// [`Catalog::slot`] for a run of lookups in ascending name order:
    /// `finger` carries the previous lookup's place in the name index,
    /// and a name at or after the previous one is found by a forward
    /// gallop from there — O(log d) for a name d index positions on, so
    /// k sorted names cost O(k log(n/k)) and touch the index near where
    /// the last search left it. A name that sorts before the previous
    /// one falls back to a full binary search. Start a run with
    /// [`Finger::default`]; any order of names gives the same answers as
    /// [`Catalog::slot`].
    #[must_use]
    pub fn slot_from<'n>(&self, name: &'n str, finger: &mut Finger<'n>) -> Option<usize> {
        let found = if name >= finger.name {
            self.gallop(name, finger.at)
        } else {
            self.locate(name)
        };
        let (Ok(at) | Err(at)) = found;
        *finger = Finger { name, at };
        let at = found.ok()?;
        self.index().get(at).map(|&slot| idx_usize(slot))
    }

    /// The root record of the first entry named `name`. O(log n).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&RootRecord> {
        self.root_at(self.slot(name)?)
    }

    /// The root record at `slot`.
    #[must_use]
    pub fn root_at(&self, slot: usize) -> Option<&RootRecord> {
        self.entries.get(slot).map(|(_, root)| root)
    }

    /// Replace the root record at `slot`, keeping its name, and return
    /// the old one (`None`, and nothing changed, when `slot` is out of
    /// range).
    pub fn replace_root(&mut self, slot: usize, root: RootRecord) -> Option<RootRecord> {
        self.entries
            .get_mut(slot)
            .map(|entry| std::mem::replace(&mut entry.1, root))
    }

    /// Append an entry. A name already present stays resolved to its
    /// first occurrence. A built index takes a new name by an O(n) shift
    /// of 4-byte slots (batch many new names with [`Catalog::append`]);
    /// an unbuilt one stays unbuilt until the next lookup.
    pub fn push(&mut self, name: impl Into<String>, root: RootRecord) {
        let name = name.into();
        if self.by_name.get().is_some() {
            if let (Err(at), Ok(slot)) = (self.locate(&name), u32::try_from(self.entries.len())) {
                if let Some(index) = self.by_name.get_mut() {
                    index.insert(at, slot);
                }
            }
        }
        self.entries.push((name, root));
    }

    /// Append every entry of `other` after this catalog's entries, in
    /// `other`'s order, merging the two indexes in one O(n + m) pass.
    /// A name present in both stays resolved to this catalog's entry.
    pub fn append(&mut self, other: Catalog) {
        if other.is_empty() {
            return;
        }
        let base = self.entries.len();
        let Some(index) = self.by_name.get_mut() else {
            // Unbuilt: the next lookup indexes everything at once.
            self.entries.extend(other.entries);
            return;
        };
        let ours = std::mem::take(index);
        let theirs = other.index().to_vec();
        self.entries.extend(other.entries);
        let mut merged = Vec::with_capacity(ours.len() + theirs.len());
        let mut theirs = theirs
            .into_iter()
            .filter_map(|slot| u32::try_from(base.checked_add(idx_usize(slot))?).ok())
            .peekable();
        for slot in ours {
            while let Some(&next) = theirs.peek() {
                match self.name_at(next).cmp(self.name_at(slot)) {
                    Ordering::Less => merged.push(next),
                    Ordering::Equal => {}
                    Ordering::Greater => break,
                }
                theirs.next();
            }
            merged.push(slot);
        }
        merged.extend(theirs);
        self.by_name = OnceLock::from(merged);
    }

    /// The name index, built on first use.
    fn index(&self) -> &[u32] {
        self.by_name.get_or_init(|| index_of(&self.entries))
    }

    /// Binary search of the name index: `Ok(position)` of `name`, or
    /// `Err(position)` where it would be inserted.
    fn locate(&self, name: &str) -> Result<usize, usize> {
        self.index()
            .binary_search_by(|&slot| self.name_at(slot).cmp(name))
    }

    /// [`Catalog::locate`] for a `name` that sorts after every indexed
    /// name before position `from`: probe `from`, `from + 1`, `from + 3`,
    /// … until a name at or after `name`, then binary-search the last
    /// stride.
    fn gallop(&self, name: &str, from: usize) -> Result<usize, usize> {
        let index = self.index();
        let (mut lo, mut step) = (from.min(index.len()), 1usize);
        // Every indexed name before `lo` sorts below `name`.
        let hi = loop {
            let probe = lo.saturating_add(step - 1);
            match index.get(probe) {
                Some(&slot) if self.name_at(slot) < name => {
                    lo = probe + 1;
                    step = step.saturating_mul(2);
                }
                Some(_) => break probe + 1,
                None => break index.len(),
            }
        };
        let stride = index.get(lo..hi).unwrap_or_default();
        match stride.binary_search_by(|&slot| self.name_at(slot).cmp(name)) {
            Ok(i) => Ok(lo + i),
            Err(i) => Err(lo + i),
        }
    }

    /// The name at an indexed slot (every indexed slot is in range).
    fn name_at(&self, slot: u32) -> &str {
        self.entries
            .get(idx_usize(slot))
            .map_or("", |(name, _)| name.as_str())
    }
}

/// Where the previous lookup of a [`Catalog::slot_from`] run landed: its
/// name and its position in the name index. Every indexed name before
/// that position sorts below the name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Finger<'n> {
    name: &'n str,
    at: usize,
}

/// The name index of an entry list: slots sorted by name, the first
/// occurrence of each name only. O(n log n).
fn index_of(entries: &[(String, RootRecord)]) -> Vec<u32> {
    let mut order: Vec<(&str, u32)> = entries
        .iter()
        .zip(0..=u32::MAX)
        .map(|((name, _), slot)| (name.as_str(), slot))
        .collect();
    // Equal names sort by slot, so keeping the first of each run keeps
    // the first occurrence.
    order.sort_unstable();
    order.dedup_by(|later, first| later.0 == first.0);
    order.into_iter().map(|(_, slot)| slot).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbarray::{Placement, SavedArray};
    use crate::mapping_store::StoredMapping;

    fn root(n: u32) -> RootRecord {
        RootRecord::MPoint(StoredMapping {
            num_units: n,
            units: SavedArray {
                count: 0,
                placement: Placement::Inline(Vec::new()),
            },
        })
    }

    fn first(entries: &[(String, RootRecord)], name: &str) -> Option<usize> {
        entries.iter().position(|(entry, _)| entry == name)
    }

    fn entries(names: &[&str], from: u32) -> Vec<(String, RootRecord)> {
        names
            .iter()
            .zip(from..)
            .map(|(n, i)| ((*n).to_string(), root(i)))
            .collect()
    }

    /// The carried index equals one built from scratch, and every
    /// lookup agrees with a front-to-back scan.
    fn assert_consistent(cat: &Catalog) {
        assert_eq!(cat.index(), index_of(cat.entries()).as_slice());
        for n in ["a", "b", "c", "d", "e", "z"] {
            assert_eq!(cat.slot(n), first(cat.entries(), n), "{n}");
        }
    }

    #[test]
    fn first_occurrence_wins_on_build_push_and_append() {
        let names = ["b", "a", "b", "c", "a"];
        let built = Catalog::from_entries(entries(&names, 0));
        assert_consistent(&built);
        assert_eq!(built.get("b"), Some(&root(0)));

        // Pushes into an unbuilt index, and into one a lookup built
        // half-way through.
        let mut lazy = Catalog::new();
        let mut eager = Catalog::new();
        for (i, n) in names.iter().enumerate() {
            lazy.push(*n, root(0));
            eager.push(*n, root(0));
            if i == 1 {
                assert_eq!(eager.slot("a"), Some(1));
            }
        }
        assert_consistent(&lazy);
        assert_consistent(&eager);

        // Appends: built into built, unbuilt into built, and anything
        // into unbuilt.
        let right = ["d", "a", "a", "e"];
        let mut left = Catalog::from_entries(entries(&["b", "d"], 0));
        left.append(Catalog::from_entries(entries(&right, 2)));
        assert_consistent(&left);
        assert_eq!(left.get("d"), Some(&root(1)));
        assert_eq!(left.get("a"), Some(&root(3)));
        let mut left = Catalog::from_entries(entries(&["b", "d"], 0));
        let mut pushed = Catalog::new();
        for (n, i) in right.iter().zip(2..) {
            pushed.push(*n, root(i));
        }
        left.append(pushed);
        assert_consistent(&left);
        let mut unbuilt = Catalog::new();
        unbuilt.push("d", root(0));
        unbuilt.append(Catalog::from_entries(entries(&right, 1)));
        assert_consistent(&unbuilt);
    }

    #[test]
    fn replace_root_keeps_the_name_and_rejects_bad_slots() {
        let mut cat = Catalog::from_entries(vec![("x".into(), root(0))]);
        assert_eq!(cat.replace_root(0, root(7)), Some(root(0)));
        assert_eq!(cat.replace_root(1, root(8)), None);
        assert_eq!(cat.get("x"), Some(&root(7)));
        assert_eq!(cat.len(), 1);
    }
}
