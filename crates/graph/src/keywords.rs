//! Keyword sets attached to vertices and query keyword sets.
//!
//! In the paper every user `v_i` is associated with a keyword set `v_i.W`
//! (topics the user is interested in, e.g. `{Movies, Books}`) and every query
//! carries a keyword set `Q`. Seed communities require each member to share
//! at least one keyword with `Q` (Definition 2, fourth bullet).
//!
//! Keywords are interned as small integer ids ([`Keyword`]) drawn from a
//! keyword domain `Σ` so that set intersection and the hashed
//! [`crate::BitVector`] signatures are cheap.

use serde::Serialize;
use std::collections::BTreeSet;
use std::fmt;

/// A keyword drawn from the keyword domain `Σ`, interned as a dense integer.
///
/// The benchmark generators use `Σ = {0, 1, ..., |Σ|-1}`; applications that
/// have human-readable topics can keep their own `String → Keyword` mapping
/// (see [`KeywordInterner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Keyword(pub u32);

impl Keyword {
    /// Returns the keyword as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kw{}", self.0)
    }
}

impl From<u32> for Keyword {
    fn from(k: u32) -> Self {
        Keyword(k)
    }
}

/// A sorted, duplicate-free set of keywords (`v_i.W` or the query set `Q`).
///
/// Stored as a sorted `Vec` because vertex keyword sets are tiny (the paper
/// uses 1–5 keywords per vertex) and queries use 2–10 keywords; linear scans
/// beat hash sets at this size and the sorted order gives deterministic
/// serialisation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct KeywordSet {
    keywords: Vec<Keyword>,
}

impl KeywordSet {
    /// Creates an empty keyword set.
    pub fn new() -> Self {
        KeywordSet {
            keywords: Vec::new(),
        }
    }

    /// Creates a keyword set from raw `u32` keyword ids.
    pub fn from_ids<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Self::from_iter(iter.into_iter().map(Keyword))
    }

    /// Creates a keyword set from ids expected to be **strictly increasing**
    /// (the order this crate serialises sets in): O(n) with a single
    /// allocation on that fast path, falling back to the sorting/deduping
    /// constructor when the input is not sorted. The snapshot loader decodes
    /// every vertex's set through this.
    pub fn from_sorted_ids<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let keywords: Vec<Keyword> = iter.into_iter().map(Keyword).collect();
        if keywords.windows(2).all(|w| w[0] < w[1]) {
            KeywordSet { keywords }
        } else {
            Self::from_iter(keywords)
        }
    }

    /// Inserts a keyword, keeping the set sorted; returns `true` if it was
    /// newly added.
    pub fn insert(&mut self, kw: Keyword) -> bool {
        match self.keywords.binary_search(&kw) {
            Ok(_) => false,
            Err(pos) => {
                self.keywords.insert(pos, kw);
                true
            }
        }
    }

    /// Returns `true` if the set contains `kw`.
    pub fn contains(&self, kw: Keyword) -> bool {
        self.keywords.binary_search(&kw).is_ok()
    }

    /// Number of keywords in the set.
    pub fn len(&self) -> usize {
        self.keywords.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }

    /// Iterates over the keywords in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Keyword> + '_ {
        self.keywords.iter().copied()
    }

    /// Returns the keywords as a slice.
    pub fn as_slice(&self) -> &[Keyword] {
        &self.keywords
    }

    /// Returns `true` if this set shares at least one keyword with `other`
    /// (the `v_i.W ∩ Q ≠ ∅` test from Definition 2).
    ///
    /// Both sets are sorted, so this is a linear merge.
    pub fn intersects(&self, other: &KeywordSet) -> bool {
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.keywords.len() && j < other.keywords.len() {
            match self.keywords[i].cmp(&other.keywords[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Returns the number of common keywords between the two sets.
    pub fn intersection_size(&self, other: &KeywordSet) -> usize {
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < self.keywords.len() && j < other.keywords.len() {
            match self.keywords[i].cmp(&other.keywords[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Returns the union of two keyword sets.
    pub fn union(&self, other: &KeywordSet) -> KeywordSet {
        KeywordSet::from_iter(self.iter().chain(other.iter()))
    }
}

/// Collects keywords into a set, deduplicating and sorting.
impl FromIterator<Keyword> for KeywordSet {
    fn from_iter<T: IntoIterator<Item = Keyword>>(iter: T) -> Self {
        let set: BTreeSet<Keyword> = iter.into_iter().collect();
        KeywordSet {
            keywords: set.into_iter().collect(),
        }
    }
}

impl fmt::Display for KeywordSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, kw) in self.keywords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{kw}")?;
        }
        write!(f, "}}")
    }
}

/// Maps human-readable keyword strings to interned [`Keyword`] ids.
///
/// Useful for applications (and the examples) that want to speak in topics
/// like `"movies"` while the engine works on dense ids.
#[derive(Debug, Default, Clone, Serialize)]
pub struct KeywordInterner {
    names: Vec<String>,
}

impl KeywordInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its keyword id (existing id if already
    /// interned).
    pub fn intern(&mut self, name: &str) -> Keyword {
        if let Some(pos) = self.names.iter().position(|n| n == name) {
            Keyword(pos as u32)
        } else {
            self.names.push(name.to_string());
            Keyword((self.names.len() - 1) as u32)
        }
    }

    /// Looks up an already-interned keyword by name.
    pub fn get(&self, name: &str) -> Option<Keyword> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|p| Keyword(p as u32))
    }

    /// Returns the name for a keyword id, if known.
    pub fn name(&self, kw: Keyword) -> Option<&str> {
        self.names.get(kw.index()).map(|s| s.as_str())
    }

    /// Number of interned keywords (the realised domain size `|Σ|`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no keyword has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Interns every name in the iterator and returns the resulting set.
    pub fn intern_set<'a, I: IntoIterator<Item = &'a str>>(&mut self, names: I) -> KeywordSet {
        KeywordSet::from_iter(names.into_iter().map(|n| self.intern(n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_ids_dedups_and_sorts() {
        let s = KeywordSet::from_ids([5, 1, 3, 1, 5]);
        assert_eq!(s.len(), 3);
        let collected: Vec<u32> = s.iter().map(|k| k.0).collect();
        assert_eq!(collected, vec![1, 3, 5]);
    }

    #[test]
    fn insert_and_contains() {
        let mut s = KeywordSet::new();
        assert!(s.is_empty());
        assert!(s.insert(Keyword(4)));
        assert!(!s.insert(Keyword(4)));
        assert!(s.insert(Keyword(2)));
        assert!(s.contains(Keyword(2)));
        assert!(s.contains(Keyword(4)));
        assert!(!s.contains(Keyword(3)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn intersects_detects_common_keyword() {
        let a = KeywordSet::from_ids([1, 2, 3]);
        let b = KeywordSet::from_ids([3, 4, 5]);
        let c = KeywordSet::from_ids([6, 7]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(!c.intersects(&a));
        assert!(!a.intersects(&KeywordSet::new()));
    }

    #[test]
    fn intersection_size_counts_common() {
        let a = KeywordSet::from_ids([1, 2, 3, 8]);
        let b = KeywordSet::from_ids([2, 3, 9]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(b.intersection_size(&a), 2);
        assert_eq!(a.intersection_size(&KeywordSet::new()), 0);
    }

    #[test]
    fn union_merges_sets() {
        let a = KeywordSet::from_ids([1, 2]);
        let b = KeywordSet::from_ids([2, 3]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert!(u.contains(Keyword(1)) && u.contains(Keyword(2)) && u.contains(Keyword(3)));
    }

    #[test]
    fn display_formats_sets() {
        let a = KeywordSet::from_ids([2, 1]);
        assert_eq!(a.to_string(), "{kw1, kw2}");
    }

    #[test]
    fn interner_assigns_stable_ids() {
        let mut interner = KeywordInterner::new();
        let movies = interner.intern("movies");
        let books = interner.intern("books");
        assert_ne!(movies, books);
        assert_eq!(interner.intern("movies"), movies);
        assert_eq!(interner.get("books"), Some(books));
        assert_eq!(interner.get("food"), None);
        assert_eq!(interner.name(movies), Some("movies"));
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn interner_set_builds_keyword_set() {
        let mut interner = KeywordInterner::new();
        let set = interner.intern_set(["movies", "books", "movies"]);
        assert_eq!(set.len(), 2);
    }
}
