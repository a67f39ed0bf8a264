//! [`VarMap`]: the compact, immutable variables map an
//! [`crate::ExperimentResult`] carries.
//!
//! Results are long-lived — the fingerprint index keeps one per fresh
//! experiment — and each holds a couple of dozen short `name → value`
//! strings. A `BTreeMap<String, String>` spends two allocations per entry
//! plus its tree nodes on them; a `VarMap` stores every key and value in
//! one text buffer, with one array of end offsets, sorted by key.

use std::fmt;
use std::ops::Index;

/// An immutable `String → String` map sorted by key, stored as one text
/// buffer plus offsets. Iteration is in ascending key order, as a
/// `BTreeMap`'s is, so emitters keep their output bytes.
///
/// Build one with [`FromIterator`] (`pairs.collect()`); a key that occurs
/// more than once keeps its last value, as `BTreeMap` collection does.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct VarMap {
    /// `key0 value0 key1 value1 …`, concatenated without separators.
    text: Box<str>,
    /// End offsets into `text`: entry `i`'s key ends at `ends[2i]` and its
    /// value at `ends[2i + 1]`; each piece starts where the previous ended.
    ends: Box<[usize]>,
}

impl VarMap {
    fn len(&self) -> usize {
        self.ends.len() / 2
    }

    /// The text between the end of piece `piece - 1` and the end of `piece`.
    fn piece(&self, piece: usize) -> &str {
        let start = match piece {
            0 => 0,
            _ => self.ends[piece - 1],
        };
        &self.text[start..self.ends[piece]]
    }

    fn entry(&self, i: usize) -> (&str, &str) {
        (self.piece(2 * i), self.piece(2 * i + 1))
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.piece(2 * mid).cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(self.piece(2 * mid + 1)),
            }
        }
        None
    }

    /// `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            map: self,
            entries: 0..self.len(),
        }
    }
}

impl<K: AsRef<str>, V: AsRef<str>> FromIterator<(K, V)> for VarMap {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(pairs: I) -> VarMap {
        let mut pairs: Vec<(K, V)> = pairs.into_iter().collect();
        // stable: equal keys keep their arrival order, so the last of a run
        // is the last one inserted
        pairs.sort_by(|a, b| a.0.as_ref().cmp(b.0.as_ref()));
        let mut kept: Vec<&(K, V)> = Vec::with_capacity(pairs.len());
        for pair in &pairs {
            match kept.last_mut() {
                Some(last) if last.0.as_ref() == pair.0.as_ref() => *last = pair,
                _ => kept.push(pair),
            }
        }
        let size = kept
            .iter()
            .map(|(k, v)| k.as_ref().len() + v.as_ref().len())
            .sum();
        let mut text = String::with_capacity(size);
        let mut ends = Vec::with_capacity(2 * kept.len());
        for (key, value) in kept {
            for piece in [key.as_ref(), value.as_ref()] {
                text.push_str(piece);
                ends.push(text.len());
            }
        }
        VarMap {
            text: text.into_boxed_str(),
            ends: ends.into_boxed_slice(),
        }
    }
}

impl<K: AsRef<str>, V: AsRef<str>, const N: usize> From<[(K, V); N]> for VarMap {
    fn from(pairs: [(K, V); N]) -> VarMap {
        pairs.into_iter().collect()
    }
}

impl Index<&str> for VarMap {
    type Output = str;

    /// The value under `key`; panics when absent, as `BTreeMap` indexing
    /// does.
    fn index(&self, key: &str) -> &str {
        self.get(key)
            .unwrap_or_else(|| panic!("no variable named {key:?}"))
    }
}

impl fmt::Debug for VarMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Key-ordered iterator over a [`VarMap`]'s `(key, value)` pairs.
pub struct Iter<'a> {
    map: &'a VarMap,
    entries: std::ops::Range<usize>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<(&'a str, &'a str)> {
        self.entries.next().map(|i| self.map.entry(i))
    }
}

impl<'a> IntoIterator for &'a VarMap {
    type Item = (&'a str, &'a str);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}
