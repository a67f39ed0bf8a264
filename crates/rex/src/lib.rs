//! `benchpark-rex` — a small regular-expression engine with named groups.
//!
//! Ramble extracts figures of merit (FOMs) and evaluates success criteria by
//! running regular expressions with *named capture groups* over experiment
//! output (paper Figure 8: `fom_regex=r'(?P<done>Kernel done)'`). The `regex`
//! crate is not part of this project's allowed dependency set, so this crate
//! implements the required engine from scratch:
//!
//! * literals, `.`, escapes (`\d \w \s \D \W \S \n \t \r` and escaped
//!   metacharacters),
//! * character classes `[a-z0-9_]` and negated classes `[^…]`, with ranges,
//! * greedy and lazy quantifiers `* + ? {m} {m,} {m,n}` (`*?` etc.), with
//!   counts up to 1000 as in RE2,
//! * alternation `|`, grouping `(…)`, non-capturing `(?:…)`,
//! * named groups `(?P<name>…)` (Python style, as the paper uses) and
//!   `(?<name>…)`,
//! * anchors `^` and `$`, and word boundary `\b`.
//!
//! The implementation compiles to a bytecode program executed by a Pike VM
//! (breadth-first NFA simulation with capture slots), so matching is
//! `O(len(pattern) · len(input))` — no catastrophic backtracking, which
//! matters when scanning large benchmark logs.
//!
//! # Example
//!
//! ```
//! use benchpark_rex::Regex;
//!
//! let re = Regex::new(r"Total time: (?P<time>\d+\.\d+) s").unwrap();
//! let caps = re.captures("Total time: 12.5 s").unwrap();
//! assert_eq!(caps.name("time").unwrap().text, "12.5");
//! ```

mod ast;
mod error;
mod prog;
mod vm;

pub use error::RexError;

use prog::Program;

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    program: Program,
}

/// A single matched span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match<'t> {
    /// Byte offset of the match start.
    pub start: usize,
    /// Byte offset one past the match end.
    pub end: usize,
    /// The matched text.
    pub text: &'t str,
}

/// The capture groups of one match. Group 0 is the whole match.
#[derive(Debug, Clone)]
pub struct Captures<'t> {
    haystack: &'t str,
    slots: Vec<Option<usize>>,
    names: Vec<(String, usize)>,
}

impl<'t> Captures<'t> {
    /// Returns capture group `idx` if it participated in the match.
    pub fn get(&self, idx: usize) -> Option<Match<'t>> {
        let start = self.slots.get(idx * 2).copied().flatten()?;
        let end = self.slots.get(idx * 2 + 1).copied().flatten()?;
        Some(Match {
            start,
            end,
            text: &self.haystack[start..end],
        })
    }

    /// Returns the named capture group `name` if it participated.
    pub fn name(&self, name: &str) -> Option<Match<'t>> {
        let idx = self
            .names
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, i)| *i)?;
        self.get(idx)
    }

    /// Names defined by the pattern, in definition order.
    pub fn group_names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|(n, _)| n.as_str())
    }

    /// Number of groups (including group 0).
    pub fn len(&self) -> usize {
        self.slots.len() / 2
    }

    /// Always false: group 0 exists.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl Regex {
    /// Compiles `pattern`.
    pub fn new(pattern: &str) -> Result<Regex, RexError> {
        let ast = ast::parse(pattern)?;
        let program = prog::compile(&ast)?;
        Ok(Regex {
            pattern: pattern.to_string(),
            program,
        })
    }

    /// The source pattern.
    pub fn as_str(&self) -> &str {
        &self.pattern
    }

    /// Names of capture groups defined in the pattern.
    pub fn capture_names(&self) -> impl Iterator<Item = &str> {
        self.program.names.iter().map(|(n, _)| n.as_str())
    }

    /// True if the pattern matches anywhere in `haystack`.
    pub fn is_match(&self, haystack: &str) -> bool {
        self.find(haystack).is_some()
    }

    /// Finds the leftmost match.
    pub fn find<'t>(&self, haystack: &'t str) -> Option<Match<'t>> {
        let slots = vm::search(&self.program, haystack, 0)?;
        let (start, end) = (slots[0]?, slots[1]?);
        Some(Match {
            start,
            end,
            text: &haystack[start..end],
        })
    }

    /// Finds the leftmost match and returns all capture groups.
    pub fn captures<'t>(&self, haystack: &'t str) -> Option<Captures<'t>> {
        let slots = vm::search(&self.program, haystack, 0)?;
        slots[0]?;
        Some(Captures {
            haystack,
            slots,
            names: self.program.names.clone(),
        })
    }

    /// Iterates over all non-overlapping matches, leftmost-first.
    pub fn find_iter<'r, 't>(&'r self, haystack: &'t str) -> FindIter<'r, 't> {
        FindIter {
            re: self,
            haystack,
            at: 0,
        }
    }

    /// Iterates over the captures of all non-overlapping matches.
    pub fn captures_iter<'r, 't>(&'r self, haystack: &'t str) -> CapturesIter<'r, 't> {
        CapturesIter {
            re: self,
            haystack,
            at: 0,
        }
    }
}

/// Iterator over non-overlapping matches.
pub struct FindIter<'r, 't> {
    re: &'r Regex,
    haystack: &'t str,
    at: usize,
}

impl<'t> Iterator for FindIter<'_, 't> {
    type Item = Match<'t>;

    fn next(&mut self) -> Option<Match<'t>> {
        if self.at > self.haystack.len() {
            return None;
        }
        let slots = vm::search(&self.re.program, self.haystack, self.at)?;
        let (start, end) = (slots[0]?, slots[1]?);
        self.at = bump(self.haystack, start, end);
        Some(Match {
            start,
            end,
            text: &self.haystack[start..end],
        })
    }
}

/// Iterator over captures of non-overlapping matches.
pub struct CapturesIter<'r, 't> {
    re: &'r Regex,
    haystack: &'t str,
    at: usize,
}

impl<'t> Iterator for CapturesIter<'_, 't> {
    type Item = Captures<'t>;

    fn next(&mut self) -> Option<Captures<'t>> {
        if self.at > self.haystack.len() {
            return None;
        }
        let slots = vm::search(&self.re.program, self.haystack, self.at)?;
        let (start, end) = (slots[0]?, slots[1]?);
        self.at = bump(self.haystack, start, end);
        Some(Captures {
            haystack: self.haystack,
            slots,
            names: self.re.program.names.clone(),
        })
    }
}

/// Advances past a match; empty matches advance by one character to guarantee
/// progress.
fn bump(haystack: &str, start: usize, end: usize) -> usize {
    if end > start {
        end
    } else {
        haystack[end..]
            .chars()
            .next()
            .map(|c| end + c.len_utf8())
            .unwrap_or(end + 1)
    }
}

#[cfg(test)]
mod tests;
