//! Pattern parser producing an abstract syntax tree.

use crate::error::RexError;

/// Deepest group nesting a pattern may use. The parser and the compiler
/// recurse once per level, so an unbounded pattern from user YAML could
/// exhaust the stack and abort the process.
pub(crate) const MAX_DEPTH: usize = 128;

/// Largest count a `{m,n}` repetition may use, as in RE2. The compiler
/// emits one copy of the repeated atom per count.
pub(crate) const MAX_REPEAT: u32 = 1000;

/// A set of character ranges, possibly negated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSet {
    /// Inclusive `(lo, hi)` ranges, unsorted.
    pub ranges: Vec<(char, char)>,
    /// True for `[^…]`.
    pub negated: bool,
}

impl ClassSet {
    pub fn matches(&self, c: char) -> bool {
        let inside = self.ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
        inside != self.negated
    }

    fn digits() -> Self {
        ClassSet {
            ranges: vec![('0', '9')],
            negated: false,
        }
    }

    fn word() -> Self {
        ClassSet {
            ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
            negated: false,
        }
    }

    fn space() -> Self {
        ClassSet {
            ranges: vec![
                (' ', ' '),
                ('\t', '\t'),
                ('\n', '\n'),
                ('\r', '\r'),
                ('\x0b', '\x0c'),
            ],
            negated: false,
        }
    }

    fn negate(mut self) -> Self {
        self.negated = !self.negated;
        self
    }

    /// True if `c` is a word character (used for `\b`).
    pub fn is_word_char(c: char) -> bool {
        c.is_ascii_alphanumeric() || c == '_'
    }
}

/// Zero-width assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assertion {
    /// `^` — start of input (or after `\n`, but we implement start-of-input;
    /// Ramble applies patterns per line).
    Start,
    /// `$` — end of input.
    End,
    /// `\b` — word boundary.
    WordBoundary,
    /// `\B` — not a word boundary.
    NotWordBoundary,
}

/// Regular expression AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Ast {
    /// Matches the empty string.
    Empty,
    /// A single literal character.
    Lit(char),
    /// `.` — any character except `\n`.
    Dot,
    /// A character class.
    Class(ClassSet),
    /// Zero-width assertion.
    Assert(Assertion),
    /// Concatenation.
    Concat(Vec<Ast>),
    /// Alternation (`a|b|c`).
    Alt(Vec<Ast>),
    /// Repetition of the inner expression.
    Repeat {
        inner: Box<Ast>,
        min: u32,
        /// `None` means unbounded.
        max: Option<u32>,
        greedy: bool,
    },
    /// Capturing group (index 1..) with optional name.
    Group {
        index: usize,
        name: Option<String>,
        inner: Box<Ast>,
    },
    /// Non-capturing group.
    NonCapturing(Box<Ast>),
}

/// The result of parsing: the AST plus group metadata.
#[derive(Debug, Clone)]
pub struct Parsed {
    pub ast: Ast,
    /// Total number of capture groups, including group 0.
    pub group_count: usize,
    /// `(name, group_index)` in definition order.
    pub names: Vec<(String, usize)>,
}

/// Parses `pattern` into an AST.
pub fn parse(pattern: &str) -> Result<Parsed, RexError> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut parser = Parser {
        chars: &chars,
        pos: 0,
        next_group: 1,
        names: Vec::new(),
        depth: 0,
    };
    let ast = parser.parse_alt()?;
    if parser.pos != parser.chars.len() {
        return Err(RexError::new(
            parser.pos,
            format!("unexpected `{}`", parser.chars[parser.pos]),
        ));
    }
    Ok(Parsed {
        ast,
        group_count: parser.next_group,
        names: parser.names,
    })
}

struct Parser<'a> {
    chars: &'a [char],
    pos: usize,
    next_group: usize,
    names: Vec<(String, usize)>,
    /// Groups open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), RexError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(RexError::new(self.pos, format!("expected `{c}`")))
        }
    }

    /// alt := concat ('|' concat)*
    fn parse_alt(&mut self) -> Result<Ast, RexError> {
        let mut branches = vec![self.parse_concat()?];
        while self.eat('|') {
            branches.push(self.parse_concat()?);
        }
        if branches.len() == 1 {
            Ok(branches.pop().unwrap())
        } else {
            Ok(Ast::Alt(branches))
        }
    }

    /// concat := repeat*
    fn parse_concat(&mut self) -> Result<Ast, RexError> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.parse_repeat()?);
        }
        match items.len() {
            0 => Ok(Ast::Empty),
            1 => Ok(items.pop().unwrap()),
            _ => Ok(Ast::Concat(items)),
        }
    }

    /// repeat := atom ('*'|'+'|'?'|'{m,n}') '?'?
    fn parse_repeat(&mut self) -> Result<Ast, RexError> {
        let atom = self.parse_atom()?;
        let (min, max) = match self.peek() {
            Some('*') => {
                self.pos += 1;
                (0, None)
            }
            Some('+') => {
                self.pos += 1;
                (1, None)
            }
            Some('?') => {
                self.pos += 1;
                (0, Some(1))
            }
            Some('{') => {
                // `{` only begins a counted repetition if it looks like one;
                // otherwise it is a literal (Ramble templates contain `{var}`).
                if let Some(parsed) = self.try_parse_counted()? {
                    parsed
                } else {
                    return Ok(atom);
                }
            }
            _ => return Ok(atom),
        };
        if let Some(m) = max {
            if min > m {
                return Err(RexError::new(
                    self.pos,
                    format!("invalid repetition {{{min},{m}}}"),
                ));
            }
        }
        if zero_width(&atom) {
            return Err(RexError::new(
                self.pos,
                "cannot repeat a zero-width assertion",
            ));
        }
        let greedy = !self.eat('?');
        Ok(Ast::Repeat {
            inner: Box::new(atom),
            min,
            max,
            greedy,
        })
    }

    /// Attempts `{m}`, `{m,}`, `{m,n}`. Returns `Ok(None)` (without consuming)
    /// when the braces do not form a counted repetition.
    fn try_parse_counted(&mut self) -> Result<Option<(u32, Option<u32>)>, RexError> {
        let start = self.pos;
        debug_assert_eq!(self.peek(), Some('{'));
        self.pos += 1;
        let m = self.parse_number();
        let result = match (m, self.peek()) {
            (Some(m), Some('}')) => {
                self.pos += 1;
                Some((m, Some(m)))
            }
            (Some(m), Some(',')) => {
                self.pos += 1;
                let n = self.parse_number();
                if self.eat('}') {
                    Some((m, n))
                } else {
                    None
                }
            }
            _ => None,
        };
        match result {
            None => {
                self.pos = start; // rewind: `{` is a literal
                Ok(None)
            }
            Some((m, n)) if m.max(n.unwrap_or(0)) > MAX_REPEAT => Err(RexError::new(
                start,
                format!("repetition count above {MAX_REPEAT}"),
            )),
            Some(counted) => Ok(Some(counted)),
        }
    }

    /// A decimal count, saturating at `u32::MAX`.
    fn parse_number(&mut self) -> Option<u32> {
        let start = self.pos;
        let mut n = 0u32;
        while let Some(digit) = self.peek().and_then(|c| c.to_digit(10)) {
            n = n.saturating_mul(10).saturating_add(digit);
            self.pos += 1;
        }
        (self.pos > start).then_some(n)
    }

    /// atom := group | class | escape | anchor | literal
    fn parse_atom(&mut self) -> Result<Ast, RexError> {
        let c = self
            .bump()
            .ok_or_else(|| RexError::new(self.pos, "unexpected end of pattern"))?;
        match c {
            '(' => self.parse_group(),
            '[' => self.parse_class(),
            '\\' => self.parse_escape(),
            '.' => Ok(Ast::Dot),
            '^' => Ok(Ast::Assert(Assertion::Start)),
            '$' => Ok(Ast::Assert(Assertion::End)),
            '*' | '+' | '?' => Err(RexError::new(
                self.pos - 1,
                format!("dangling quantifier `{c}`"),
            )),
            ')' => Err(RexError::new(self.pos - 1, "unmatched `)`")),
            other => Ok(Ast::Lit(other)),
        }
    }

    fn parse_group(&mut self) -> Result<Ast, RexError> {
        if self.eat('?') {
            if self.eat(':') {
                let inner = self.parse_group_body()?;
                return Ok(Ast::NonCapturing(Box::new(inner)));
            }
            // (?P<name>…) or (?<name>…)
            let _ = self.eat('P');
            self.expect('<')?;
            let name_start = self.pos;
            while self
                .peek()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                self.pos += 1;
            }
            if self.pos == name_start {
                return Err(RexError::new(self.pos, "empty group name"));
            }
            let name: String = self.chars[name_start..self.pos].iter().collect();
            self.expect('>')?;
            if self.names.iter().any(|(n, _)| *n == name) {
                return Err(RexError::new(
                    name_start,
                    format!("duplicate group name `{name}`"),
                ));
            }
            let index = self.next_group;
            self.next_group += 1;
            self.names.push((name.clone(), index));
            let inner = self.parse_group_body()?;
            return Ok(Ast::Group {
                index,
                name: Some(name),
                inner: Box::new(inner),
            });
        }
        let index = self.next_group;
        self.next_group += 1;
        let inner = self.parse_group_body()?;
        Ok(Ast::Group {
            index,
            name: None,
            inner: Box::new(inner),
        })
    }

    /// group_body := alt ')', at most [`MAX_DEPTH`] groups deep.
    fn parse_group_body(&mut self) -> Result<Ast, RexError> {
        if self.depth == MAX_DEPTH {
            return Err(RexError::new(
                self.pos,
                format!("groups nested deeper than {MAX_DEPTH} levels"),
            ));
        }
        self.depth += 1;
        let inner = self.parse_alt()?;
        self.depth -= 1;
        self.expect(')')?;
        Ok(inner)
    }

    fn parse_class(&mut self) -> Result<Ast, RexError> {
        let negated = self.eat('^');
        let mut ranges: Vec<(char, char)> = Vec::new();
        let mut first = true;
        loop {
            let c = self
                .bump()
                .ok_or_else(|| RexError::new(self.pos, "unterminated character class"))?;
            let lo = match c {
                ']' if !first => break,
                ']' => ']', // `[]]` — first `]` is a literal
                '\\' => {
                    let e = self
                        .bump()
                        .ok_or_else(|| RexError::new(self.pos, "trailing backslash in class"))?;
                    match class_escape(e) {
                        ClassEscape::Set(set) => {
                            ranges.extend(expand_set(&set));
                            first = false;
                            continue;
                        }
                        ClassEscape::Char(c) => c,
                    }
                }
                other => other,
            };
            first = false;
            if self.peek() == Some('-') && self.chars.get(self.pos + 1).copied() != Some(']') {
                self.pos += 1; // consume '-'
                let hi = match self
                    .bump()
                    .ok_or_else(|| RexError::new(self.pos, "unterminated character class"))?
                {
                    '\\' => {
                        let e = self.bump().ok_or_else(|| {
                            RexError::new(self.pos, "trailing backslash in class")
                        })?;
                        match class_escape(e) {
                            ClassEscape::Char(c) => c,
                            ClassEscape::Set(_) => {
                                return Err(RexError::new(
                                    self.pos,
                                    "class escape cannot end a range",
                                ))
                            }
                        }
                    }
                    other => other,
                };
                if hi < lo {
                    return Err(RexError::new(
                        self.pos,
                        format!("invalid range `{lo}-{hi}`"),
                    ));
                }
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        Ok(Ast::Class(ClassSet { ranges, negated }))
    }

    fn parse_escape(&mut self) -> Result<Ast, RexError> {
        let c = self
            .bump()
            .ok_or_else(|| RexError::new(self.pos, "trailing backslash"))?;
        Ok(match c {
            'd' => Ast::Class(ClassSet::digits()),
            'D' => Ast::Class(ClassSet::digits().negate()),
            'w' => Ast::Class(ClassSet::word()),
            'W' => Ast::Class(ClassSet::word().negate()),
            's' => Ast::Class(ClassSet::space()),
            'S' => Ast::Class(ClassSet::space().negate()),
            'b' => Ast::Assert(Assertion::WordBoundary),
            'B' => Ast::Assert(Assertion::NotWordBoundary),
            'n' => Ast::Lit('\n'),
            't' => Ast::Lit('\t'),
            'r' => Ast::Lit('\r'),
            '0' => Ast::Lit('\0'),
            other if other.is_ascii_alphanumeric() => {
                return Err(RexError::new(
                    self.pos - 1,
                    format!("unknown escape `\\{other}`"),
                ))
            }
            other => Ast::Lit(other),
        })
    }
}

enum ClassEscape {
    Set(ClassSet),
    Char(char),
}

fn class_escape(c: char) -> ClassEscape {
    match c {
        'd' => ClassEscape::Set(ClassSet::digits()),
        'w' => ClassEscape::Set(ClassSet::word()),
        's' => ClassEscape::Set(ClassSet::space()),
        'n' => ClassEscape::Char('\n'),
        't' => ClassEscape::Char('\t'),
        'r' => ClassEscape::Char('\r'),
        other => ClassEscape::Char(other),
    }
}

fn expand_set(set: &ClassSet) -> Vec<(char, char)> {
    // Only non-negated shorthand sets appear inside classes.
    set.ranges.clone()
}

/// True if the AST can only match the empty string (pure assertions), which
/// makes repetition meaningless.
fn zero_width(ast: &Ast) -> bool {
    match ast {
        Ast::Assert(_) | Ast::Empty => true,
        Ast::NonCapturing(inner) | Ast::Group { inner, .. } => zero_width(inner),
        _ => false,
    }
}
