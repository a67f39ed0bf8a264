//! Compilation of the AST into Pike-VM bytecode.

use crate::ast::{Assertion, Ast, ClassSet, Parsed};
use crate::error::RexError;

/// Largest program [`compile`] emits. Counted repetitions copy their atom,
/// so nested ones multiply (`((a{1000}){1000}){1000}` would be 10⁹
/// instructions); a pattern past the cap is an error, as in RE2.
pub(crate) const MAX_INSTS: usize = 100_000;

/// One VM instruction.
#[derive(Debug, Clone)]
pub enum Inst {
    /// Match a single literal character, then advance.
    Char(char),
    /// Match any character except `\n`, then advance.
    Any,
    /// Match a character class, then advance.
    Class(ClassSet),
    /// Zero-width assertion.
    Assert(Assertion),
    /// Unconditional jump.
    Jmp(usize),
    /// Fork execution; the `first` branch has higher priority (greediness).
    Split { first: usize, second: usize },
    /// Record the current position in capture slot `slot`.
    Save(usize),
    /// Accept.
    Match,
}

/// A compiled program.
#[derive(Debug, Clone)]
pub struct Program {
    pub insts: Vec<Inst>,
    /// Number of capture slots (2 × group count).
    pub slot_count: usize,
    /// `(name, group index)` pairs.
    pub names: Vec<(String, usize)>,
    /// True if the pattern is anchored at the start (`^…`), which lets the
    /// search loop skip restarting at every offset.
    pub anchored_start: bool,
}

/// Compiles a parsed pattern.
///
/// The program begins with `Save(0)` and ends with `Save(1); Match`; the
/// search loop handles the unanchored-prefix scan itself. A program longer
/// than [`MAX_INSTS`] is an error.
pub fn compile(parsed: &Parsed) -> Result<Program, RexError> {
    let mut c = Compiler { insts: Vec::new() };
    c.push(Inst::Save(0));
    c.emit(&parsed.ast);
    if c.insts.len() > MAX_INSTS {
        return Err(RexError::new(
            0,
            format!("pattern compiles to more than {MAX_INSTS} instructions"),
        ));
    }
    c.push(Inst::Save(1));
    c.push(Inst::Match);
    Ok(Program {
        insts: c.insts,
        slot_count: parsed.group_count * 2,
        names: parsed.names.clone(),
        anchored_start: starts_anchored(&parsed.ast),
    })
}

fn starts_anchored(ast: &Ast) -> bool {
    match ast {
        Ast::Assert(Assertion::Start) => true,
        Ast::Concat(items) => items.first().is_some_and(starts_anchored),
        Ast::Group { inner, .. } | Ast::NonCapturing(inner) => starts_anchored(inner),
        Ast::Alt(branches) => branches.iter().all(starts_anchored),
        _ => false,
    }
}

struct Compiler {
    insts: Vec<Inst>,
}

impl Compiler {
    fn push(&mut self, inst: Inst) -> usize {
        self.insts.push(inst);
        self.insts.len() - 1
    }

    fn here(&self) -> usize {
        self.insts.len()
    }

    fn emit(&mut self, ast: &Ast) {
        if self.insts.len() > MAX_INSTS {
            return; // over the cap already: `compile` fails
        }
        match ast {
            Ast::Empty => {}
            Ast::Lit(c) => {
                self.push(Inst::Char(*c));
            }
            Ast::Dot => {
                self.push(Inst::Any);
            }
            Ast::Class(set) => {
                self.push(Inst::Class(set.clone()));
            }
            Ast::Assert(a) => {
                self.push(Inst::Assert(*a));
            }
            Ast::Concat(items) => {
                for item in items {
                    self.emit(item);
                }
            }
            Ast::Alt(branches) => self.emit_alt(branches),
            Ast::Repeat {
                inner,
                min,
                max,
                greedy,
            } => self.emit_repeat(inner, *min, *max, *greedy),
            Ast::Group { index, inner, .. } => {
                self.push(Inst::Save(index * 2));
                self.emit(inner);
                self.push(Inst::Save(index * 2 + 1));
            }
            Ast::NonCapturing(inner) => self.emit(inner),
        }
    }

    fn emit_alt(&mut self, branches: &[Ast]) {
        // split b1, (split b2, (… bn)); each branch jumps to the common end.
        let mut jmp_ends = Vec::new();
        let mut split_fixups = Vec::new();
        for (i, branch) in branches.iter().enumerate() {
            let last = i + 1 == branches.len();
            if !last {
                let split = self.push(Inst::Split {
                    first: 0,
                    second: 0,
                });
                split_fixups.push(split);
            }
            let branch_start = self.here();
            self.emit(branch);
            if !last {
                jmp_ends.push(self.push(Inst::Jmp(0)));
            }
            if !last {
                let split = split_fixups.last().copied().unwrap();
                if let Inst::Split { first, .. } = &mut self.insts[split] {
                    *first = branch_start;
                }
            }
            // fix the `second` of the split to point at the next branch start
            if !last {
                let next = self.here();
                let split = split_fixups.pop().unwrap();
                if let Inst::Split { second, .. } = &mut self.insts[split] {
                    *second = next;
                }
            }
        }
        let end = self.here();
        for jmp in jmp_ends {
            if let Inst::Jmp(target) = &mut self.insts[jmp] {
                *target = end;
            }
        }
    }

    fn emit_repeat(&mut self, inner: &Ast, min: u32, max: Option<u32>, greedy: bool) {
        // Mandatory copies.
        for _ in 0..min {
            self.emit(inner);
        }
        match max {
            Some(max) => {
                // Optional copies: (split body, end) × (max - min)
                let mut splits = Vec::new();
                for _ in min..max {
                    let split = self.push(Inst::Split {
                        first: 0,
                        second: 0,
                    });
                    splits.push(split);
                    let body = self.here();
                    self.emit(inner);
                    let split_idx = *splits.last().unwrap();
                    if let Inst::Split { first, .. } = &mut self.insts[split_idx] {
                        *first = body;
                    }
                }
                let end = self.here();
                for split in splits {
                    if let Inst::Split { first, second } = &mut self.insts[split] {
                        if greedy {
                            *second = end;
                        } else {
                            // lazy: prefer skipping the body
                            let body = *first;
                            *first = end;
                            *second = body;
                        }
                    }
                }
            }
            None => {
                // Unbounded tail: L: split body, end; body: inner; jmp L
                let split = self.push(Inst::Split {
                    first: 0,
                    second: 0,
                });
                let body = self.here();
                self.emit(inner);
                self.push(Inst::Jmp(split));
                let end = self.here();
                if let Inst::Split { first, second } = &mut self.insts[split] {
                    if greedy {
                        *first = body;
                        *second = end;
                    } else {
                        *first = end;
                        *second = body;
                    }
                }
            }
        }
    }
}
